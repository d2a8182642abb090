"""Acceptance gate: every shipped guarantee, one test and one printed line each.

Each test prints ``[PASS|FAIL] <guarantee>: <measured values>`` so a run log
shows the observed numbers next to their thresholds, then asserts.
"""

import json
import struct
import time

import numpy as np
import pytest
import scipy.signal

from emgkin import dsp, krr
from emgkin.cli import _summary_csv
from emgkin.config import PipelineConfig, StageConfig
from emgkin.errors import CorruptCheckpointError, UnsupportedVersionError
from emgkin.evaluation import (
    compare_matrix_modes,
    r_squared,
    split_session,
    sweep_timesteps,
)
from emgkin.io import load_model, save_model
from emgkin.lstm import init_lstm_params, lstm_backward, lstm_forward_batch
from emgkin.nn import (
    BatchNorm,
    CnnModel,
    Conv1d,
    Dense,
    Dropout,
    LeakyRelu,
    MaxPool1d,
    mse_loss,
)
from emgkin.synth import SynthConfig, generate
from emgkin.training import predict


def _record(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


# --------------------------------------------------------------------------
# shared cheap-training fixtures for the sweep and matrix-mode runs


def _sweep_config() -> PipelineConfig:
    return PipelineConfig(
        seed=3,
        cnn=StageConfig(epochs=1, lr0=1e-4),
        lstm=StageConfig(epochs=2, lr0=1e-3),
    )


@pytest.fixture(scope="module")
def sweep_serial(p1_short):
    return sweep_timesteps(_sweep_config(), p1_short, ks=(8, 18, 58, 98))


@pytest.fixture(scope="module")
def sweep_subset(p1_short):
    return sweep_timesteps(_sweep_config(), p1_short, ks=(8, 18))


@pytest.fixture(scope="module")
def mode_reports(p1_short):
    return compare_matrix_modes(_sweep_config(), p1_short)


# --------------------------------------------------------------------------
# 1. gradient suite


def _numeric_grad(loss_fn, arr, eps=1e-6):
    grad = np.zeros(arr.shape, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + eps
        hi = loss_fn()
        flat[idx] = orig - eps
        lo = loss_fn()
        flat[idx] = orig
        gflat[idx] = (hi - lo) / (2.0 * eps)
    return grad


def _rel_err(numeric: np.ndarray, analytic: np.ndarray) -> float:
    num = np.abs(numeric - analytic)
    den = np.maximum(np.abs(numeric) + np.abs(analytic), 1e-6)
    return float((num / den).max())


def test_01_every_layer_gradient_matches_finite_differences():
    start = time.perf_counter()
    errs: dict[str, float] = {}
    rng = np.random.default_rng(7)

    # conv: dx, dW, db against a fixed random readout
    conv = Conv1d(3, 4, rng, slope=0.1, dtype=np.float64)
    x = rng.normal(size=(2, 10, 3))
    r = rng.normal(size=(2, 10, 4))
    conv.forward(x, "train")
    dx = conv.backward(r)

    def conv_loss():
        return float(np.sum(r * conv.forward(x, "train")))

    errs["conv.x"] = _rel_err(_numeric_grad(conv_loss, x), dx)
    errs["conv.W"] = _rel_err(_numeric_grad(conv_loss, conv.W), conv.dW)
    errs["conv.b"] = _rel_err(_numeric_grad(conv_loss, conv.b), conv.db)

    # batch norm (train mode, batch statistics)
    bn = BatchNorm(3, dtype=np.float64)
    bn.gamma[:] = rng.normal(1.0, 0.2, 3)
    bn.beta[:] = rng.normal(0.0, 0.2, 3)
    xb = rng.normal(size=(6, 5, 3))
    rb = rng.normal(size=(6, 5, 3))
    bn.forward(xb, "train")
    dxb = bn.backward(rb)

    def bn_loss():
        return float(np.sum(rb * bn.forward(xb, "train")))

    errs["batchnorm.x"] = _rel_err(_numeric_grad(bn_loss, xb), dxb)
    errs["batchnorm.gamma"] = _rel_err(
        _numeric_grad(bn_loss, bn.gamma), bn.dgamma
    )
    errs["batchnorm.beta"] = _rel_err(_numeric_grad(bn_loss, bn.beta), bn.dbeta)

    # leaky ReLU, sampled away from the kink at 0
    relu = LeakyRelu(slope=0.1)
    xr = rng.normal(size=(4, 7, 2))
    xr[np.abs(xr) < 1e-3] = 0.5
    rr = rng.normal(size=(4, 7, 2))
    relu.forward(xr, "train")
    dxr = relu.backward(rr)

    def relu_loss():
        return float(np.sum(rr * relu.forward(xr, "train")))

    errs["leaky_relu.x"] = _rel_err(_numeric_grad(relu_loss, xr), dxr)

    # max pool on tie-free data (distinct values, gaps >> fd step)
    pool = MaxPool1d()
    xp = rng.permutation(2 * 11 * 3).astype(np.float64).reshape(2, 11, 3) * 0.01
    rp = rng.normal(size=(2, 9, 3))
    pool.forward(xp, "train")
    dxp = pool.backward(rp)

    def pool_loss():
        return float(np.sum(rp * pool.forward(xp, "train")))

    errs["maxpool.x"] = _rel_err(_numeric_grad(pool_loss, xp), dxp)

    # dropout with the rate at 0 (identity path, train mode)
    drop = Dropout(0.0, np.random.default_rng(0))
    xd = rng.normal(size=(3, 5, 4))
    rd = rng.normal(size=(3, 5, 4))
    drop.forward(xd, "train")
    dxd = drop.backward(rd)

    def drop_loss():
        return float(np.sum(rd * drop.forward(xd, "train")))

    errs["dropout.x"] = _rel_err(_numeric_grad(drop_loss, xd), dxd)

    # fully connected
    fc = Dense(10, 4, rng, dtype=np.float64)
    xf = rng.normal(size=(3, 10))
    rf = rng.normal(size=(3, 4))
    fc.forward(xf, "train")
    dxf = fc.backward(rf)

    def fc_loss():
        return float(np.sum(rf * fc.forward(xf, "train")))

    errs["fc.x"] = _rel_err(_numeric_grad(fc_loss, xf), dxf)
    errs["fc.W"] = _rel_err(_numeric_grad(fc_loss, fc.W), fc.dW)
    errs["fc.b"] = _rel_err(_numeric_grad(fc_loss, fc.b), fc.db)

    # MSE loss gradient
    pred = rng.normal(size=(5, 3))
    target = rng.normal(size=(5, 3))
    _, dpred = mse_loss(pred, target)

    def mse_value():
        return mse_loss(pred, target)[0]

    errs["mse.pred"] = _rel_err(_numeric_grad(mse_value, pred), dpred)

    # LSTM backpropagation through time, k=4 <= 5
    params = init_lstm_params(
        feature_dim=3, hidden=4, n_outputs=2, seed=9, dtype=np.float64
    )
    params.b[4:8] = 0.3  # move the forget gate off its saturating init
    seqs = rng.normal(size=(3, 4, 3))
    dy = rng.normal(size=(3, 2))
    _, cache = lstm_forward_batch(params, seqs, mode="eval")
    grads = lstm_backward(params, cache, dy)

    def lstm_loss():
        y, _ = lstm_forward_batch(params, seqs, mode="eval")
        return float(np.sum(dy * y))

    for name, arr in params.parameters().items():
        errs[f"lstm.{name}"] = _rel_err(_numeric_grad(lstm_loss, arr), grads[name])

    elapsed = time.perf_counter() - start
    worst_name = max(errs, key=errs.get)
    worst = errs[worst_name]
    ok = worst < 1e-4 and elapsed < 60.0
    _record(
        "gradient suite",
        ok,
        f"max rel err {worst:.2e} at {worst_name} (< 1e-4), "
        f"{len(errs)} checks in {elapsed:.1f}s (< 60s)",
    )


# --------------------------------------------------------------------------
# 2. variance-ratio metric identities


def test_02_metric_identities_within_1e_12():
    rng = np.random.default_rng(5)
    alpha = rng.normal(0.0, 12.0, 400)
    y = alpha + rng.normal(0.0, 2.0, 400)

    deviations = {
        "perfect": abs(r_squared(alpha, alpha) - 1.0),
        "constant": abs(r_squared(alpha, np.full_like(alpha, 3.7)) - 0.0),
        "offset": abs(r_squared(alpha, alpha + 5.0) - 1.0),
    }
    base = r_squared(alpha, y)
    for a, b in ((2.0, 0.0), (-1.5, 3.0), (0.1, -7.0)):
        deviations[f"affine({a},{b})"] = abs(
            r_squared(a * alpha + b, a * y + b) - base
        )
    worst_name = max(deviations, key=deviations.get)
    worst = deviations[worst_name]
    ok = worst <= 1e-12
    _record(
        "metric identities",
        ok,
        f"max deviation {worst:.2e} at {worst_name} (<= 1e-12)",
    )


# --------------------------------------------------------------------------
# 3. filter-chain frequency response


def _chain_gain_db(freqs_hz, fs: float = 1024.0) -> np.ndarray:
    sos = np.vstack(dsp.standard_chain(fs))
    w = 2.0 * np.pi * np.asarray(freqs_hz, dtype=np.float64) / fs
    _, h = scipy.signal.sosfreqz(sos, worN=w)
    return 20.0 * np.log10(np.abs(h))


def test_03_filter_chain_frequency_response():
    fs = 1024.0
    g20, g450, g50, g100 = _chain_gain_db([20.0, 450.0, 50.0, 100.0], fs)
    sos = np.vstack(dsp.standard_chain(fs))
    _, h0 = scipy.signal.sosfreqz(sos, worN=[0.0])
    dc = float(np.abs(h0[0]))

    checks = {
        "20 Hz edge": abs(g20 - (-3.0103)) <= 0.5,
        "450 Hz edge": abs(g450 - (-3.0103)) <= 0.5,
        "50 Hz notch": g50 <= -20.0,
        "DC": dc < 1e-3,
        "100 Hz passband": abs(g100) <= 1.0,
    }
    ok = all(checks.values())
    _record(
        "filter responses",
        ok,
        f"20Hz {g20:+.2f} dB, 450Hz {g450:+.2f} dB (both -3.01±0.5), "
        f"50Hz {g50:+.1f} dB (<= -20), |H(0)| {dc:.1e} (< 1e-3), "
        f"100Hz {g100:+.3f} dB (|.| <= 1)",
    )


# --------------------------------------------------------------------------
# 4. shape audit


def test_04_shape_audit():
    rec = generate(SynthConfig(protocol="P1", duration_s=3.0, seed=11))
    filtered = dsp.apply_filter_chain(rec)
    normed = dsp.apply_normalizer(dsp.fit_normalizer(filtered), filtered)
    windows, _, _ = dsp.segment_windows(normed)
    matrices = [dsp.build_matrix(w, "spectral") for w in windows[:4]]
    x = np.concatenate(matrices)

    model = CnnModel(input_len=101, in_channels=6, n_outputs=1, seed=0)
    lengths = model.block_lengths()
    features = model.extract(x)

    ok = (
        all(m.shape == (1, 101, 6) for m in matrices)
        and lengths == [101, 99, 97, 95, 93]
        and features.shape == (4, 20)
    )
    _record(
        "shape audit",
        ok,
        f"matrix {matrices[0].shape} (want (1, 101, 6)), "
        f"length chain {lengths}, feature dim {features.shape[1]} (want 20)",
    )


# --------------------------------------------------------------------------
# 5.-7. end-to-end synthetic accuracy


def test_05_p1_intra_session_accuracy(desk_p1_reports):
    by_model = {r.model: r for r in desk_p1_reports}
    hybrid = by_model["cnn-lstm"].r2_of("fe")
    cnn_only = by_model["cnn"].r2_of("fe")
    total_runtime = sum(r.runtime_s for r in desk_p1_reports)
    ok = hybrid >= 0.8 and hybrid >= cnn_only and total_runtime <= 600.0
    _record(
        "P1 intra-session",
        ok,
        f"cnn-lstm R2 {hybrid:.4f} (>= 0.8), cnn-only R2 {cnn_only:.4f} "
        f"(hybrid >= cnn-only: {hybrid >= cnn_only}), "
        f"runtime {total_runtime:.1f}s (<= 600s)",
    )


def test_06_p4_intra_session_per_dof_ordering(desk_p4_reports):
    by_model = {r.model: r for r in desk_p4_reports}
    pairs = {
        name: (by_model["cnn-lstm"].r2_of(name), by_model["cnn"].r2_of(name))
        for name in ("fe", "ps", "ru")
    }
    ok = all(hybrid >= cnn for hybrid, cnn in pairs.values())
    detail = ", ".join(
        f"{name}: cnn-lstm {h:.4f} vs cnn {c:.4f}" for name, (h, c) in pairs.items()
    )
    _record("P4 per-DoF ordering", ok, detail)


def test_07_inter_session_pair_reports(desk_inter_reports, desk_p1_reports):
    models = [r.model for r in desk_inter_reports]
    scores = {r.model: r.r2_of("fe") for r in desk_inter_reports}
    finite = all(np.isfinite(v) for v in scores.values())
    intra = next(r for r in desk_p1_reports if r.model == "cnn-lstm").r2_of("fe")
    inter = scores.get("cnn-lstm", float("nan"))
    ordering = intra >= inter  # domain-shift sanity; soft, reported not gated
    ok = models == ["cnn-lstm", "cnn", "krr"] and finite
    _record(
        "inter-session pair",
        ok,
        f"reports {models}, R2 "
        + ", ".join(f"{m} {v:.4f}" for m, v in scores.items())
        + f"; soft check intra {intra:.4f} >= inter {inter:.4f}: {ordering}",
    )


# --------------------------------------------------------------------------
# 8.-9. sweeps


def test_08_k_sweep_counts_and_summary(sweep_serial, p1_short):
    _, test_raw = split_session(p1_short)
    m = (test_raw.emg.shape[0] - dsp.WINDOW_SAMPLES) // dsp.HOP_SAMPLES + 1
    ks = (8, 18, 58, 98)
    counts = {k: len(r.timestamps) for k, r in zip(ks, sweep_serial)}
    counts_ok = all(counts[k] == m - k + 1 for k in ks)

    summary = _summary_csv([f"k{r.k}" for r in sweep_serial], sweep_serial)
    lines = summary.splitlines()
    summary_ok = (
        lines[0].startswith("variant,k,matrix_mode")
        and [line.split(",")[0] for line in lines[1:]] == ["k8", "k18", "k58", "k98"]
    )
    ok = counts_ok and summary_ok
    _record(
        "k sweep",
        ok,
        f"test windows M={m}, sequence counts "
        + ", ".join(f"k={k}: {counts[k]} (want {m - k + 1})" for k in ks)
        + f"; summary rows {len(lines) - 1}",
    )


def test_09_matrix_mode_paired_reports(mode_reports):
    modes = [r.matrix_mode for r in mode_reports]
    lens = [r.input_len for r in mode_reports]
    scores = {r.matrix_mode: r.r2_of("fe") for r in mode_reports}
    ok = modes == ["spectral", "temporal"] and lens == [101, 102]
    _record(
        "matrix-mode comparison",
        ok,
        f"paired reports {modes} with input lengths {lens}; soft ordering "
        f"spectral {scores['spectral']:.4f} vs temporal {scores['temporal']:.4f}",
    )


# --------------------------------------------------------------------------
# 10. determinism


def test_10_determinism(desk_tiny_runs, sweep_serial, sweep_subset, tmp_path):
    run_a, run_b = desk_tiny_runs
    path_a = save_model(run_a.model, tmp_path / "a.ckpt")
    path_b = save_model(run_b.model, tmp_path / "b.ckpt")
    bitwise = path_a.read_bytes() == path_b.read_bytes()

    subset_matches = all(
        np.array_equal(serial.predictions, subset.predictions)
        and serial.dof == subset.dof
        for serial, subset in zip(sweep_serial[:2], sweep_subset)
    )
    max_r2_diff = max(
        abs(s.r2_of("fe") - t.r2_of("fe"))
        for s, t in zip(sweep_serial[:2], sweep_subset)
    )
    ok = bitwise and subset_matches and max_r2_diff <= 1e-5
    _record(
        "determinism",
        ok,
        f"repeat-run checkpoints byte-identical: {bitwise}; k=8,18 sweep "
        f"predictions bitwise-equal to the 4-k sweep's: {subset_matches} "
        f"(max R2 diff {max_r2_diff:.1e} <= 1e-5)",
    )


# --------------------------------------------------------------------------
# 11. kernel ridge baseline


def test_11_krr_baseline(desk_p1_reports):
    rng = np.random.default_rng(13)
    x = rng.normal(size=(10, 3))
    y = np.column_stack([np.sin(x[:, 0]) + x[:, 1], x[:, 2] ** 2])
    exact = krr.fit(x, y, gamma=0.7, ridge=0.0)
    interp_err = float(np.max(np.abs(krr.predict(exact, x) - y)))

    path = []
    for ridge in (0.0, 1e-6, 1e-4, 1e-2, 1.0, 100.0):
        model = krr.fit(x, y, gamma=0.7, ridge=ridge)
        path.append(float(np.mean((krr.predict(model, x) - y) ** 2)))
    monotone = all(b >= a - 1e-12 for a, b in zip(path, path[1:]))

    p1_r2 = next(r for r in desk_p1_reports if r.model == "krr").r2_of("fe")
    ok = interp_err < 1e-6 and monotone and p1_r2 > 0.5
    _record(
        "KRR baseline",
        ok,
        f"10-point interpolation err {interp_err:.1e} (< 1e-6), "
        f"training-error path monotone: {monotone}, "
        f"synthetic P1 R2 {p1_r2:.4f} (> 0.5)",
    )


# --------------------------------------------------------------------------
# 12. checkpoint round-trip and rejection


def test_12_checkpoint_round_trip_and_rejection(
    desk_tiny_runs, tiny_session, tmp_path
):
    model = desk_tiny_runs[0].model
    path = save_model(model, tmp_path / "model.ckpt")
    loaded = load_model(path)
    before = predict(model, tiny_session).predictions
    after = predict(loaded, tiny_session).predictions
    round_trip = np.array_equal(before, after)

    raw = path.read_bytes()
    rejected = {}

    def expect(name, blob, exc_type):
        bad = tmp_path / f"{name}.ckpt"
        bad.write_bytes(blob)
        try:
            load_model(bad)
        except exc_type as exc:
            rejected[name] = exc.field
        else:  # pragma: no cover - the gate should never reach this
            rejected[name] = None

    expect("truncated", raw[:-10], CorruptCheckpointError)
    expect("magic", b"XXXX" + raw[4:], CorruptCheckpointError)
    expect(
        "version",
        raw[:4] + struct.pack("<I", 99) + raw[8:],
        UnsupportedVersionError,
    )
    (header_len,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + header_len])
    header.pop("k")
    encoded = json.dumps(header).encode()
    expect(
        "missing-k",
        raw[:8] + struct.pack("<I", len(encoded)) + encoded + raw[12 + header_len :],
        CorruptCheckpointError,
    )

    expected_fields = {
        "truncated": "blob",
        "magic": "magic",
        "version": "version",
        "missing-k": "k",
    }
    ok = round_trip and rejected == expected_fields
    _record(
        "checkpoint round-trip",
        ok,
        f"predictions bit-identical after save/load: {round_trip}; "
        f"rejections by named field: {rejected}",
    )
