"""Preprocessing chain: filter responses, scaling, windowing, input matrices.

The frequency-response values asserted here are computed from the transfer
function of the designed biquad cascade, independently of the time-domain
implementation that the pipeline actually runs.
"""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal

from emgkin import dsp, io
from emgkin.errors import (
    DataError,
    DegenerateChannelError,
    FilterDesignError,
    InsufficientDataError,
)
from emgkin.synth import SynthConfig, generate
from conftest import traced_peak

FS = 1024.0


def chain_gain_db(freq_hz: float) -> float:
    sos = np.vstack(dsp.standard_chain(FS))
    _, h = signal.sosfreqz(sos, worN=[freq_hz], fs=FS)
    mag = abs(h[0])
    return -np.inf if mag == 0.0 else 20.0 * np.log10(mag)


def make_recording(
    emg: np.ndarray, protocol: str = "P1", fs: float = FS
) -> dsp.SemgRecording:
    n = len(emg)
    t_emg = np.arange(n) / fs
    n_ang = int(n / fs * 100.0)
    t_ang = np.arange(n_ang) / 100.0
    n_dof = len(dsp.PROTOCOL_DOFS[protocol])
    angles = np.zeros((n_ang, n_dof))
    return dsp.SemgRecording(emg, t_emg, angles, t_ang, protocol, fs_emg=fs)


# --- frequency response -----------------------------------------------------


def test_highpass_cutoff_minus_3db():
    assert chain_gain_db(20.0) == pytest.approx(-3.01, abs=0.5)


def test_lowpass_cutoff_minus_3db():
    assert chain_gain_db(450.0) == pytest.approx(-3.01, abs=0.5)


def test_notch_depth_at_mains():
    assert chain_gain_db(50.0) <= -20.0


def test_dc_fully_rejected():
    sos = np.vstack(dsp.standard_chain(FS))
    _, h = signal.sosfreqz(sos, worN=[0.0], fs=FS)
    assert abs(h[0]) < 1e-3


def test_passband_flat_at_100hz():
    assert abs(chain_gain_db(100.0)) < 1.0


def test_passband_flat_across_band():
    # away from the three corner frequencies the chain should be transparent
    for f in (80.0, 150.0, 200.0, 300.0):
        assert abs(chain_gain_db(f)) < 1.0


def test_notch_is_narrow():
    # 2 Hz bandwidth: 5 Hz off-center the chain is back near unity
    assert abs(chain_gain_db(45.0)) < 1.0
    assert abs(chain_gain_db(55.0)) < 1.0


def test_design_rejects_cutoff_beyond_nyquist():
    # 800 Hz puts the 450 Hz low-pass beyond Nyquist; NaN compares false,
    # and an infinite rate is no rate to design at.
    with pytest.raises(FilterDesignError):
        dsp.standard_chain(800.0)
    with pytest.raises(FilterDesignError):
        dsp.standard_chain(float("nan"))
    with pytest.raises(FilterDesignError):
        dsp.standard_chain(float("inf"))


def reference_chain(fs: float) -> list[np.ndarray]:
    """The chain as the earlier per-stage filter design built it (a kind,
    order and corner per stage), kept to pin standard_chain's arguments."""

    def design(kind: str, order: int, freq_hz: float) -> np.ndarray:
        if kind == "notch":
            b, a = signal.iirnotch(freq_hz, freq_hz / 2.0, fs=fs)
            return signal.tf2sos(b, a)
        btype = "highpass" if kind == "butter_high" else "lowpass"
        return signal.butter(order, freq_hz, btype=btype, fs=fs, output="sos")

    return [
        design("butter_high", 3, 20.0),
        design("butter_low", 3, 450.0),
        design("notch", 2, 50.0),
    ]


@pytest.mark.parametrize("fs", [1024.0, 2048.0])
def test_standard_chain_matches_per_stage_reference_bytes(fs):
    chain = dsp.standard_chain(fs)
    reference = reference_chain(fs)
    assert len(chain) == len(reference)
    for sos, ref in zip(chain, reference):
        assert sos.dtype == ref.dtype and sos.shape == ref.shape
        assert sos.tobytes() == ref.tobytes()


@pytest.mark.parametrize("fs_emg", [float("nan"), 900.0, float("inf")])
def test_recording_rejects_rate_at_or_below_nyquist(fs_emg):
    rec = make_recording(np.zeros((2048, 6)))
    with pytest.raises(DataError, match="Nyquist"):
        replace(rec, fs_emg=fs_emg)


@pytest.mark.parametrize("field", ["fs_emg", "fs_ang"])
def test_recording_rejects_timestamps_that_contradict_its_rate(field):
    """A rate twice what the timestamps give would cut 200 ms windows where
    the recipe asks for 100 ms; every recording refuses it, not only one
    read from files."""
    rec = generate(SynthConfig(protocol="P1", duration_s=2.0, seed=1))
    with pytest.raises(DataError, match="deviates"):
        replace(rec, **{field: 2 * getattr(rec, field)})


@pytest.mark.parametrize("field", ["t_emg", "t_ang"])
@pytest.mark.parametrize("fault, row", [("swap", 4), ("repeat", 6)])
def test_recording_names_the_first_row_whose_timestamp_does_not_increase(field, fault, row):
    """Samples 2 and 3 swapped, or sample 5 stamped as sample 4: the refusal
    names the first offending sample as a session CSV counts its data rows."""
    rec = generate(SynthConfig(protocol="P1", duration_s=2.0, seed=1))
    t = getattr(rec, field).copy()
    if fault == "swap":
        t[[2, 3]] = t[[3, 2]]
    else:
        t[5] = t[4]
    with pytest.raises(DataError, match=f"{field} not strictly increasing at data row {row}$"):
        replace(rec, **{field: t})


@pytest.mark.parametrize("session_id", ["", 7, None])
def test_recording_refuses_a_session_id_that_is_not_a_non_empty_string(session_id):
    """The id names the session in paths and messages, and meta.json's rule
    is this one: so ``save_session`` cannot write a session that
    ``load_session`` refuses."""
    rec = make_recording(np.random.default_rng(2).normal(size=(2048, 6)))
    with pytest.raises(DataError, match="session_id must be a non-empty string"):
        replace(rec, session_id=session_id)


def test_designed_sections_are_stable():
    for sos in dsp.standard_chain(FS):
        for section in sos:
            assert np.all(np.abs(np.roots(section[3:])) < 1.0)


# --- time-domain filtering --------------------------------------------------


def test_filter_chain_is_causal():
    # impulse at sample 2000: output must be exactly zero before it
    emg = np.zeros((4096, 6))
    emg[2000, :] = 1.0
    out = dsp.apply_filter_chain(make_recording(emg))
    assert np.all(out.emg[:2000] == 0.0)
    assert np.any(out.emg[2000:] != 0.0)


def test_filter_chain_removes_dc_and_mains():
    rng = np.random.default_rng(0)
    t = np.arange(8192) / FS
    base = rng.standard_normal((8192, 6))
    emg = base + 5.0 + 3.0 * np.sin(2 * np.pi * 50.0 * t)[:, None]
    out = dsp.apply_filter_chain(make_recording(emg)).emg
    settled = out[2048:]
    assert abs(settled.mean()) < 0.05
    # project the settled output onto the 50 Hz quadrature pair
    ts = t[2048:]
    for ch in range(6):
        c = np.cos(2 * np.pi * 50.0 * ts) @ settled[:, ch] * 2 / len(ts)
        s = np.sin(2 * np.pi * 50.0 * ts) @ settled[:, ch] * 2 / len(ts)
        assert np.hypot(c, s) < 0.3  # 3.0 amplitude in -> >20 dB down


def test_filter_chain_rejects_nonfinite():
    emg = np.zeros((2048, 6))
    emg[100, 2] = np.nan
    with pytest.raises(DataError):
        dsp.apply_filter_chain(make_recording(emg))


def chain_reference(emg: np.ndarray) -> np.ndarray:
    """The chain as one ``sosfilt`` call per stage over the whole recording."""
    for sos in dsp.standard_chain(FS):
        emg = signal.sosfilt(sos, emg, axis=0)
    return emg


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize(
    "n",
    [dsp.FILTER_BLOCK - 1, dsp.FILTER_BLOCK, dsp.FILTER_BLOCK + 1, 3 * dsp.FILTER_BLOCK + 7],
)
def test_blocked_chain_matches_one_pass_per_stage(n, order):
    """Block by block, each stage carrying its state, the chain gives the
    bytes and the channel-major layout of one pass per stage."""
    emg = np.random.default_rng(n).standard_normal((n, dsp.N_CHANNELS)) + 2.0
    emg = np.asarray(emg, order=order)
    out = dsp.apply_filter_chain(make_recording(emg)).emg
    ref = chain_reference(emg)
    assert out.shape == ref.shape and out.strides == ref.strides
    assert out.tobytes() == ref.tobytes()


def test_filter_chain_peak_memory_is_the_output_plus_one_block():
    """A 300 s recording: the call allocates its output and one block's
    temporaries, not a whole-recording array per stage (29.5 MB for
    14.7 MB of output when each stage filtered the whole recording)."""
    rec = make_recording(np.random.default_rng(6).standard_normal((300 * 1024, 6)))
    block_bytes = dsp.FILTER_BLOCK * dsp.N_CHANNELS * 8
    out, peak = traced_peak(dsp.apply_filter_chain, rec)
    assert out.emg.nbytes == rec.emg.nbytes
    assert peak <= rec.emg.nbytes + block_bytes + (1 << 20), (peak, block_bytes)


# --- normalization ----------------------------------------------------------


def test_normalizer_maps_train_to_unit_interval():
    rng = np.random.default_rng(1)
    emg = rng.normal(size=(4096, 6)) * np.arange(1, 7)
    rec = make_recording(emg.copy())
    stats = dsp.fit_normalizer(rec)
    scaled = dsp.apply_normalizer(stats, rec).emg
    np.testing.assert_allclose(scaled.min(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(scaled.max(axis=0), 1.0, atol=1e-12)
    assert rec.emg.tobytes() == emg.tobytes()  # scaled a copy, not the input


def test_normalizer_does_not_clip_unseen_data():
    train = make_recording(np.random.default_rng(2).normal(size=(2048, 6)))
    stats = dsp.fit_normalizer(train)
    wild = make_recording(np.full((2048, 6), 1e3))
    scaled = dsp.apply_normalizer(stats, wild).emg
    assert np.all(scaled > 1.0)  # out-of-range values pass through, unclipped


def test_constant_channel_rejected():
    emg = np.random.default_rng(3).normal(size=(2048, 6))
    emg[:, 4] = 0.25
    with pytest.raises(DegenerateChannelError):
        dsp.fit_normalizer(make_recording(emg))


def test_degenerate_channels_are_named_by_their_csv_column():
    """The error names channels as emg.csv's header does (1-based ``ch<n>``),
    for any channel count, not by 0-based index."""
    assert dsp.channel_names(3) == ["ch1", "ch2", "ch3"]
    assert io.EMG_HEADER == "t," + ",".join(dsp.channel_names(dsp.N_CHANNELS))
    with pytest.raises(DegenerateChannelError, match=r"^channel\(s\) ch3 have max <= min"):
        dsp.NormalizationStats(np.zeros(6), np.array([1.0, 1.0, 0.0, 1.0, 1.0, 1.0]))
    mins = np.zeros(12)
    with pytest.raises(DegenerateChannelError, match=r"channel\(s\) ch2, ch12 have"):
        dsp.NormalizationStats(mins, np.where(np.isin(np.arange(12), [1, 11]), -1.0, 1.0))


# --- conditioning (filter -> scale -> window) -------------------------------


def test_condition_fits_on_a_training_partition_like_the_explicit_chain():
    rec = generate(SynthConfig(protocol="P4", duration_s=10.0, seed=2))
    filtered = dsp.apply_filter_chain(rec)
    stats = dsp.fit_normalizer(filtered)
    expected = dsp.segment_windows(dsp.apply_normalizer(stats, filtered))
    got_stats, *got = dsp.condition(rec)
    assert got_stats.mins.tobytes() == stats.mins.tobytes()
    assert got_stats.maxs.tobytes() == stats.maxs.tobytes()
    for array, reference in zip(got, expected, strict=True):
        assert array.shape == reference.shape
        assert array.tobytes() == reference.tobytes()
    assert got[0].min() >= 0.0 and got[0].max() <= 1.0


def test_condition_applies_given_stats_without_refitting():
    """A test partition is scaled by the training stats, which come back as
    they went in, so its windows may leave [0, 1]."""
    train = generate(SynthConfig(protocol="P1", duration_s=10.0, seed=3))
    stats, *_ = dsp.condition(train)
    test = generate(SynthConfig(protocol="P1", duration_s=5.0, seed=4))
    test = replace(test, emg=3.0 * test.emg)
    same, *got = dsp.condition(test, stats)
    assert same is stats
    assert got[0].min() < 0.0 or got[0].max() > 1.0
    expected = dsp.segment_windows(
        dsp.apply_normalizer(stats, dsp.apply_filter_chain(test))
    )
    for array, reference in zip(got, expected, strict=True):
        assert array.tobytes() == reference.tobytes()


@pytest.mark.parametrize("sizes", [[1, 2, 3, 93], [32] * 3 + [3], [99]])
def test_condition_blocks_keep_the_one_block_bytes(sizes):
    """Block by block, filtering only each block's new samples and carrying
    the overlap over already scaled, the windows are ``condition``'s."""
    train = generate(SynthConfig(protocol="P4", duration_s=5.0, seed=5))
    stats, *_ = dsp.condition(train)
    rec = generate(SynthConfig(protocol="P4", duration_s=5.0, seed=6))  # 99 windows
    _, whole, _, _ = dsp.condition(rec, stats)
    stops = np.cumsum(sizes).tolist()
    bounds = list(zip([0, *stops[:-1]], stops))
    blocks = [w for _, w in dsp.condition_blocks(rec, stats, bounds)]
    assert [len(w) for w in blocks] == sizes
    got = np.concatenate(blocks)
    assert got.shape == whole.shape and got.tobytes() == whole.tobytes()


def test_condition_blocks_refusals():
    """Fitting min/max needs the whole recording in one block, and a
    non-finite sample in a late block is refused like one in the first."""
    rec = generate(SynthConfig(protocol="P1", duration_s=5.0, seed=7))
    with pytest.raises(ValueError, match="one block"):
        next(dsp.condition_blocks(rec, None, [(0, 40), (40, 99)]))
    stats, *_ = dsp.condition(rec)
    rec.emg[-3, 4] = np.inf
    with pytest.raises(DataError, match="non-finite"):
        list(dsp.condition_blocks(rec, stats, [(0, 40), (40, 99)]))


def test_only_dsp_composes_the_conditioning_chain():
    """Every other package module conditions a partition through
    ``dsp.condition``: none calls or imports the filter and scaling steps."""
    steps = {"apply_filter_chain", "fit_normalizer", "apply_normalizer"}
    offenders = []
    for path in sorted(Path(dsp.__file__).parent.glob("*.py")):
        if path.name == "dsp.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                names = [getattr(func, "attr", getattr(func, "id", None))]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {n}" for n in names if n in steps]
    assert offenders == []


def test_only_dsp_compares_what_a_recording_must_share():
    """``dsp.require_match`` is the one rule for whether a recording meets a
    model or the other session of a pair: no other package module compares
    two objects' protocol, DoFs, EMG rate or channel count with ``==`` or
    ``!=``."""
    shared = {"protocol", "dof_names", "fs_emg", "n_channels"}
    offenders = []
    for path in sorted(Path(dsp.__file__).parent.glob("*.py")):
        if path.name == "dsp.py":
            continue
        tree = ast.parse(path.read_text())
        where = {}  # node -> the innermost function holding it
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                where.update((node, func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            offenders += [
                f"{path.name}:{node.lineno} {where.get(node, '<module>')}"
                for op, a, b in zip(node.ops, operands, operands[1:])
                if isinstance(op, ast.Eq | ast.NotEq)
                and all(isinstance(x, ast.Attribute) for x in (a, b))
                and {a.attr, b.attr} & shared
            ]
    assert offenders == []


def test_no_module_reads_another_modules_private_names():
    """An ``_``-prefixed name is its module's own: no other package module
    reads it as an attribute (``training._x``) or imports it
    (``from .training import _x``)."""
    offenders = []
    for path in sorted(Path(dsp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {  # the names ``from . import dsp, nn`` binds to sibling modules
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level and node.module is None
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                owner, names = node.value.id, [node.attr]
                if owner not in imported:
                    continue
            elif isinstance(node, ast.ImportFrom) and node.level:
                owner, names = node.module, [alias.name for alias in node.names]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno} {owner}.{name}"
                for name in names
                if name.startswith("_") and not name.startswith("__")
            ]
    assert offenders == []


# --- segmentation -----------------------------------------------------------


def test_window_count_and_geometry():
    emg = np.random.default_rng(4).normal(size=(10240, 6))
    windows, labels, end_times = dsp.segment_windows(make_recording(emg))
    m = (10240 - 102) // 51 + 1
    assert windows.shape == (m, 102, 6)
    assert labels.shape == (m, 1) and end_times.shape == (m,)
    for i in range(m):
        np.testing.assert_array_equal(windows[i], emg[51 * i : 51 * i + 102])
    np.testing.assert_array_equal(windows[3], emg[153:255])


def test_windows_are_a_read_only_view():
    emg = np.random.default_rng(8).normal(size=(2048, 6))
    rec = make_recording(emg)
    windows, _, _ = dsp.segment_windows(rec)
    assert np.shares_memory(windows, rec.emg)
    assert not windows.flags.writeable


def test_window_label_interpolated_at_end_time():
    # ramp angle 10 deg/s: the label must be the angle at the window END
    emg = np.random.default_rng(5).normal(size=(4096, 6))
    rec = make_recording(emg)
    rec.angles[:, 0] = 10.0 * rec.t_ang
    _, labels, end_times = dsp.segment_windows(rec)
    for i in range(0, len(end_times), 7):
        assert end_times[i] == rec.t_emg[51 * i + 101]
        assert labels[i, 0] == pytest.approx(10.0 * end_times[i], abs=1e-9)


def test_too_short_recording_raises():
    # 80 samples at 1024 Hz are shorter than one 102-sample window
    with pytest.raises(InsufficientDataError):
        dsp.segment_windows(make_recording(np.zeros((80, 6))))


def test_custom_geometry_respected():
    """The recording's own rate sets the window and hop in samples."""
    emg = np.random.default_rng(6).normal(size=(2100, 6))
    for fs, window, hop in ((2000.0, 200, 100), (2048.0, 205, 102)):
        windows, labels, _ = dsp.segment_windows(make_recording(emg, fs=fs))
        assert len(windows) == len(labels) == (2100 - window) // hop + 1
        assert windows[0].shape == (window, 6)
        np.testing.assert_array_equal(windows[1], emg[hop : hop + window])


# (window, hop) -> the rate that windows at that geometry
GEOMETRY_RATES = {(dsp.WINDOW_SAMPLES, dsp.HOP_SAMPLES): 1024.0, (200, 100): 2000.0}


@pytest.mark.parametrize("window, hop", sorted(GEOMETRY_RATES))
def test_array_path_matches_per_window_loop(window, hop):
    """Windows, labels, end times and both matrix modes equal, bit for bit,
    a per-window loop: slice, scalar interpolation, one FFT per window."""
    fs = GEOMETRY_RATES[window, hop]
    rec = generate(SynthConfig(protocol="P4", duration_s=10.0, seed=2, fs_emg=fs))
    filtered = dsp.apply_filter_chain(rec)
    rec = dsp.apply_normalizer(dsp.fit_normalizer(filtered), filtered)
    windows, labels, end_times = dsp.segment_windows(rec)
    starts = range(0, len(rec.emg) - window + 1, hop)
    assert len(windows) == len(starts)
    for i, start in enumerate(starts):
        values = rec.emg[start : start + window]
        end_time = rec.t_emg[start + window - 1]
        np.testing.assert_array_equal(windows[i], values)
        assert end_times[i] == end_time
        for d in range(rec.n_dof):
            assert labels[i, d] == np.interp(end_time, rec.t_ang, rec.angles[:, d])
    spectral = dsp.build_matrices(windows, "spectral")
    temporal = dsp.build_matrices(windows, "temporal")
    assert spectral.dtype == temporal.dtype == np.float32
    for i, start in enumerate(starts):
        values = rec.emg[start : start + window]
        spectrum = np.abs(np.fft.rfft(values, n=dsp.N_FFT, axis=0))
        np.testing.assert_array_equal(spectral[i], spectrum.astype(np.float32))
        np.testing.assert_array_equal(temporal[i], values.astype(np.float32))


# --- input matrices ---------------------------------------------------------


def sine_window(freq_hz: float, channel: int) -> np.ndarray:
    values = np.zeros((102, 6))
    values[:, channel] = np.sin(2 * np.pi * freq_hz * np.arange(102) / FS)
    return values


def test_spectral_matrix_shape():
    mat = dsp.build_matrix(sine_window(100.0, 0), "spectral")
    assert mat.shape == (1, 101, 6)
    assert np.all(mat >= 0.0)


def test_spectral_peak_at_input_frequency():
    # 100 Hz at bin spacing 1024/200 = 5.12 Hz -> energy around bin 19.5
    mat = dsp.build_matrix(sine_window(100.0, 2), "spectral")
    spectrum = mat[0, :, 2]
    assert int(np.argmax(spectrum)) in (19, 20)
    assert np.all(mat[0, :, [0, 1, 3, 4, 5]] == 0.0)


def test_spectral_dc_window_concentrates_at_bin_zero():
    mat = dsp.build_matrix(np.ones((102, 6)) * 0.5, "spectral")
    assert np.all(np.argmax(mat[0], axis=0) == 0)


def test_temporal_matrix_passes_samples_through():
    w = sine_window(60.0, 1)
    mat = dsp.build_matrix(w, "temporal")
    assert mat.shape == (1, 102, 6)
    np.testing.assert_allclose(mat[0], w, rtol=1e-6)


@pytest.mark.parametrize("fs", [1014.0, dsp.DEFAULT_FS_EMG, 2048.0])
@pytest.mark.parametrize("mode", dsp.MATRIX_MODES)
def test_matrix_length_is_what_build_matrices_makes(mode, fs):
    windows = np.zeros((2, dsp.window_geometry(fs)[0], dsp.N_CHANNELS))
    assert dsp.build_matrices(windows, mode).shape[1] == dsp.matrix_length(mode, fs)


def strided_windows(m: int, seed: int) -> np.ndarray:
    """m windows [m x 102 x 6] as ``segment_windows`` makes them: a read-only
    strided view into a float64 recording, 51 samples apart."""
    emg = np.random.default_rng(seed).standard_normal(((m - 1) * 51 + 102, 6))
    return sliding_window_view(emg, 102, axis=0)[::51].swapaxes(1, 2)


@pytest.mark.parametrize(
    "m",
    [1, dsp.FFT_BLOCK - 1, dsp.FFT_BLOCK, dsp.FFT_BLOCK + 1, 3 * dsp.FFT_BLOCK + 7],
)
def test_blocked_spectra_match_one_transform_over_every_window(m):
    """Spectral mode, block by block, equals one rfft over all windows cast
    to float32, byte for byte; temporal mode is the float32 cast."""
    windows = strided_windows(m, seed=m)
    spectral = dsp.build_matrices(windows, "spectral")
    ref = np.abs(np.fft.rfft(windows, n=dsp.N_FFT, axis=1)).astype(np.float32)
    assert spectral.dtype == ref.dtype and spectral.shape == ref.shape
    assert spectral.tobytes() == ref.tobytes()
    temporal = dsp.build_matrices(windows, "temporal")
    assert temporal.dtype == np.float32
    assert temporal.tobytes() == windows.astype(np.float32).tobytes()


def test_spectral_peak_memory_is_the_output_plus_one_block():
    """About 6,000 windows (a 300 s recording): the call allocates its
    float32 output and one block's complex128 spectrum and float64
    magnitude, not the whole recording's (87 MB for 14.5 MB of output when
    one rfft took every window)."""
    windows = strided_windows(6000, seed=5)
    bins, channels = dsp.N_FFT // 2 + 1, windows.shape[2]
    out_bytes = len(windows) * bins * channels * 4
    block_bytes = dsp.FFT_BLOCK * bins * channels * (16 + 8)
    mats, peak = traced_peak(dsp.build_matrices, windows, "spectral")
    assert mats.nbytes == out_bytes
    assert peak <= out_bytes + block_bytes + (1 << 20), (peak, out_bytes, block_bytes)


def test_matrix_length_refuses_an_unknown_mode():
    with pytest.raises(DataError):
        dsp.matrix_length("wavelet", dsp.DEFAULT_FS_EMG)


def test_stack_matrices_shapes_and_labels():
    emg = np.random.default_rng(7).normal(size=(2048, 6))
    rec = make_recording(emg)
    rec.angles[:, 0] = np.sin(rec.t_ang)
    windows, labels, _ = dsp.segment_windows(rec)
    x, y = dsp.stack_matrices(windows, labels, "spectral")
    assert x.shape == (len(windows), 101, 6)
    assert y.shape == (len(windows), 1)
    np.testing.assert_array_equal(y, labels)


def test_stack_empty_rejected():
    with pytest.raises(InsufficientDataError):
        dsp.stack_matrices(np.zeros((0, 102, 6)), np.zeros((0, 1)), "spectral")


def test_recording_validation():
    emg = np.zeros((1024, 6))
    t = np.arange(1024) / FS
    ang = np.zeros((100, 2))  # wrong DoF count for P1
    with pytest.raises(DataError):
        dsp.SemgRecording(emg, t, ang, np.arange(100) / 100.0, "P1")
    with pytest.raises(DataError):
        dsp.SemgRecording(emg, t, np.zeros((100, 1)), np.arange(100) / 100.0, "P9")
