"""Preprocessing chain: filter responses, scaling, windowing, input matrices.

The frequency-response values asserted here are computed from the transfer
function of the designed biquad cascade, independently of the time-domain
implementation that the pipeline actually runs.
"""

import numpy as np
import pytest
from scipy import signal

from emgkin import dsp
from emgkin.errors import (
    DataError,
    DegenerateChannelError,
    FilterDesignError,
    InsufficientDataError,
)
from emgkin.synth import SynthConfig, generate

FS = 1024.0


def chain_gain_db(freq_hz: float) -> float:
    sos = np.vstack(dsp.standard_chain(FS))
    _, h = signal.sosfreqz(sos, worN=[freq_hz], fs=FS)
    mag = abs(h[0])
    return -np.inf if mag == 0.0 else 20.0 * np.log10(mag)


def make_recording(emg: np.ndarray, protocol: str = "P1") -> dsp.SemgRecording:
    n = len(emg)
    t_emg = np.arange(n) / FS
    n_ang = int(n / FS * 100.0)
    t_ang = np.arange(n_ang) / 100.0
    n_dof = len(dsp.PROTOCOL_DOFS[protocol])
    angles = np.zeros((n_ang, n_dof))
    return dsp.SemgRecording(emg, t_emg, angles, t_ang, protocol)


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
    with pytest.raises(FilterDesignError):
        dsp.design_filter(dsp.FilterSpec("butter_low", 3, cutoff_hz=600.0), FS)
    with pytest.raises(FilterDesignError):
        dsp.design_filter(dsp.FilterSpec("notch", center_hz=0.0), FS)


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


# --- normalization ----------------------------------------------------------


def test_normalizer_maps_train_to_unit_interval():
    rng = np.random.default_rng(1)
    emg = rng.normal(size=(4096, 6)) * np.arange(1, 7)
    rec = make_recording(emg)
    stats = dsp.fit_normalizer(rec)
    scaled = dsp.apply_normalizer(stats, rec).emg
    np.testing.assert_allclose(scaled.min(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(scaled.max(axis=0), 1.0, atol=1e-12)


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
    with pytest.raises(InsufficientDataError):
        dsp.segment_windows(make_recording(np.zeros((80, 6))), window_samples=102)


def test_custom_geometry_respected():
    emg = np.random.default_rng(6).normal(size=(1000, 6))
    windows, labels, _ = dsp.segment_windows(
        make_recording(emg), window_samples=200, hop_samples=100
    )
    assert len(windows) == len(labels) == (1000 - 200) // 100 + 1
    assert windows[0].shape == (200, 6)


@pytest.mark.parametrize("window, hop", [(dsp.WINDOW_SAMPLES, dsp.HOP_SAMPLES), (200, 100)])
def test_array_path_matches_per_window_loop(window, hop):
    """Windows, labels, end times and both matrix modes equal, bit for bit,
    a per-window loop: slice, scalar interpolation, one FFT per window."""
    rec = generate(SynthConfig(protocol="P4", duration_s=10.0, seed=2))
    filtered = dsp.apply_filter_chain(rec)
    rec = dsp.apply_normalizer(dsp.fit_normalizer(filtered), filtered)
    windows, labels, end_times = dsp.segment_windows(rec, window, hop)
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
