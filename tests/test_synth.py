"""Synthetic session generator: determinism, signal structure, pair jitter.

The envelope-correlation checks recompute the per-channel drive from the
config and the documented gain layout, then compare it against the smoothed
rectified sEMG actually produced.
"""

import dataclasses

import numpy as np
import pytest
from scipy import signal

from emgkin import synth
from emgkin.dsp import HIGHPASS_HZ, LOWPASS_HZ, N_CHANNELS, NOTCH_HZ
from emgkin.errors import ConfigError
from emgkin.synth import (
    CONTRACTION_HZ,
    DEFAULT_AMPLITUDE_DEG,
    DEFAULT_CROSSTALK,
    P4_PHASES,
    SynthConfig,
    default_gain,
    generate,
    generate_session_pair,
)
from conftest import traced_peak

FS = 1024.0
DOF_INDEX = {"fe": 0, "ps": 1, "ru": 2}


def smooth(x: np.ndarray, n: int = 513) -> np.ndarray:
    """Half-second moving average: long enough to suppress the carrier-noise
    variance of the rectified signal, short against the 10 s contraction."""
    return np.convolve(x, np.ones(n) / n, mode="same")


def expected_drive(config: SynthConfig, rec) -> np.ndarray:
    """Per-channel modulation recomputed from first principles: rectified
    normalized angle split into positive/negative half-waves, flexor channels
    (d, d+1, d+2 mod 6) taking the positive half plus crosstalk times the
    other, weighted by the gain matrix."""
    gain = default_gain(config.protocol)
    dofs = rec.dof_names
    t = rec.t_emg
    drive = np.zeros((len(t), 6))
    for d, name in enumerate(dofs):
        amp = DEFAULT_AMPLITUDE_DEG[name]
        theta = np.interp(t, rec.t_ang, rec.angles[:, d]) / amp
        pos = np.clip(theta, 0.0, None)
        neg = np.clip(-theta, 0.0, None)
        for n in range(6):
            flexor = (n - DOF_INDEX[name]) % 6 < 3
            assigned, opposite = (pos, neg) if flexor else (neg, pos)
            drive[:, n] += gain[n, d] * (assigned + DEFAULT_CROSSTALK * opposite)
    return drive


def correlations(config: SynthConfig) -> np.ndarray:
    rec = generate(config)
    drive = expected_drive(config, rec)
    out = np.zeros(6)
    for n in range(6):
        env = smooth(np.abs(rec.emg[:, n]))
        out[n] = np.corrcoef(env, smooth(drive[:, n]))[0, 1]
    return out


def test_generate_is_deterministic():
    a = generate(SynthConfig(protocol="P1", duration_s=10.0, seed=3))
    b = generate(SynthConfig(protocol="P1", duration_s=10.0, seed=3))
    np.testing.assert_array_equal(a.emg, b.emg)
    np.testing.assert_array_equal(a.angles, b.angles)


def test_seed_changes_emg_not_angles():
    a = generate(SynthConfig(protocol="P1", duration_s=10.0, seed=3))
    b = generate(SynthConfig(protocol="P1", duration_s=10.0, seed=4))
    assert not np.array_equal(a.emg, b.emg)
    np.testing.assert_array_equal(a.angles, b.angles)


def test_shapes_rates_and_names():
    rec = generate(SynthConfig(protocol="P1", duration_s=12.0, seed=0))
    assert rec.emg.shape == (int(12 * 1024), 6)
    assert rec.angles.shape == (1200, 1)
    assert rec.dof_names == ["fe"]
    np.testing.assert_allclose(np.diff(rec.t_emg), 1.0 / 1024, atol=1e-12)
    np.testing.assert_allclose(np.diff(rec.t_ang), 1.0 / 100, atol=1e-12)


def test_p1_angle_is_pure_sine():
    config = SynthConfig(protocol="P1", duration_s=20.0, seed=1)
    rec = generate(config)
    expected = 40.0 * np.sin(2 * np.pi * CONTRACTION_HZ * rec.t_ang)
    np.testing.assert_allclose(rec.angles[:, 0], expected, atol=1e-9)


def test_p4_angles_phase_offset_sines():
    config = SynthConfig(protocol="P4", duration_s=20.0, seed=1)
    rec = generate(config)
    assert rec.dof_names == ["fe", "ps", "ru"]
    for d, name in enumerate(rec.dof_names):
        expected = DEFAULT_AMPLITUDE_DEG[name] * np.sin(
            2 * np.pi * CONTRACTION_HZ * rec.t_ang + P4_PHASES[name]
        )
        np.testing.assert_allclose(rec.angles[:, d], expected, atol=1e-9)


@pytest.mark.parametrize("protocol", ["P1", "P2", "P3", "P4"])
def test_channel_envelopes_track_recomputed_drive(protocol):
    corr = correlations(SynthConfig(protocol=protocol, duration_s=40.0, seed=2))
    assert corr.min() > 0.8, f"{protocol}: channel correlations {corr.round(3)}"


def test_p1_envelope_tracks_full_rectified_angle():
    # stricter check on the single-DoF protocol: every channel also follows
    # the plain rectified angle (both half-waves present via crosstalk)
    config = SynthConfig(protocol="P1", duration_s=40.0, seed=2)
    rec = generate(config)
    env = np.abs(np.interp(rec.t_emg, rec.t_ang, rec.angles[:, 0])) / 40.0
    env = smooth(env)
    for n in range(6):
        c = np.corrcoef(smooth(np.abs(rec.emg[:, n])), env)[0, 1]
        assert c > 0.8, f"channel {n}: corr {c:.3f}"


def test_mains_line_present():
    rec = generate(SynthConfig(protocol="P1", duration_s=30.0, seed=5))
    spectrum = np.abs(np.fft.rfft(rec.emg[:, 0]))
    freqs = np.fft.rfftfreq(len(rec.emg), 1.0 / FS)
    at_50 = spectrum[np.argmin(np.abs(freqs - 50.0))]
    # compare the 50 Hz bin against the local noise floor just below it
    nearby = spectrum[(freqs > 46.0) & (freqs < 49.0)]
    assert at_50 > 5.0 * nearby.mean()


def test_snr_controls_residual_noise():
    noisy = generate(SynthConfig(protocol="P1", duration_s=20.0, seed=6, snr_db=0.0))
    clean = generate(SynthConfig(protocol="P1", duration_s=20.0, seed=6, snr_db=40.0))
    # during angle zero crossings the drive is ~0, so what remains is noise
    q = np.abs(clean.angles[:, 0]) < 1.0
    quiet = np.interp(noisy.t_emg, noisy.t_ang, q.astype(float)) > 0.5
    assert np.std(noisy.emg[quiet, 0]) > 3.0 * np.std(clean.emg[quiet, 0])


def test_gain_matrix_layout():
    g = default_gain("P1")
    assert g.shape == (6, 1)
    np.testing.assert_allclose(g[:, 0], [1.0, 0.85, 0.7, 1.0, 0.85, 0.7])
    g4 = default_gain("P4")
    assert g4.shape == (6, 3)
    # ps group starts at channel 1 and carries the weakest base gain
    np.testing.assert_allclose(g4[1:4, 1], 0.5 * np.array([1.0, 0.85, 0.7]))


def test_session_pair_differs_but_is_deterministic():
    config = SynthConfig(protocol="P1", duration_s=10.0, seed=11)
    a1, b1 = generate_session_pair(config)
    a2, b2 = generate_session_pair(config)
    np.testing.assert_array_equal(a1.emg, a2.emg)
    np.testing.assert_array_equal(b1.emg, b2.emg)
    assert not np.array_equal(a1.emg, b1.emg)
    assert a1.session_id != b1.session_id
    assert b1.session_id.endswith("_b")
    # same task, same kinematics; only the recording changed
    np.testing.assert_array_equal(a1.angles, b1.angles)
    assert a1.protocol == b1.protocol == "P1"


def test_session_pair_first_equals_single_generate():
    config = SynthConfig(protocol="P2", duration_s=10.0, seed=12)
    a, _ = generate_session_pair(config)
    solo = generate(config)
    np.testing.assert_array_equal(a.emg, solo.emg)


def test_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(protocol="P7")
    with pytest.raises(ConfigError):
        SynthConfig(duration_s=0.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("duration_s", float("nan")),
        ("duration_s", float("inf")),
        ("duration_s", 0.005),
        ("duration_s", 0.01),
        ("snr_db", float("nan")),
        ("snr_db", float("-inf")),
        ("seed", -1),
        ("fs_emg", float("nan")),
        ("fs_emg", 0.0),
        ("fs_emg", -1024.0),
        ("fs_emg", 500.0),
        ("fs_emg", float("inf")),
    ],
)
def test_config_refuses_settings_that_crash_or_write_unreadable_sessions(field, value):
    """A NaN or infinite duration crashes the generator, one that gives
    fewer than 2 angle samples writes a session ``load_session`` refuses
    (0.005 s: no angle rows; 0.01 s: one), a NaN or -inf SNR
    writes non-finite sEMG that ``load_session`` refuses, numpy refuses a
    negative seed, and an EMG rate the filter chain cannot run at
    (``dsp.valid_emg_rate``) fails in numpy or scipy; each is refused up
    front, naming the setting."""
    with pytest.raises(ConfigError, match=field):
        SynthConfig(**{field: value})


def reference_emg(config: SynthConfig, gain: np.ndarray) -> np.ndarray:
    """The sEMG as whole-recording expressions, one new array per step: the
    generator computed it this way before it worked in place, block by
    block."""
    rng = np.random.default_rng(config.seed)
    n_emg = int(round(config.duration_s * config.fs_emg))
    t_emg = np.arange(n_emg) / config.fs_emg
    drive = synth._channel_activations(config, gain, t_emg)
    white = rng.standard_normal((n_emg, N_CHANNELS))
    sos = signal.butter(
        3, [HIGHPASS_HZ, LOWPASS_HZ], btype="bandpass", fs=config.fs_emg, output="sos"
    )
    carrier = signal.sosfilt(sos, white, axis=0)
    carrier = carrier / np.sqrt(np.mean(carrier**2, axis=0))
    emg = drive * carrier
    signal_rms = np.sqrt(np.mean(emg**2, axis=0))
    mains_rms = signal_rms * 10.0 ** (synth.MAINS_DB / 20.0)
    mains = np.sqrt(2.0) * np.sin(2.0 * np.pi * NOTCH_HZ * t_emg)
    emg = emg + mains[:, np.newaxis] * mains_rms
    noise_rms = signal_rms * 10.0 ** (-config.snr_db / 20.0)
    return emg + rng.standard_normal(emg.shape) * noise_rms


# rows at 1024 Hz against NOISE_BLOCK = 4,096 rows per block
GENERATOR_CASES = [
    SynthConfig(protocol="P1", duration_s=7.3, seed=4),  # 7,475 rows: 1.8 blocks
    SynthConfig(protocol="P4", duration_s=16.0, seed=0),  # exactly 4 blocks
    SynthConfig(protocol="P2", duration_s=40.0, seed=7),  # exactly 10 blocks
    SynthConfig(protocol="P3", duration_s=20.0, seed=2, snr_db=float("inf")),
    SynthConfig(protocol="P1", duration_s=9.0, seed=5, fs_emg=2048.0),
    SynthConfig(protocol="P2", duration_s=3.1, seed=9),  # under one block
    SynthConfig(protocol="P4", duration_s=9.87, seed=11, fs_emg=2000.0),  # 19,740 rows
    SynthConfig(protocol="P4", duration_s=6.1, seed=12, snr_db=float("inf")),
    SynthConfig(protocol="P1", duration_s=37.3, seed=13),  # 38,195 rows: 9.3 blocks
]


@pytest.mark.parametrize("config", GENERATOR_CASES, ids=lambda c: f"{c.protocol}-{c.duration_s:g}s")
def test_in_place_generator_keeps_the_whole_array_bytes(config):
    rec = generate(config)
    ref = reference_emg(config, default_gain(config.protocol))
    assert rec.emg.shape == ref.shape
    assert rec.emg.tobytes() == ref.tobytes()


@pytest.mark.parametrize("config", GENERATOR_CASES[:3], ids=lambda c: c.protocol)
def test_session_pair_keeps_the_whole_array_bytes(config):
    a, b = generate_session_pair(config)
    gain = default_gain(config.protocol)
    jitter_rng = np.random.default_rng(config.seed + synth.SESSION_SEED_OFFSET)
    jitter = 1.0 + synth.GAIN_JITTER * jitter_rng.uniform(-1.0, 1.0, gain.shape)
    config_b = dataclasses.replace(config, seed=config.seed + synth.SESSION_SEED_OFFSET)
    assert a.emg.tobytes() == reference_emg(config, gain).tobytes()
    assert b.emg.tobytes() == reference_emg(config_b, gain * jitter).tobytes()


def test_generate_peak_memory_is_about_one_recording():
    """The output is the one recording-sized array: beside it are the
    timestamps or one carrier column's square (each a sixth of it) and one
    noise block's temporaries. Drawing and filtering the whole noise at once
    peaked at 3.2 recordings, and one full-size array per step at 5.4."""
    rec, peak = traced_peak(generate, SynthConfig(protocol="P1", duration_s=60.0, seed=1))
    assert peak <= 1.5 * rec.emg.nbytes, (peak, rec.emg.nbytes)
