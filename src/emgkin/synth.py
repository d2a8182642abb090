"""Deterministic synthetic sEMG/angle session generator.

Stands in for the private human-subject recordings. Wrist angles follow
sinusoidal contractions at ``CONTRACTION_HZ`` = 0.1 Hz (one cycle per 10 s)
with per-DoF amplitudes ``DEFAULT_AMPLITUDE_DEG``, sampled at
``dsp.DEFAULT_FS_ANG`` = 100 Hz; each sEMG channel is amplitude-modulated
band-limited noise:

    emg_n(t) = [ sum_d G[n,d] * act_{n,d}(t) ] * w_n(t) + mains + noise

where G is ``default_gain(protocol)``, act is the rectified angle envelope
|theta_d|/A_d split into agonist/antagonist half-waves (three flexor
channels per DoF take the positive half, the opposite three the negative
half) and w_n is seeded 20-450 Hz band-limited noise with unit RMS. A
50 Hz mains line at -20 dB exercises the notch filter, and broadband noise
sets the overall SNR.

The crosstalk level mixes each channel's opposite half-wave back in:
act = assigned + crosstalk * opposite. At 0 channels are silent for half of
every cycle (hard antagonist split); at 1 both halves contribute equally and
directional information vanishes. ``DEFAULT_CROSSTALK`` = 0.65 keeps the
smoothed rectified channel strongly correlated with the full envelope while
leaving the flexor/extexor asymmetry (and thus the angle sign) recoverable.

The sEMG is built in one recording-sized array, ``NOISE_BLOCK`` rows at a
time, with the bytes of one whole-array expression per step. Row blocks
drawn in turn from one ``Generator`` are one draw's stream, and the
band-pass carries its state from block to block through ``sosfilt``'s
``zi``, so the white noise is drawn and filtered block by block straight
into the output. Each carrier column is divided by its RMS, the mean
square of one column. The drive is multiplied in block by block, and the
signal's mean square is summed over the blocks in the sequential row
order of numpy's axis-0 reduction of a C-order array. Mains and the
broadband noise are then added block by block. Beyond the output, the
largest arrays alive are a sixth of it (one carrier column's square, then
the timestamps, made after the squares) and one block's temporaries: the
tracemalloc peak at 300 s is 1.24 times the recording.

``SynthConfig`` holds only what callers vary: protocol, duration, SNR,
seed and EMG rate. It refuses a rate unless
``dsp.valid_emg_rate``, and a duration that gives fewer than 2 angle or EMG
samples. A session's id is ``s0``; session B of ``generate_session_pair``,
``s0_b``, multiplies G by a seeded jitter within +-``GAIN_JITTER``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy import signal

from .dsp import (
    DEFAULT_FS_ANG,
    DEFAULT_FS_EMG,
    HIGHPASS_HZ,
    LOWPASS_HZ,
    N_CHANNELS,
    NOTCH_HZ,
    PROTOCOL_DOFS,
    SemgRecording,
    valid_emg_rate,
)
from .errors import ConfigError

CONTRACTION_HZ = 0.1
DEFAULT_AMPLITUDE_DEG = {"fe": 40.0, "ps": 30.0, "ru": 25.0}
# Per-DoF drive strength; pronation-supination weakest so it degrades first.
DOF_BASE_GAIN = {"fe": 1.0, "ps": 0.5, "ru": 0.8}
# Within each 3-channel agonist/antagonist group, gain tapers with position.
CHANNEL_WEIGHTS = (1.0, 0.85, 0.7)
DEFAULT_CROSSTALK = 0.65
MAINS_DB = -20.0
# P4 drives all three DoFs concurrently with distinct phases (co-contraction).
P4_PHASES = {"fe": 0.0, "ps": 2.0 * np.pi / 3.0, "ru": 4.0 * np.pi / 3.0}
SESSION_SEED_OFFSET = 9973
GAIN_JITTER = 0.2
NOISE_BLOCK = 4096  # rows per noise draw and band-pass call in _generate


def default_gain(protocol: str) -> np.ndarray:
    """[N x D] channel sensitivity for the protocol's active DoFs."""
    if protocol not in PROTOCOL_DOFS:
        raise ConfigError(f"unknown protocol {protocol!r}")
    dofs = PROTOCOL_DOFS[protocol]
    gain = np.zeros((N_CHANNELS, len(dofs)))
    for d, name in enumerate(dofs):
        for n in range(N_CHANNELS):
            offset = (n - PROTOCOL_DOFS["P4"].index(name)) % N_CHANNELS
            gain[n, d] = DOF_BASE_GAIN[name] * CHANNEL_WEIGHTS[offset % 3]
    return gain


def _is_flexor(channel: int, dof_name: str) -> bool:
    """Channels (d, d+1, d+2) mod 6 are the flexor group for DoF d."""
    return (channel - PROTOCOL_DOFS["P4"].index(dof_name)) % N_CHANNELS < 3


@dataclass
class SynthConfig:
    protocol: str = "P1"
    duration_s: float = 180.0
    snr_db: float = 20.0
    seed: int = 0
    fs_emg: float = DEFAULT_FS_EMG

    def __post_init__(self):
        if self.protocol not in PROTOCOL_DOFS:
            raise ConfigError(
                f"unknown protocol {self.protocol!r}; expected one of "
                f"{sorted(PROTOCOL_DOFS)}"
            )
        if not 0 < self.duration_s < np.inf:  # NaN fails too
            raise ConfigError(
                f"duration_s must be positive and finite, got {self.duration_s}"
            )
        if not self.snr_db > -np.inf:  # +inf is a noiseless session
            raise ConfigError(f"snr_db must be a number or +inf, got {self.snr_db}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not valid_emg_rate(self.fs_emg):
            raise ConfigError(f"fs_emg must be finite and above {2 * LOWPASS_HZ:g} Hz, "
                              f"got {self.fs_emg}")
        n_emg, n_ang = self._sample_counts()
        if min(n_emg, n_ang) < 2:  # a recording needs two of each to check its rates
            raise ConfigError(f"duration_s must be long enough for 2 angle and 2 EMG samples, "
                              f"got {self.duration_s:g} s ({n_ang} angle and {n_emg} EMG)")

    @property
    def dof_names(self) -> list[str]:
        return list(PROTOCOL_DOFS[self.protocol])

    def _sample_counts(self) -> tuple[int, int]:
        """(EMG, angle) samples in ``duration_s`` at ``fs_emg`` and DEFAULT_FS_ANG."""
        return (int(round(self.duration_s * self.fs_emg)),
                int(round(self.duration_s * DEFAULT_FS_ANG)))

    def phases(self) -> dict[str, float]:
        if self.protocol == "P4":
            return dict(P4_PHASES)
        return {name: 0.0 for name in self.dof_names}


def _angles_at(config: SynthConfig, t: np.ndarray) -> np.ndarray:
    """theta_d(t) = A_d sin(2 pi f t + phi_d), one column per active DoF."""
    phases = config.phases()
    cols = [
        DEFAULT_AMPLITUDE_DEG[name]
        * np.sin(2.0 * np.pi * CONTRACTION_HZ * t + phases[name])
        for name in config.dof_names
    ]
    return np.stack(cols, axis=1)


def _band_limited_noise(
    rng: np.random.Generator, n_samples: int, fs: float, blocks: list[slice]
) -> np.ndarray:
    """[T x N] unit-RMS noise carriers confined to the 20-450 Hz sEMG band,
    drawn and filtered one row block of ``blocks`` at a time."""
    sos = signal.butter(
        3, [HIGHPASS_HZ, LOWPASS_HZ], btype="bandpass", fs=fs, output="sos"
    )
    carrier = np.empty((n_samples, N_CHANNELS))
    state = np.zeros((len(sos), 2, N_CHANNELS))
    for rows in blocks:
        white = rng.standard_normal(carrier[rows].shape)
        carrier[rows], state = signal.sosfilt(sos, white, axis=0, zi=state)
    del white  # the last block's draw, before the column squares
    for n in range(N_CHANNELS):
        carrier[:, n] /= np.sqrt(np.mean(carrier[:, n] ** 2))
    return carrier


def _channel_activations(
    config: SynthConfig, gain: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """[T x N] noise-free drive: gain-weighted half-wave envelopes + crosstalk."""
    angles = _angles_at(config, t)
    drive = np.zeros((t.shape[0], N_CHANNELS))
    for d, name in enumerate(config.dof_names):
        env = angles[:, d] / DEFAULT_AMPLITUDE_DEG[name]
        pos = np.maximum(env, 0.0)
        neg = np.maximum(-env, 0.0)
        for n in range(N_CHANNELS):
            assigned, opposite = (pos, neg) if _is_flexor(n, name) else (neg, pos)
            drive[:, n] += gain[n, d] * (assigned + DEFAULT_CROSSTALK * opposite)
    return drive


def generate(config: SynthConfig) -> SemgRecording:
    """Produce one seeded session; bit-identical for identical configs."""
    return _generate(config, default_gain(config.protocol))


def _generate(config: SynthConfig, gain: np.ndarray, session_id: str = "s0") -> SemgRecording:
    """One seeded session with the [N x D] channel ``gain``."""
    rng = np.random.default_rng(config.seed)
    n_emg, n_ang = config._sample_counts()
    blocks = [slice(start, start + NOISE_BLOCK) for start in range(0, n_emg, NOISE_BLOCK)]
    emg = _band_limited_noise(rng, n_emg, config.fs_emg, blocks)
    # after the carriers' column squares, and divided in place
    t_emg = np.arange(n_emg, dtype=np.float64)
    t_emg /= config.fs_emg
    t_ang = np.arange(n_ang) / DEFAULT_FS_ANG

    square_sum = np.zeros(N_CHANNELS)
    for rows in blocks:
        emg[rows] *= _channel_activations(config, gain, t_emg[rows])
        square = emg[rows] ** 2
        square[0] += square_sum  # carried, so the sum runs row after row
        square_sum = square.sum(axis=0)
    signal_rms = np.sqrt(square_sum / n_emg)
    if np.any(signal_rms <= 0):
        raise ConfigError(
            "degenerate config: at least one channel carries no signal in "
            f"{config.duration_s:g} s"
        )
    mains_rms = signal_rms * 10.0 ** (MAINS_DB / 20.0)
    noise_rms = signal_rms * 10.0 ** (-config.snr_db / 20.0)
    for rows in blocks:
        block = emg[rows]
        mains = np.sqrt(2.0) * np.sin(2.0 * np.pi * NOTCH_HZ * t_emg[rows])
        for n in range(N_CHANNELS):
            block[:, n] += mains * mains_rms[n]
        block += rng.standard_normal(block.shape) * noise_rms

    return SemgRecording(
        emg=emg,
        t_emg=t_emg,
        angles=_angles_at(config, t_ang),
        t_ang=t_ang,
        protocol=config.protocol,
        session_id=session_id,
        fs_emg=config.fs_emg,
        fs_ang=DEFAULT_FS_ANG,
    )


def generate_session_pair(
    config: SynthConfig,
) -> tuple[SemgRecording, SemgRecording]:
    """Session A plus a domain-shifted session B (new seed, jittered gains).

    B's gain matrix gets multiplicative jitter in [1-20%, 1+20%] emulating
    electrode shift between days; its noise streams use an independent seed.
    """
    gain = default_gain(config.protocol)
    session_a = _generate(config, gain)
    jitter_rng = np.random.default_rng(config.seed + SESSION_SEED_OFFSET)
    jitter = 1.0 + GAIN_JITTER * jitter_rng.uniform(-1.0, 1.0, gain.shape)
    config_b = dataclasses.replace(config, seed=config.seed + SESSION_SEED_OFFSET)
    return session_a, _generate(config_b, gain * jitter, "s0_b")
