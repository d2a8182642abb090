"""Signal conditioning and input-matrix construction.

The preprocessing chain is fixed: 3rd-order Butterworth high-pass at 20 Hz,
3rd-order low-pass at 450 Hz, then a 50 Hz notch, all applied causally in a
single forward pass. Filtered channels are min-max scaled with statistics
fitted on the training partition only, segmented into 100 ms windows with a
50 ms hop (102/51 samples at 1024 Hz), and each window becomes either a
temporal matrix (raw samples) or a spectral one (one-sided FFT magnitudes,
zero-padded to 200 points so L = 101).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Literal

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal

from .errors import (
    DataError,
    DegenerateChannelError,
    DimensionError,
    FilterDesignError,
    InsufficientDataError,
)

DEFAULT_FS_EMG = 1024.0
DEFAULT_FS_ANG = 100.0
N_CHANNELS = 6

HIGHPASS_HZ = 20.0
LOWPASS_HZ = 450.0
NOTCH_HZ = 50.0
NOTCH_BANDWIDTH_HZ = 2.0

WINDOW_MS = 100.0
HOP_MS = 50.0
WINDOW_SAMPLES = 102  # floor(100 ms * 1024 Hz)
HOP_SAMPLES = 51
N_FFT = 200  # one-sided spectrum has N_FFT/2 + 1 = 101 bins

PROTOCOL_DOFS = {
    "P1": ["fe"],
    "P2": ["ps"],
    "P3": ["ru"],
    "P4": ["fe", "ps", "ru"],
}

MatrixMode = Literal["temporal", "spectral"]


@dataclass
class SemgRecording:
    """One session of multi-channel sEMG with synchronized wrist angles.

    ``emg`` is [T_e x N] at ``fs_emg``; ``angles`` is [T_a x D] in degrees at
    ``fs_ang`` where D is the number of active DoFs for ``protocol`` (1 for
    P1-P3, 3 for P4). Timestamps are absolute seconds and survive splitting,
    so label interpolation stays consistent across partitions.
    """

    emg: np.ndarray
    t_emg: np.ndarray
    angles: np.ndarray
    t_ang: np.ndarray
    protocol: str
    session_id: str = "s0"
    fs_emg: float = DEFAULT_FS_EMG
    fs_ang: float = DEFAULT_FS_ANG
    dof_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.emg = np.asarray(self.emg, dtype=np.float64)
        self.angles = np.asarray(self.angles, dtype=np.float64)
        self.t_emg = np.asarray(self.t_emg, dtype=np.float64)
        self.t_ang = np.asarray(self.t_ang, dtype=np.float64)
        if self.protocol not in PROTOCOL_DOFS:
            raise DataError(f"unknown protocol {self.protocol!r}")
        if not self.dof_names:
            self.dof_names = list(PROTOCOL_DOFS[self.protocol])
        if self.emg.ndim != 2 or self.angles.ndim != 2:
            raise DimensionError("emg and angles must be 2-D arrays")
        if self.angles.shape[1] != len(PROTOCOL_DOFS[self.protocol]):
            raise DataError(
                f"protocol {self.protocol} expects "
                f"{len(PROTOCOL_DOFS[self.protocol])} DoF column(s), "
                f"got {self.angles.shape[1]}"
            )
        if self.fs_emg <= 2 * LOWPASS_HZ:
            raise DataError(
                f"fs_emg={self.fs_emg} violates Nyquist for the "
                f"{LOWPASS_HZ} Hz low-pass"
            )
        if len(self.t_emg) != len(self.emg) or len(self.t_ang) != len(self.angles):
            raise DimensionError("timestamp vectors must match sample counts")
        for name, t in (("t_emg", self.t_emg), ("t_ang", self.t_ang)):
            if len(t) > 1 and np.any(np.diff(t) <= 0):
                raise DataError(f"{name} must be strictly increasing")

    @property
    def n_channels(self) -> int:
        return self.emg.shape[1]

    @property
    def n_dof(self) -> int:
        return self.angles.shape[1]

    @property
    def duration_s(self) -> float:
        return float(self.t_emg[-1] - self.t_emg[0]) if len(self.t_emg) else 0.0


@dataclass(frozen=True)
class FilterSpec:
    """Specification for one stage of the preprocessing chain."""

    kind: Literal["butter_high", "butter_low", "notch"]
    order: int = 3
    cutoff_hz: float = 0.0
    center_hz: float = 0.0
    bandwidth_hz: float = NOTCH_BANDWIDTH_HZ

    def __post_init__(self):
        if self.order < 1:
            raise FilterDesignError(f"order must be >= 1, got {self.order}")


@dataclass(frozen=True)
class NormalizationStats:
    """Per-channel min/max fitted on the training partition only."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mins", np.asarray(self.mins, dtype=np.float64))
        object.__setattr__(self, "maxs", np.asarray(self.maxs, dtype=np.float64))
        if np.any(self.maxs <= self.mins):
            bad = np.where(self.maxs <= self.mins)[0]
            raise DegenerateChannelError(
                f"channel(s) {bad.tolist()} have max <= min; cannot min-max scale"
            )


def design_filter(spec: FilterSpec, fs: float) -> np.ndarray:
    """Realize ``spec`` at sampling rate ``fs`` as a biquad (SOS) cascade.

    Raises FilterDesignError for cutoffs at or beyond Nyquist; the returned
    cascade is verified stable (all poles strictly inside the unit circle).
    """
    nyquist = fs / 2.0
    if spec.kind in ("butter_high", "butter_low"):
        if not 0 < spec.cutoff_hz < nyquist:
            raise FilterDesignError(
                f"cutoff {spec.cutoff_hz} Hz outside (0, {nyquist}) at fs={fs}"
            )
        btype = "highpass" if spec.kind == "butter_high" else "lowpass"
        sos = signal.butter(spec.order, spec.cutoff_hz, btype=btype, fs=fs, output="sos")
    elif spec.kind == "notch":
        if not 0 < spec.center_hz < nyquist:
            raise FilterDesignError(
                f"notch center {spec.center_hz} Hz outside (0, {nyquist}) at fs={fs}"
            )
        q = spec.center_hz / spec.bandwidth_hz
        b, a = signal.iirnotch(spec.center_hz, q, fs=fs)
        sos = signal.tf2sos(b, a)
    else:
        raise FilterDesignError(f"unknown filter kind {spec.kind!r}")

    for section in sos:
        poles = np.roots(section[3:])
        if np.any(np.abs(poles) >= 1.0):
            raise FilterDesignError(f"unstable section in {spec.kind} design")
    return sos


def standard_chain(fs: float) -> list[np.ndarray]:
    """The fixed high-pass -> low-pass -> notch cascade at rate ``fs``."""
    return [
        design_filter(FilterSpec("butter_high", 3, cutoff_hz=HIGHPASS_HZ), fs),
        design_filter(FilterSpec("butter_low", 3, cutoff_hz=LOWPASS_HZ), fs),
        design_filter(FilterSpec("notch", 2, center_hz=NOTCH_HZ), fs),
    ]


def apply_filter_chain(rec: SemgRecording) -> SemgRecording:
    """Run the standard chain causally (single forward pass) over all channels."""
    if not np.all(np.isfinite(rec.emg)):
        raise DataError("recording contains non-finite samples")
    filtered = rec.emg
    for sos in standard_chain(rec.fs_emg):
        filtered = signal.sosfilt(sos, filtered, axis=0)
    return replace(rec, emg=filtered)


def fit_normalizer(train: SemgRecording) -> NormalizationStats:
    """Fit per-channel min/max on the training partition (leakage guard)."""
    return NormalizationStats(train.emg.min(axis=0), train.emg.max(axis=0))


def apply_normalizer(stats: NormalizationStats, rec: SemgRecording) -> SemgRecording:
    """Map each channel through (x - min) / (max - min); test data may leave [0, 1]."""
    scaled = (rec.emg - stats.mins) / (stats.maxs - stats.mins)
    return replace(rec, emg=scaled)


def segment_windows(
    rec: SemgRecording,
    window_samples: int = WINDOW_SAMPLES,
    hop_samples: int = HOP_SAMPLES,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slice the recording into overlapping windows with causally aligned labels.

    Returns (windows [M x window x N], labels [M x D], end_times [M]) with
    M = floor((T - window) / hop) + 1. ``windows`` is a read-only view into
    ``rec.emg``. Each label is the angle trace linearly interpolated at the
    window's end time, so a window only ever sees a target from its own
    past-and-present samples.
    """
    n = len(rec.emg)
    if window_samples > n:
        raise InsufficientDataError(
            f"window of {window_samples} samples exceeds recording length {n}"
        )
    windows = sliding_window_view(rec.emg, window_samples, axis=0)[::hop_samples]
    end_times = rec.t_emg[window_samples - 1 :: hop_samples]
    labels = np.stack(
        [np.interp(end_times, rec.t_ang, rec.angles[:, d]) for d in range(rec.n_dof)],
        axis=1,
    )
    return windows.swapaxes(1, 2), labels, end_times


def build_matrices(windows: np.ndarray, mode: MatrixMode) -> np.ndarray:
    """Turn windows [M x window x N] into float32 input matrices [M x L x N].

    Spectral mode zero-pads each channel to N_FFT and keeps the one-sided
    FFT magnitude (L = N_FFT/2 + 1 = 101 bins); temporal mode passes samples
    through unchanged (L = window length).
    """
    if mode == "spectral":
        mats = np.abs(np.fft.rfft(windows, n=N_FFT, axis=1))
    elif mode == "temporal":
        mats = windows
    else:
        raise DataError(f"unknown matrix mode {mode!r}")
    return mats.astype(np.float32)


def build_matrix(window: np.ndarray, mode: MatrixMode) -> np.ndarray:
    """One window [window x N] as a 1 x L x N input matrix."""
    return build_matrices(window[np.newaxis], mode)


def stack_matrices(
    windows: np.ndarray, labels: np.ndarray, mode: MatrixMode
) -> tuple[np.ndarray, np.ndarray]:
    """(X [M x L x N], Y [M x D]): the input matrices with their labels."""
    if len(windows) == 0:
        raise InsufficientDataError("no windows to build matrices from")
    if len(labels) != len(windows):
        raise DimensionError("windows and labels must align")
    return build_matrices(windows, mode), labels
