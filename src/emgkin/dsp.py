"""Signal conditioning and input-matrix construction.

The preprocessing chain is the paper's and fixed: a ``BUTTER_ORDER`` = 3
Butterworth high-pass at ``HIGHPASS_HZ`` = 20 Hz, a low-pass at
``LOWPASS_HZ`` = 450 Hz, then a mains notch at ``NOTCH_HZ`` = 50 Hz,
``NOTCH_BANDWIDTH_HZ`` = 2 Hz wide (Q = 25; the paper gives no width), all
applied causally in a single forward pass. Filtered channels are min-max
scaled with statistics fitted on the training partition only, segmented into
``WINDOW_MS`` = 100 ms windows with a ``HOP_MS`` = 50 ms hop, and each
window becomes a temporal matrix (raw samples) or a spectral one (one-sided
FFT magnitudes, zero-padded to ``N_FFT`` = 200 points so L = 101). The
recording's own rate sets the window in samples: ``segment_windows(rec)``
uses ``window_geometry(rec.fs_emg)``, and ``WINDOW_SAMPLES``/``HOP_SAMPLES``
= 102/51 are only its values at the paper's 1024 Hz. ``DEFAULT_FS_EMG`` =
1024 Hz, ``DEFAULT_FS_ANG`` = 100 Hz and ``N_CHANNELS`` = 6 are the paper's
recording setup; ``channel_names`` is the one rule that names channels
(``ch1`` ...), and a training partition with a flat channel is refused
naming its session (``DegenerateChannelError``, a ``DataError``).
The rate rule is this module's: ``valid_emg_rate`` tests an EMG rate, and
every ``SemgRecording``, read from files or not, checks each declared rate
against its timestamps within ``RATE_TOLERANCE`` = 1 %. ``require_match`` is
the one rule for whether a recording meets a model or the other session of
a pair: the same DoFs, EMG rate and channel count.
``condition_blocks`` runs filter -> scale -> window over consecutive blocks
of windows, and no other module composes those steps; ``condition`` is that
pass over one block, for a training or test partition. Each block filters
only its new samples, ``FILTER_BLOCK`` samples at a time, each stage
carrying its state through ``sosfilt``'s ``zi`` (``_chain_runner``, the one
filter loop), scales them in place and takes over, already scaled, the
``window - hop`` samples it shares with the block before; the bytes are
those of one whole-recording pass per step. ``condition`` thus holds one
scaled copy of the recording beyond its input, and inference, which takes
the CNN's eval chunks as blocks, none. Every module reads the design's
vocabularies from here: ``PROTOCOL_DOFS`` (the wrist DoFs each protocol
P1-P4 moves; P4's list is all three, in column order) and ``MATRIX_MODES``,
each mode's matrix length L at a given rate coming from ``matrix_length``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
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
RATE_TOLERANCE = 0.01  # declared rate against (T - 1) / (t[-1] - t[0])

HIGHPASS_HZ = 20.0
LOWPASS_HZ = 450.0
NOTCH_HZ = 50.0
NOTCH_BANDWIDTH_HZ = 2.0
BUTTER_ORDER = 3

WINDOW_MS = 100.0
HOP_MS = 50.0
WINDOW_SAMPLES = 102  # round(100 ms * 1024 Hz)
HOP_SAMPLES = 51
N_FFT = 200  # one-sided spectrum has N_FFT/2 + 1 = 101 bins
FFT_BLOCK = 256  # windows per rfft call in build_matrices
FILTER_BLOCK = 16_384  # samples per sosfilt call in apply_filter_chain

PROTOCOL_DOFS = {
    "P1": ["fe"],
    "P2": ["ps"],
    "P3": ["ru"],
    "P4": ["fe", "ps", "ru"],
}

MATRIX_MODES = ("spectral", "temporal")


def valid_emg_rate(fs: float) -> bool:
    """Finite and above 2 * LOWPASS_HZ, the low-pass's Nyquist limit (NaN fails)."""
    return math.isfinite(fs) and fs > 2 * LOWPASS_HZ


def valid_session_id(session_id) -> bool:
    """A non-empty ``str``: the id names the session in paths and messages."""
    return isinstance(session_id, str) and session_id != ""


@dataclass
class SemgRecording:
    """One session of multi-channel sEMG with synchronized wrist angles.

    ``emg`` is [T_e x N] at ``fs_emg``; ``angles`` is [T_a x D] in degrees at
    ``fs_ang`` where D is the number of active DoFs for ``protocol`` (1 for
    P1-P3, 3 for P4). Timestamps are absolute seconds and survive splitting,
    so label interpolation stays consistent across partitions. Each timestamp
    vector must strictly increase; a refusal names the first sample that
    does not, 1-based as a session CSV counts its data rows.
    """

    emg: np.ndarray
    t_emg: np.ndarray
    angles: np.ndarray
    t_ang: np.ndarray
    protocol: str
    session_id: str = "s0"
    fs_emg: float = DEFAULT_FS_EMG
    fs_ang: float = DEFAULT_FS_ANG

    def __post_init__(self):
        self.emg = np.asarray(self.emg, dtype=np.float64)
        self.angles = np.asarray(self.angles, dtype=np.float64)
        self.t_emg = np.asarray(self.t_emg, dtype=np.float64)
        self.t_ang = np.asarray(self.t_ang, dtype=np.float64)
        if self.protocol not in PROTOCOL_DOFS:
            raise DataError(f"unknown protocol {self.protocol!r}")
        if not valid_session_id(self.session_id):
            raise DataError(f"session_id must be a non-empty string, got {self.session_id!r}")
        if self.emg.ndim != 2 or self.angles.ndim != 2:
            raise DimensionError("emg and angles must be 2-D arrays")
        if self.angles.shape[1] != len(PROTOCOL_DOFS[self.protocol]):
            raise DataError(
                f"protocol {self.protocol} expects "
                f"{len(PROTOCOL_DOFS[self.protocol])} DoF column(s), "
                f"got {self.angles.shape[1]}"
            )
        if not valid_emg_rate(self.fs_emg):
            raise DataError(f"fs_emg={self.fs_emg} is not finite or violates Nyquist "
                            f"for the {LOWPASS_HZ} Hz low-pass")
        if len(self.t_emg) != len(self.emg) or len(self.t_ang) != len(self.angles):
            raise DimensionError("timestamp vectors must match sample counts")
        for name, rate in (("t_emg", "fs_emg"), ("t_ang", "fs_ang")):
            t, fs = getattr(self, name), getattr(self, rate)
            if len(t) < 2:
                continue
            stalls = np.flatnonzero(t[1:] <= t[:-1])
            if stalls.size:
                raise DataError(f"{name} not strictly increasing at data row "
                                f"{stalls[0] + 2}")
            estimated = (len(t) - 1) / (t[-1] - t[0])
            if not (math.isfinite(fs) and abs(estimated - fs) <= RATE_TOLERANCE * fs):
                raise DataError(f"{name} gives {estimated:.2f} Hz, which deviates more "
                                f"than {RATE_TOLERANCE:.0%} from {rate}={fs:g} Hz")

    @property
    def dof_names(self) -> list[str]:
        """The angle columns' names, in order: ``PROTOCOL_DOFS[protocol]``."""
        return list(PROTOCOL_DOFS[self.protocol])

    @property
    def n_channels(self) -> int:
        return self.emg.shape[1]

    @property
    def n_dof(self) -> int:
        return self.angles.shape[1]


def channel_names(n_channels: int) -> list[str]:
    """``ch1`` ... ``ch<n_channels>``: the EMG channels as emg.csv names them."""
    return [f"ch{i + 1}" for i in range(n_channels)]


@dataclass(frozen=True)
class NormalizationStats:
    """Per-channel min/max fitted on the training partition only."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mins", np.asarray(self.mins, dtype=np.float64))
        object.__setattr__(self, "maxs", np.asarray(self.maxs, dtype=np.float64))
        flat = self.maxs <= self.mins
        if np.any(flat):
            names = channel_names(flat.size)
            bad = ", ".join(names[i] for i in np.flatnonzero(flat))
            raise DegenerateChannelError(f"channel(s) {bad} have max <= min; cannot min-max scale")

    @classmethod
    def fit(cls, emg: np.ndarray) -> "NormalizationStats":
        """Per-channel min/max of ``emg`` [T x N]."""
        return cls(emg.min(axis=0), emg.max(axis=0))


def standard_chain(fs: float) -> list[np.ndarray]:
    """The fixed high-pass -> low-pass -> notch cascade at rate ``fs`` as SOS
    arrays. Raises FilterDesignError unless ``valid_emg_rate(fs)`` and every
    pole lies strictly inside the unit circle."""
    if not valid_emg_rate(fs):
        raise FilterDesignError(f"fs={fs} Hz is not finite or violates Nyquist for the low-pass")
    b, a = signal.iirnotch(NOTCH_HZ, NOTCH_HZ / NOTCH_BANDWIDTH_HZ, fs=fs)
    chain = [
        signal.butter(BUTTER_ORDER, HIGHPASS_HZ, btype="highpass", fs=fs, output="sos"),
        signal.butter(BUTTER_ORDER, LOWPASS_HZ, btype="lowpass", fs=fs, output="sos"),
        signal.tf2sos(b, a),
    ]
    for sos in chain:
        for section in sos:
            if np.any(np.abs(np.roots(section[3:])) >= 1.0):
                raise FilterDesignError(f"unstable section in the chain at fs={fs}")
    return chain


def _chain_runner(fs: float, n_channels: int):
    """``run(src, out)``: the standard chain at rate ``fs``, run causally over
    ``src`` [T x N] into ``out`` ``FILTER_BLOCK`` samples at a time, each
    stage carrying its state through ``sosfilt``'s ``zi`` from block to block
    and from one ``run`` to the next, so consecutive runs over consecutive
    samples give the bytes of one call per stage over all of them. Raises
    DataError on a non-finite sample."""
    chain = standard_chain(fs)
    states = [np.zeros((len(sos), 2, n_channels)) for sos in chain]

    def run(src: np.ndarray, out: np.ndarray) -> None:
        for start in range(0, len(src), FILTER_BLOCK):
            block = out[start : start + FILTER_BLOCK]
            block[...] = src[start : start + FILTER_BLOCK]
            if not np.all(np.isfinite(block)):
                raise DataError("recording contains non-finite samples")
            for i, sos in enumerate(chain):
                block[...], states[i] = signal.sosfilt(sos, block, axis=0, zi=states[i])

    return run


def apply_filter_chain(rec: SemgRecording) -> SemgRecording:
    """Run the standard chain causally (single forward pass) over all channels.

    The chain runs ``FILTER_BLOCK`` samples at a time (``_chain_runner``)
    into one channel-major output (the layout one ``sosfilt`` call returns),
    so the bytes are those of one call per stage over the whole recording,
    and the temporaries are one block's, not the recording's."""
    n_samples, n_channels = rec.emg.shape
    filtered = np.empty((n_channels, n_samples)).T
    _chain_runner(rec.fs_emg, n_channels)(rec.emg, filtered)
    return replace(rec, emg=filtered)


def fit_normalizer(train: SemgRecording) -> NormalizationStats:
    """Fit per-channel min/max on the training partition (leakage guard)."""
    return NormalizationStats.fit(train.emg)


def _scale_in_place(stats: NormalizationStats, emg: np.ndarray) -> np.ndarray:
    """(x - min) / (max - min) per channel, written over ``emg``."""
    emg -= stats.mins
    emg /= stats.maxs - stats.mins
    return emg


def apply_normalizer(stats: NormalizationStats, rec: SemgRecording) -> SemgRecording:
    """Map each channel through (x - min) / (max - min); test data may leave [0, 1].

    The recording is left as it is: the scaling runs over one copy."""
    return replace(rec, emg=_scale_in_place(stats, rec.emg.copy(order="K")))


def window_geometry(fs: float) -> tuple[int, int]:
    """(window, hop) in samples for WINDOW_MS and HOP_MS at rate ``fs``."""
    return int(round(WINDOW_MS * fs / 1000.0)), int(round(HOP_MS * fs / 1000.0))


def require_match(rec: SemgRecording, other: str, dof_names, fs_emg, n_channels) -> None:
    """Refuse, with a DataError naming the session, ``other`` and both values,
    a recording that cannot meet ``other`` (the model, or the other session of
    a pair) of these DoFs, EMG rate and channel count: another protocol,
    another rate, even one that windows alike as 1020 Hz does 1024 Hz (both
    geometries are named), or another channel count."""
    name = f"session {rec.session_id}"
    if rec.dof_names != list(dof_names):
        protocol = next((p for p, dofs in PROTOCOL_DOFS.items() if dofs == list(dof_names)), "?")
        raise DataError(f"{name} is protocol {rec.protocol} (DoFs {', '.join(rec.dof_names)}), "
                        f"but {other} is protocol {protocol} (DoFs {', '.join(dof_names)})")
    if rec.fs_emg != fs_emg:
        mine, theirs = ("%d/%d" % window_geometry(fs) for fs in (rec.fs_emg, fs_emg))
        raise DataError(f"{name} is at {rec.fs_emg:g} Hz (window/hop {mine} samples), "
                        f"but {other} is at {fs_emg:g} Hz ({theirs})")
    if rec.n_channels != n_channels:
        raise DataError(f"{name} has {rec.n_channels} EMG channels, but {other} has {n_channels}")


def _windows(emg: np.ndarray, window: int, hop: int) -> np.ndarray:
    """Read-only views [M x window x N] of every ``window``-sample run of
    ``emg`` [T x N] that starts on a multiple of ``hop``."""
    return sliding_window_view(emg, window, axis=0)[::hop].swapaxes(1, 2)


def window_end_times(rec: SemgRecording) -> np.ndarray:
    """End time [M] of each of ``segment_windows(rec)``'s windows, from the
    timestamps alone; none if ``rec`` is shorter than one window."""
    window, hop = window_geometry(rec.fs_emg)
    return rec.t_emg[window - 1 :: hop]


def window_labels(rec: SemgRecording) -> tuple[np.ndarray, np.ndarray]:
    """(labels [M x D], end_times [M]) of ``segment_windows(rec)``'s windows,
    from the timestamps and angles alone."""
    end_times = window_end_times(rec)
    if not len(end_times):
        raise InsufficientDataError(
            f"window of {window_geometry(rec.fs_emg)[0]} samples exceeds "
            f"recording length {len(rec.emg)}"
        )
    labels = np.stack(
        [np.interp(end_times, rec.t_ang, rec.angles[:, d]) for d in range(rec.n_dof)],
        axis=1,
    )
    return labels, end_times


def segment_windows(rec: SemgRecording) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slice the recording into overlapping windows with causally aligned labels.

    Returns (windows [M x window x N], labels [M x D], end_times [M]) with
    (window, hop) = ``window_geometry(rec.fs_emg)`` and
    M = floor((T - window) / hop) + 1. ``windows`` is a read-only view into
    ``rec.emg``. Each label is the angle trace linearly interpolated at the
    window's end time, so a window only ever sees a target from its own
    past-and-present samples.
    """
    labels, end_times = window_labels(rec)
    return _windows(rec.emg, *window_geometry(rec.fs_emg)), labels, end_times


def condition_blocks(
    rec: SemgRecording,
    stats: NormalizationStats | None,
    bounds: list[tuple[int, int]],
) -> Iterator[tuple[NormalizationStats, np.ndarray]]:
    """Filter, min-max scale and window ``rec`` one block of windows at a time.

    ``bounds`` are consecutive [start, stop) ranges that cover the M windows
    of ``window_labels(rec)``. For each, (stats, windows
    [stop - start x window x N]) is yielded: read-only views into one
    channel-major block of scaled samples. A block holds its windows' samples
    (the last block every sample to the end of the recording). Only its new
    samples are filtered, the chain carrying its state from the block before
    (``_chain_runner``), and scaled in place; the ``window - hop`` samples it
    shares with that block are copied over already scaled. With ``stats``
    None the min/max are fitted on the filtered recording, which needs one
    block, after the same rule has refused a channel whose raw samples are
    constant: the high-pass's start-up transient would give it a range.
    Every window has the bytes of ``condition``'s one-block pass."""
    window, hop = window_geometry(rec.fs_emg)
    n_samples, n_channels = rec.emg.shape
    n_windows = len(window_end_times(rec))
    if stats is None:
        if len(bounds) != 1:
            raise ValueError("fitting the min/max needs the recording in one block")
        NormalizationStats.fit(rec.emg)
    run = _chain_runner(rec.fs_emg, n_channels)
    shared = np.empty((0, n_channels))  # scaled samples the next block starts with
    for start, stop in bounds:
        end = n_samples if stop == n_windows else (stop - 1) * hop + window
        block = np.empty((n_channels, end - start * hop)).T
        block[: len(shared)] = shared
        fresh = block[len(shared) :]
        run(rec.emg[start * hop + len(shared) : end], fresh)
        if stats is None:
            stats = NormalizationStats.fit(fresh)
        _scale_in_place(stats, fresh)
        shared = block[(stop - start) * hop :]
        yield stats, _windows(block, window, hop)


def condition(
    rec: SemgRecording, stats: NormalizationStats | None = None
) -> tuple[NormalizationStats, np.ndarray, np.ndarray, np.ndarray]:
    """(stats, windows, labels, end_times): filter, min-max scale and window
    one partition, ``condition_blocks`` over one block. With ``stats`` None
    the min/max are fitted on ``rec`` (a training partition); given stats are
    applied and returned as they are, so a test partition's windows may
    leave [0, 1], and a flat channel is refused naming the session. The call
    holds one scaled copy of the recording beyond ``rec``, and the windows
    are views into it."""
    labels, end_times = window_labels(rec)
    try:
        ((stats, windows),) = condition_blocks(rec, stats, [(0, len(end_times))])
    except DegenerateChannelError as exc:
        raise DegenerateChannelError(f"session {rec.session_id}: {exc}") from None
    return stats, windows, labels, end_times


def matrix_length(mode: str, fs: float) -> int:
    """L of ``build_matrices``'s output in ``mode`` for windows at rate ``fs``."""
    if mode not in MATRIX_MODES:
        raise DataError(f"unknown matrix mode {mode!r}")
    return N_FFT // 2 + 1 if mode == "spectral" else window_geometry(fs)[0]


def build_matrices(windows: np.ndarray, mode: str) -> np.ndarray:
    """Turn windows [M x window x N] into float32 input matrices [M x L x N].

    Spectral mode zero-pads each channel to N_FFT and keeps the one-sided
    FFT magnitude (L = N_FFT/2 + 1 = 101 bins); temporal mode passes samples
    through unchanged (L = window length). Spectral mode transforms
    ``FFT_BLOCK`` windows at a time into the float32 output, so its
    complex128 and float64 temporaries are one block's, not the recording's;
    each 1-D transform is independent, so the bytes are those of one call
    over every window.
    """
    if mode == "temporal":
        return windows.astype(np.float32)
    if mode != "spectral":
        raise DataError(f"unknown matrix mode {mode!r}")
    mats = np.empty((len(windows), N_FFT // 2 + 1, windows.shape[2]), dtype=np.float32)
    for start in range(0, len(windows), FFT_BLOCK):
        stop = start + FFT_BLOCK
        mats[start:stop] = np.abs(np.fft.rfft(windows[start:stop], n=N_FFT, axis=1))
    return mats


def build_matrix(window: np.ndarray, mode: str) -> np.ndarray:
    """One window [window x N] as a 1 x L x N input matrix."""
    return build_matrices(window[np.newaxis], mode)


def stack_matrices(
    windows: np.ndarray, labels: np.ndarray, mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """(X [M x L x N], Y [M x D]): the input matrices with their labels."""
    if len(windows) == 0:
        raise InsufficientDataError("no windows to build matrices from")
    if len(labels) != len(windows):
        raise DimensionError("windows and labels must align")
    return build_matrices(windows, mode), labels
