"""Hand-crafted per-channel features (MAV, RMS, VAR, AR(4)) and PCA reduction.

These feed the classical-ML baseline and the 2-D feature scatter export.
All statistics are population statistics, so rms^2 == var + mean^2 holds
exactly per channel. ``extract_feature_matrix`` works on all windows at
once, with one Levinson-Durbin recursion batched over every (window,
channel) row; a row whose recursion is singular (a constant or silent
channel) gets zero AR coefficients, and no flag records it.

``AR_ORDER`` = 4 gives each channel ``FEATURES_PER_CHANNEL`` = 3 + 4 = 7
values. ``PCA_COMPONENTS`` = 20 matches the CNN's deep feature
(``nn.FEATURE_DIM``), so the KRR baseline and the LSTM see features of one
size.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError

AR_ORDER = 4
FEATURES_PER_CHANNEL = 3 + AR_ORDER  # mav, rms, var, a1..a4
PCA_COMPONENTS = 20

_DEGENERATE_TOL = 1e-12


def extract_feature_matrix(windows: np.ndarray) -> np.ndarray:
    """Hand-crafted vectors of windows [M x W x N] as one [M x 7N] matrix.

    Every (window, channel) pair is one row of W samples; the statistics are
    reductions along that axis, the biased autocovariance at lags
    0..AR_ORDER is one dot product per lag over all rows, and one
    Levinson-Durbin recursion runs on all rows at once. A row whose
    prediction error reaches ``_DEGENERATE_TOL`` (a constant or silent
    channel) gets zero AR coefficients.
    """
    windows = np.asarray(windows)
    m, w, n = windows.shape
    rows = np.array(windows.transpose(0, 2, 1), np.float64, order="C").reshape(m * n, w)
    mav = np.mean(np.abs(rows), axis=1)
    rms = np.sqrt(np.mean(rows * rows, axis=1))
    rows -= rows.mean(axis=1, keepdims=True)
    var = np.mean(rows * rows, axis=1)
    r = np.stack(
        [np.vecdot(rows[:, : w - k], rows[:, k:]) / w for k in range(AR_ORDER + 1)],
        axis=1,
    )
    values = np.column_stack([mav, rms, var, _batched_levinson_durbin(r)])
    return values.reshape(m, n * FEATURES_PER_CHANNEL)


def extract_features(window: np.ndarray) -> np.ndarray:
    """The [7N] hand-crafted vector of one [W x N] window."""
    return extract_feature_matrix(np.asarray(window)[np.newaxis])[0]


def _batched_levinson_durbin(r: np.ndarray) -> np.ndarray:
    """AR coefficients [R x AR_ORDER] from autocovariances [R x (AR_ORDER + 1)].

    Solves each row's Yule-Walker system with the convention
    x_t = sum_i a_i x_{t-i} + e_t, so the coefficients carry a plus sign.
    A row stays live until its prediction error reaches ``_DEGENERATE_TOL``
    (a NaN error stays live and propagates); a row that reaches it at any
    order gets all-zero coefficients.
    """
    a = np.zeros((r.shape[0], AR_ORDER))
    err = r[:, 0].copy()
    live = np.ones(r.shape[0], dtype=bool)
    # Reversed lags in a contiguous copy: each step's r[i-1], ..., r[1] is a
    # unit-stride slice, so np.vecdot runs BLAS ddot on every row.
    r_rev = np.ascontiguousarray(r[:, ::-1])
    for i in range(1, AR_ORDER + 1):
        live &= ~(err <= _DEGENERATE_TOL)
        prev = a[:, : i - 1]
        acc = r[:, i] - np.vecdot(prev, r_rev[:, AR_ORDER - i + 1 : AR_ORDER])
        k = np.divide(acc, err, out=np.zeros_like(acc), where=live)
        a[:, : i - 1] = prev - k[:, None] * prev[:, ::-1]
        a[:, i - 1] = k
        err *= 1.0 - k * k
    a[~live] = 0.0
    return a


@dataclass
class PcaBasis:
    """Principal axes of the z-scored training features.

    ``components`` holds up to ``PCA_COMPONENTS`` orthonormal columns (fewer
    if the training data is rank-deficient); projections are padded with
    zeros back to ``PCA_COMPONENTS``.
    """

    mean: np.ndarray  # [F] feature means (original units)
    scale: np.ndarray  # [F] feature stds used for z-scoring
    components: np.ndarray  # [F x rank]
    explained_variance: np.ndarray  # [rank], non-increasing

    @property
    def rank(self) -> int:
        return self.components.shape[1]

    def project(self, v: np.ndarray) -> np.ndarray:
        """Map [F] or [M x F] into the (zero-padded) component space."""
        v = np.asarray(v, dtype=np.float64)
        z = (v - self.mean) / self.scale
        proj = z @ self.components
        pad = PCA_COMPONENTS - self.rank
        if pad > 0:
            pad_shape = proj.shape[:-1] + (pad,)
            proj = np.concatenate([proj, np.zeros(pad_shape)], axis=-1)
        return proj


def fit_pca(train_features: np.ndarray) -> PcaBasis:
    """Fit the z-score + PCA reduction on training features only.

    Features are standardized first because MAV/VAR magnitudes differ by
    orders of magnitude. Rank deficiency keeps the available components and
    emits a warning; projections then carry trailing zeros.
    """
    x = np.asarray(train_features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < PCA_COMPONENTS + 1:
        raise InsufficientDataError(
            f"PCA needs at least {PCA_COMPONENTS + 1} training vectors, got "
            f"{x.shape[0] if x.ndim == 2 else 'non-matrix input'}"
        )
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale = np.where(scale < _DEGENERATE_TOL, 1.0, scale)
    z = (x - mean) / scale
    _, s, vt = np.linalg.svd(z, full_matrices=False)
    variances = s**2 / x.shape[0]
    rank = int(np.sum(s > s[0] * max(x.shape) * np.finfo(np.float64).eps))
    keep = min(rank, PCA_COMPONENTS)
    if keep < PCA_COMPONENTS:
        warnings.warn(
            f"training features have rank {rank} < {PCA_COMPONENTS}; "
            f"projections will be zero-padded",
            stacklevel=2,
        )
    return PcaBasis(
        mean=mean,
        scale=scale,
        components=vt[:keep].T,
        explained_variance=variances[:keep],
    )


def project_2d(features: np.ndarray) -> np.ndarray:
    """Top-2 principal projection (centering only) for scatter exports.

    No standardization here: the projection of already-2-D data is a rigid
    rotation, preserving pairwise distances.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InsufficientDataError("project_2d needs at least 2 feature vectors")
    z = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(z, full_matrices=False)
    proj = z @ vt[: min(2, vt.shape[0])].T
    if proj.shape[1] < 2:
        proj = np.concatenate([proj, np.zeros((proj.shape[0], 1))], axis=1)
    return proj
