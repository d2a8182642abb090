"""Hand-crafted per-channel features (MAV, RMS, VAR, AR(4)) and PCA reduction.

These feed the classical-ML baseline and the 2-D feature scatter export.
All statistics are population statistics, so rms^2 == var + mean^2 holds
exactly per channel.
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


@dataclass
class HandcraftedVector:
    """Per-channel [mav, rms, var, a1..a4] concatenated over channels."""

    values: np.ndarray  # [7 * N]
    degenerate: np.ndarray  # [N] bool, True where the AR solve was singular


def _levinson_durbin(r: np.ndarray, order: int) -> tuple[np.ndarray, bool]:
    """Solve the Yule-Walker system for AR coefficients.

    Convention: x_t = sum_i a_i x_{t-i} + e_t, so the returned coefficients
    carry a plus sign. Returns (coeffs, degenerate); a singular recursion
    (zero prediction error, e.g. constant input) yields zeros and True.
    """
    a = np.zeros(order)
    err = r[0]
    if err <= _DEGENERATE_TOL:
        return a, True
    for i in range(1, order + 1):
        acc = r[i] - np.dot(a[: i - 1], r[i - 1 : 0 : -1])
        if err <= _DEGENERATE_TOL:
            return np.zeros(order), True
        k = acc / err
        a_new = a.copy()
        a_new[i - 1] = k
        a_new[: i - 1] = a[: i - 1] - k * a[i - 2 :: -1][: i - 1]
        a = a_new
        err *= 1.0 - k * k
    return a, False


def _biased_autocovariance(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased (divide-by-T) autocovariance of the mean-removed signal."""
    x = x - x.mean()
    n = len(x)
    return np.array([np.dot(x[: n - k], x[k:]) / n for k in range(max_lag + 1)])


def extract_features(window: np.ndarray) -> HandcraftedVector:
    """Compute the hand-crafted vector for one [window_samples x N] window."""
    window = np.asarray(window, dtype=np.float64)
    n_channels = window.shape[1]
    out = np.empty(n_channels * FEATURES_PER_CHANNEL)
    degenerate = np.zeros(n_channels, dtype=bool)
    for ch in range(n_channels):
        x = window[:, ch]
        mav = np.mean(np.abs(x))
        var = np.var(x)
        rms = np.sqrt(np.mean(x * x))
        r = _biased_autocovariance(x, AR_ORDER)
        ar, bad = _levinson_durbin(r, AR_ORDER)
        degenerate[ch] = bad
        base = ch * FEATURES_PER_CHANNEL
        out[base : base + 3] = (mav, rms, var)
        out[base + 3 : base + 3 + AR_ORDER] = ar
    return HandcraftedVector(values=out, degenerate=degenerate)


def extract_feature_matrix(windows: np.ndarray) -> np.ndarray:
    """Hand-crafted vectors of windows [M x window x N], stacked into [M x 7N]."""
    return np.stack([extract_features(w).values for w in windows])


@dataclass
class PcaBasis:
    """Principal axes of the z-scored training features.

    ``components`` holds up to ``n_components`` orthonormal columns (fewer if
    the training data is rank-deficient); projections are padded with zeros
    back to ``n_components``.
    """

    mean: np.ndarray  # [F] feature means (original units)
    scale: np.ndarray  # [F] feature stds used for z-scoring
    components: np.ndarray  # [F x rank]
    explained_variance: np.ndarray  # [rank], non-increasing
    n_components: int = PCA_COMPONENTS

    @property
    def rank(self) -> int:
        return self.components.shape[1]

    def project(self, v: np.ndarray) -> np.ndarray:
        """Map [F] or [M x F] into the (zero-padded) component space."""
        v = np.asarray(v, dtype=np.float64)
        z = (v - self.mean) / self.scale
        proj = z @ self.components
        pad = self.n_components - self.rank
        if pad > 0:
            pad_shape = proj.shape[:-1] + (pad,)
            proj = np.concatenate([proj, np.zeros(pad_shape)], axis=-1)
        return proj

    def reconstruct(self, proj: np.ndarray) -> np.ndarray:
        """Inverse map back to original feature units (lossy beyond rank)."""
        proj = np.asarray(proj, dtype=np.float64)[..., : self.rank]
        return proj @ self.components.T * self.scale + self.mean


def fit_pca(train_features: np.ndarray, n_components: int = PCA_COMPONENTS) -> PcaBasis:
    """Fit the z-score + PCA reduction on training features only.

    Features are standardized first because MAV/VAR magnitudes differ by
    orders of magnitude. Rank deficiency keeps the available components and
    emits a warning; projections then carry trailing zeros.
    """
    x = np.asarray(train_features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < n_components + 1:
        raise InsufficientDataError(
            f"PCA needs at least {n_components + 1} training vectors, got "
            f"{x.shape[0] if x.ndim == 2 else 'non-matrix input'}"
        )
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale = np.where(scale < _DEGENERATE_TOL, 1.0, scale)
    z = (x - mean) / scale
    _, s, vt = np.linalg.svd(z, full_matrices=False)
    variances = s**2 / x.shape[0]
    rank = int(np.sum(s > s[0] * max(x.shape) * np.finfo(np.float64).eps))
    keep = min(rank, n_components)
    if keep < n_components:
        warnings.warn(
            f"training features have rank {rank} < {n_components}; "
            f"projections will be zero-padded",
            stacklevel=2,
        )
    return PcaBasis(
        mean=mean,
        scale=scale,
        components=vt[:keep].T,
        explained_variance=variances[:keep],
        n_components=n_components,
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
