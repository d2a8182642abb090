"""Kernel ridge regression baseline with an RBF kernel.

Operates on the PCA-projected handcrafted feature vectors (20-dim). The
dual problem (K + lambda I) alpha = Y is solved densely in float64; targets
are centered so the model predicts the mean far away from all support
points. ``fit`` takes samples [M x F] and targets [M x D], ``predict``
queries [Q x F]. ``tune`` picks (gamma, lambda) by ``INNER_FOLDS`` = 5-fold
contiguous inner cross-validation over the fixed log grids ``GAMMA_GRID``
(1e-3 to 10) and ``LAMBDA_GRID`` (1e-6 to 1), five points each.

Every solve, in ``fit`` and in each cross-validation fold, goes through
``_solve``: it adds lambda on the diagonal of one Fortran-ordered copy of
the kernel, factors that copy by Cholesky in place, and falls back to LU,
on a system built again from the kernel, where the factorization fails (a
numerically singular system at a tiny lambda). Before any solve, kernel
entries below ``KERNEL_FLOOR`` = 1e-50 are set to 0. At gamma = 10 many
entries are tiny, and the Cholesky of such a system forms subnormal products
of small but normal entries, which run many times slower than normal
arithmetic; flushing only the input's subnormals does not help. With the
floor at 1e-50 every CV score kept its bytes on the synthetic P1 and P4
features tried, and the gamma = 10 Cholesky ran about as fast as the other
gammas'. Cross-validation in ``tune`` writes each gamma's floored kernel
over all samples into one reused buffer and slices each fold's train and
test blocks from it. On 902 samples of 20 features ``tune``'s traced peak
is 22.7 MB, against 31.4 MB with a new kernel per gamma and two copies of
the system per solve; every score keeps its bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InsufficientDataError, SolverError

GAMMA_GRID = tuple(np.logspace(-3.0, 1.0, 5))
LAMBDA_GRID = tuple(np.logspace(-6.0, 0.0, 5))
INNER_FOLDS = 5
KERNEL_FLOOR = 1e-50


@dataclass
class KrrModel:
    support: np.ndarray  # [M x F]
    coefficients: np.ndarray  # [M x D]
    gamma: float
    ridge: float
    target_mean: np.ndarray  # [D]

    def __post_init__(self):
        if self.coefficients.shape[0] != self.support.shape[0]:
            raise SolverError(
                "dual coefficient rows must match support rows: "
                f"{self.coefficients.shape[0]} vs {self.support.shape[0]}"
            )


def _sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||a_i - b_j||^2, clipped at 0 against cancellation."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sq = (
        np.sum(a**2, axis=1)[:, np.newaxis]
        + np.sum(b**2, axis=1)[np.newaxis, :]
        - 2.0 * (a @ b.T)
    )
    return np.maximum(sq, 0.0)


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """K_ij = exp(-gamma * ||a_i - b_j||^2)."""
    return np.exp(-gamma * _sq_distances(a, b))


def _floored(kernel: np.ndarray) -> np.ndarray:
    """``kernel`` with its entries below ``KERNEL_FLOOR`` set to 0, in place."""
    kernel[kernel < KERNEL_FLOOR] = 0.0
    return kernel


def _system(kernel: np.ndarray, ridge: float) -> np.ndarray:
    """A new Fortran-ordered array holding kernel + ridge*I, the order in
    which LAPACK's Cholesky can factor it in place."""
    system = np.array(kernel, order="F")
    system.flat[:: system.shape[0] + 1] += ridge
    return system


def _solve(kernel: np.ndarray, ridge: float, rhs: np.ndarray) -> np.ndarray:
    """alpha with (kernel + ridge*I) alpha = rhs: Cholesky, else LU.

    The Cholesky factors its copy of the system in place; only the LU
    fallback builds the system again, as the failed factorization has
    overwritten the first."""
    try:
        factor = scipy.linalg.cho_factor(
            _system(kernel, ridge), overwrite_a=True, check_finite=False
        )
        return scipy.linalg.cho_solve(factor, rhs, check_finite=False)
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.solve(_system(kernel, ridge), rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"kernel system is singular ({exc}); duplicate training points at "
            "ridge=0 — use ridge > 0"
        ) from exc


def fit(x: np.ndarray, y: np.ndarray, gamma: float, ridge: float) -> KrrModel:
    """Solve (K + ridge*I) alpha = Y - mean(Y) over the training set."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[0] < 2:
        raise InsufficientDataError(f"KRR needs at least 2 samples, got {x.shape[0]}")
    if gamma <= 0:
        raise SolverError(f"gamma must be > 0, got {gamma}")
    if ridge < 0:
        raise SolverError(f"ridge must be >= 0, got {ridge}")
    mean = y.mean(axis=0)
    coef = _solve(_floored(rbf_kernel(x, x, gamma)), ridge, y - mean)
    return KrrModel(
        support=x, coefficients=coef, gamma=gamma, ridge=ridge, target_mean=mean
    )


def predict(model: KrrModel, x: np.ndarray) -> np.ndarray:
    """mean + sum_i alpha_i k(x_i, x) for queries [Q x F]; returns [Q x D]."""
    return model.target_mean + rbf_kernel(x, model.support, model.gamma) @ model.coefficients


def _fold_slices(n: int, folds: int) -> list[slice]:
    bounds = [int(i * n / folds) for i in range(folds + 1)]
    return [slice(bounds[i], bounds[i + 1]) for i in range(folds)]


def _mean_r2(truth: np.ndarray, pred: np.ndarray) -> float:
    """Eq.-style R^2 averaged over output columns (population variances)."""
    var = np.var(truth, axis=0)
    if np.any(var <= 0):
        return -np.inf
    return float(np.mean(1.0 - np.var(truth - pred, axis=0) / var))


def _cv_scores(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean inner-CV R^2 of every grid point: [len(GAMMA_GRID) x len(LAMBDA_GRID)].

    Kernel entries below ``KERNEL_FLOOR`` are set to 0 before the solves.
    """
    splits = []
    for fold in _fold_slices(x.shape[0], INNER_FOLDS):
        mask = np.ones(x.shape[0], dtype=bool)
        mask[fold] = False
        y_train = y[mask]
        mean = y_train.mean(axis=0)
        splits.append((fold, np.ix_(mask, mask), mask, y_train - mean, mean))
    sq = _sq_distances(x, x)
    kernel = np.empty_like(sq)  # every gamma's kernel, in turn
    grid = np.empty((len(GAMMA_GRID), len(LAMBDA_GRID)))
    for row, gamma in zip(grid, GAMMA_GRID):
        np.multiply(-gamma, sq, out=kernel)
        np.exp(kernel, out=kernel)
        _floored(kernel)
        scores_by_ridge = [[] for _ in LAMBDA_GRID]
        for fold, train_block, mask, centered, mean in splits:
            k_train = kernel[train_block]
            k_test = kernel[fold][:, mask]
            for scores, ridge in zip(scores_by_ridge, LAMBDA_GRID):
                coef = _solve(k_train, ridge, centered)
                scores.append(_mean_r2(y[fold], mean + k_test @ coef))
        row[:] = [np.mean(scores) for scores in scores_by_ridge]
    return grid


def tune(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Pick (gamma, ridge) from ``GAMMA_GRID`` x ``LAMBDA_GRID`` maximizing
    mean R^2 over ``INNER_FOLDS`` contiguous inner-CV folds.

    Ties resolve to the smaller gamma, then the larger ridge (the smoother,
    more regularized model). A NaN score ranks as -inf, below every finite
    score, and SolverError is raised where every score is NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[0] < 2 * INNER_FOLDS:
        raise InsufficientDataError(
            f"tuning needs >= {2 * INNER_FOLDS} samples for {INNER_FOLDS}-fold CV, "
            f"got {x.shape[0]}"
        )
    # the first maximum (NaN read as -inf) over ascending gamma, descending ridge
    scores = _cv_scores(x, y)[:, ::-1]
    if np.isnan(scores).all():
        raise SolverError("every inner-CV score is NaN")
    row, col = np.unravel_index(np.nanargmax(scores), scores.shape)
    return float(GAMMA_GRID[row]), float(LAMBDA_GRID[-1 - col])
