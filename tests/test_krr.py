import numpy as np
import pytest
import scipy.linalg

from emgkin import dsp, features, krr, synth
from emgkin.errors import InsufficientDataError, SolverError
from conftest import traced_peak


def toy_data(n=10, f=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, f))
    y = rng.standard_normal((n, 2))
    return x, y


def test_kernel_diagonal_is_one_and_symmetric():
    x, _ = toy_data(8)
    k = krr.rbf_kernel(x, x, gamma=0.5)
    np.testing.assert_allclose(np.diag(k), 1.0, atol=1e-12)
    np.testing.assert_allclose(k, k.T, atol=1e-12)
    assert np.all(k > 0.0) and np.all(k <= 1.0)


def test_kernel_matches_brute_force():
    a = np.random.default_rng(1).standard_normal((5, 3))
    b = np.random.default_rng(2).standard_normal((7, 3))
    gamma = 0.7
    k = krr.rbf_kernel(a, b, gamma)
    for i in range(5):
        for j in range(7):
            expected = np.exp(-gamma * np.sum((a[i] - b[j]) ** 2))
            assert k[i, j] == pytest.approx(expected, abs=1e-12)


def test_exact_interpolation_at_zero_ridge():
    x, y = toy_data(10)
    model = krr.fit(x, y, gamma=0.5, ridge=0.0)
    pred = krr.predict(model, x)
    assert np.max(np.abs(pred - y)) < 1e-6


def test_prediction_is_kernel_dual_sum():
    # prediction must equal sum_i alpha_i k(x_i, q) + mean offset, brute force
    x, y = toy_data(9, seed=3)
    model = krr.fit(x, y, gamma=0.3, ridge=1e-3)
    q = np.random.default_rng(4).standard_normal((6, 4))
    pred = krr.predict(model, q)
    for j in range(6):
        acc = model.target_mean.copy()
        for i in range(9):
            k_ij = np.exp(-0.3 * np.sum((x[i] - q[j]) ** 2))
            acc = acc + model.coefficients[i] * k_ij
        np.testing.assert_allclose(pred[j], acc, atol=1e-10)


def test_huge_ridge_predicts_train_mean():
    x, y = toy_data(12, seed=5)
    model = krr.fit(x, y, gamma=0.5, ridge=1e9)
    pred = krr.predict(model, x)
    np.testing.assert_allclose(pred, np.tile(y.mean(axis=0), (12, 1)), atol=1e-3)


def test_regularization_path_training_error_monotone():
    """Training fit can only get worse as the ridge grows."""
    x, y = toy_data(30, seed=6)
    errors = []
    for lam in (0.0, 1e-6, 1e-4, 1e-2, 1.0, 100.0):
        model = krr.fit(x, y, gamma=0.5, ridge=lam)
        errors.append(float(np.mean((krr.predict(model, x) - y) ** 2)))
    diffs = np.diff(errors)
    assert np.all(diffs >= -1e-10), f"training error not monotone: {errors}"


def test_training_permutation_invariance():
    x, y = toy_data(15, seed=7)
    q = np.random.default_rng(8).standard_normal((5, 4))
    perm = np.random.default_rng(9).permutation(15)
    a = krr.predict(krr.fit(x, y, 0.5, 1e-2), q)
    b = krr.predict(krr.fit(x[perm], y[perm], 0.5, 1e-2), q)
    np.testing.assert_allclose(a, b, atol=1e-8)


def test_fit_validation():
    x, y = toy_data(10)
    with pytest.raises(InsufficientDataError):
        krr.fit(x[:1], y[:1], gamma=0.5, ridge=0.0)
    with pytest.raises(SolverError):
        krr.fit(x, y, gamma=0.0, ridge=0.0)
    with pytest.raises(SolverError):
        krr.fit(x, y, gamma=0.5, ridge=-1.0)


def test_duplicate_points_at_zero_ridge_raise_solver_error():
    x, y = toy_data(6, seed=12)
    x[3] = x[0]  # singular kernel matrix
    with pytest.raises(SolverError, match="ridge"):
        krr.fit(x, y, gamma=0.5, ridge=0.0)


def test_duplicate_points_fine_with_ridge():
    x, y = toy_data(6, seed=12)
    x[3] = x[0]
    y[3] = y[0]
    model = krr.fit(x, y, gamma=0.5, ridge=1e-6)
    assert np.all(np.isfinite(model.coefficients))


def test_tune_returns_grid_members_deterministically():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((60, 3))
    y = np.sin(x[:, :1]) + 0.1 * rng.standard_normal((60, 1))
    g1, l1 = krr.tune(x, y)
    g2, l2 = krr.tune(x, y)
    assert (g1, l1) == (g2, l2)
    assert any(np.isclose(g1, g) for g in krr.GAMMA_GRID)
    assert any(np.isclose(l1, l) for l in krr.LAMBDA_GRID)
    assert isinstance(g1, float) and isinstance(l1, float)


def test_tune_recovers_signal_on_learnable_data():
    rng = np.random.default_rng(14)
    x = rng.uniform(-2, 2, (80, 2))
    y = (np.sin(2 * x[:, :1]) + x[:, 1:] ** 2) + 0.05 * rng.standard_normal((80, 1))
    gamma, lam = krr.tune(x, y)
    model = krr.fit(x, y, gamma, lam)
    pred = krr.predict(model, x)
    ss_res = np.var(pred - y)
    assert 1.0 - ss_res / np.var(y) > 0.8


def reference_tune(x, y):
    """The fit/predict loop tune replaced: one LU fit per (gamma, ridge, fold)."""
    slices = krr._fold_slices(x.shape[0], krr.INNER_FOLDS)
    best = None
    for gamma in krr.GAMMA_GRID:
        for ridge in krr.LAMBDA_GRID:
            scores = []
            for fold in slices:
                mask = np.ones(x.shape[0], dtype=bool)
                mask[fold] = False
                model = krr.fit(x[mask], y[mask], gamma, ridge)
                scores.append(krr._mean_r2(y[fold], krr.predict(model, x[fold])))
            score = float(np.mean(scores))
            if best is None or score > best[0] or (
                score == best[0] and gamma == best[1] and ridge > best[2]
            ):
                best = (score, gamma, ridge)
    return float(best[1]), float(best[2])


def synthetic_features(seed, protocol="P1"):
    """PCA-20 handcrafted features of a 20 s synthetic session, as the KRR
    baseline builds them."""
    rec = synth.generate(synth.SynthConfig(protocol=protocol, duration_s=20.0, seed=seed))
    filtered = dsp.apply_filter_chain(rec)
    normed = dsp.apply_normalizer(dsp.fit_normalizer(filtered), filtered)
    windows, labels, _ = dsp.segment_windows(normed)
    feats = features.extract_feature_matrix(windows)
    return features.fit_pca(feats).project(feats), labels


@pytest.mark.parametrize("source", ["random-1", "random-2", "sine-3", "p1-1", "p1-2"])
def test_tune_selects_what_the_fit_predict_loop_selects(source):
    kind, seed = source.split("-")
    rng = np.random.default_rng(int(seed))
    if kind == "random":
        x = rng.standard_normal((90, 5))
        y = rng.standard_normal((90, 2))
    elif kind == "sine":
        x = rng.uniform(-2, 2, (120, 3))
        y = np.sin(2 * x[:, :1]) + 0.1 * rng.standard_normal((120, 1))
    else:
        x, y = synthetic_features(int(seed))
    assert krr.tune(x, y) == reference_tune(x, y)


def reference_cv_scores(x, y):
    """The CV grid loop of tune without the kernel floor."""
    slices = krr._fold_slices(x.shape[0], krr.INNER_FOLDS)
    sq = krr._sq_distances(x, x)
    grid = np.empty((len(krr.GAMMA_GRID), len(krr.LAMBDA_GRID)))
    for i, gamma in enumerate(krr.GAMMA_GRID):
        kernel = np.exp(-gamma * sq)
        for j, ridge in enumerate(krr.LAMBDA_GRID):
            scores = []
            for fold in slices:
                mask = np.ones(x.shape[0], dtype=bool)
                mask[fold] = False
                mean = y[mask].mean(axis=0)
                k_train = kernel[np.ix_(mask, mask)]
                system = k_train + ridge * np.eye(k_train.shape[0])
                factor = scipy.linalg.cho_factor(system, check_finite=False)
                coef = scipy.linalg.cho_solve(factor, y[mask] - mean, check_finite=False)
                pred = mean + kernel[fold][:, mask] @ coef
                scores.append(krr._mean_r2(y[fold], pred))
            grid[i, j] = np.mean(scores)
    return grid


@pytest.mark.parametrize("protocol", ["P1", "P4"])
@pytest.mark.parametrize("seed", [1, 2])
def test_kernel_floor_keeps_every_cv_score(protocol, seed):
    """Flushing kernel entries below KERNEL_FLOOR changes no score's bytes,
    though most of the gamma = 10 kernel lies below it."""
    x, y = synthetic_features(seed, protocol)
    flushed = np.exp(-max(krr.GAMMA_GRID) * krr._sq_distances(x, x)) < krr.KERNEL_FLOOR
    assert flushed.mean() > 0.5
    grid = krr._cv_scores(x, y)
    assert grid.shape == (len(krr.GAMMA_GRID), len(krr.LAMBDA_GRID))
    assert grid.tobytes() == reference_cv_scores(x, y).tobytes()


def reference_solve(kernel, ridge, rhs):
    """The solve this one replaced: a C-ordered system that cho_factor
    copies again into Fortran order."""
    system = kernel.copy()
    system.flat[:: system.shape[0] + 1] += ridge
    try:
        factor = scipy.linalg.cho_factor(system, check_finite=False)
        return scipy.linalg.cho_solve(factor, rhs, check_finite=False)
    except np.linalg.LinAlgError:
        return np.linalg.solve(system, rhs)


def reference_floored_cv_scores(x, y):
    """The CV grid this one replaced: a new floored kernel per gamma, each
    solve by ``reference_solve``."""
    splits = []
    for fold in krr._fold_slices(x.shape[0], krr.INNER_FOLDS):
        mask = np.ones(x.shape[0], dtype=bool)
        mask[fold] = False
        y_train = y[mask]
        mean = y_train.mean(axis=0)
        splits.append((fold, np.ix_(mask, mask), mask, y_train - mean, mean))
    sq = krr._sq_distances(x, x)
    grid = np.empty((len(krr.GAMMA_GRID), len(krr.LAMBDA_GRID)))
    for row, gamma in zip(grid, krr.GAMMA_GRID):
        kernel = krr._floored(np.exp(-gamma * sq))
        scores_by_ridge = [[] for _ in krr.LAMBDA_GRID]
        for fold, train_block, mask, centered, mean in splits:
            k_train = kernel[train_block]
            k_test = kernel[fold][:, mask]
            for scores, ridge in zip(scores_by_ridge, krr.LAMBDA_GRID):
                coef = reference_solve(k_train, ridge, centered)
                scores.append(krr._mean_r2(y[fold], mean + k_test @ coef))
        row[:] = [np.mean(scores) for scores in scores_by_ridge]
    return grid


@pytest.mark.parametrize("protocol", ["P1", "P4"])
def test_cv_scores_match_the_copying_solve_bytes(protocol):
    """One reused kernel buffer and an in-place Cholesky of one Fortran-ordered
    copy give every score of a new kernel per gamma and a copy per solve,
    gamma = 10 included, where the floor zeroes most of the kernel."""
    x, y = synthetic_features(3, protocol)
    assert max(krr.GAMMA_GRID) == 10.0
    assert krr._cv_scores(x, y).tobytes() == reference_floored_cv_scores(x, y).tobytes()


def test_tune_peak_memory_is_two_kernels_and_two_train_blocks():
    """tune holds the squared distances, one kernel buffer, a fold's train
    block and the one copy of it that the Cholesky factors in place, and the
    fold's test block."""
    n = 902
    rng = np.random.default_rng(28)
    x = rng.standard_normal((n, 20))
    y = rng.standard_normal((n, 3))
    sizes = [fold.stop - fold.start for fold in krr._fold_slices(n, krr.INNER_FOLDS)]
    train, test = n - min(sizes), max(sizes)
    budget = (2 * n * n + 2 * train * train + test * train) * 8
    slack = 1 << 20
    _, peak = traced_peak(krr.tune, x, y)
    assert peak <= budget + slack, (peak, budget)


def test_tune_falls_back_to_lu_when_cholesky_fails(monkeypatch):
    # Row 7 repeats row 0 up to 1e-9, so the kernel entry between them
    # rounds to exactly 1: at ridge 0 the Cholesky pivot of row 7 is <= 0,
    # while LU still finds a nonzero pivot.
    rng = np.random.default_rng(26)
    x = rng.standard_normal((40, 3))
    x[7] = x[0] + 1e-9
    y = np.sin(x[:, :1]) + 0.1 * rng.standard_normal((40, 1))
    lu_calls = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        lu_calls.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(krr, "GAMMA_GRID", (0.1,))
    monkeypatch.setattr(krr, "LAMBDA_GRID", (0.0, 1e-2))
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    chosen = krr.tune(x, y)
    assert lu_calls, "no system fell back to LU"
    assert chosen == reference_tune(x, y)


def test_tune_singular_system_raises_solver_error(monkeypatch):
    rng = np.random.default_rng(27)
    x = rng.standard_normal((20, 3))
    y = rng.standard_normal((20, 1))
    x[12] = x[3]  # exactly singular kernel at ridge 0, for Cholesky and LU
    monkeypatch.setattr(krr, "LAMBDA_GRID", (0.0,))
    with pytest.raises(SolverError, match="ridge"):
        krr.tune(x, y)


def _tune_on_grid(monkeypatch, grid):
    """tune's choice when every CV score is given by ``grid``."""
    grid = np.asarray(grid, dtype=np.float64)
    assert grid.shape == (len(krr.GAMMA_GRID), len(krr.LAMBDA_GRID))
    monkeypatch.setattr(krr, "_cv_scores", lambda x, y: grid.copy())
    x, y = toy_data(20)
    return krr.tune(x, y)


def test_tune_never_picks_a_nan_score(monkeypatch):
    grid = np.zeros((len(krr.GAMMA_GRID), len(krr.LAMBDA_GRID)))
    grid[0, 0] = np.nan
    grid[3, 2] = 0.9  # gamma 1, ridge 1e-3
    assert _tune_on_grid(monkeypatch, grid) == (krr.GAMMA_GRID[3], krr.LAMBDA_GRID[2])
    with pytest.raises(SolverError, match="NaN"):
        _tune_on_grid(monkeypatch, np.full_like(grid, np.nan))


def test_tune_tie_picks_the_smaller_gamma(monkeypatch):
    grid = np.zeros((len(krr.GAMMA_GRID), len(krr.LAMBDA_GRID)))
    grid[3, 0] = grid[1, 4] = 0.7
    assert _tune_on_grid(monkeypatch, grid) == (krr.GAMMA_GRID[1], krr.LAMBDA_GRID[4])


def test_tune_tie_at_one_gamma_picks_the_larger_ridge(monkeypatch):
    grid = np.zeros((len(krr.GAMMA_GRID), len(krr.LAMBDA_GRID)))
    grid[2, 0] = grid[2, 3] = 0.7
    assert _tune_on_grid(monkeypatch, grid) == (krr.GAMMA_GRID[2], krr.LAMBDA_GRID[3])
