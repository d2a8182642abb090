
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from emgkin import dsp, features, synth
from emgkin.errors import InsufficientDataError
from conftest import traced_peak

RNG = np.random.default_rng(42)


def one_channel(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)[:, None]


# --- reference: the per-window, per-channel loop the batched code replaced ---


def reference_levinson_durbin(r: np.ndarray, order: int) -> np.ndarray:
    """Scalar Yule-Walker recursion; zeros where the prediction error
    reaches the tolerance."""
    a = np.zeros(order)
    err = r[0]
    if err <= features._DEGENERATE_TOL:
        return a
    for i in range(1, order + 1):
        acc = r[i] - np.dot(a[: i - 1], r[i - 1 : 0 : -1])
        if err <= features._DEGENERATE_TOL:
            return np.zeros(order)
        k = acc / err
        a_new = a.copy()
        a_new[i - 1] = k
        a_new[: i - 1] = a[: i - 1] - k * a[i - 2 :: -1][: i - 1]
        a = a_new
        err *= 1.0 - k * k
    return a


def reference_feature_matrix(windows: np.ndarray) -> np.ndarray:
    rows = []
    for window in windows:
        window = np.asarray(window, dtype=np.float64)
        out = []
        for ch in range(window.shape[1]):
            x = window[:, ch]
            mav = np.mean(np.abs(x))
            rms = np.sqrt(np.mean(x * x))
            var = np.var(x)
            c = x - x.mean()
            n = len(c)
            r = np.array(
                [np.dot(c[: n - k], c[k:]) / n for k in range(features.AR_ORDER + 1)]
            )
            out.extend([mav, rms, var])
            out.extend(reference_levinson_durbin(r, features.AR_ORDER))
        rows.append(out)
    return np.array(rows)


def assert_matches_reference(windows: np.ndarray) -> None:
    got = features.extract_feature_matrix(windows)
    want = reference_feature_matrix(windows)
    m, n = windows.shape[0], windows.shape[2]
    assert got.shape == want.shape == (m, n * features.FEATURES_PER_CHANNEL)
    got = got.reshape(m, n, features.FEATURES_PER_CHANNEL)
    want = want.reshape(m, n, features.FEATURES_PER_CHANNEL)
    # MAV/RMS/VAR are the same reductions in the same order: byte for byte.
    np.testing.assert_array_equal(got[..., :3], want[..., :3])
    # The AR tolerance was fixed from float64 before the batched recursion
    # was written.
    np.testing.assert_allclose(got[..., 3:], want[..., 3:], rtol=1e-9, atol=1e-12)


@st.composite
def window_batches(draw):
    """[M x W x N] windows, either a fresh array or, as ``segment_windows``
    returns them, overlapping strided views into one [T x N] signal."""
    m = draw(st.integers(1, 40))
    w = draw(st.integers(5, 102))
    n = draw(st.integers(1, 6))
    hop = draw(st.one_of(st.none(), st.integers(1, w)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    length = m * w if hop is None else (m - 1) * hop + w
    signal = rng.standard_normal((length, n)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    # Mix constant and all-zero channels in with live ones.
    for ch in range(n):
        kind = draw(st.sampled_from(["live", "live", "constant", "zero"]))
        if kind == "constant":
            signal[:, ch] = draw(st.floats(-5.0, 5.0))
        elif kind == "zero":
            signal[:, ch] = 0.0
    if hop is None:
        return signal.reshape(m, w, n)
    return sliding_window_view(signal, w, axis=0)[::hop].swapaxes(1, 2)


@settings(deadline=None, max_examples=60)
@given(window_batches())
def test_matrix_matches_per_window_reference(windows):
    assert_matches_reference(windows)


@pytest.mark.parametrize("protocol", ["P1", "P4"])
def test_matrix_matches_reference_on_segmented_views(protocol):
    """``segment_windows`` returns strided views into the recording."""
    rec = synth.generate(synth.SynthConfig(protocol=protocol, duration_s=6.0, seed=3))
    filtered = dsp.apply_filter_chain(rec)
    windows, _, _ = dsp.segment_windows(
        dsp.apply_normalizer(dsp.fit_normalizer(filtered), filtered)
    )
    assert not windows.flags.c_contiguous
    assert_matches_reference(windows)


def test_feature_matrix_peak_memory():
    """Features of 902 windows of 102 x 6 allocate at most 3x the input."""
    windows = RNG.standard_normal((902, 102, 6))
    _, peak = traced_peak(features.extract_feature_matrix, windows)
    assert peak <= 3 * windows.nbytes, f"peak {peak / 1e6:.1f} MB"


def test_feature_vector_layout():
    window = RNG.normal(size=(102, 6))
    vec = features.extract_features(window)
    assert vec.shape == (6 * features.FEATURES_PER_CHANNEL,)
    np.testing.assert_array_equal(
        vec, features.extract_feature_matrix(window[np.newaxis])[0]
    )
    ar = vec.reshape(6, features.FEATURES_PER_CHANNEL)[:, 3:]
    assert np.all(ar != 0.0)


def test_mav_rms_var_closed_forms():
    x = np.array([3.0, -4.0, 0.0, 5.0])
    vec = features.extract_features(one_channel(x))
    mav, rms, var = vec[0], vec[1], vec[2]
    assert mav == pytest.approx(3.0)
    assert rms == pytest.approx(np.sqrt(50 / 4))
    assert var == pytest.approx(np.var(x))
    # population identity: rms^2 = var + mean^2
    assert rms**2 == pytest.approx(var + x.mean() ** 2)


def test_ar1_coefficient_recovered():
    """Long AR(1) realization with a1=0.5: the lag-1 coefficient comes back."""
    rng = np.random.default_rng(7)
    n = 20000
    x = np.zeros(n)
    for i in range(1, n):
        x[i] = 0.5 * x[i - 1] + rng.standard_normal()
    a = features.extract_features(one_channel(x))[3:7]
    assert a[0] == pytest.approx(0.5, abs=0.05)
    assert np.all(np.abs(a[1:]) < 0.05)


def test_ar2_coefficients_recovered():
    rng = np.random.default_rng(8)
    n = 40000
    x = np.zeros(n)
    for i in range(2, n):
        x[i] = 0.6 * x[i - 1] - 0.3 * x[i - 2] + rng.standard_normal()
    a = features.extract_features(one_channel(x))[3:7]
    assert a[0] == pytest.approx(0.6, abs=0.05)
    assert a[1] == pytest.approx(-0.3, abs=0.05)


def test_constant_window_gets_zero_ar_coefficients():
    window = np.ones((102, 3)) * 2.5
    vec = features.extract_features(window)
    for ch in range(3):
        ar = vec[ch * 7 + 3 : ch * 7 + 7]
        np.testing.assert_array_equal(ar, 0.0)
    # amplitude features are still well-defined on a constant window
    assert vec[0] == pytest.approx(2.5)
    assert vec[2] == pytest.approx(0.0)


def test_mixed_degenerate_channels():
    window = RNG.normal(size=(102, 2))
    window[:, 1] = 0.0
    vec = features.extract_features(window)
    assert np.all(vec[3:7] != 0.0)
    np.testing.assert_array_equal(vec[7:], 0.0)


@settings(deadline=None, max_examples=25)
@given(st.floats(0.1, 5.0), st.integers(0, 2**31 - 1))
def test_feature_scale_equivariance(scale, seed):
    """MAV/RMS scale linearly, VAR quadratically, AR coefficients not at all."""
    x = np.random.default_rng(seed).normal(size=(102, 1))
    base = features.extract_features(x)
    scaled = features.extract_features(scale * x)
    assert scaled[0] == pytest.approx(scale * base[0], rel=1e-9)
    assert scaled[1] == pytest.approx(scale * base[1], rel=1e-9)
    assert scaled[2] == pytest.approx(scale**2 * base[2], rel=1e-9)
    np.testing.assert_allclose(scaled[3:7], base[3:7], rtol=1e-7, atol=1e-9)


# --- PCA ---------------------------------------------------------------------


def test_pca_components_orthonormal():
    x = RNG.normal(size=(200, 42))
    basis = features.fit_pca(x)
    gram = basis.components.T @ basis.components
    np.testing.assert_allclose(gram, np.eye(basis.rank), atol=1e-10)
    assert np.all(np.diff(basis.explained_variance) <= 1e-12)


def test_pca_projection_shape_and_variance_ordering():
    x = RNG.normal(size=(300, 42)) * np.linspace(10, 0.1, 42)
    basis = features.fit_pca(x)
    proj = basis.project(x)
    assert proj.shape == (300, 20)
    col_var = proj.var(axis=0)
    assert np.all(np.diff(col_var) <= 1e-8)


def test_pca_single_vector_projection():
    x = RNG.normal(size=(100, 42))
    basis = features.fit_pca(x)
    v = basis.project(x[0])
    assert v.shape == (20,)
    np.testing.assert_allclose(v, basis.project(x[:1])[0], atol=1e-12)


def test_pca_rank_deficient_pads_with_zeros():
    # rank-3 data embedded in 42 dims
    latent = RNG.normal(size=(100, 3))
    lift = RNG.normal(size=(3, 42))
    with pytest.warns(UserWarning, match="rank"):
        basis = features.fit_pca(latent @ lift)
    assert basis.rank <= 3
    proj = basis.project(latent @ lift)
    np.testing.assert_array_equal(proj[:, basis.rank :], 0.0)


def test_pca_needs_enough_vectors():
    with pytest.raises(InsufficientDataError):
        features.fit_pca(RNG.normal(size=(10, 42)))


def test_project_2d_preserves_pairwise_distances_of_planar_data():
    """[M x 2] data, bare or embedded among zero columns, is only centred
    and rotated."""
    pts = RNG.normal(size=(50, 2))
    embedded = np.concatenate([pts, np.zeros((50, 40))], axis=1)
    d_orig = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
    for data in (pts, embedded):
        flat = features.project_2d(data)
        assert flat.shape == (50, 2)
        d_proj = np.linalg.norm(flat[:, None] - flat[None], axis=-1)
        np.testing.assert_allclose(d_proj, d_orig, atol=1e-9)


def test_project_2d_pads_one_column_with_zeros():
    x = RNG.normal(size=(30, 1))
    flat = features.project_2d(x)
    assert flat.shape == (30, 2)
    np.testing.assert_array_equal(flat[:, 1], 0.0)
    np.testing.assert_allclose(np.abs(flat[:, 0]), np.abs(x[:, 0] - x.mean()), atol=1e-12)


@pytest.mark.parametrize("n_vectors", [0, 1])
def test_project_2d_needs_two_vectors(n_vectors):
    with pytest.raises(InsufficientDataError, match="at least 2"):
        features.project_2d(np.ones((n_vectors, 5)))
