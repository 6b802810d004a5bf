"""Weighted/generalized least-squares engine and weighted moments."""
import ctypes
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrkit import CorrelationMatrix, DataError, regression
from mrkit.regression import (
    RANK_TOL,
    FactorizationError,
    NonFiniteFitError,
    RankError,
    WeightScheme,
    fit_gls,
    fit_wls,
    scaled_se,
    weighted_cov,
    weighted_var,
    _design,
    _fit_from_r,
    _one_blas_thread,
    _openblas_thread_apis,
    _wls_kernel,
)
from mrkit.estimators import _t_pvalue
from mrkit.simulation import POWER_ALPHA, _chunk_tests


class TestFitWls:
    def test_two_point_slope(self):
        # Hand evaluation: b = (1+3)/2 = 2, var(b) = 1/2, rss = 1+1 = 2, df 1.
        fit = fit_wls(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]),
                      [1.0, 1.0])
        assert fit.coefficients == pytest.approx([2.0], abs=1e-14)
        assert fit.unscaled_se == pytest.approx([1 / np.sqrt(2)], abs=1e-14)
        assert fit.residual_scale == pytest.approx(np.sqrt(2.0), abs=1e-14)
        assert fit.df_residual == 1
        assert not fit.exact_fit

    def test_exact_line(self):
        x = np.column_stack([np.ones(3), [1.0, 2.0, 3.0]])
        y = np.array([2.0, 3.0, 4.0])
        fit = fit_wls(x, y, [1.0, 1.0, 1.0])
        assert fit.coefficients == pytest.approx([1.0, 1.0], abs=1e-12)
        assert y - x @ fit.coefficients == pytest.approx([0.0] * 3, abs=1e-12)
        assert fit.residual_scale == 0.0
        assert fit.exact_fit

    def test_saturated_fit(self):
        fit = fit_wls(np.array([[2.0]]), np.array([1.0]), [1.0])
        assert fit.df_residual == 0
        assert fit.exact_fit
        assert fit.residual_scale == 0.0

    def test_duplicate_columns_rank_error(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(RankError):
            fit_wls(x, np.array([1.0, 2.0, 3.0]), [1.0] * 3)

    def test_zero_column_rank_error(self):
        x = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with pytest.raises(RankError):
            fit_wls(x, np.array([1.0, 2.0, 3.0]), [1.0] * 3)

    def test_more_params_than_rows(self):
        with pytest.raises(ValueError, match="observations"):
            fit_wls(np.array([[1.0, 2.0]]), np.array([1.0]), [1.0])

    def test_design_must_be_a_matrix(self):
        with pytest.raises(ValueError, match="J x p matrix"):
            fit_wls(np.ones((2, 2, 1)), np.array([1.0, 2.0]), [1.0, 1.0])

    def test_length_mismatches(self):
        with pytest.raises(ValueError, match="response length"):
            fit_wls(np.array([1.0, 2.0]), np.array([1.0]), [1.0, 1.0])
        with pytest.raises(ValueError, match="weights length"):
            fit_wls(np.array([1.0, 2.0]), np.array([1.0, 2.0]), [1.0])

    def test_weights_validation(self):
        x, y = np.array([1.0, 2.0]), np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="positive"):
            fit_wls(x, y, [1.0, -1.0])
        with pytest.raises(ValueError, match="positive"):
            fit_wls(x, y, [1.0, np.inf])
        with pytest.raises(ValueError, match="vector"):
            fit_wls(x, y, np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["design", "response"])
    def test_non_finite_input_rejected(self, where, bad):
        # fit_gls's text: a NaN design is no rank deficiency, and a NaN
        # response gives no coefficient.
        x = np.array([[1.0], [2.0], [3.0]])
        y = np.array([0.5, 1.5, 3.5])
        target, index = {"design": (x, (1, 0)), "response": (y, (2,))}[where]
        target[index] = bad
        with pytest.raises(ValueError) as raised:
            fit_wls(x, y, np.ones(3))
        assert type(raised.value) is ValueError
        assert str(raised.value) == "array must not contain infs or NaNs"

    def test_weights_matter(self):
        x = np.array([1.0, 1.0])
        y = np.array([1.0, 3.0])
        fit = fit_wls(x, y, [3.0, 1.0])
        assert fit.coefficients[0] == pytest.approx(1.5, abs=1e-14)


class TestFitGls:
    def test_diagonal_omega_matches_wls(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 2))
        y = rng.normal(size=6)
        se = rng.uniform(0.5, 2.0, size=6)
        gls = fit_gls(x, y, np.diag(se ** 2))
        wls = fit_wls(x, y, se ** -2)
        assert gls.coefficients == pytest.approx(wls.coefficients, rel=1e-10)
        assert gls.unscaled_se == pytest.approx(wls.unscaled_se, rel=1e-10)
        assert gls.residual_scale == pytest.approx(wls.residual_scale, rel=1e-10)

    def test_symmetric_two_point(self):
        # Equal rows make the correlation irrelevant to the point estimate.
        omega = np.array([[1.0, 0.5], [0.5, 1.0]])
        fit = fit_gls(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]), omega)
        assert fit.coefficients == pytest.approx([2.0], abs=1e-12)
        # But positive correlation inflates the se above the WLS 1/sqrt(2).
        assert fit.unscaled_se[0] > 1 / np.sqrt(2)
        assert fit.unscaled_se[0] == pytest.approx(np.sqrt(0.75), abs=1e-12)

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(7, 3))
        y = rng.normal(size=7)
        a = rng.normal(size=(7, 9))
        omega = a @ a.T + np.eye(7)
        fit = fit_gls(x, y, omega)
        oi = np.linalg.inv(omega)
        cov = np.linalg.inv(x.T @ oi @ x)
        beta = cov @ x.T @ oi @ y
        assert fit.coefficients == pytest.approx(beta, rel=1e-9)
        assert fit.unscaled_se == pytest.approx(np.sqrt(np.diag(cov)), rel=1e-9)

    def test_not_positive_definite(self):
        omega = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(FactorizationError, match=r"^omega is not positive "
                           r"definite \(factorization failed\)$"):
            fit_gls(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]), omega)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_omega_left_unchanged(self, order):
        # fit_gls factors a private copy of Omega in place, whatever its
        # memory order; the caller's array is never written.
        omega = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 3.0]],
                         order=order)
        before = omega.copy()
        fit_gls(np.array([[1.0], [2.0], [3.0]]), np.array([1.0, 2.0, 2.5]),
                omega)
        assert omega.tobytes() == before.tobytes()
        assert omega.flags.f_contiguous == (order == "F")

    @pytest.mark.parametrize("kind", ["float32", "fortran", "strided",
                                      "read-only"])
    def test_in_place_factor_refuses_arrays_it_cannot_own(self, kind):
        # LAPACK factors a copy of an array of another type or layout and
        # leaves the caller's unfactored; a read-only one it overwrites.
        array = {"float32": np.eye(3, dtype=np.float32),
                 "fortran": np.asfortranarray(np.eye(3) + 0.1),
                 "strided": np.eye(6)[::2, ::2],
                 "read-only": np.eye(3)}[kind]
        if kind == "read-only":
            array.setflags(write=False)
        before = array.copy()
        with pytest.raises(ValueError, match="C-contiguous float64"):
            regression._cholesky_in_place(array)
        assert array.tobytes() == before.tobytes()

    def test_shape_checks(self):
        with pytest.raises(ValueError, match="J x J"):
            fit_gls(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]), np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["omega_diagonal", "omega_upper",
                                       "omega_lower", "design", "response"])
    def test_non_finite_input_rejected(self, where, bad):
        # The triangular whitening does not scan the factor, so fit_gls
        # scans Omega itself, also the upper triangle its Cholesky never reads.
        x = np.array([[1.0], [2.0], [3.0]])
        y = np.array([0.5, 1.5, 3.5])
        omega = np.eye(3)
        target, index = {"omega_diagonal": (omega, (1, 1)),
                         "omega_upper": (omega, (0, 2)),
                         "omega_lower": (omega, (2, 0)),
                         "design": (x, (1, 0)),
                         "response": (y, (2,))}[where]
        target[index] = bad
        with pytest.raises(ValueError) as raised:
            fit_gls(x, y, omega)
        assert type(raised.value) is ValueError
        assert str(raised.value) == "array must not contain infs or NaNs"

    def test_non_finite_whitened_problem_rejected(self):
        # The correlated estimators fit through the stored factor directly.
        factor = np.linalg.cholesky(np.array([[1.0, 0.3], [0.3, 1.0]]))
        with pytest.raises(ValueError,
                           match="^array must not contain infs or NaNs$"):
            regression._factored_fit(np.array([[1.0], [np.inf]]),
                                     np.array([1.0, 2.0]), factor)


@pytest.fixture
def blas_apis():
    """Every loaded OpenBLAS set to 2 threads for the test, then restored."""
    apis = _openblas_thread_apis()
    if not apis:
        pytest.skip("no OpenBLAS loaded")
    saved = [get() for get, _ in apis]
    for _, set_ in apis:
        set_(2)
    yield apis
    for (_, set_), count in zip(apis, saved):
        set_(count)


def thread_counts(apis):
    return [get() for get, _ in apis]


# Finite problems that overflow: y / se_y past the float range once whitened
# (1e300 y with se_y = 1e-10), and a whitened problem whose slope passes it.
_I = np.arange(1.0, 9.0)
_OVERFLOWING = {
    "whitened": (0.1 + 0.01 * _I[:, None], 1e300 * (1 + 0.1 * _I), 1e-10),
    "slope": (1e-300 * _I[:, None], 1e300 * (_I + 0.1 * _I ** 2), 1.0),
}


@pytest.mark.parametrize("case", sorted(_OVERFLOWING))
@pytest.mark.parametrize("fit", ["fit_wls", "_factored_fit"])
def test_overflowing_fit_raises(fit, case):
    # Not a NaN fit, nor numpy's RuntimeWarning (an error under tier-1).
    x, y, se_y = _OVERFLOWING[case]
    with pytest.raises(NonFiniteFitError, match="^fit is not finite"):
        if fit == "fit_wls":
            fit_wls(x, y, np.full(8, se_y ** -2.0))
        else:
            regression._factored_fit(x, y, np.eye(8) * se_y)


class TestOneBlasThread:
    def test_one_thread_inside_and_restored(self, blas_apis):
        with _one_blas_thread():
            assert thread_counts(blas_apis) == [1] * len(blas_apis)
            with _one_blas_thread():
                assert thread_counts(blas_apis) == [1] * len(blas_apis)
            assert thread_counts(blas_apis) == [1] * len(blas_apis)
        assert thread_counts(blas_apis) == [2] * len(blas_apis)

    def test_restored_when_body_raises(self, blas_apis, monkeypatch):
        # Pairwise correlations of 0.9, -0.9, 0.9 cannot coexist: the
        # Cholesky fails, eigvalsh runs for the message and DataError leaves.
        bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        eigvalsh, inside = np.linalg.eigvalsh, []

        def recording_eigvalsh(*args, **kwargs):
            inside.append(thread_counts(blas_apis))
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        with pytest.raises(DataError, match="not positive definite"):
            CorrelationMatrix(bad)
        assert inside == [[1] * len(blas_apis)]
        assert thread_counts(blas_apis) == [2] * len(blas_apis)

    def test_without_openblas_does_nothing(self, blas_apis, monkeypatch):
        monkeypatch.setattr(regression, "_openblas_thread_apis", lambda: ())
        with _one_blas_thread():
            assert thread_counts(blas_apis) == [2] * len(blas_apis)
        assert thread_counts(blas_apis) == [2] * len(blas_apis)

    def test_unreadable_maps_find_no_openblas(self, monkeypatch):
        # Without /proc/self/maps nothing is looked up. The undecorated
        # function runs, so the cached answer stays as it was.
        def unreadable(path, *args, **kwargs):
            if path == "/proc/self/maps":
                raise PermissionError(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(regression, "open", unreadable, raising=False)
        assert _openblas_thread_apis.__wrapped__() == ()

    def test_each_api_once(self, blas_apis):
        addresses = [ctypes.cast(get, ctypes.c_void_p).value
                     for get, _ in blas_apis]
        assert len(set(addresses)) == len(addresses)


def whitened(x, y, w):
    """Whiten exactly as fit_wls does, for any leading batch shape."""
    sqrt_w = np.sqrt(w)
    return x * sqrt_w[..., None], y * sqrt_w


def augmented(xw, yw):
    """The kernel's problem [xw | yw]."""
    return np.concatenate([xw, yw[..., None]], axis=-1)


@pytest.mark.parametrize("shape", [(7,), (3, 7)])
@pytest.mark.parametrize("intercept", [False, True])
def test_design_matches_concatenate_then_whiten(shape, intercept):
    """_design writes in place what ones + stack + a multiply would build."""
    rng = np.random.default_rng(8)
    columns = rng.normal(size=(3,) + shape)
    sqrt_w = np.sqrt(rng.uniform(0.1, 5.0, size=shape))
    stacked = np.stack(columns, axis=-1)
    if intercept:
        stacked = np.concatenate([np.ones(shape + (1,)), stacked], axis=-1)
    assert np.array_equal(_design(columns, intercept, sqrt_w),
                          stacked * sqrt_w[..., None])
    assert np.array_equal(_design(columns, intercept), stacked)


class TestKernelEdgeCases:
    """fit_wls and the batched kernel agree on the awkward designs."""

    def test_collinear_columns(self):
        good = np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 5.0]])
        collinear = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        y = np.array([1.0, 2.5, 2.0])
        w = np.ones(3)
        with pytest.raises(RankError):
            fit_wls(collinear, y, w)
        xw, yw = whitened(np.stack([good, collinear]), np.stack([y, y]),
                          np.stack([w, w]))
        beta, use, sigma, full_rank = _wls_kernel(augmented(xw, yw))
        assert full_rank.tolist() == [True, False]
        assert np.all(np.isfinite(beta[0])) and np.isfinite(sigma[0])
        assert np.all(np.isnan(beta[1])) and np.all(np.isnan(use[1]))
        assert np.isnan(sigma[1])

    def test_exact_fit(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])[:, None]
        exact = 2.0 * x[:, 0]
        noisy = exact + np.array([0.1, -0.2, 0.05, 0.0])
        w = np.array([1.0, 2.0, 0.5, 3.0])
        assert fit_wls(x, exact, w).residual_scale == 0.0
        xw, yw = whitened(np.stack([x, x]), np.stack([exact, noisy]),
                          np.stack([w, w]))
        _, _, sigma, _ = _wls_kernel(augmented(xw, yw))
        assert sigma[0] == 0.0
        assert sigma[1] > 0.0

    def test_zero_residual_df(self):
        x = np.array([[1.0, 0.5], [2.0, -1.0]])
        y = np.array([0.3, 0.7])
        w = np.array([1.0, 4.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_wls(x, y, w)
            xw, yw = whitened(np.stack([x, 2.0 * x]), np.stack([y, -y]),
                              np.stack([w, w]))
            _, _, sigma, full_rank = _wls_kernel(augmented(xw, yw))
        assert fit.df_residual == 0
        assert fit.residual_scale == 0.0 and fit.exact_fit
        assert full_rank.all()
        assert sigma.tolist() == [0.0, 0.0]

    def test_non_finite_design_is_not_full_rank(self):
        xw = np.ones((2, 4, 2))
        xw[0, :, 1] = [1.0, 2.0, 3.0, 5.0]
        xw[1, 0, 0] = np.nan
        _, _, _, full_rank = _wls_kernel(augmented(xw, np.ones((2, 4))))
        assert full_rank.tolist() == [True, False]


def test_fit_from_dropped_first_column_matches_kernel():
    """MI fitted from ME's R agrees with a fit over ME's J rows without column 0.

    The batch holds a full-rank replicate, one with a zero covariate column,
    one with a non-finite value and an exact fit.
    """
    rng = np.random.default_rng(13)
    j = 40
    me = rng.normal(size=(4, j, 5))
    me[..., 0] = np.sqrt(rng.uniform(0.5, 2.0, size=(4, j)))
    me[1, :, 2] = 0.0
    me[2, 7, 3] = np.nan
    me[3, :, 4] = me[3, :, 1:4] @ np.array([2.0, 0.5, -1.0])
    ue = me[..., [0, 1, 4]]
    direct = _wls_kernel(me[..., 1:])
    derived = _fit_from_r(
        np.linalg.qr(np.linalg.qr(me, mode="r")[..., 1:], mode="r"), j)
    assert direct[3].tolist() == derived[3].tolist() == [
        True, False, False, True]
    assert direct[2][3] == derived[2][3] == 0.0
    for want, got in zip(direct[:3], derived[:3]):
        assert np.array_equal(np.isnan(want), np.isnan(got))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0,
                                   equal_nan=True)

    # The chunk stacks theta1 of MI, UE and ME, then the intercepts of UE
    # and ME, and decides their five t tests in one call: 1.0 where p < 0.05,
    # 0.0 where not, and NaN where the p-value is NaN.
    out = np.empty((3, 5, 4))
    _chunk_tests(me, ue, out)
    theta, se, rejects = out
    fits = [derived, _wls_kernel(ue), _wls_kernel(me)]
    for row, (fit, column) in enumerate(
            [(0, 0), (1, 1), (2, 1), (1, 0), (2, 0)]):
        beta, unscaled_se, sigma, _ = fits[fit]
        se_want = unscaled_se[:, column] * np.maximum(sigma, 1.0)
        np.testing.assert_allclose(theta[row], beta[:, column], rtol=1e-12,
                                   atol=0, equal_nan=True)
        np.testing.assert_allclose(se[row], se_want, rtol=1e-12, atol=0,
                                   equal_nan=True)
        p = _t_pvalue(theta[row], se[row], j - beta.shape[1])
        assert np.array_equal(np.isnan(rejects[row]), np.isnan(p))
        assert np.array_equal(rejects[row][~np.isnan(p)],
                              p[~np.isnan(p)] < POWER_ALPHA)


@st.composite
def design_batches(draw):
    """C weighted problems sharing J and p, some collinear or with a zero column."""
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    c = draw(st.integers(min_value=1, max_value=6))
    p = draw(st.integers(min_value=1, max_value=4))
    j = draw(st.integers(min_value=p, max_value=p + 6))
    kinds = draw(st.lists(st.sampled_from(["plain", "collinear", "zero"]),
                          min_size=c, max_size=c))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(c, j, p))
    for i, kind in enumerate(kinds):
        column = int(rng.integers(p))
        if kind == "zero":
            x[i, :, column] = 0.0
        elif kind == "collinear" and p > 1:
            other = (column + 1) % p
            x[i, :, column] = rng.normal() * x[i, :, other]
    y = rng.normal(size=(c, j))
    w = rng.uniform(0.1, 5.0, size=(c, j))
    return x, y, w


@given(design_batches())
@settings(max_examples=150, deadline=None)
def test_batched_kernel_matches_single_fits(batch):
    x, y, w = batch
    xw, yw = whitened(x, y, w)
    beta, use, sigma, full_rank = _wls_kernel(augmented(xw, yw))
    # The flag is the RANK_TOL test on the singular values of R, each of
    # whose columns is scaled by the power of two that brings its largest
    # |entry| into [0.5, 1).
    r = np.linalg.qr(xw)[1]
    r = np.ldexp(r, -np.frexp(np.max(np.abs(r), axis=1))[1][:, None, :])
    singular_values = np.linalg.svd(r, compute_uv=False)
    assert np.array_equal(
        full_rank, singular_values[:, -1] > RANK_TOL * singular_values[:, 0])
    for i in range(x.shape[0]):
        one = _wls_kernel(
            augmented(*whitened(x[i:i + 1], y[i:i + 1], w[i:i + 1])))
        for got, want in zip((beta[i], use[i], sigma[i]), one[:3]):
            np.testing.assert_allclose(got, want[0], rtol=1e-12, atol=0,
                                       equal_nan=True)
        assert full_rank[i] == one[3][0]
        if not full_rank[i]:
            with pytest.raises(RankError):
                fit_wls(x[i], y[i], w[i])
            continue
        fit = fit_wls(x[i], y[i], w[i])
        np.testing.assert_allclose(fit.coefficients, beta[i], rtol=1e-12)
        np.testing.assert_allclose(fit.unscaled_se, use[i], rtol=1e-12)
        np.testing.assert_allclose(fit.residual_scale, sigma[i], rtol=1e-12)


@given(seed=st.integers(0, 2 ** 32 - 1), p=st.integers(1, 4),
       extra_rows=st.integers(0, 6), m=st.integers(-300, 300), data=st.data())
@settings(max_examples=100, deadline=None)
def test_fit_wls_column_scaled_by_power_of_two(seed, p, extra_rows, m, data):
    # Multiplying design column i by 2^m changes its units only: coefficient
    # i and its se scale by 2^-m, and every other output keeps its bits.
    column = data.draw(st.integers(0, p - 1))
    rng = np.random.default_rng(seed)
    j = p + extra_rows
    x, y = rng.normal(size=(j, p)), rng.normal(size=j)
    w = rng.uniform(0.1, 5.0, size=j)
    scaled = x.copy()
    scaled[:, column] = np.ldexp(scaled[:, column], m)
    base, fit = fit_wls(x, y, w), fit_wls(scaled, y, w)
    want_beta, want_se = base.coefficients.copy(), base.unscaled_se.copy()
    want_beta[column] = np.ldexp(want_beta[column], -m)
    want_se[column] = np.ldexp(want_se[column], -m)
    assert fit.coefficients.tolist() == want_beta.tolist()
    assert fit.unscaled_se.tolist() == want_se.tolist()
    assert (fit.residual_scale, fit.df_residual, fit.exact_fit) == (
        base.residual_scale, base.df_residual, base.exact_fit)


@given(seed=st.integers(0, 2 ** 32 - 1), c=st.integers(1, 4),
       j=st.integers(6, 40), column=st.sampled_from((1, 2, 3)),
       m=st.integers(-300, 300))
@settings(max_examples=60, deadline=None)
def test_chunk_tests_column_scaled_by_power_of_two(seed, c, j, column, m):
    # Multiplying one risk factor's column of a chunk's problems by 2^m
    # scales theta1 of MI, UE and ME and their ses by 2^-m when it is the
    # first risk factor, whose coefficients the chunk tests; every other
    # output keeps its bits.
    rng = np.random.default_rng(seed)
    me = rng.normal(size=(c, j, 5))
    me[..., 0] = np.sqrt(rng.uniform(0.5, 2.0, size=(c, j)))
    scaled = me.copy()
    scaled[..., column] = np.ldexp(scaled[..., column], m)
    base, out = np.empty((3, 5, c)), np.empty((3, 5, c))
    _chunk_tests(me, me[..., [0, 1, 4]], base)
    _chunk_tests(scaled, scaled[..., [0, 1, 4]], out)
    if column == 1:
        base[:2, :3] = np.ldexp(base[:2, :3], -m)
    assert out.tolist() == base.tolist()


def _wls_outcome(x, y, w):
    """fit_wls's coefficients, unscaled ses and the rest, or "RankError"."""
    try:
        fit = fit_wls(x, y, w)
    except RankError:
        return "RankError"
    return (fit.coefficients.tolist(), fit.unscaled_se.tolist(),
            (fit.residual_scale, fit.df_residual, fit.exact_fit))


def _wls_problem(seed, p, extra_rows, collinear):
    """x, y and w, with x's last column half its first when ``collinear``."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.05, 1.0, (p + extra_rows, p)) * rng.choice(
        [-1.0, 1.0], (p + extra_rows, p))
    if collinear and p > 1:
        x[:, -1] = 0.5 * x[:, 0]
    y = rng.uniform(0.01, 0.5, p + extra_rows) * rng.choice(
        [-1.0, 1.0], p + extra_rows)
    return x, y, rng.uniform(0.1, 5.0, p + extra_rows)


@given(seed=st.integers(0, 2 ** 32 - 1), p=st.integers(1, 4),
       extra_rows=st.integers(0, 6), collinear=st.booleans(),
       m=st.integers(-500, 500))
@settings(max_examples=100, deadline=None)
def test_fit_wls_outcome_in_other_units(seed, p, extra_rows, collinear, m):
    # y and se_Y = w^-1/2 times 2^m: the coefficients and ses scale by 2^m
    # exactly, sigma_hat keeps its bits and no rank decision moves. |m| <=
    # 500 keeps the weight w 2^-2m a normal float.
    x, y, w = _wls_problem(seed, p, extra_rows, collinear)
    base = _wls_outcome(x, y, w)
    got = _wls_outcome(x, np.ldexp(y, m), np.ldexp(w, -2 * m))
    if base == "RankError":
        assert got == base
    else:
        assert got == (np.ldexp(base[0], m).tolist(),
                       np.ldexp(base[1], m).tolist(), base[2])


@given(seed=st.integers(0, 2 ** 32 - 1), p=st.integers(1, 4),
       extra_rows=st.integers(0, 6), collinear=st.booleans())
@settings(max_examples=100, deadline=None)
def test_fit_wls_rows_permuted(seed, p, extra_rows, collinear):
    # The rows' order means nothing: the fit agrees within rtol 1e-12, each
    # coefficient within 1e-12 of its se at least (a near-zero coefficient
    # has the rounding of its se), and no rank decision moves.
    x, y, w = _wls_problem(seed, p, extra_rows, collinear)
    order = np.random.default_rng(seed).permutation(len(y))
    base = _wls_outcome(x, y, w)
    got = _wls_outcome(x[order], y[order], w[order])
    assert (got == "RankError") == (base == "RankError")
    if base == "RankError":
        return
    np.testing.assert_array_less(
        np.abs(np.subtract(got[0], base[0])),
        1e-12 * np.maximum(np.abs(base[0]), base[1]))
    for want, value in zip(base[1:], got[1:]):
        np.testing.assert_allclose(value, want, rtol=1e-12, atol=0)


def _chunk_outcome(x, y, se):
    """_chunk_tests's (3, 5, C) results on rows [1, x1, x2, x3, y] / se."""
    me = _design((*np.moveaxis(x, -1, 0), y), True) / se[..., None]
    out = np.empty((3, 5, x.shape[0]))
    # As the engine runs it: a rank-deficient fit's inverse may overflow
    # before it is flagged and set to NaN.
    with np.errstate(all="ignore"):
        _chunk_tests(me, me[..., [0, 1, 4]], out)
    return out


def _chunk_problems(seed, c, j, collinear):
    """x (C, J, 3), y and se (C, J); with ``collinear``, the first
    replicate's x3 is half its x2, so its MI and ME fail."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.05, 1.0, (c, j, 3)) * rng.choice([-1.0, 1.0], (c, j, 3))
    x[..., 0] = np.abs(x[..., 0])
    if collinear:
        x[0, :, 2] = 0.5 * x[0, :, 1]
    y = rng.uniform(0.01, 0.5, (c, j)) * rng.choice([-1.0, 1.0], (c, j))
    return x, y, rng.uniform(0.5, 2.0, (c, j))


@given(seed=st.integers(0, 2 ** 32 - 1), c=st.integers(1, 4),
       j=st.integers(6, 40), collinear=st.booleans(),
       m=st.integers(-1000, 1000))
@settings(max_examples=60, deadline=None)
def test_chunk_tests_outcome_in_other_units(seed, c, j, collinear, m):
    # beta_Y and se_Y times 2^m: each estimate and se scales by 2^m
    # exactly, each test decision keeps its bits and the same fits fail.
    x, y, se = _chunk_problems(seed, c, j, collinear)
    base = _chunk_outcome(x, y, se)
    got = _chunk_outcome(x, np.ldexp(y, m), np.ldexp(se, m))
    assert np.isnan(base[0, [0, 2], 0]).tolist() == [collinear] * 2
    base[:2] = np.ldexp(base[:2], m)
    np.testing.assert_array_equal(got, base)


@given(seed=st.integers(0, 2 ** 32 - 1), c=st.integers(1, 4),
       j=st.integers(6, 40), collinear=st.booleans())
@settings(max_examples=60, deadline=None)
def test_chunk_tests_rows_permuted(seed, c, j, collinear):
    # Permuting each replicate's variants: the ses agree within rtol 1e-12,
    # each estimate within 1e-12 of its se at least, and every test
    # decision and failure is the same.
    x, y, se = _chunk_problems(seed, c, j, collinear)
    order = np.random.default_rng(seed).permutation(j)
    base = _chunk_outcome(x, y, se)
    got = _chunk_outcome(x[:, order], y[:, order], se[:, order])
    theta, se = base[:2]
    np.testing.assert_array_equal(np.isnan(got[:2]), np.isnan(base[:2]))
    ok = ~np.isnan(theta)
    np.testing.assert_array_less(
        np.abs(got[0][ok] - theta[ok]),
        1e-12 * np.maximum(np.abs(theta[ok]), se[ok]))
    np.testing.assert_allclose(got[1], se, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(got[2], base[2])


class TestScaledSe:
    def test_random_effects_inflation(self):
        fit = fit_wls(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]),
                      [1.0, 1.0])
        assert scaled_se(fit, WeightScheme.FIXED_EFFECT) == \
               pytest.approx([1 / np.sqrt(2)])
        # sigma = sqrt(2) > 1, so the random-effects se is inflated to 1.
        assert scaled_se(fit, WeightScheme.MULTIPLICATIVE_RANDOM_EFFECT) == \
               pytest.approx([1.0], abs=1e-14)

    def test_truncation_at_one(self):
        # Underdispersed: sigma < 1 must not deflate the standard error.
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = x * 2.0 + np.array([0.01, -0.01, 0.01, -0.01])
        fit = fit_wls(x, y, [1.0] * 4)
        assert 0 < fit.residual_scale < 1
        fixed = scaled_se(fit, WeightScheme.FIXED_EFFECT)
        random = scaled_se(fit, WeightScheme.MULTIPLICATIVE_RANDOM_EFFECT)
        assert np.array_equal(fixed, random)
        assert np.array_equal(fixed, fit.unscaled_se)

    def test_exact_fit_stays_finite(self):
        fit = fit_wls(np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 6.0]),
                      [1.0] * 3)
        assert fit.exact_fit
        out = scaled_se(fit, WeightScheme.MULTIPLICATIVE_RANDOM_EFFECT)
        assert np.all(np.isfinite(out))
        assert np.array_equal(out, fit.unscaled_se)


class TestWeightedMoments:
    def test_paper_values(self):
        a = np.array([1.0, 2.0])
        b = np.array([2.0, 4.0])
        w = np.array([1.0, 1.0])
        assert weighted_cov(a, b, w) == pytest.approx(0.5, abs=1e-14)
        assert weighted_var(a, w) == pytest.approx(0.25, abs=1e-14)

    def test_constant_vector(self):
        c = np.full(5, 3.7)
        w = np.linspace(1, 2, 5)
        other = np.arange(5.0)
        assert weighted_var(c, w) == pytest.approx(0.0, abs=1e-14)
        assert weighted_cov(c, other, w) == pytest.approx(0.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            weighted_var(np.array([1.0, 2.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="equal length"):
            weighted_cov(np.array([1.0, 2.0]), np.array([1.0]),
                         np.array([1.0, 1.0]))

    def test_bad_weights(self):
        with pytest.raises(ValueError, match="positive"):
            weighted_var(np.array([1.0, 2.0]), np.array([1.0, 0.0]))


finite_floats = st.floats(min_value=-50, max_value=50,
                          allow_nan=False, allow_infinity=False)
pos_floats = st.floats(min_value=0.05, max_value=20,
                       allow_nan=False, allow_infinity=False)


@st.composite
def vectors_with_weights(draw, min_size=2, max_size=12):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    values = draw(st.lists(finite_floats, min_size=n, max_size=n))
    weights = draw(st.lists(pos_floats, min_size=n, max_size=n))
    return np.array(values), np.array(weights)


@given(vectors_with_weights())
def test_cov_of_self_is_var(pair):
    values, weights = pair
    assert weighted_cov(values, values, weights) == \
           pytest.approx(weighted_var(values, weights), rel=1e-9, abs=1e-9)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=120, deadline=None)
def test_wls_matches_normal_equations(seed):
    rng = np.random.default_rng(seed)
    j = int(rng.integers(3, 10))
    p = int(rng.integers(1, min(j, 4)))
    x = rng.normal(size=(j, p))
    y = rng.normal(size=j)
    w = rng.uniform(0.1, 5.0, size=j)
    fit = fit_wls(x, y, w)
    xtwx = x.T * w @ x
    beta = np.linalg.solve(xtwx, x.T @ (w * y))
    assert fit.coefficients == pytest.approx(beta, rel=1e-9, abs=1e-12)
    assert fit.unscaled_se == pytest.approx(
        np.sqrt(np.diag(np.linalg.inv(xtwx))), rel=1e-9)
    if fit.df_residual > 0 and not fit.exact_fit:
        rss = float(np.sum(w * (y - x @ fit.coefficients) ** 2))
        assert fit.residual_scale == pytest.approx(
            np.sqrt(rss / fit.df_residual), rel=1e-10)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=120, deadline=None)
def test_gls_diagonal_equals_wls(seed):
    rng = np.random.default_rng(seed)
    j = int(rng.integers(3, 10))
    x = rng.normal(size=(j, 2))
    y = rng.normal(size=j)
    se = rng.uniform(0.2, 3.0, size=j)
    gls = fit_gls(x, y, np.diag(se ** 2))
    wls = fit_wls(x, y, se ** -2)
    assert gls.coefficients == pytest.approx(wls.coefficients,
                                             rel=1e-10, abs=1e-12)
    assert gls.unscaled_se == pytest.approx(wls.unscaled_se, rel=1e-10)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=80, deadline=None)
def test_scheme_ordering(seed):
    rng = np.random.default_rng(seed)
    j = int(rng.integers(4, 12))
    x = rng.normal(size=(j, 2))
    y = rng.normal(size=j)
    fit = fit_wls(x, y, rng.uniform(0.2, 4.0, size=j))
    fixed = scaled_se(fit, WeightScheme.FIXED_EFFECT)
    random = scaled_se(fit, WeightScheme.MULTIPLICATIVE_RANDOM_EFFECT)
    if fit.residual_scale >= 1:
        assert np.all(random >= fixed)
    else:
        assert np.array_equal(random, fixed)
