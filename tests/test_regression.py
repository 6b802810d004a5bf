"""Weighted/generalized least-squares engine and weighted moments."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrkit.regression import (
    RANK_TOL,
    FactorizationError,
    RankError,
    WeightScheme,
    fit_gls,
    fit_wls,
    scaled_se,
    weighted_cov,
    weighted_mean,
    weighted_var,
    _design,
    _wls_kernel,
)


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
        fit = fit_wls(x, np.array([2.0, 3.0, 4.0]), [1.0, 1.0, 1.0])
        assert fit.coefficients == pytest.approx([1.0, 1.0], abs=1e-12)
        assert fit.residuals == pytest.approx([0.0] * 3, abs=1e-12)
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
        with pytest.raises(FactorizationError):
            fit_gls(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]), omega)

    def test_shape_checks(self):
        with pytest.raises(ValueError, match="J x J"):
            fit_gls(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]), np.eye(3))


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
    # The flag is the RANK_TOL test on the singular values of R.
    singular_values = np.linalg.svd(np.linalg.qr(xw)[1], compute_uv=False)
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

    def test_unequal_weights_mean(self):
        assert weighted_mean(np.array([0.0, 1.0]), np.array([1.0, 3.0])) == \
               pytest.approx(0.75, abs=1e-15)

    def test_constant_vector(self):
        c = np.full(5, 3.7)
        w = np.linspace(1, 2, 5)
        other = np.arange(5.0)
        assert weighted_var(c, w) == pytest.approx(0.0, abs=1e-14)
        assert weighted_cov(c, other, w) == pytest.approx(0.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            weighted_mean(np.array([1.0, 2.0]), np.array([1.0]))
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
    # Fitted + residuals reconstruct the response.
    assert fit.fitted + fit.residuals == pytest.approx(y, rel=1e-12, abs=1e-12)
    if fit.df_residual > 0 and not fit.exact_fit:
        rss = float(np.sum(w * fit.residuals ** 2))
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
