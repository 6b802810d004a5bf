"""Estimator behaviour: point estimates, inference, correlated variants, oracles."""
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from mrkit import (
    CorrelationMatrix,
    DataError,
    RankError,
    WeightScheme,
    egger_correlated,
    egger_multivariable,
    egger_univariable,
    f_statistic,
    inside_bias_oracle,
    ivw_correlated,
    ivw_multivariable,
    ivw_univariable,
    orient,
    select_risk_factor,
)
from mrkit.estimators import (
    MethodTag,
    _fit_model,
    _inference,
    _t_critical,
    _t_pvalue,
    _t_rejects,
)
from mrkit.regression import (
    _cholesky_in_place,
    fit_gls,
    weighted_cov,
    weighted_var,
)

from conftest import (
    make_dataset,
    random_correlation,
    random_dataset,
    subprocess_env,
)


FIXED = WeightScheme.FIXED_EFFECT
RANDOM = WeightScheme.MULTIPLICATIVE_RANDOM_EFFECT


class TestIvwUnivariable:
    def test_single_variant_ratio(self):
        ds = make_dataset([2.0], [1.0], [1.0])
        res = ivw_univariable(ds, scheme=FIXED)
        est = res.estimates[0]
        assert est.theta_hat == pytest.approx(0.5, abs=1e-14)
        assert est.se == pytest.approx(0.5, abs=1e-14)
        assert est.df == 0
        assert np.isnan(est.p_value) and np.isnan(est.ci_low)

    def test_two_variant_hand_value(self):
        ds = make_dataset([1.0, 1.0], [1.0, 3.0], [1.0, 1.0])
        fixed = ivw_univariable(ds, scheme=FIXED).estimates[0]
        random = ivw_univariable(ds, scheme=RANDOM).estimates[0]
        assert fixed.theta_hat == pytest.approx(2.0, abs=1e-14)
        assert fixed.se == pytest.approx(1 / np.sqrt(2), abs=1e-14)
        assert random.theta_hat == pytest.approx(2.0, abs=1e-14)
        assert random.se == pytest.approx(1.0, abs=1e-14)
        assert ivw_univariable(ds).residual_scale == pytest.approx(np.sqrt(2.0))

    def test_df_and_tag(self):
        ds = make_dataset([1.0, 2.0, 3.0], [1.0, 2.0, 3.5], [1.0, 1.0, 1.0])
        res = ivw_univariable(ds)
        assert res.estimates[0].df == 2
        assert res.intercept is None
        assert str(res.estimates[0].method) == "UI/random/independent"
        assert res.orientation_reference is None

    def test_rejects_multifactor(self):
        ds = make_dataset([[1.0, 2.0], [2.0, 1.0]], [1.0, 2.0], [1.0, 1.0],
                          names=("a", "b"))
        with pytest.raises(ValueError, match="K=1"):
            ivw_univariable(ds)

    def test_rejects_attached_correlation(self):
        ds = make_dataset([1.0, 2.0], [1.0, 2.0], [1.0, 1.0], corr=np.eye(2))
        with pytest.raises(ValueError, match="correlated-variant estimator"):
            ivw_univariable(ds)

    def test_level_validation(self):
        ds = make_dataset([1.0, 2.0], [1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="confidence level"):
            ivw_univariable(ds, level=1.0)


class TestEggerUnivariable:
    def test_exact_line(self):
        ds = make_dataset([1.0, 2.0, 3.0], [2.0, 3.0, 4.0], [1.0, 1.0, 1.0])
        res = egger_univariable(ds)
        assert res.intercept.theta_0 == pytest.approx(1.0, abs=1e-12)
        assert res.estimates[0].theta_hat == pytest.approx(1.0, abs=1e-12)
        assert res.residual_scale == 0.0
        assert res.estimates[0].df == 1
        assert res.orientation_reference == "x1"

    def test_zero_outcome(self):
        ds = make_dataset([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        res = egger_univariable(ds)
        assert res.estimates[0].theta_hat == pytest.approx(0.0, abs=1e-14)
        assert res.intercept.theta_0 == pytest.approx(0.0, abs=1e-14)

    def test_rejects_negative_beta_x(self):
        ds = make_dataset([1.0, -2.0, 3.0], [2.0, 3.0, 4.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="run orient\\(\\) first"):
            egger_univariable(ds)

    def test_rejects_small_j(self):
        ds = make_dataset([1.0, 2.0], [1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="J >= 3"):
            egger_univariable(ds)

    def test_rejects_multifactor(self):
        ds = make_dataset([[1.0, 2.0], [2.0, 1.0], [3.0, 1.0]],
                          [1.0, 2.0, 3.0], [1.0, 1.0, 1.0], names=("a", "b"))
        with pytest.raises(ValueError, match="requires K=1, got K=2"):
            egger_univariable(ds)

    def test_intercept_uses_host_df(self):
        rng = np.random.default_rng(3)
        bx = rng.uniform(0.5, 2.0, 6)
        ds = make_dataset(bx, rng.normal(size=6), rng.uniform(0.5, 1.5, 6))
        res = egger_univariable(ds)
        t = abs(res.intercept.theta_0 / res.intercept.se)
        assert res.intercept.p_value == pytest.approx(
            2 * stats.t.sf(t, ds.j - 2), rel=1e-12)


class TestIvwMultivariable:
    def test_exact_two_factor(self):
        ds = make_dataset([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                          [1.0, 2.0, 3.0], [1.0, 1.0, 1.0], names=("x1", "x2"))
        res = ivw_multivariable(ds)
        assert res.estimate_for("x1").theta_hat == pytest.approx(1.0, abs=1e-12)
        assert res.estimate_for("x2").theta_hat == pytest.approx(2.0, abs=1e-12)
        assert res.estimates[0].df == 1
        assert res.intercept is None

    def test_zero_column_is_rank_error(self):
        # A zero column is rejected, not dropped: dropping silently would
        # change every remaining coefficient from a direct to a total effect.
        ds = make_dataset([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]],
                          [1.0, 2.0, 3.0], [1.0, 1.0, 1.0], names=("x1", "x2"))
        with pytest.raises(RankError):
            ivw_multivariable(ds)
        # Dropping the column explicitly recovers the univariable fit.
        sub = select_risk_factor(ds, "x1")
        kept = ivw_multivariable(sub)
        uni = ivw_univariable(sub)
        assert kept.estimate_for("x1").theta_hat == uni.estimate_for("x1").theta_hat

    def test_collinear_columns(self):
        ds = make_dataset([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]],
                          [1.0, 2.0, 3.0], [1.0, 1.0, 1.0], names=("x1", "x2"))
        with pytest.raises(RankError):
            ivw_multivariable(ds)

    def test_j_must_exceed_k(self):
        ds = make_dataset([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0], [1.0, 1.0],
                          names=("x1", "x2"))
        with pytest.raises(ValueError, match="J > K"):
            ivw_multivariable(ds)

    def test_single_variant_ratio_k1(self):
        # J = K = 1 is the ratio estimate, as for ivw_univariable, with or
        # without an attached matrix.
        ds = make_dataset([2.0], [1.0], [1.0])
        ui = ivw_univariable(ds).estimates[0]
        for result in (ivw_multivariable(ds), ivw_correlated(
                ds.with_correlation(CorrelationMatrix(np.eye(1))))):
            est = result.estimates[0]
            assert (est.theta_hat, est.se, est.df) == (ui.theta_hat, ui.se, 0)
            assert np.isnan(est.p_value)

    def test_k1_equals_univariable(self):
        rng = np.random.default_rng(9)
        ds = make_dataset(rng.normal(size=5), rng.normal(size=5),
                          rng.uniform(0.5, 2.0, 5))
        for scheme in (FIXED, RANDOM):
            mi = ivw_multivariable(ds, scheme=scheme).estimates[0]
            ui = ivw_univariable(ds, scheme=scheme).estimates[0]
            assert mi.theta_hat == pytest.approx(ui.theta_hat, rel=1e-12)
            assert mi.se == pytest.approx(ui.se, rel=1e-12)
            assert mi.df == ui.df
            assert mi.p_value == pytest.approx(ui.p_value, rel=1e-12)


class TestEggerMultivariable:
    def test_exact_plane(self):
        rng = np.random.default_rng(21)
        x1 = np.abs(rng.normal(size=6)) + 0.1
        x2 = rng.normal(size=6)
        y = 0.3 * x1 + 0.1 * x2
        ds = make_dataset(np.column_stack([x1, x2]), y,
                          rng.uniform(0.5, 1.5, 6), names=("x1", "x2"))
        res = egger_multivariable(ds, reference="x1")
        assert res.intercept.theta_0 == pytest.approx(0.0, abs=1e-10)
        assert res.estimate_for("x1").theta_hat == pytest.approx(0.3, abs=1e-10)
        assert res.estimate_for("x2").theta_hat == pytest.approx(0.1, abs=1e-10)
        assert res.residual_scale == 0.0
        assert res.estimates[0].df == 3  # J - (K + 1)

    def test_rejects_unoriented_reference(self):
        ds = make_dataset([[1.0, 0.2], [-1.0, 0.5], [2.0, 0.1], [1.5, 0.3]],
                          [1.0, 2.0, 3.0, 4.0], [1.0] * 4, names=("x1", "x2"))
        with pytest.raises(ValueError, match="orientation-normalized"):
            egger_multivariable(ds, reference="x1")
        # Only the reference column has the sign precondition.
        ds2 = make_dataset([[1.0, -0.2], [1.0, 0.5], [2.0, 0.1], [1.5, 0.3]],
                           [1.0, 2.0, 3.0, 4.0], [1.0] * 4, names=("x1", "x2"))
        assert egger_multivariable(ds2, reference="x1").intercept is not None

    def test_unknown_reference(self):
        ds = make_dataset([[1.0, 0.2], [1.0, 0.5], [2.0, 0.1], [1.5, 0.3]],
                          [1.0, 2.0, 3.0, 4.0], [1.0] * 4, names=("x1", "x2"))
        with pytest.raises(ValueError, match="unknown risk factor"):
            egger_multivariable(ds, reference="x9")

    def test_j_minimum(self):
        ds = make_dataset([[1.0, 0.2], [1.0, 0.5], [2.0, 0.1]],
                          [1.0, 2.0, 3.0], [1.0] * 3, names=("x1", "x2"))
        with pytest.raises(ValueError, match="K \\+ 2"):
            egger_multivariable(ds, reference="x1")

    def test_k1_equals_univariable(self):
        rng = np.random.default_rng(17)
        bx = np.abs(rng.normal(size=7)) + 0.05
        ds = make_dataset(bx, rng.normal(size=7), rng.uniform(0.5, 2.0, 7))
        me = egger_multivariable(ds, reference="x1")
        ue = egger_univariable(ds)
        assert me.estimates[0].theta_hat == pytest.approx(
            ue.estimates[0].theta_hat, rel=1e-12)
        assert me.estimates[0].se == pytest.approx(ue.estimates[0].se, rel=1e-12)
        assert me.estimates[0].df == ue.estimates[0].df
        assert me.intercept.theta_0 == pytest.approx(ue.intercept.theta_0,
                                                     rel=1e-12)

    def test_orthogonal_columns_match_univariable_slope(self):
        # With zero weighted covariance between the reference column and all
        # other columns (and among those columns), the reference slope of the
        # multivariable fit equals the univariable Egger slope.
        rng = np.random.default_rng(33)
        j = 12
        w = rng.uniform(0.5, 3.0, j)

        def residualize(v, others):
            v = v.copy()
            for u in others:
                coef = weighted_cov(v, u, w) / weighted_var(u, w)
                v = v - coef * (u - np.sum(u * w) / np.sum(w))
            return v

        x1 = np.abs(rng.normal(size=j)) + 0.1
        x2 = residualize(rng.normal(size=j), [x1])
        x3 = residualize(rng.normal(size=j), [x1, x2])
        assert abs(weighted_cov(x1, x2, w)) < 1e-12
        assert abs(weighted_cov(x1, x3, w)) < 1e-12
        assert abs(weighted_cov(x2, x3, w)) < 1e-12
        y = rng.normal(size=j)
        se_y = w ** -0.5
        ds = make_dataset(np.column_stack([x1, x2, x3]), y, se_y,
                          names=("x1", "x2", "x3"))
        me = egger_multivariable(ds, reference="x1")
        ue = egger_univariable(select_risk_factor(ds, "x1"))
        assert me.estimate_for("x1").theta_hat == pytest.approx(
            ue.estimates[0].theta_hat, abs=1e-10, rel=1e-10)


def _numbers(result):
    """A result's numbers in beta_Y's units, one row per coefficient (each
    estimate's theta, se and CI, then the intercept's theta and se), and
    the others (each p and df, the intercept's p, and sigma_hat)."""
    units, others = [], []
    for e in result.estimates:
        units.append([e.theta_hat, e.se, e.ci_low, e.ci_high])
        others += [e.p_value, e.df]
    if result.intercept is not None:
        units.append([result.intercept.theta_0, result.intercept.se])
        others.append(result.intercept.p_value)
    return units, others + [result.residual_scale]


class TestCorrelatedVariants:
    def _dataset(self, rng, j=6, k=1, corr=None, positive=False):
        bx = rng.normal(0.5, 0.6, size=(j, k))
        if positive:
            bx[:, 0] = np.abs(bx[:, 0]) + 0.05
        return make_dataset(bx, rng.normal(size=j), rng.uniform(0.5, 2.0, j),
                            names=tuple(f"x{i+1}" for i in range(k)), corr=corr)

    def test_identity_matches_independent_ivw(self):
        # Both fits divide the rows by se_Y and fit them alike: the same
        # bits.
        rng = np.random.default_rng(41)
        ds = self._dataset(rng, corr=np.eye(6))
        plain = ds.with_correlation(None)
        for scheme in (FIXED, RANDOM):
            cor = ivw_correlated(ds, scheme=scheme)
            unc = ivw_univariable(plain, scheme=scheme)
            assert _numbers(cor) == _numbers(unc)

    def test_identity_matches_independent_egger(self):
        rng = np.random.default_rng(43)
        ds = self._dataset(rng, corr=np.eye(6), positive=True)
        cor = egger_correlated(ds, reference="x1")
        unc = egger_univariable(ds.with_correlation(None))
        assert _numbers(cor) == _numbers(unc)
        assert cor.experimental and not unc.experimental

    def test_perfect_correlation_fails(self):
        # A duplicated variant adds no information; the correlation matrix
        # has no Cholesky factor, so no dataset can carry it.
        corr = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(DataError, match="not positive definite"):
            make_dataset([1.0, 1.0], [0.5, 0.5], [1.0, 1.0], corr=corr)

    def test_singular_correlation_named(self):
        # Two copies of one variant: the matrix is refused when it is built,
        # with its smallest eigenvalue, before any estimator runs.
        corr = np.eye(5)
        corr[0, 1] = corr[1, 0] = 1.0
        bx = np.array([[0.3, 0.1], [0.3, 0.1], [-0.5, 0.4], [0.2, -0.3],
                       [0.4, 0.2]])
        smallest = np.linalg.eigvalsh(corr)[0]
        message = ("correlation matrix is not positive definite (smallest "
                   f"eigenvalue {smallest:.3e})")
        with pytest.raises(DataError) as error:
            make_dataset(bx, [0.1, 0.1, -0.3, -0.2, 0.2],
                         [0.5, 0.5, 0.8, 1.1, 0.7], names=("x1", "x2"),
                         corr=corr)
        assert str(error.value) == message

    def test_too_few_variants(self):
        # IVW needs J > K and MR-Egger J >= K + 2, as without a matrix.
        bx = [[1.0, 0.5], [2.0, -0.5], [3.0, 1.0]]
        ds = make_dataset(bx[:2], [1.0, 2.0], [1.0, 1.0], names=("x1", "x2"),
                          corr=np.eye(2))
        with pytest.raises(ValueError, match="need J > K .* J=2, K=2"):
            ivw_correlated(ds)
        ds = make_dataset(bx, [1.0, 2.0, 3.0], [1.0, 1.0, 1.0],
                          names=("x1", "x2"), corr=np.eye(3))
        with pytest.raises(ValueError, match="J >= K \\+ 2, got J=3, K=2"):
            egger_correlated(ds, "x1")

    def test_positive_correlation_inflates_se(self):
        base = dict(beta_x=[1.0, 1.0], beta_y=[1.0, 3.0], se_y=[1.0, 1.0])
        ds0 = make_dataset(base["beta_x"], base["beta_y"], base["se_y"],
                           corr=np.eye(2))
        ds5 = make_dataset(base["beta_x"], base["beta_y"], base["se_y"],
                           corr=np.array([[1.0, 0.5], [0.5, 1.0]]))
        r0 = ivw_correlated(ds0, scheme=FIXED).estimates[0]
        r5 = ivw_correlated(ds5, scheme=FIXED).estimates[0]
        assert r5.theta_hat == pytest.approx(r0.theta_hat, rel=1e-12)
        assert r5.se > r0.se
        assert r5.se == pytest.approx(np.sqrt(0.75), abs=1e-12)

    def test_exact_line_any_correlation(self):
        rng = np.random.default_rng(47)
        bx = np.abs(rng.normal(size=6)) + 0.1
        y = 0.7 * bx + 0.2
        ds = make_dataset(bx, y, rng.uniform(0.5, 1.5, 6),
                          corr=random_correlation(rng, 6))
        res = egger_correlated(ds, reference="x1")
        assert res.estimates[0].theta_hat == pytest.approx(0.7, abs=1e-9)
        assert res.intercept.theta_0 == pytest.approx(0.2, abs=1e-9)

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(53)
        j = 6
        bx = np.abs(rng.normal(size=j)) + 0.1
        by = rng.normal(size=j)
        se_y = rng.uniform(0.5, 2.0, j)
        rho = random_correlation(rng, j)
        ds = make_dataset(bx, by, se_y, corr=rho)
        omega = np.outer(se_y, se_y) * rho
        oi = np.linalg.inv(omega)

        x = bx[:, None]
        beta_ivw = np.linalg.solve(x.T @ oi @ x, x.T @ oi @ by)
        got = ivw_correlated(ds).estimates[0].theta_hat
        assert got == pytest.approx(beta_ivw[0], rel=1e-10)

        xe = np.column_stack([np.ones(j), bx])
        beta_egger = np.linalg.solve(xe.T @ oi @ xe, xe.T @ oi @ by)
        res = egger_correlated(ds, reference="x1")
        assert res.intercept.theta_0 == pytest.approx(beta_egger[0], rel=1e-10)
        assert res.estimates[0].theta_hat == pytest.approx(beta_egger[1],
                                                           rel=1e-10)
        cov = np.linalg.inv(xe.T @ oi @ xe)
        sigma = res.residual_scale
        assert res.estimates[0].se == pytest.approx(
            np.sqrt(cov[1, 1]) * max(sigma, 1.0), rel=1e-10)

    def test_method_tags(self):
        rng = np.random.default_rng(59)
        ds1 = self._dataset(rng, corr=np.eye(6), positive=True)
        assert str(ivw_correlated(ds1).estimates[0].method) == \
               "UI/random/correlated"
        assert str(egger_correlated(ds1, "x1").estimates[0].method) == \
               "UE/random/correlated"
        ds2 = self._dataset(rng, k=2, corr=np.eye(6), positive=True)
        assert str(ivw_correlated(ds2).estimates[0].method) == \
               "MI/random/correlated"
        assert str(egger_correlated(ds2, "x1").estimates[0].method) == \
               "ME/random/correlated"

    def test_requires_correlation(self):
        rng = np.random.default_rng(61)
        ds = self._dataset(rng)
        with pytest.raises(ValueError, match="requires an attached correlation"):
            ivw_correlated(ds)


# Each public estimator: (call with reference x1 where it takes one,
# intercept, univariable, correlated variants).
_ESTIMATORS = {
    "ivw_univariable": (ivw_univariable, False, True, False),
    "egger_univariable": (egger_univariable, True, True, False),
    "ivw_multivariable": (ivw_multivariable, False, False, False),
    "egger_multivariable": (
        lambda ds, **kw: egger_multivariable(ds, "x1", **kw), True, False,
        False),
    "ivw_correlated": (ivw_correlated, False, False, True),
    "egger_correlated": (
        lambda ds, **kw: egger_correlated(ds, "x1", **kw), True, False, True),
}


@pytest.mark.parametrize("name", list(_ESTIMATORS))
def test_same_condition_same_message(name):
    """One precondition check: a violated condition reads the same from
    every estimator it applies to, and is reported in one order."""
    fit, intercept, univariable, correlated = _ESTIMATORS[name]

    def dataset(j, k=1, corr=correlated, unoriented=False):
        bx = np.arange(1.0, j * k + 1.0).reshape(j, k)
        if unoriented:
            bx[0, 0] = -1.0
        return make_dataset(bx, np.linspace(0.5, 1.5, j), np.ones(j),
                            names=tuple(f"x{i + 1}" for i in range(k)),
                            corr=np.eye(j) if corr else None)

    # case -> (dataset, level, message)
    cases = {"level": (dataset(5), 1.5,
                       "confidence level must be in (0, 1), got 1.5")}
    if univariable:
        cases["K"] = (dataset(5, k=2), 0.95,
                      "univariable estimator requires K=1, got K=2")
    cases["correlation"] = (
        dataset(5, corr=not correlated), 0.95,
        f"{name} requires an attached correlation matrix" if correlated
        else f"{name} assumes independent variants but a correlation matrix "
             f"is attached; use the correlated-variant estimator instead")
    if intercept:
        unoriented = ("dataset is not orientation-normalized: negative x1 "
                      "associations present; run orient() first")
        cases["unoriented"] = (dataset(5, unoriented=True), 0.95, unoriented)
        # Orientation is checked before J.
        cases["unoriented, too few"] = (dataset(2, unoriented=True), 0.95,
                                        unoriented)
        cases["too few"] = (dataset(2), 0.95,
                            "MR-Egger requires J >= K + 2, got J=2, K=1 "
                            "(needs J >= 3)")
    elif not univariable:
        cases["too few"] = (dataset(2, k=2), 0.95,
                            "need J > K for the intercept-free model, got "
                            "J=2, K=2")
    for case, (ds, level, message) in cases.items():
        with pytest.raises(ValueError) as error:
            fit(ds, level=level)
        assert str(error.value) == message, case


class TestInference:
    def test_ci_matches_t_quantile(self):
        rng = np.random.default_rng(71)
        ds = make_dataset(rng.uniform(0.2, 2.0, 8), rng.normal(size=8),
                          rng.uniform(0.5, 2.0, 8))
        est = ivw_univariable(ds).estimates[0]
        half = stats.t.ppf(0.975, est.df) * est.se
        assert est.ci_low == pytest.approx(est.theta_hat - half, rel=1e-12)
        assert est.ci_high == pytest.approx(est.theta_hat + half, rel=1e-12)
        assert est.p_value == pytest.approx(
            2 * stats.t.sf(abs(est.theta_hat / est.se), est.df), rel=1e-12)

    def test_t_quantile_matches_scipy_stats(self):
        # The CI half-width comes from special.stdtrit; it must be the
        # stats.t.ppf quantile bit for bit.
        levels = [0.5, 0.8, 0.9, 0.95, 0.99, 0.999]
        dfs = list(range(1, 501)) + [750, 1_000, 5_000, 10**4, 10**5, 10**6]
        for level in levels:
            for df in dfs:
                _, _, half_width = _inference(0.0, 1.0, df, level)
                assert half_width == stats.t.ppf(0.5 + level / 2.0, df), \
                    (level, df)

    def test_import_leaves_scipy_stats_unloaded(self):
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, mrkit, mrkit.cli; "
             "print('scipy.stats' in sys.modules, "
             "'scipy.linalg' in sys.modules)"],
            env=subprocess_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False False"

    def test_critical_value_matches_stdtrit(self):
        dfs = [*range(1, 2001),
               *np.unique(np.geomspace(2001, 10**7, 40).astype(int)).tolist()]
        got = [_t_critical(df, 0.05) for df in dfs]
        np.testing.assert_allclose(got, special.stdtrit(dfs, 0.975),
                                   rtol=1e-12, atol=0)

    @given(df=st.integers(1, 10**6), se=st.floats(1e-3, 1e3),
           sign=st.sampled_from((-1.0, 1.0)))
    @example(df=1, se=1.0, sign=1.0)
    @example(df=183, se=0.05, sign=-1.0)
    @example(df=10**6, se=1e3, sign=1.0)
    @settings(max_examples=100, deadline=None)
    def test_rejection_near_critical_value_matches_p_value(self, df, se,
                                                           sign):
        # t at c (1 +- k): the critical value alone decides, and it agrees
        # with the p-value down to k = 1e-11, fifty times the 2e-13 by
        # which c and stdtrit can differ.
        steps = np.array([1e-11, 1e-10, 1e-8])
        t = _t_critical(df, 0.05) * np.concatenate([1.0 - steps, 1.0 + steps])
        theta, se = sign * t * se, np.full(t.shape, se)
        flags = _t_rejects(theta, se, df, 0.05)
        assert flags.tolist() == (_t_pvalue(theta, se, df) < 0.05).tolist()

    def test_rejection_flags_of_non_finite_ratios(self):
        theta = np.array([0.0, 1.0, -1.0, 0.0, np.inf, np.nan, np.inf])
        se = np.array([0.0, 0.0, 0.0, np.inf, 1.0, 1.0, np.inf])
        df = np.array([3, 3, 3, 3, 3, 3, 3])
        with np.errstate(divide="ignore", invalid="ignore"):
            flags = _t_rejects(theta, se, df, 0.05)
            p = _t_pvalue(theta, se, df)
        assert np.array_equal(np.isnan(flags), np.isnan(p))
        assert flags.tolist()[1:5] == [1.0, 1.0, 0.0, 1.0]
        assert flags[1:5].tolist() == (p[1:5] < 0.05).tolist()

    def test_level_changes_width(self):
        rng = np.random.default_rng(73)
        ds = make_dataset(rng.uniform(0.2, 2.0, 8), rng.normal(size=8),
                          rng.uniform(0.5, 2.0, 8))
        narrow = ivw_univariable(ds, level=0.9).estimates[0]
        wide = ivw_univariable(ds, level=0.99).estimates[0]
        assert (narrow.ci_high - narrow.ci_low) < (wide.ci_high - wide.ci_low)
        assert narrow.theta_hat == wide.theta_hat
        assert narrow.p_value == wide.p_value  # p does not depend on level

    def test_results_hold_python_numbers(self):
        # Every estimator, df > 0 and df = 0 (the single-variant ratio):
        # plain floats and an int, not numpy scalars.
        rng = np.random.default_rng(79)
        plain = random_dataset(rng, 9, 2, positive_x=True)
        correlated = random_dataset(rng, 9, 2, positive_x=True, corr=True)
        results = [
            ivw_univariable(select_risk_factor(plain, "x1")),
            egger_univariable(select_risk_factor(plain, "x1")),
            ivw_multivariable(plain),
            egger_multivariable(plain, "x1"),
            ivw_correlated(correlated),
            egger_correlated(correlated, "x1"),
            ivw_univariable(make_dataset([0.5], [0.2], [0.1])),
        ]
        assert results[-1].estimates[0].df == 0
        for result in results:
            for est in result.estimates:
                assert type(est.df) is int
                for value in (est.theta_hat, est.se, est.ci_low, est.ci_high,
                              est.p_value):
                    assert type(value) is float
            if result.intercept is not None:
                test = result.intercept
                for value in (test.theta_0, test.se, test.p_value):
                    assert type(value) is float
        assert sum(r.intercept is not None for r in results) == 3

    def test_estimate_for_unknown(self):
        ds = make_dataset([1.0, 2.0], [1.0, 2.0], [1.0, 1.0])
        res = ivw_univariable(ds)
        with pytest.raises(KeyError):
            res.estimate_for("nope")


class TestInsideBiasOracle:
    def test_self_and_constant(self):
        rng = np.random.default_rng(81)
        x = rng.normal(size=50)
        w = rng.uniform(0.5, 2.0, 50)
        assert inside_bias_oracle(x, x, w) == pytest.approx(1.0, rel=1e-12)
        assert inside_bias_oracle(np.full(50, 0.3), x, w) == \
               pytest.approx(0.0, abs=1e-12)

    def test_two_column_partialling(self):
        rng = np.random.default_rng(83)
        j = 40
        x = rng.normal(size=(j, 2))
        alpha = rng.normal(size=j)
        w = rng.uniform(0.5, 2.0, j)
        # Independent oracle: solve the 2x2 weighted-moment normal system.
        moment = np.array([
            [weighted_var(x[:, 0], w), weighted_cov(x[:, 0], x[:, 1], w)],
            [weighted_cov(x[:, 0], x[:, 1], w), weighted_var(x[:, 1], w)],
        ])
        rhs = np.array([weighted_cov(alpha, x[:, 0], w),
                        weighted_cov(alpha, x[:, 1], w)])
        expected = np.linalg.solve(moment, rhs)
        for target in (0, 1):
            assert inside_bias_oracle(alpha, x, w, target=target) == \
                   pytest.approx(expected[target], rel=1e-10)

    def test_errors(self):
        x = np.ones(5)
        w = np.ones(5)
        with pytest.raises(ValueError, match="zero weighted variance"):
            inside_bias_oracle(np.arange(5.0), x, w)
        with pytest.raises(ValueError, match="one or two columns"):
            inside_bias_oracle(np.arange(5.0), np.ones((5, 3)), w)
        with pytest.raises(ValueError, match="length J"):
            inside_bias_oracle(np.arange(4.0), np.arange(5.0), w)
        with pytest.raises(ValueError, match="out of range"):
            inside_bias_oracle(np.arange(5.0), np.arange(5.0), w, target=1)
        collinear = np.column_stack([np.arange(5.0), 2.0 * np.arange(5.0)])
        with pytest.raises(ValueError, match="columns is singular"):
            inside_bias_oracle(np.arange(5.0), collinear, w)

    def test_independent_alpha_decays_with_j(self):
        # With alpha independent of the instrument strengths the bias is a
        # sample covariance ratio, shrinking like 1/sqrt(J).
        rng = np.random.default_rng(97)

        def rms_bias(j, draws=200):
            out = np.empty(draws)
            for i in range(draws):
                x = rng.normal(1.0, 0.5, j)
                alpha = rng.normal(0.0, 1.0, j)
                out[i] = inside_bias_oracle(alpha, x, np.ones(j))
            return float(np.sqrt(np.mean(out ** 2)))

        small, large = rms_bias(100), rms_bias(10_000)
        assert large < small / 5  # expected ratio 10 at 100x the sample size
        assert large < 0.05


class TestFStatistic:
    def test_formula(self):
        n, k, r2 = 188_578, 185, 0.087
        assert f_statistic(n, k, r2) == pytest.approx(
            ((n - k - 1) / k) * (r2 / (1 - r2)), rel=1e-14)

    def test_reported_strength_value(self):
        # 9.6% variance explained across 185 variants in ~188k participants.
        assert f_statistic(188_578, 185, 0.096) == pytest.approx(107.9, abs=0.3)

    def test_zero_r2(self):
        assert f_statistic(1000, 10, 0.0) == 0.0

    def test_errors(self):
        with pytest.raises(ValueError, match="r2"):
            f_statistic(1000, 10, 1.0)
        with pytest.raises(ValueError, match="r2"):
            f_statistic(1000, 10, -0.1)
        with pytest.raises(ValueError, match="n > k"):
            f_statistic(11, 10, 0.5)


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=150, deadline=None)
def test_ivw_closed_form_matches_regression(seed):
    rng = np.random.default_rng(seed)
    j = int(rng.integers(2, 12))
    bx = rng.uniform(0.1, 2.0, j) * rng.choice([-1.0, 1.0], j)
    by = rng.normal(size=j)
    se_y = rng.uniform(0.3, 2.0, j)
    ds = make_dataset(bx, by, se_y)
    w = se_y ** -2.0
    closed_theta = float(np.sum(w * bx * by) / np.sum(w * bx ** 2))
    closed_se = float(1.0 / np.sqrt(np.sum(w * bx ** 2)))
    est = ivw_univariable(ds, scheme=FIXED).estimates[0]
    assert est.theta_hat == pytest.approx(closed_theta, rel=1e-12)
    assert est.se == pytest.approx(closed_se, rel=1e-12)


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=100, deadline=None)
def test_point_estimates_scheme_invariant(seed):
    rng = np.random.default_rng(seed)
    j = int(rng.integers(4, 12))
    bx = np.abs(rng.normal(size=j)) + 0.05
    ds = make_dataset(bx, rng.normal(size=j), rng.uniform(0.3, 2.0, j))
    for run in (lambda s: ivw_univariable(ds, scheme=s),
                lambda s: egger_univariable(ds, scheme=s)):
        fixed, random = run(FIXED), run(RANDOM)
        for ef, er in zip(fixed.estimates, random.estimates):
            assert ef.theta_hat == er.theta_hat
            if fixed.residual_scale >= 1:
                assert er.se >= ef.se
            else:
                assert er.se == ef.se


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=100, deadline=None)
def test_egger_nests_ivw(seed):
    # Refitting the Egger data with the intercept pinned at zero is exactly
    # the IVW model, whatever the data.
    rng = np.random.default_rng(seed)
    j = int(rng.integers(4, 10))
    bx = np.abs(rng.normal(size=j)) + 0.05
    by = rng.normal(size=j)
    se_y = rng.uniform(0.3, 2.0, j)
    ds = make_dataset(bx, by, se_y)
    ui = ivw_univariable(ds).estimates[0]
    w = se_y ** -2.0
    pinned_slope = float(np.sum(w * bx * by) / np.sum(w * bx ** 2))
    assert ui.theta_hat == pytest.approx(pinned_slope, rel=1e-12)
    # And the free-intercept fit differs unless the intercept is (nearly) 0.
    ue = egger_univariable(ds)
    assert ue.intercept is not None


def _scalar_inference(theta, se, df, level):
    """The t p-value and CI of one coefficient, from scipy's scalar calls."""
    if df <= 0:
        return math.nan, math.nan, math.nan
    half_width = float(special.stdtrit(df, 0.5 + level / 2.0)) * se
    p_value = float(2.0 * special.stdtr(df, -abs(theta / se)))
    return p_value, theta - half_width, theta + half_width


def _same_float(a, b):
    return type(a) is float and (a == b or math.isnan(a) and math.isnan(b))


@given(seed=st.integers(min_value=0, max_value=100_000),
       k=st.integers(min_value=1, max_value=3),
       df=st.integers(min_value=0, max_value=12),
       intercept=st.booleans(), correlated=st.booleans(),
       scheme=st.sampled_from(list(WeightScheme)),
       level=st.sampled_from([0.5, 0.9, 0.95, 0.999]))
@settings(max_examples=150, deadline=None)
@example(seed=0, k=1, df=0, intercept=False, correlated=False, scheme=FIXED,
         level=0.95)
@example(seed=0, k=1, df=0, intercept=False, correlated=True, scheme=RANDOM,
         level=0.9)
def test_inference_matches_scalar_formula(seed, k, df, intercept, correlated,
                                          scheme, level):
    """One array step tests every coefficient and the intercept exactly as
    the per-coefficient scalar formula does, bit for bit."""
    if df == 0:  # only the single-variant ratio leaves no residual df
        k, intercept = 1, False
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, k + intercept + df, k, positive_x=True,
                        corr=correlated)
    if correlated:
        result = (egger_correlated(ds, "x1", scheme, level) if intercept
                  else ivw_correlated(ds, scheme, level))
    else:
        result = (egger_multivariable(ds, "x1", scheme, level) if intercept
                  else ivw_multivariable(ds, scheme, level))
    assert [est.df for est in result.estimates] == [df] * k
    for est in result.estimates:
        want = _scalar_inference(est.theta_hat, est.se, df, level)
        got = (est.p_value, est.ci_low, est.ci_high)
        assert all(map(_same_float, got, want)), (got, want)
    assert (result.intercept is not None) == intercept
    if intercept:
        test = result.intercept
        want, _, _ = _scalar_inference(test.theta_0, test.se, df, level)
        assert _same_float(test.p_value, want)


@given(seed=st.integers(min_value=0, max_value=100_000),
       j=st.integers(min_value=5, max_value=40),
       k=st.integers(min_value=1, max_value=3),
       intercept=st.booleans())
@settings(max_examples=150, deadline=None)
# Near-zero coefficients whose rounding exceeds 1e-12 of the largest one.
@example(seed=3, j=31, k=1, intercept=False)
@example(seed=8900, j=26, k=1, intercept=False)
def test_stored_factor_fit_matches_fit_gls(seed, j, k, intercept):
    """GLS with the factor stored at load and flipped by orient equals a
    Cholesky of Omega = D (S rho S) D, computed afresh.

    The stored factor is S F(rho) S bit for bit, F being mrkit's one
    Cholesky routine; it agrees with numpy's Cholesky, which runs on a
    different OpenBLAS build, to rounding.
    """
    rng = np.random.default_rng(seed)
    rho = random_correlation(rng, j)
    beta_x = rng.normal(0.0, 0.6, size=(j, k))
    se_y = rng.uniform(0.3, 2.0, j)
    ds = make_dataset(beta_x, rng.normal(size=j), se_y,
                      names=tuple(f"x{i + 1}" for i in range(k)), corr=rho)
    oriented, _ = orient(ds, "x1")

    signs = np.where(beta_x[:, 0] < 0, -1.0, 1.0)
    flipped = signs[:, None] * rho * signs
    factor = oriented.correlation.factor
    assert np.array_equal(oriented.correlation.entries, flipped)
    fresh = rho.copy()
    assert _cholesky_in_place(fresh)
    assert np.array_equal(factor, signs[:, None] * np.tril(fresh) * signs)
    assert np.max(np.abs(factor - signs[:, None] * np.linalg.cholesky(rho)
                         * signs)) <= 1e-13
    assert np.max(np.abs(factor @ factor.T - flipped)) <= 1e-12

    design = oriented.beta_x
    if intercept:
        design = np.column_stack([np.ones(j), design])
    want = fit_gls(design, oriented.beta_y, np.outer(se_y, se_y) * flipped)
    got = _fit_model(oriented, "ME" if intercept else "MI", intercept, FIXED,
                     0.95)
    coefficients = [e.theta_hat for e in got.estimates]
    unscaled_se = [e.se for e in got.estimates]  # FIXED: se is unscaled
    if intercept:
        coefficients.insert(0, got.intercept.theta_0)
        unscaled_se.insert(0, got.intercept.se)
    # Each coefficient carries the rounding of the largest one and of its own
    # standard error, whichever is larger: a coefficient near zero against
    # its se differs by more than 1e-12 of itself or of the largest one.
    scale = np.maximum(np.max(np.abs(want.coefficients)), want.unscaled_se)
    assert np.all(np.abs(np.subtract(coefficients, want.coefficients))
                  <= 1e-12 * scale)
    assert np.allclose(unscaled_se, want.unscaled_se, rtol=1e-12, atol=0)
    assert got.residual_scale == pytest.approx(want.residual_scale, rel=1e-12)


def _ar1(j: int) -> np.ndarray:
    """The AR(1) correlation matrix 0.3^|s - t|."""
    return 0.3 ** np.abs(np.subtract.outer(np.arange(j), np.arange(j)))


_MATRICES = {"none": lambda j: None, "identity": np.eye, "ar1": _ar1}


def _summary(seed: int, j: int, k: int, collinear: bool = False):
    """beta_X, beta_Y and se_Y with random signs, each |value| at least 0.01.

    No value comes near zero, so none is subnormal in other units of up to
    2^1000. With ``collinear`` and K > 1, beta_X's last column is half its
    first, and MI and ME are rank deficient.
    """
    rng = np.random.default_rng(seed)
    beta_x = rng.uniform(0.05, 1.0, (j, k)) * rng.choice([-1.0, 1.0], (j, k))
    if collinear and k > 1:
        beta_x[:, -1] = 0.5 * beta_x[:, 0]
    beta_y = rng.uniform(0.01, 0.5, j) * rng.choice([-1.0, 1.0], j)
    return beta_x, beta_y, rng.uniform(0.5, 2.0, j)


def _four_fits(beta_x, beta_y, se_y, corr):
    """UI, UE, MI and ME on the data oriented to x1, each as :func:`_numbers`
    or "RankError"; through the correlated estimators when ``corr`` is a
    matrix."""
    names = tuple(f"x{i + 1}" for i in range(beta_x.shape[1]))
    ds, _ = orient(make_dataset(beta_x, beta_y, se_y, names, corr), "x1")
    one = select_risk_factor(ds, "x1")
    if corr is None:
        runs = (lambda: ivw_univariable(one), lambda: egger_univariable(one),
                lambda: ivw_multivariable(ds),
                lambda: egger_multivariable(ds, "x1"))
    else:
        runs = (lambda: ivw_correlated(one),
                lambda: egger_correlated(one, "x1"),
                lambda: ivw_correlated(ds), lambda: egger_correlated(ds, "x1"))
    fits = []
    for run in runs:
        try:
            fits.append(_numbers(run()))
        except RankError:
            fits.append("RankError")
    return fits


@given(seed=st.integers(0, 2 ** 32 - 1), j=st.integers(3, 14),
       k=st.integers(1, 3), flips=st.integers(0, 2 ** 14 - 1))
@settings(max_examples=60, deadline=None)
def test_identity_matrix_fits_independent_bits(seed, j, k, flips):
    # With rho = I, S rho S = I whatever variants orient flips, and the
    # correlated fits are the independent ones, bit for bit.
    j = max(j, k + 2)
    beta_x, beta_y, se_y = _summary(seed, j, k)
    beta_x[:, 0] = np.abs(beta_x[:, 0])
    beta_x[(flips >> np.arange(j)) & 1 == 1] *= -1.0
    assert (_four_fits(beta_x, beta_y, se_y, np.eye(j))
            == _four_fits(beta_x, beta_y, se_y, None))


@given(seed=st.integers(0, 2 ** 32 - 1), j=st.integers(3, 12),
       k=st.integers(1, 3), matrix=st.sampled_from(sorted(_MATRICES)),
       collinear=st.booleans(), m=st.integers(-1000, 1000))
@settings(max_examples=80, deadline=None)
def test_outcome_in_other_units(seed, j, k, matrix, collinear, m):
    # beta_Y and se_Y times 2^m: theta, se and the CI scale by 2^m exactly;
    # p, df and sigma_hat keep their bits, and no rank decision moves. J is
    # at most 12, so every entry of the AR(1) factor is above 2^-21 and the
    # whitening's products stay normal floats.
    j = max(j, k + 2)
    beta_x, beta_y, se_y = _summary(seed, j, k, collinear)
    corr = _MATRICES[matrix](j)
    base = _four_fits(beta_x, beta_y, se_y, corr)
    scaled = _four_fits(beta_x, np.ldexp(beta_y, m), np.ldexp(se_y, m), corr)
    if collinear and k > 1:
        assert base[2:] == ["RankError"] * 2
    assert scaled == [
        fit if fit == "RankError"
        else ([np.ldexp(row, m).tolist() for row in fit[0]], fit[1])
        for fit in base]


@given(seed=st.integers(0, 2 ** 32 - 1), j=st.integers(3, 30),
       k=st.integers(1, 3), matrix=st.sampled_from(sorted(_MATRICES)),
       collinear=st.booleans())
@settings(max_examples=80, deadline=None)
def test_outcome_rows_permuted(seed, j, k, matrix, collinear):
    # The variants' order means nothing: the results agree within rtol
    # 1e-12, a coefficient's numbers within 1e-12 of its se at least (a
    # near-zero estimate has the rounding of its se), and no rank decision
    # moves.
    j = max(j, k + 2)
    beta_x, beta_y, se_y = _summary(seed, j, k, collinear)
    corr = _MATRICES[matrix](j)
    order = np.random.default_rng(seed).permutation(j)
    base = _four_fits(beta_x, beta_y, se_y, corr)
    permuted = _four_fits(beta_x[order], beta_y[order], se_y[order],
                          None if corr is None else corr[np.ix_(order, order)])
    assert ([fit == "RankError" for fit in permuted]
            == [fit == "RankError" for fit in base])
    for want, got in zip(base, permuted):
        if want != "RankError":
            for w, g in zip(want[0], got[0]):
                np.testing.assert_allclose(g, w, rtol=1e-12,
                                           atol=1e-12 * w[1])
            np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=0)
