"""Allele orientation and its interaction with the estimators."""
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrkit import (
    egger_correlated,
    egger_multivariable,
    egger_univariable,
    ivw_correlated,
    ivw_multivariable,
    ivw_univariable,
    orient,
)
from mrkit.regression import WeightScheme

from conftest import make_dataset, random_correlation


class TestOrient:
    def test_flip_example(self):
        ds = make_dataset([[-0.1, 0.3]], [0.2], [1.0], names=("x1", "x2"))
        oriented, report = orient(ds, "x1")
        v = oriented.variants[0]
        assert v.beta_x == pytest.approx((0.1, -0.3))
        assert v.beta_y == pytest.approx(-0.2)
        assert v.effect_allele == "G" and v.other_allele == "A"
        assert report.flipped_ids == ("v0",)
        assert report.zero_ids == ()
        assert report.n_flipped == 1
        assert report.reference == "x1"

    def test_standard_errors_unchanged(self):
        ds = make_dataset([-0.1, 0.2], [0.2, 0.3], [0.7, 0.9],
                          se_x=[[0.11], [0.12]])
        oriented, _ = orient(ds, "x1")
        assert [v.se_x for v in oriented.variants] == \
               [v.se_x for v in ds.variants]
        assert [v.se_y for v in oriented.variants] == \
               [v.se_y for v in ds.variants]

    def test_no_op_when_already_positive(self):
        ds = make_dataset([0.1, 0.2], [0.2, 0.3], [1.0, 1.0])
        oriented, report = orient(ds, "x1")
        assert report.flipped_ids == ()
        assert oriented.variants == ds.variants

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        ds = make_dataset(rng.normal(size=8), rng.normal(size=8),
                          rng.uniform(0.5, 2.0, 8))
        once, first = orient(ds, "x1")
        twice, second = orient(once, "x1")
        assert second.flipped_ids == ()
        assert twice.variants == once.variants

    def test_zero_reference_warns(self):
        ds = make_dataset([0.0, -0.2], [0.1, 0.3], [1.0, 1.0])
        with pytest.warns(UserWarning, match="left unoriented"):
            oriented, report = orient(ds, "x1")
        assert report.zero_ids == ("v0",)
        assert report.flipped_ids == ("v1",)
        assert oriented.variants[0] == ds.variants[0]
        assert set(report.zero_ids).isdisjoint(report.flipped_ids)

    def test_unknown_reference(self):
        ds = make_dataset([0.1], [0.1], [1.0])
        with pytest.raises(ValueError, match="unknown risk factor"):
            orient(ds, "x7")

    def test_correlation_conjugated(self):
        rho = np.array([[1.0, 0.4], [0.4, 1.0]])
        ds = make_dataset([-0.1, 0.2], [0.2, 0.3], [1.0, 1.0], corr=rho)
        oriented, _ = orient(ds, "x1")
        # One flip negates the off-diagonal; the diagonal stays 1.
        assert oriented.correlation.entries == pytest.approx(
            np.array([[1.0, -0.4], [-0.4, 1.0]]))

    def test_shares_unchanged_columns(self):
        rho = np.array([[1.0, 0.4], [0.4, 1.0]])
        ds = make_dataset([[-0.1, 0.3], [0.2, 0.5]], [0.2, 0.3], [1.0, 1.0],
                          names=("x1", "x2"), se_x=[[0.1, 0.2], [0.3, 0.4]],
                          corr=rho)
        oriented, _ = orient(ds, "x1")
        for name in ("variant_ids", "se_x", "se_y"):
            assert np.shares_memory(getattr(oriented, name), getattr(ds, name))
        for name in ("effect_alleles", "other_alleles", "beta_x", "beta_y"):
            assert not np.shares_memory(getattr(oriented, name),
                                        getattr(ds, name))
        # Every column, the recoded ones too, is read-only.
        for name in ("variant_ids", "effect_alleles", "other_alleles",
                     "beta_x", "se_x", "beta_y", "se_y"):
            assert not getattr(oriented, name).flags.writeable, name
        # The flipped matrix shares the parent's packed array (rho's upper
        # triangle above its factor) and rho's diagonal; its signs are new.
        flipped, parent = oriented.correlation, ds.correlation
        assert flipped._packed is parent._packed
        assert flipped._diagonal is parent._diagonal
        assert flipped._signs.tolist() == [-1.0, 1.0]
        assert parent._signs.tolist() == [1.0, 1.0]
        assert not flipped._signs.flags.writeable
        assert not flipped.entries.flags.writeable
        assert flipped.dimension == oriented.j

    def test_correlation_untouched_without_flips(self):
        rho = np.array([[1.0, 0.4], [0.4, 1.0]])
        ds = make_dataset([0.1, 0.2], [0.2, 0.3], [1.0, 1.0], corr=rho)
        oriented, _ = orient(ds, "x1")
        assert oriented.correlation is ds.correlation


class TestOrientationInvariance:
    def test_ivw_identical_after_orientation(self):
        rng = np.random.default_rng(19)
        ds = make_dataset(rng.normal(size=9), rng.normal(size=9),
                          rng.uniform(0.5, 2.0, 9))
        oriented, report = orient(ds, "x1")
        assert report.n_flipped > 0  # construction sanity
        before = ivw_univariable(ds).estimates[0]
        after = ivw_univariable(oriented).estimates[0]
        # Bit-identical: the flips cancel algebraically inside the sums.
        assert before.theta_hat == after.theta_hat
        assert before.se == after.se
        assert before.p_value == after.p_value

    def test_multivariable_ivw_identical(self):
        rng = np.random.default_rng(23)
        bx = rng.normal(size=(10, 3))
        ds = make_dataset(bx, rng.normal(size=10), rng.uniform(0.5, 2.0, 10),
                          names=("x1", "x2", "x3"))
        oriented, _ = orient(ds, "x2")
        before = ivw_multivariable(ds)
        after = ivw_multivariable(oriented)
        for eb, ea in zip(before.estimates, after.estimates):
            assert eb.theta_hat == ea.theta_hat
            assert eb.se == ea.se

    def test_correlated_ivw_identical_with_conjugation(self):
        rng = np.random.default_rng(29)
        j = 7
        ds = make_dataset(rng.normal(size=j), rng.normal(size=j),
                          rng.uniform(0.5, 2.0, j),
                          corr=random_correlation(rng, j))
        oriented, report = orient(ds, "x1")
        assert report.n_flipped > 0
        before = ivw_correlated(ds).estimates[0]
        after = ivw_correlated(oriented).estimates[0]
        assert after.theta_hat == pytest.approx(before.theta_hat, rel=1e-12)
        assert after.se == pytest.approx(before.se, rel=1e-12)

    def test_egger_depends_on_reference_choice(self):
        # Orientation wrt different risk factors is a genuine analysis choice:
        # the Egger slope for the same factor generally differs across runs.
        rng = np.random.default_rng(31)
        bx = rng.normal(size=(12, 2))
        ds = make_dataset(bx, rng.normal(size=12), rng.uniform(0.5, 2.0, 12),
                          names=("x1", "x2"))
        d1, _ = orient(ds, "x1")
        d2, _ = orient(ds, "x2")
        r1 = egger_multivariable(d1, reference="x1")
        r2 = egger_multivariable(d2, reference="x2")
        assert r1.orientation_reference == "x1"
        assert r2.orientation_reference == "x2"
        assert r1.estimate_for("x1").theta_hat != \
               r2.estimate_for("x1").theta_hat

    def test_egger_reproducible_for_same_reference(self):
        rng = np.random.default_rng(37)
        ds = make_dataset(rng.normal(size=10), rng.normal(size=10),
                          rng.uniform(0.5, 2.0, 10))
        a, _ = orient(ds, "x1")
        b, _ = orient(ds, "x1")
        ra = egger_univariable(a).estimates[0]
        rb = egger_univariable(b).estimates[0]
        assert ra.theta_hat == rb.theta_hat
        assert ra.se == rb.se

    def test_egger_correlated_after_orientation(self):
        # The conjugated correlation keeps the GLS Egger fit equal to the
        # dense-inverse oracle computed directly on the oriented data.
        rng = np.random.default_rng(39)
        j = 6
        ds = make_dataset(rng.normal(size=j), rng.normal(size=j),
                          rng.uniform(0.5, 2.0, j),
                          corr=random_correlation(rng, j))
        oriented, _ = orient(ds, "x1")
        res = egger_correlated(oriented, reference="x1")
        se_y = oriented.se_y_vector()
        omega = np.outer(se_y, se_y) * oriented.correlation.entries
        xe = np.column_stack([np.ones(j), oriented.beta_x_matrix()[:, 0]])
        beta = np.linalg.solve(xe.T @ np.linalg.inv(omega) @ xe,
                               xe.T @ np.linalg.inv(omega)
                               @ oriented.beta_y_vector())
        assert res.intercept.theta_0 == pytest.approx(beta[0], rel=1e-9)
        assert res.estimates[0].theta_hat == pytest.approx(beta[1], rel=1e-9)


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=150, deadline=None)
def test_orient_properties(seed):
    rng = np.random.default_rng(seed)
    j = int(rng.integers(2, 10))
    k = int(rng.integers(1, 4))
    bx = rng.normal(size=(j, k))
    ds = make_dataset(bx, rng.normal(size=j), rng.uniform(0.3, 2.0, j),
                      names=tuple(f"x{i+1}" for i in range(k)))
    ref = f"x{int(rng.integers(1, k + 1))}"
    oriented, report = orient(ds, ref)
    col = oriented.beta_x_matrix()[:, oriented.risk_factor_names.index(ref)]
    assert np.all(col >= 0)
    # Flip set is exactly the negative rows of the input.
    neg = {v.variant_id for v, b in zip(ds.variants, bx)
           if b[ds.risk_factor_names.index(ref)] < 0}
    assert set(report.flipped_ids) == neg
    # Idempotence.
    again, second = orient(oriented, ref)
    assert second.flipped_ids == ()
    assert again.variants == oriented.variants
    # IVW invariance, bit-identical (through-the-origin estimators are
    # sign-flip invariant).
    if k == 1:
        before = ivw_univariable(ds).estimates[0]
        after = ivw_univariable(oriented).estimates[0]
    else:
        if j <= k:
            return
        try:
            before = ivw_multivariable(ds).estimates[0]
        except Exception:
            return
        after = ivw_multivariable(oriented).estimates[0]
    assert before.theta_hat == after.theta_hat
    assert before.se == after.se


def _orient_by_rows(ds, reference):
    """Per-row reference for orient(): one variant at a time."""
    ref = ds.risk_factor_names.index(reference)
    rows, flipped, signs = [], [], []
    for v in ds.variants:
        if v.beta_x[ref] < 0:
            flipped.append(v.variant_id)
            signs.append(-1.0)
            rows.append((v.variant_id, v.other_allele, v.effect_allele,
                         tuple(-b for b in v.beta_x), v.se_x, -v.beta_y,
                         v.se_y))
        else:
            signs.append(1.0)
            rows.append((v.variant_id, v.effect_allele, v.other_allele,
                         v.beta_x, v.se_x, v.beta_y, v.se_y))
    rho = None
    if ds.correlation is not None:
        entries = ds.correlation.entries
        rho = [[signs[s] * entries[s, t] * signs[t]
                for t in range(ds.j)] for s in range(ds.j)]
    return rows, tuple(flipped), rho


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=100, deadline=None)
def test_orient_matches_row_reference(seed):
    rng = np.random.default_rng(seed)
    j = int(rng.integers(2, 12))
    k = int(rng.integers(1, 4))
    bx = rng.normal(size=(j, k))
    bx[rng.random((j, k)) < 0.15] = 0.0  # some zero reference associations
    alleles = np.array(["A", "C", "G", "T"])
    ds = make_dataset(bx, rng.normal(size=j), rng.uniform(0.3, 2.0, j),
                      names=tuple(f"x{i + 1}" for i in range(k)),
                      se_x=rng.uniform(0.01, 0.1, size=(j, k)),
                      corr=random_correlation(rng, j) if rng.random() < 0.5
                      else None)
    ds = replace(ds, effect_alleles=alleles[rng.integers(0, 4, j)],
                 other_alleles=alleles[rng.integers(0, 4, j)])
    ref = f"x{int(rng.integers(1, k + 1))}"
    rows, flipped, rho = _orient_by_rows(ds, ref)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        oriented, report = orient(ds, ref)
    assert report.flipped_ids == flipped
    # Exact: a flip is a negation and nothing else changes.
    assert [(v.variant_id, v.effect_allele, v.other_allele, v.beta_x,
             v.se_x, v.beta_y, v.se_y) for v in oriented.variants] == rows
    if rho is None:
        assert oriented.correlation is None
    else:
        assert oriented.correlation.entries.tolist() == rho


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       j=st.sampled_from([5, 6, 9, 30, 90]),
       k=st.integers(min_value=1, max_value=3),
       scheme=st.sampled_from(list(WeightScheme)),
       blocks=st.booleans(),
       exact=st.booleans())
@settings(max_examples=150, deadline=None)
def test_correlated_fits_through_signs_match_flipped_matrix(seed, j, k, scheme,
                                                            blocks, exact):
    """Fits on an oriented correlated dataset equal, bit for bit, the fits on
    the oriented arrays with the matrix S rho S validated and factored anew.

    Orienting keeps the loaded factor L and a sign vector S; the fit
    whitens S-scaled rows against L where the direct dataset whitens
    against S L S, and the results agree to the last bit. Block-diagonal
    rho holds exact zeros, which a flip makes -0.0; an exact fit has a
    residual scale of exactly 0.
    """
    rng = np.random.default_rng(seed)
    names = tuple(f"x{i + 1}" for i in range(k))
    reference = names[int(rng.integers(k))]
    bx = rng.normal(size=(j, k))
    by = (bx @ rng.normal(size=k) if exact
          else rng.normal(size=j))
    se_y = rng.uniform(0.3, 2.0, j)
    rho = random_correlation(rng, j)
    if blocks:
        cut = int(rng.integers(1, j))
        rho[:cut, cut:] = rho[cut:, :cut] = 0.0
    oriented, report = orient(make_dataset(bx, by, se_y, names=names,
                                           corr=rho), reference)
    signs = np.where(bx[:, names.index(reference)] < 0, -1.0, 1.0)
    direct = make_dataset(signs[:, None] * bx, signs * by, se_y, names=names,
                          corr=signs[:, None] * rho * signs)
    assert report.n_flipped == np.count_nonzero(signs < 0)
    assert oriented.correlation == direct.correlation
    for fit in (lambda d: ivw_correlated(d, scheme),
                lambda d: egger_correlated(d, reference, scheme)):
        # repr spells every float exactly, NaN and the sign of zero too.
        assert repr(fit(oriented)) == repr(fit(direct))
    if exact:
        assert ivw_correlated(oriented, scheme).residual_scale == 0.0


def test_orienting_correlated_dataset_allocates_no_matrix():
    # The flipped matrix shares the J x J array and adds a (J,) sign
    # vector; orienting allocates only per-variant columns.
    j = 400
    rng = np.random.default_rng(5)
    lags = np.abs(np.subtract.outer(np.arange(j), np.arange(j)))
    ds = make_dataset(rng.normal(size=j), rng.normal(size=j),
                      rng.uniform(0.5, 2.0, j), corr=0.3 ** lags)
    orient(ds, "x1")  # first-use caches, untraced
    tracemalloc.start()
    try:
        oriented, report = orient(ds, "x1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_flipped > j // 4
    assert oriented.correlation._packed is ds.correlation._packed
    assert peak < 8 * j * j / 8
