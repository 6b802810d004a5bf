"""Acceptance gate: the eight release criteria, one verdict line each.

Every test prints exactly one ``ACCEPTANCE n: PASS/FAIL`` line summarizing
its sub-checks, then asserts. Desk-scale simulation criteria use 2,000
replicates under the default seed.
"""
import subprocess
import sys
import time

import numpy as np
import pytest

from mrkit import (
    egger_correlated,
    egger_multivariable,
    egger_univariable,
    f_statistic,
    inside_bias_oracle,
    ivw_correlated,
    ivw_multivariable,
    ivw_univariable,
    orient,
)
from mrkit.regression import (
    WeightScheme,
    fit_gls,
    fit_wls,
    weighted_cov,
    weighted_var,
)
from mrkit.simulation import DEFAULT_SEED, generate_dataset, run_scenario, scenario_config

from conftest import make_dataset, random_correlation, subprocess_env

DESK = dict(replicates=2000, seed=DEFAULT_SEED)


def _verdict(criterion: int, checks: list[tuple[str, bool, str]]) -> None:
    failed = [(label, detail) for label, ok, detail in checks if not ok]
    if failed:
        detail = "; ".join(f"{label}: {d}" for label, d in failed)
        print(f"ACCEPTANCE {criterion}: FAIL ({detail})")
    else:
        detail = "; ".join(f"{label} {d}" for label, _, d in checks)
        print(f"ACCEPTANCE {criterion}: PASS ({detail})")
    assert not failed, f"criterion {criterion}: " + \
        "; ".join(f"{label}: {d}" for label, d in failed)


def _within(value: float, center: float, tol: float) -> tuple[bool, str]:
    return abs(value - center) <= tol, f"{value:.4f} vs {center}±{tol:g}"


@pytest.fixture(scope="module")
def desk_runs():
    """The seven desk-scale scenario runs shared by criteria 1-3."""
    t0 = time.perf_counter()
    runs = {
        "t3_s1": run_scenario(scenario_config(1, theta1=0.0, **DESK)),
        "t3_s3": run_scenario(scenario_config(3, theta1=0.0, mu=0.1, **DESK)),
        "t3_s4": run_scenario(scenario_config(4, theta1=0.0, mu=0.05, **DESK)),
        "t4_s1": run_scenario(scenario_config(1, theta1=0.0, correlated=True,
                                              **DESK)),
        "t4_s4": run_scenario(scenario_config(4, theta1=0.0, mu=0.1,
                                              correlated=True, **DESK)),
        "a1_s1": run_scenario(scenario_config(1, theta1=0.0, mediation=True,
                                              **DESK)),
        "a2_s1": run_scenario(scenario_config(1, theta1=0.0, mediation=True,
                                              correlated=True, **DESK)),
    }
    runs["elapsed"] = time.perf_counter() - t0
    return runs


def test_acceptance_1_main_grid_independent(desk_runs):
    s1, s3, s4 = desk_runs["t3_s1"], desk_runs["t3_s3"], desk_runs["t3_s4"]
    checks = []
    ok, d = _within(s1.mi.mean_theta1, 0.000, 0.01)
    checks.append(("s1 MI mean", ok, d))
    ok, d = _within(s1.me.mean_se, 0.084, 0.01)
    checks.append(("s1 ME mean se", ok, d))
    ok, d = _within(s1.ue.mean_se, 0.158, 0.01)
    checks.append(("s1 UE mean se", ok, d))
    ok, d = _within(s3.mi.mean_theta1, 0.417, 0.02)
    checks.append(("s3 MI mean", ok, d))
    ok, d = _within(s3.me.mean_theta1, 0.001, 0.02)
    checks.append(("s3 ME mean", ok, d))
    ok, d = _within(100 * s3.me.power_intercept, 88.0, 3.0)
    checks.append(("s3 ME intercept power", ok, d))
    ok, d = _within(s4.ue.mean_theta1, 0.089, 0.02)
    checks.append(("s4 UE mean", ok, d))
    ok, d = _within(s4.me.mean_theta1, 0.088, 0.02)
    checks.append(("s4 ME mean", ok, d))
    elapsed = desk_runs["elapsed"]
    checks.append(("runtime", elapsed < 60.0,
                   f"{elapsed:.1f}s for all desk runs (target <60s)"))
    _verdict(1, checks)


def test_acceptance_2_main_grid_correlated(desk_runs):
    s1, s4 = desk_runs["t4_s1"], desk_runs["t4_s4"]
    checks = []
    ok, d = _within(s1.ue.mean_theta1, 0.099, 0.015)
    checks.append(("s1 UE mean", ok, d))
    ok, d = _within(s1.me.mean_theta1, 0.000, 0.015)
    checks.append(("s1 ME mean", ok, d))
    ok, d = _within(s4.me.mean_theta1, 0.077, 0.02)
    checks.append(("s4 ME mean", ok, d))
    ok, d = _within(s4.ue.mean_theta1, 0.181, 0.02)
    checks.append(("s4 UE mean", ok, d))
    less = abs(s4.me.mean_theta1) < abs(s4.ue.mean_theta1)
    checks.append(("s4 |ME bias| < |UE bias|", less,
                   f"|{s4.me.mean_theta1:.3f}| vs |{s4.ue.mean_theta1:.3f}|"))
    _verdict(2, checks)


def test_acceptance_3_mediation(desk_runs):
    ind, cor = desk_runs["a1_s1"], desk_runs["a2_s1"]
    checks = []
    ok, d = _within(ind.ue.mean_theta1, 0.051, 0.015)
    checks.append(("independent UE mean (total effect)", ok, d))
    ok, d = _within(ind.mi.mean_theta1, 0.000, 0.015)
    checks.append(("independent MI mean", ok, d))
    ok, d = _within(ind.me.mean_theta1, 0.000, 0.015)
    checks.append(("independent ME mean", ok, d))
    ok, d = _within(cor.ue.mean_theta1, 0.146, 0.02)
    checks.append(("correlated UE mean", ok, d))
    ok, d = _within(cor.me.mean_theta1, 0.000, 0.015)
    checks.append(("correlated ME mean", ok, d))
    _verdict(3, checks)


def test_acceptance_4_f_statistic_spot_values():
    checks = []
    for r2, low, high in ((0.087, 96.4, 97.0),
                          (0.096, 107.6, 108.2),
                          (0.059, 63.8, 64.4)):
        value = f_statistic(188_578, 185, r2)
        checks.append((f"r2={r2}", low <= value <= high,
                       f"{value:.4f} in [{low}, {high}]"))
    _verdict(4, checks)


def test_acceptance_5_brute_force_oracle():
    rng = np.random.default_rng(20_250_819)
    worst_rel = 0.0
    worst_closed = 0.0
    cases = 0
    for _ in range(1000):
        k = int(rng.integers(1, 4))
        j = int(rng.integers(k + 2, 9))
        bx = rng.normal(0.3, 0.8, size=(j, k))
        bx[:, 0] = np.abs(bx[:, 0]) + 0.05
        by = rng.normal(size=j)
        se_y = rng.uniform(0.3, 2.0, j)
        w = se_y ** -2.0
        names = tuple(f"x{i + 1}" for i in range(k))
        ds = make_dataset(bx, by, se_y, names=names)

        def rel(a, b):
            scale = max(abs(np.asarray(b)).max(), 1e-8)
            return float(abs(np.asarray(a) - np.asarray(b)).max() / scale)

        # IVW (through the origin) against the explicit-inverse solve.
        xtwx = bx.T * w @ bx
        cov = np.linalg.inv(xtwx)
        beta = cov @ bx.T @ (w * by)
        ses = np.sqrt(np.diag(cov))
        res = (ivw_univariable(ds, scheme=WeightScheme.FIXED_EFFECT) if k == 1
               else ivw_multivariable(ds, scheme=WeightScheme.FIXED_EFFECT))
        got_theta = [e.theta_hat for e in res.estimates]
        got_se = [e.se for e in res.estimates]
        worst_rel = max(worst_rel, rel(got_theta, beta), rel(got_se, ses))

        # Egger (free intercept) against the explicit-inverse solve.
        xe = np.column_stack([np.ones(j), bx])
        cove = np.linalg.inv(xe.T * w @ xe)
        betae = cove @ xe.T @ (w * by)
        sese = np.sqrt(np.diag(cove))
        rese = (egger_univariable(ds, scheme=WeightScheme.FIXED_EFFECT)
                if k == 1 else
                egger_multivariable(ds, "x1",
                                    scheme=WeightScheme.FIXED_EFFECT))
        got = [rese.intercept.theta_0] + [e.theta_hat for e in rese.estimates]
        gses = [rese.intercept.se] + [e.se for e in rese.estimates]
        worst_rel = max(worst_rel, rel(got, betae), rel(gses, sese))

        # Correlated-variant estimators against the dense Omega inverse.
        rho = random_correlation(rng, j)
        dsc = make_dataset(bx, by, se_y, names=names, corr=rho)
        omega_inv = np.linalg.inv(np.outer(se_y, se_y) * rho)
        covc = np.linalg.inv(bx.T @ omega_inv @ bx)
        betac = covc @ bx.T @ omega_inv @ by
        resc = ivw_correlated(dsc, scheme=WeightScheme.FIXED_EFFECT)
        worst_rel = max(worst_rel,
                        rel([e.theta_hat for e in resc.estimates], betac),
                        rel([e.se for e in resc.estimates],
                            np.sqrt(np.diag(covc))))
        cove2 = np.linalg.inv(xe.T @ omega_inv @ xe)
        betae2 = cove2 @ xe.T @ omega_inv @ by
        rese2 = egger_correlated(dsc, "x1", scheme=WeightScheme.FIXED_EFFECT)
        got2 = [rese2.intercept.theta_0] + \
               [e.theta_hat for e in rese2.estimates]
        gses2 = [rese2.intercept.se] + [e.se for e in rese2.estimates]
        worst_rel = max(worst_rel, rel(got2, betae2),
                        rel(gses2, np.sqrt(np.diag(cove2))))

        # Univariable closed form against the regression path.
        if k == 1:
            closed = float(np.sum(w * bx[:, 0] * by)
                           / np.sum(w * bx[:, 0] ** 2))
            worst_closed = max(worst_closed,
                               rel(res.estimates[0].theta_hat, closed))
        cases += 1

    checks = [
        ("instances", cases == 1000, f"{cases} random instances"),
        ("estimators vs explicit inverse", worst_rel < 1e-9,
         f"worst relative error {worst_rel:.2e} < 1e-9"),
        ("closed form vs regression", worst_closed < 1e-12,
         f"worst relative error {worst_closed:.2e} < 1e-12"),
    ]
    _verdict(5, checks)


def test_acceptance_6_property_suite():
    rng = np.random.default_rng(6_060_606)
    n_cases = 500
    failures = {name: 0 for name in (
        "orientation invariance", "orient idempotence", "nesting",
        "k1 equivalence", "gls identity", "scheme point equality",
        "cov var identity")}

    for _ in range(n_cases):
        k = int(rng.integers(1, 4))
        j = int(rng.integers(k + 2, 12))
        bx = rng.normal(0.0, 0.8, size=(j, k))
        by = rng.normal(size=j)
        se_y = rng.uniform(0.3, 2.0, j)
        w = se_y ** -2.0
        names = tuple(f"x{i + 1}" for i in range(k))
        ds = make_dataset(bx, by, se_y, names=names)

        oriented, report = orient(ds, "x1")
        again, second = orient(oriented, "x1")
        if second.flipped_ids != () or again.variants != oriented.variants:
            failures["orient idempotence"] += 1

        run = (ivw_univariable if k == 1 else ivw_multivariable)
        before, after = run(ds), run(oriented)
        if any(eb.theta_hat != ea.theta_hat or eb.se != ea.se
               for eb, ea in zip(before.estimates, after.estimates)):
            failures["orientation invariance"] += 1

        # Nesting: the intercept-pinned Egger model is the IVW model.
        pinned = np.linalg.solve(bx.T * w @ bx, bx.T @ (w * by))
        if not np.allclose([e.theta_hat for e in before.estimates], pinned,
                           rtol=1e-12, atol=1e-13):
            failures["nesting"] += 1

        if k == 1:
            mi = ivw_multivariable(ds).estimates[0]
            ui = ivw_univariable(ds).estimates[0]
            me = egger_multivariable(oriented, "x1").estimates[0]
            ue = egger_univariable(oriented).estimates[0]
            close = lambda a, b: abs(a - b) <= 1e-12 * max(abs(b), 1e-12)
            if not (close(mi.theta_hat, ui.theta_hat) and close(mi.se, ui.se)
                    and mi.df == ui.df and close(me.theta_hat, ue.theta_hat)
                    and close(me.se, ue.se) and me.df == ue.df):
                failures["k1 equivalence"] += 1

        gls = fit_gls(bx, by, np.diag(se_y ** 2))
        wls = fit_wls(bx, by, w)
        if not (np.allclose(gls.coefficients, wls.coefficients, rtol=1e-10)
                and np.allclose(gls.unscaled_se, wls.unscaled_se,
                                rtol=1e-10)):
            failures["gls identity"] += 1

        fixed = run(ds, scheme=WeightScheme.FIXED_EFFECT)
        random = run(ds, scheme=WeightScheme.MULTIPLICATIVE_RANDOM_EFFECT)
        if any(ef.theta_hat != er.theta_hat
               for ef, er in zip(fixed.estimates, random.estimates)):
            failures["scheme point equality"] += 1

        a = rng.normal(size=j)
        if abs(weighted_cov(a, a, w) - weighted_var(a, w)) > \
                1e-12 * max(weighted_var(a, w), 1e-12):
            failures["cov var identity"] += 1

    checks = [(name, count == 0, f"{n_cases - count}/{n_cases} cases" if
               count == 0 else f"{count} failing cases")
              for name, count in failures.items()]
    _verdict(6, checks)


def test_acceptance_7_inside_oracle_consistency():
    config = scenario_config(4, theta1=0.0, mu=0.1, j_variants=20_000,
                             replicates=1, seed=DEFAULT_SEED)
    dataset, truth = generate_dataset(config, 0)
    fit = egger_multivariable(dataset, reference="x1")
    bias = fit.estimate_for("x1").theta_hat - config.theta[0]
    oracle = inside_bias_oracle(
        truth.alpha_prime + truth.epsilon,
        dataset.beta_x_matrix()[:, :2],
        dataset.se_y_vector() ** -2.0,
        target=0,
    )
    rel_err = abs(bias - oracle) / abs(oracle)
    _verdict(7, [("J=20000 scenario 4", rel_err < 0.02,
                  f"bias {bias:.6f} vs oracle {oracle:.6f}, "
                  f"rel err {100 * rel_err:.2f}% < 2%")])


def test_acceptance_8_grid_determinism(tmp_path):
    outputs = {}
    for threads in ("1", "2", "8", "2-again"):
        tag = f"t{threads}"
        env = subprocess_env(MRKIT_THREADS=threads.split("-")[0])
        prefix = str(tmp_path / tag)
        proc = subprocess.run(
            [sys.executable, "-m", "mrkit.cli", "grid", "--reps", "120",
             "--seed", "42", "--out", prefix],
            env=env, capture_output=True, text=True, timeout=540)
        assert proc.returncode == 0, proc.stderr
        outputs[tag] = (tmp_path / f"{tag}.csv").read_bytes()
    reference = outputs["t1"]
    checks = [
        ("rows", reference.count(b"\n") == 67,
         "2 audit lines + header + 64 rows"),
        ("1 vs 2 threads", outputs["t2"] == reference, "byte-identical"),
        ("1 vs 8 threads", outputs["t8"] == reference, "byte-identical"),
        ("repeat run", outputs["t2-again"] == outputs["t2"],
         "byte-identical"),
    ]
    _verdict(8, checks)
