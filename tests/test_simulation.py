"""Data-generating process, scenario runner, and grid determinism."""
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from mrkit import (
    egger_multivariable,
    egger_univariable,
    ivw_multivariable,
    simulation,
)
from mrkit.simulation import (
    CORRELATED_RHOS,
    DEFAULT_SEED,
    GeneratedTruth,
    ScenarioConfig,
    _univariable_extra_variance,
    generate_dataset,
    run_scenario_grid,
    run_scenario,
    scenario_config,
)

from conftest import make_dataset


class TestScenarioConfig:
    def test_defaults_valid(self):
        config = ScenarioConfig()
        assert config.theta == (0.0, 0.1, -0.3)
        assert config.scenario_label == "balanced"

    def test_tuple_lengths(self):
        with pytest.raises(ValueError, match="exactly 3"):
            ScenarioConfig(theta=(0.0, 0.1))
        with pytest.raises(ValueError, match="exactly 3"):
            ScenarioConfig(sigmas_sq=(0.03,))

    def test_sigma_positivity(self):
        with pytest.raises(ValueError, match="positive"):
            ScenarioConfig(sigmas_sq=(0.03, 0.0, 0.04))
        with pytest.raises(ValueError, match="non-negative"):
            ScenarioConfig(sigma_alpha_sq=-0.1)

    def test_rho_range_and_psd(self):
        with pytest.raises(ValueError, match="\\[-1, 1\\]"):
            ScenarioConfig(rhos=(1.5, 0.0, 0.0))
        # Each pairwise rho is legal but jointly impossible.
        with pytest.raises(ValueError, match="not positive"):
            ScenarioConfig(rhos=(0.99, -0.99, 0.99))

    def test_no_pleiotropy_consistency(self):
        with pytest.raises(ValueError, match="alpha' = 0"):
            ScenarioConfig(no_pleiotropy=True, mu=0.1)
        with pytest.raises(ValueError, match="alpha' = 0"):
            ScenarioConfig(no_pleiotropy=True)  # default sigma_alpha_sq > 0
        ok = ScenarioConfig(no_pleiotropy=True, mu=0.0, sigma_alpha_sq=0.0)
        assert ok.scenario_label == "none"

    def test_inside_violated_needs_variance(self):
        with pytest.raises(ValueError, match="sigma_alpha_sq > 0"):
            ScenarioConfig(inside_violated=True, sigma_alpha_sq=0.0)

    def test_bounds(self):
        with pytest.raises(ValueError, match="at least 5"):
            ScenarioConfig(j_variants=4)
        with pytest.raises(ValueError, match="replicates"):
            ScenarioConfig(replicates=0)
        with pytest.raises(ValueError, match="64-bit"):
            ScenarioConfig(seed=2 ** 64)
        with pytest.raises(ValueError, match="weight_mode"):
            ScenarioConfig(weight_mode="other")

    def test_non_finite_settings(self):
        nan, inf = float("nan"), float("inf")
        for field, value in (("theta", (inf, 0.1, -0.3)), ("mu", nan),
                             ("sigma_alpha_sq", inf), ("gamma", nan),
                             ("beta_means", (0.08, nan, -0.05)),
                             ("sigmas_sq", (0.03, 0.02, nan)),
                             ("rhos", (nan, 0.0, 0.0))):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                ScenarioConfig(**{field: value})
        # NaN slips past both mu checks of the factory, so the config has
        # to catch it.
        with pytest.raises(ValueError, match="mu must be finite"):
            scenario_config(3, mu=nan)
        with pytest.raises(ValueError, match="theta must be finite"):
            scenario_config(1, theta1=inf)

    def test_labels(self):
        assert ScenarioConfig(mu=0.1).scenario_label == \
               "directional, InSIDE satisfied"
        assert ScenarioConfig(mu=0.1, inside_violated=True).scenario_label == \
               "directional, InSIDE violated"


class TestScenarioFactory:
    def test_scenario_range(self):
        with pytest.raises(ValueError, match="scenario must be 1-4"):
            scenario_config(5)

    def test_mu_constraints(self):
        with pytest.raises(ValueError, match="needs mu > 0"):
            scenario_config(3)
        with pytest.raises(ValueError, match="fixes mu = 0"):
            scenario_config(2, mu=0.1)

    def test_scenario_one_is_clean(self):
        config = scenario_config(1)
        assert config.no_pleiotropy
        assert config.sigma_alpha_sq == 0.0
        assert not config.inside_violated

    def test_scenario_four_violates(self):
        config = scenario_config(4, mu=0.05)
        assert config.inside_violated
        assert config.sigma_alpha_sq == 0.004

    def test_flags(self):
        config = scenario_config(2, correlated=True, mediation=True)
        assert config.rhos == CORRELATED_RHOS
        assert config.gamma == 0.5
        plain = scenario_config(2)
        assert plain.rhos == (0.0, 0.0, 0.0)
        assert plain.gamma == 0.0

    def test_theta_slots(self):
        config = scenario_config(3, theta1=0.3, mu=0.01)
        assert config.theta == (0.3, 0.1, -0.3)


class TestGenerateDataset:
    def test_reconstruction_identity(self):
        config = scenario_config(3, theta1=0.3, mu=0.1, mediation=True,
                                 replicates=10, j_variants=50)
        dataset, truth = generate_dataset(config, 4)
        t1, t2, t3 = config.theta
        abs_x1 = np.abs(truth.beta_x[:, 0])
        x2 = truth.beta_x[:, 1] + config.gamma * abs_x1
        rebuilt = (truth.alpha_prime + t1 * abs_x1 + t2 * x2
                   + t3 * truth.beta_x[:, 2] + truth.epsilon)
        assert np.array_equal(rebuilt, truth.beta_y)
        assert np.array_equal(dataset.beta_y_vector(), truth.beta_y)
        # Covariates are the oriented observables, not the raw draws.
        bx = dataset.beta_x_matrix()
        assert np.array_equal(bx[:, 0], abs_x1)
        assert np.array_equal(bx[:, 1], x2)
        assert np.array_equal(bx[:, 2], truth.beta_x[:, 2])
        assert np.all(bx[:, 0] >= 0)

    def test_outcome_se_realized(self):
        config = scenario_config(2, replicates=5, j_variants=20)
        dataset, truth = generate_dataset(config, 0)
        expected = np.sqrt(truth.epsilon ** 2 + config.sigma_alpha_sq)
        assert np.array_equal(dataset.se_y_vector(), expected)

    def test_outcome_se_variance_component(self):
        config = scenario_config(2, replicates=5, j_variants=20,
                                 weight_mode="variance_component")
        dataset, _ = generate_dataset(config, 0)
        assert np.allclose(dataset.se_y_vector(), np.sqrt(1.004), atol=0)

    def test_shape_and_ids(self):
        config = scenario_config(1, replicates=3, j_variants=12)
        dataset, truth = generate_dataset(config, 2)
        assert dataset.j == 12 and dataset.k == 3
        assert dataset.risk_factor_names == ("x1", "x2", "x3")
        assert dataset.variants[0].variant_id == "v00001"
        assert dataset.variants[-1].variant_id == "v00012"
        assert dataset.variants[0].se_x == tuple(
            float(np.sqrt(s)) for s in config.sigmas_sq)
        assert isinstance(truth, GeneratedTruth)

    def test_replicate_bounds(self):
        config = scenario_config(1, replicates=3, j_variants=12)
        with pytest.raises(ValueError, match="replicate_index"):
            generate_dataset(config, 3)
        with pytest.raises(ValueError, match="replicate_index"):
            generate_dataset(config, -1)

    def test_deterministic_per_index(self):
        config = scenario_config(2, replicates=4, j_variants=15)
        a, _ = generate_dataset(config, 1)
        b, _ = generate_dataset(config, 1)
        c, _ = generate_dataset(config, 2)
        assert a.variants == b.variants
        assert a.variants != c.variants

    def test_no_pleiotropy_zero_alpha(self):
        config = scenario_config(1, replicates=3, j_variants=30)
        _, truth = generate_dataset(config, 0)
        assert np.all(truth.alpha_prime == 0.0)

    def test_marginal_moments(self):
        config = scenario_config(2, replicates=200)
        draws = np.concatenate(
            [generate_dataset(config, r)[1].beta_x[:, 0] for r in range(200)])
        assert draws.mean() == pytest.approx(0.08, abs=0.004)
        assert draws.std() == pytest.approx(np.sqrt(0.03), rel=0.05)

    def test_inside_violation_correlation(self):
        config = scenario_config(4, mu=0.1, replicates=150)
        bx1, alpha = [], []
        for r in range(150):
            _, truth = generate_dataset(config, r)
            bx1.append(truth.beta_x[:, 0])
            alpha.append(truth.alpha_prime)
        rho = np.corrcoef(np.concatenate(bx1), np.concatenate(alpha))[0, 1]
        assert rho == pytest.approx(0.3, abs=0.02)
        # Scenario 3 keeps them independent.
        config3 = scenario_config(3, mu=0.1, replicates=150)
        bx1, alpha = [], []
        for r in range(150):
            _, truth = generate_dataset(config3, r)
            bx1.append(truth.beta_x[:, 0])
            alpha.append(truth.alpha_prime)
        rho3 = np.corrcoef(np.concatenate(bx1), np.concatenate(alpha))[0, 1]
        assert abs(rho3) < 0.02

    def test_correlated_draws(self):
        config = scenario_config(2, correlated=True, replicates=200)
        cols = [generate_dataset(config, r)[1].beta_x for r in range(200)]
        stacked = np.vstack(cols)
        empirical = np.corrcoef(stacked.T)
        assert empirical[0, 1] == pytest.approx(0.2, abs=0.03)
        assert empirical[0, 2] == pytest.approx(-0.3, abs=0.03)
        assert empirical[1, 2] == pytest.approx(0.1, abs=0.03)


class TestUnivariableExtraVariance:
    def test_default_setting(self):
        config = scenario_config(2)
        # 0.1^2 * 0.02 + 0.3^2 * 0.04
        assert _univariable_extra_variance(config) == \
               pytest.approx(0.0038, abs=1e-15)

    def test_mediation_adds_first_factor_terms(self):
        config = scenario_config(2, mediation=True)
        assert _univariable_extra_variance(config) == \
               pytest.approx(0.0038 + (0.1 * 0.5) ** 2 * 0.03, abs=1e-15)

    def test_mediation_with_correlation_cross_term(self):
        config = scenario_config(2, mediation=True, correlated=True)
        cross = 2 * 0.1 * 0.5 * 0.2 * np.sqrt(0.03 * 0.02)
        expected = 0.0038 + (0.1 * 0.5) ** 2 * 0.03 + cross
        assert _univariable_extra_variance(config) == \
               pytest.approx(expected, rel=1e-12)


class TestRunScenario:
    def test_repeat_runs_identical(self):
        config = scenario_config(2, replicates=300, seed=77)
        a = run_scenario(config)
        b = run_scenario(config)
        assert a == b  # dataclass equality covers every float bit-for-bit

    def test_worker_count_invariant(self, monkeypatch):
        config = scenario_config(3, theta1=0.3, mu=0.05, replicates=520,
                                 seed=99)
        monkeypatch.setenv("MRKIT_THREADS", "1")
        serial = run_scenario(config)
        monkeypatch.setenv("MRKIT_THREADS", "3")
        threaded = run_scenario(config)
        assert serial == threaded

    def test_thread_env_validation(self, monkeypatch):
        config = scenario_config(1, replicates=10, j_variants=20)
        monkeypatch.setenv("MRKIT_THREADS", "zero")
        with pytest.raises(ValueError, match="MRKIT_THREADS"):
            run_scenario(config)
        monkeypatch.setenv("MRKIT_THREADS", "0")
        with pytest.raises(ValueError, match="MRKIT_THREADS"):
            run_scenario(config)

    def test_chunk_boundary(self):
        # One full chunk and a partial last chunk of one replicate.
        replicates = simulation._CHUNK + 1
        config = scenario_config(1, replicates=replicates, j_variants=30,
                                 seed=5)
        summary = run_scenario(config)
        assert summary.mi.replicates_used == replicates
        assert summary.failures == 0

    def test_chunk_size_invariant(self, monkeypatch):
        # Chunk size is free to change: summaries are bit-identical for a
        # small chunk, a non-divisor, the default and one chunk for all.
        config = scenario_config(4, theta1=0.3, mu=0.1, correlated=True,
                                 mediation=True, replicates=300, seed=19)
        summaries = []
        for threads in ("1", "2"):
            monkeypatch.setenv("MRKIT_THREADS", threads)
            for chunk in (16, 100, simulation._CHUNK, 512):
                with monkeypatch.context() as patch:
                    patch.setattr(simulation, "_CHUNK", chunk)
                    summaries.append(run_scenario(config))
        assert all(s == summaries[0] for s in summaries)

    def test_chunk_draws_match_single_replicate(self, monkeypatch):
        # The chunk fills its draw block in place from the same per-replicate
        # generator that generate_dataset uses.
        monkeypatch.setenv("MRKIT_THREADS", "1")
        latent_draws = simulation._latent_draws
        blocks = []

        def capture(config, z, chol):
            blocks.append(z.copy())
            return latent_draws(config, z, chol)

        monkeypatch.setattr(simulation, "_latent_draws", capture)
        config = scenario_config(2, replicates=2 * simulation._CHUNK,
                                 j_variants=20, seed=8)
        run_scenario(config)
        assert [len(b) for b in blocks] == [simulation._CHUNK] * 2
        z = np.concatenate(blocks)
        for r in range(config.replicates):
            assert np.array_equal(
                z[r], simulation._replicate_normals(config, r, 20))

    @given(seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
           indices=st.lists(st.integers(min_value=0, max_value=2 ** 64 - 1),
                            max_size=6))
    @example(seed=0, indices=[])
    @example(seed=2 ** 32 - 1, indices=[])
    @example(seed=2 ** 32, indices=[])
    @example(seed=2 ** 64 - 1, indices=[])
    @hypothesis_settings(max_examples=60, deadline=None)
    def test_chunk_seeding_matches_seed_sequence(self, seed, indices):
        # Indices that need a second 32-bit word always take part.
        indices = [0, 2 ** 32 - 1, 2 ** 32] + indices
        words = simulation._seed_words(seed, np.array(indices, dtype=np.uint64))
        for r, row in zip(indices, words):
            sequence = np.random.SeedSequence([seed, r])
            assert np.array_equal(
                row, sequence.generate_state(4, np.uint64))
            state = np.random.PCG64(sequence).state["state"]
            assert simulation._pcg64_state(row.tolist()) == (
                state["state"], state["inc"])

    def test_seeding_guard_raises_on_a_corrupted_hash(self, monkeypatch):
        monkeypatch.setattr(simulation, "_PCG64_MULTIPLIER",
                            simulation._PCG64_MULTIPLIER + 2)
        with pytest.raises(RuntimeError, match="seed 3, replicate 0"):
            run_scenario(scenario_config(2, replicates=4, seed=3))

    def test_rank_deficient_replicates_count_as_failures(self, monkeypatch):
        observables = simulation._observables

        def collinear_first(*args):
            abs_x1, x2, x3, beta_y, se2 = observables(*args)
            x3 = x3.copy()
            x3[0] = x2[0]  # replicate 0: x3 duplicates x2
            return abs_x1, x2, x3, beta_y, se2

        monkeypatch.setattr(simulation, "_observables", collinear_first)
        summary = run_scenario(scenario_config(2, replicates=20, seed=3))
        assert summary.failures == 1
        assert summary.mi.replicates_used == 19
        assert summary.me.replicates_used == 19
        assert summary.ue.replicates_used == 20

    def test_summary_fields(self):
        config = scenario_config(2, replicates=200, seed=11)
        summary = run_scenario(config)
        assert summary.mi.estimator == "MI"
        assert summary.mi.power_intercept is None
        assert summary.ue.power_intercept is not None
        assert summary.me.power_intercept is not None
        assert 0 <= summary.ue.power_causal <= 1
        assert summary.for_estimator("me") is summary.me
        with pytest.raises(KeyError, match="no summary"):
            summary.for_estimator("ivw")

    def test_mediation_estimand_split(self):
        # Under mediation the univariable slope targets the total effect
        # theta1 + gamma*theta2, the multivariable slopes the direct theta1.
        config = scenario_config(1, theta1=0.3, mediation=True,
                                 replicates=600, seed=123)
        summary = run_scenario(config)
        total = 0.3 + 0.5 * 0.1
        assert summary.ue.mean_theta1 == pytest.approx(total, abs=0.03)
        assert summary.me.mean_theta1 == pytest.approx(0.3, abs=0.03)
        assert summary.mi.mean_theta1 == pytest.approx(0.3, abs=0.02)

    def test_multivariable_egger_more_precise_than_univariable(self):
        # The multivariable fit explains the theta2/theta3 signal instead of
        # absorbing it into the residual, so its slope se is smaller.
        config = scenario_config(1, replicates=400, seed=31)
        summary = run_scenario(config)
        assert summary.me.mean_se < summary.ue.mean_se

    def test_nominal_size_without_pleiotropy(self):
        config = scenario_config(1, replicates=3000, seed=2024)
        summary = run_scenario(config)
        for est in (summary.mi, summary.ue, summary.me):
            assert 0.03 <= est.power_causal <= 0.07
        # The multivariable intercept is truly zero, so its test is nominal.
        assert 0.03 <= summary.me.power_intercept <= 0.07
        # The univariable model omits x2/x3, whose nonzero means shift its
        # intercept to theta2*0.03 + theta3*(-0.05) = 0.018, mildly inflating
        # the intercept rejection rate (~9%) even without pleiotropy.
        assert 0.06 <= summary.ue.power_intercept <= 0.14

    def test_directional_pleiotropy_biases_ivw_not_egger(self):
        config = scenario_config(3, mu=0.1, replicates=400, seed=17)
        summary = run_scenario(config)
        assert abs(summary.mi.mean_theta1) > 0.3  # strong upward bias
        assert abs(summary.me.mean_theta1) < 0.05
        assert summary.me.power_intercept > 0.5  # pleiotropy is detectable


@pytest.mark.parametrize("scenario, settings", [
    (1, {}),
    (2, {"correlated": True}),
    (3, {"theta1": 0.3, "mu": 0.05, "mediation": True}),
    (4, {"mu": 0.1}),
])
def test_batched_summary_matches_single_dataset_fits(scenario, settings):
    """run_scenario's chunked fits agree with the public estimators."""
    config = scenario_config(scenario, replicates=5, seed=61, **settings)
    summary = run_scenario(config)
    assert summary.failures == 0
    extra = _univariable_extra_variance(config)
    single = {"MI": [], "UE": [], "ME": []}
    for r in range(config.replicates):
        dataset, _ = generate_dataset(config, r)
        single["MI"].append(ivw_multivariable(dataset).estimates[0])
        single["ME"].append(egger_multivariable(dataset, "x1").estimates[0])
        univariable = make_dataset(dataset.beta_x[:, 0], dataset.beta_y,
                                   np.sqrt(dataset.se_y ** 2 + extra))
        single["UE"].append(egger_univariable(univariable).estimates[0])
    for name, estimates in single.items():
        batched = summary.for_estimator(name)
        np.testing.assert_allclose(
            [batched.mean_theta1, batched.mean_se],
            [np.mean([e.theta_hat for e in estimates]),
             np.mean([e.se for e in estimates])], rtol=1e-9)


@pytest.fixture(scope="module")
def grid_rows():
    return run_scenario_grid(replicates=20, seed=404)


class TestGrid:
    def test_structure_and_determinism(self, grid_rows):
        rows = grid_rows
        assert len(rows) == 64
        assert [r.index for r in rows] == list(range(64))
        assert all(not r.mediation for r in rows[:32])
        assert all(r.mediation for r in rows[32:])
        # Within each 32-row half: independent block then correlated block.
        assert all(not r.correlated for r in rows[:16])
        assert all(r.correlated for r in rows[16:32])
        # Within each 16-row block: theta1 = 0 rows then theta1 = 0.3 rows.
        assert [r.theta1 for r in rows[:16]] == [0.0] * 8 + [0.3] * 8
        # Each 8-row run walks the pleiotropy scenarios in table order.
        assert [r.scenario for r in rows[:8]] == [1, 2, 3, 3, 3, 4, 4, 4]
        assert [r.mu for r in rows[:8]] == [0.0, 0.0, 0.01, 0.05, 0.1,
                                            0.01, 0.05, 0.1]
        # Row seeds are distinct, derived from (seed, index).
        assert len({r.seed for r in rows}) == 64

    def test_rows_reproducible_in_isolation(self, grid_rows):
        row = grid_rows[37]
        config = scenario_config(
            row.scenario, theta1=row.theta1, mu=row.mu,
            correlated=row.correlated, mediation=row.mediation,
            replicates=20, seed=row.seed)
        assert run_scenario(config) == row.summary

    def test_mediation_only_returns_mediation_rows(self, grid_rows):
        rows = run_scenario_grid(replicates=20, seed=404, mediation_only=True)
        assert [r.index for r in rows] == list(range(32, 64))
        assert rows == grid_rows[32:]

    @pytest.mark.parametrize("mediation_only, gammas",
                             [(False, [0.0] * 32 + [0.5] * 32),
                              (True, [0.5] * 32)])
    def test_mediation_only_skips_main_rows(self, monkeypatch,
                                            mediation_only, gammas):
        computed = []
        real = simulation.run_scenario

        def counting(config):
            computed.append(config.gamma)
            return real(config)

        monkeypatch.setattr(simulation, "run_scenario", counting)
        run_scenario_grid(replicates=2, seed=404,
                          mediation_only=mediation_only)
        assert computed == gammas

    def test_seed_changes_rows(self):
        a = run_scenario_grid(replicates=20, seed=1)
        b = run_scenario_grid(replicates=20, seed=2)
        assert a[0].summary != b[0].summary


def test_config_immutable():
    config = scenario_config(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.mu = 0.5
