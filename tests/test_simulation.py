"""Data-generating process, scenario runner, and grid determinism."""
import dataclasses
import itertools
import os
import subprocess
import sys
import tracemalloc

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
from mrkit import regression
from mrkit.regression import RankError
from mrkit.simulation import (
    BETA_MEANS,
    CORRELATED_RHOS,
    DEFAULT_REPLICATES,
    DEFAULT_SEED,
    INSIDE_CORRELATION,
    MEDIATION_GAMMA,
    SIGMA_ALPHA_SQ,
    SIGMAS_SQ,
    THETA2,
    THETA3,
    GeneratedTruth,
    ScenarioConfig,
    _univariable_extra_variance,
    generate_dataset,
    run_scenario_grid,
    run_scenario,
    scenario_config,
)

from conftest import make_dataset, subprocess_env


class TestScenarioConfig:
    def test_defaults_valid(self):
        assert scenario_config is ScenarioConfig
        assert [f.name for f in dataclasses.fields(ScenarioConfig)] == [
            "scenario", "theta1", "mu", "correlated", "mediation",
            "j_variants", "replicates", "seed", "weight_mode"]
        config = scenario_config(2)
        assert config.theta == (0.0, 0.1, -0.3)
        assert config.scenario == 2
        assert (config.j_variants, config.replicates, config.seed,
                config.weight_mode) == (185, DEFAULT_REPLICATES,
                                        DEFAULT_SEED, "realized")

    def test_removed_settings_rejected(self):
        # The fixed parts of the process are module constants, not settings.
        for name, value in (("theta", (0.0, 0.1, -0.3)),
                            ("rhos", CORRELATED_RHOS),
                            ("sigma_alpha_sq", SIGMA_ALPHA_SQ),
                            ("inside_violated", True),
                            ("beta_means", BETA_MEANS),
                            ("sigmas_sq", SIGMAS_SQ),
                            ("gamma", MEDIATION_GAMMA)):
            with pytest.raises(TypeError, match=name):
                scenario_config(2, **{name: value})

    def test_sigma_positivity(self):
        assert all(s > 0 for s in SIGMAS_SQ)
        assert SIGMA_ALPHA_SQ > 0
        assert [scenario_config(s, mu=mu).sigma_alpha_sq
                for s, mu in ((1, 0.0), (2, 0.0), (3, 0.1), (4, 0.1))] == \
               [0.0] + [SIGMA_ALPHA_SQ] * 3

    def test_rho_range_and_psd(self):
        # The factors taken at import are the Cholesky factors of the
        # independent and the correlated risk-factor correlation.
        assert all(-1 <= r <= 1 for r in CORRELATED_RHOS)
        factors = simulation._RISK_FACTOR_CHOLESKY
        assert np.array_equal(factors[0], np.eye(3))
        for rhos, factor in zip(((0.0, 0.0, 0.0), CORRELATED_RHOS), factors):
            assert np.all(np.diag(factor) > 0)
            np.testing.assert_allclose(factor @ factor.T, _correlation(rhos),
                                       rtol=0, atol=1e-15)

    def test_no_pleiotropy_consistency(self):
        # Derived from the scenario, so it cannot contradict it.
        config = scenario_config(1)
        assert (config.mu, config.sigma_alpha_sq) == (0.0, 0.0)
        with pytest.raises(AttributeError):
            config.sigma_alpha_sq = SIGMA_ALPHA_SQ
        with pytest.raises(TypeError):
            ScenarioConfig(1, no_pleiotropy=True)

    def test_inside_violated_needs_variance(self):
        # Scenario 4 is the only InSIDE-violated law, and it has direct-effect
        # variance for alpha' to share with bX1 under every flag.
        for correlated, mediation in itertools.product((False, True),
                                                       repeat=2):
            config = scenario_config(4, mu=0.01, correlated=correlated,
                                     mediation=mediation)
            assert config.sigma_alpha_sq == SIGMA_ALPHA_SQ > 0

    def test_inside_violated_joint_law_is_psd(self):
        # alpha' loads on the standardized bX1 only, so the joint covariance
        # of (bX1, bX2, bX3, alpha') in scenario 4 has Schur complement
        # sigma_alpha_sq * (1 - INSIDE_CORRELATION**2) > 0. Both laws that
        # exist are checked directly.
        sd = np.sqrt(SIGMAS_SQ)
        for correlated, rhos in ((False, (0.0, 0.0, 0.0)),
                                 (True, CORRELATED_RHOS)):
            correlation = _correlation(rhos)
            assert np.linalg.eigvalsh(correlation).min() > 0
            config = scenario_config(4, mu=0.1, correlated=correlated)
            joint = np.zeros((4, 4))
            joint[:3, :3] = correlation * np.outer(sd, sd)
            joint[3, 3] = config.sigma_alpha_sq
            joint[3, :3] = joint[:3, 3] = (
                INSIDE_CORRELATION * np.sqrt(config.sigma_alpha_sq) * sd
                * correlation[0])
            assert np.linalg.eigvalsh(joint).min() > 0

    def test_bounds(self):
        with pytest.raises(ValueError, match="at least 5"):
            scenario_config(2, j_variants=4)
        with pytest.raises(ValueError, match="replicates"):
            scenario_config(2, replicates=0)
        with pytest.raises(ValueError, match="64-bit"):
            scenario_config(2, seed=2 ** 64)
        with pytest.raises(ValueError, match="weight_mode"):
            scenario_config(2, weight_mode="other")

    def test_non_finite_settings(self):
        nan, inf = float("nan"), float("inf")
        # NaN and inf slip past both mu checks for scenarios 3 and 4, so the
        # finiteness check has to catch them.
        for mu in (nan, inf):
            with pytest.raises(ValueError, match="mu must be finite"):
                scenario_config(3, mu=mu)
        for theta1 in (nan, inf):
            with pytest.raises(ValueError, match="theta1 must be finite"):
                scenario_config(1, theta1=theta1)
        # theta1 is checked before mu, and the scenario's mu rule first.
        with pytest.raises(ValueError, match="theta1 must be finite"):
            scenario_config(4, theta1=inf, mu=nan)
        with pytest.raises(ValueError, match="fixes mu = 0"):
            scenario_config(1, theta1=inf, mu=nan)

    def test_labels(self):
        # A config is labelled by its scenario number alone; the grid's text
        # table words it (cli._scenario_text).
        assert scenario_config(1).scenario == 1
        assert scenario_config(3, mu=0.1).scenario == 3
        assert scenario_config(4, mu=0.1).scenario == 4
        assert not hasattr(scenario_config(1), "scenario_label")

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
        assert config.sigma_alpha_sq == 0.0
        assert config.scenario == 1

    def test_scenario_four_violates(self):
        config = scenario_config(4, mu=0.05)
        assert config.scenario == 4
        assert config.sigma_alpha_sq == SIGMA_ALPHA_SQ == 0.004

    def test_flags(self):
        config = scenario_config(2, correlated=True, mediation=True)
        assert config.correlated
        assert config.gamma == MEDIATION_GAMMA == 0.5
        assert CORRELATED_RHOS == (0.2, -0.3, 0.1)
        plain = scenario_config(2)
        assert not plain.correlated
        assert plain.gamma == 0.0

    def test_theta_slots(self):
        config = scenario_config(3, theta1=0.3, mu=0.01)
        assert config.theta == (0.3, 0.1, -0.3)
        assert config.theta[1:] == (THETA2, THETA3)


def _correlation(rhos):
    r12, r13, r23 = rhos
    return np.array([[1.0, r12, r13], [r12, 1.0, r23], [r13, r23, 1.0]])


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
            float(np.sqrt(s)) for s in SIGMAS_SQ)
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
        # +0.0 exactly: 0 * z + 0 rounds a negative z's -0.0 up to +0.0.
        assert np.all(truth.alpha_prime == 0.0)
        assert not np.signbit(truth.alpha_prime).any()

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

    def test_summaries_without_the_in_place_qr(self, monkeypatch):
        # Where numpy's QR kernel does not give np.linalg.qr's bits on the
        # chunk buffers' strided layout, its probe rejects it and every QR
        # copies its batch, as np.linalg.qr does: the summaries, of one
        # config and of packed grid rows, are the same. The stand-in kernel
        # is wrong only on a view, which np.linalg.qr never hands it: it
        # factors a copy of its own.
        from numpy.linalg import _umath_linalg

        monkeypatch.setenv("MRKIT_THREADS", "2")
        config = scenario_config(4, theta1=0.3, mu=0.1, correlated=True,
                                 mediation=True, replicates=300, seed=21)
        want = (run_scenario(config),
                [row.summary for row in run_scenario_grid(
                    8, seed=5, mediation_only=True)])
        kernel = _umath_linalg.qr_r_raw

        def one_ulp_off(a, **kwargs):
            tau = kernel(a, **kwargs)
            if a.base is not None:
                a[..., 0, 0] = np.nextafter(a[..., 0, 0], np.inf)
            return tau

        regression._in_place_qr.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(_umath_linalg, "qr_r_raw", one_ulp_off)
                assert regression._in_place_qr() is None
                got = (run_scenario(config),
                       [row.summary for row in run_scenario_grid(
                           8, seed=5, mediation_only=True)])
        finally:
            regression._in_place_qr.cache_clear()
        assert got == want
        assert regression._in_place_qr() is kernel

    def test_first_t_inference_in_worker_threads(self):
        # At J = 185 the 256 replicates make two chunks, so with two threads
        # both workers make their first t decisions at once. The summary
        # must be the one-thread summary, and no worker loads scipy.special.
        script = (
            "import sys\n"
            "from mrkit import run_scenario, scenario_config\n"
            "config = scenario_config(2, replicates=256, seed=5)\n"
            "print(repr(run_scenario(config)))\n"
            "assert 'scipy.special' not in sys.modules\n")
        outputs = []
        for threads in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True,
                env=subprocess_env(MRKIT_THREADS=threads), timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]

    def test_thread_env_validation(self, monkeypatch):
        config = scenario_config(1, replicates=10, j_variants=20)
        monkeypatch.setenv("MRKIT_THREADS", "zero")
        with pytest.raises(ValueError, match="MRKIT_THREADS"):
            run_scenario(config)
        monkeypatch.setenv("MRKIT_THREADS", "0")
        with pytest.raises(ValueError, match="MRKIT_THREADS"):
            run_scenario(config)

    def test_default_threads_follow_cpu_affinity(self, monkeypatch):
        # Without MRKIT_THREADS, a process pinned to one CPU of a larger
        # machine starts one worker, not one per machine CPU.
        monkeypatch.delenv("MRKIT_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3},
                            raising=False)
        assert simulation._thread_count() == 1
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(8)))
        assert simulation._thread_count() == 4
        # Where the platform cannot say, the machine's count is used.
        monkeypatch.delattr(os, "sched_getaffinity")
        assert simulation._thread_count() == 4
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert simulation._thread_count() == 1

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
        # small chunk, a non-divisor, the default and one chunk for all. At
        # J = 1,000 the default is the byte bound's 47 replicates, not
        # _CHUNK; the other sizes lift the bound.
        for j, replicates in ((185, 300), (1_000, 70)):
            config = scenario_config(4, theta1=0.3, mu=0.1, correlated=True,
                                     mediation=True, j_variants=j,
                                     replicates=replicates, seed=19)
            summaries = []
            for threads in ("1", "2"):
                monkeypatch.setenv("MRKIT_THREADS", threads)
                for chunk in (16, 100, None, 512):
                    with monkeypatch.context() as patch:
                        if chunk is not None:
                            patch.setattr(simulation, "_CHUNK", chunk)
                            patch.setattr(simulation, "_CHUNK_BYTES", 1 << 40)
                        summaries.append(run_scenario(config))
            assert all(s == summaries[0] for s in summaries), j

    @pytest.mark.parametrize("j, chunk", [
        (185, 128), (372, 128), (373, 127), (1_000, 47), (10_000, 4),
        (100_000, 1)])
    def test_chunk_bounded_by_bytes(self, monkeypatch, j, chunk):
        # A worker thread's buffers hold 88 bytes per replicate and
        # variant: a chunk is _CHUNK replicates, or as many as keep them
        # within _CHUNK_BYTES, and at least one. The buffer size is
        # recorded and nothing is allocated.
        class Recorded(Exception):
            pass

        sizes = []

        def record(buffers, size, j):
            sizes.append((size, j))
            raise Recorded

        monkeypatch.setenv("MRKIT_THREADS", "1")
        monkeypatch.setattr(simulation._ChunkBuffers, "__init__", record)
        with pytest.raises(Recorded):
            run_scenario(scenario_config(1, j_variants=j, replicates=1_000))
        assert sizes == [(chunk, j)]
        assert chunk == 1 or 88 * j * chunk <= simulation._CHUNK_BYTES

    def test_chunk_buffers_hold_their_stated_bytes(self):
        # The chunk plan reads the bytes per replicate and variant from the
        # class; its arrays are views of one allocation of that size.
        buffers = simulation._ChunkBuffers(3, 7)
        views = (buffers.z, buffers.slots, buffers.me, buffers.ue,
                 buffers.scratch)
        base = buffers.z.base
        while base.base is not None:
            base = base.base
        assert simulation._ChunkBuffers.BYTES == 88
        assert base.nbytes == simulation._ChunkBuffers.BYTES * 3 * 7
        assert buffers.z.nbytes + buffers.slots.nbytes == base.nbytes
        assert all(np.shares_memory(view, base) for view in views)

    def test_chunk_memory(self, monkeypatch):
        # One chunk on one thread: 128 replicates at the paper's J = 185,
        # and 47 at J = 1,000. Its buffers hold 11 float64 per replicate and
        # variant, and nothing else of that size is allocated: the latent
        # draws' temporaries are planes of the buffers, and each QR runs in
        # place, with a per-problem LAPACK buffer of J x 5.
        monkeypatch.setenv("MRKIT_THREADS", "1")
        for j, chunk in ((185, simulation._CHUNK), (1_000, 47)):
            config = scenario_config(4, theta1=0.3, mu=0.1, correlated=True,
                                     mediation=True, j_variants=j,
                                     replicates=chunk)
            run_scenario(config)  # first-use caches, untraced
            tracemalloc.start()
            try:
                run_scenario(config)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 12 * 8 * chunk * j, (j, peak / (8 * chunk * j))

    def test_configs_packed_by_bounded_chunk(self, monkeypatch):
        # At J = 1,000 a chunk holds 47 replicates, so of three 20-replicate
        # configs the first two share one and the third runs in its own.
        monkeypatch.setenv("MRKIT_THREADS", "1")
        tests, chunks = simulation._chunk_tests, []

        def record(me, ue, out):
            chunks.append(len(me))
            tests(me, ue, out)

        monkeypatch.setattr(simulation, "_chunk_tests", record)
        configs = [scenario_config(1, j_variants=1_000, replicates=20, seed=s)
                   for s in range(3)]
        assert len(list(simulation._replicate_results(configs))) == 3
        assert chunks == [40, 20]

    def test_packed_configs_match_isolated_runs(self, monkeypatch):
        # The first three configs share one chunk (123 replicates); the
        # fourth is cut into chunks of its own, 128 + 72, which go to the
        # pool at two threads; the last runs alone after it.
        configs = [scenario_config(1, replicates=100, j_variants=30, seed=1),
                   scenario_config(2, replicates=20, j_variants=30, seed=2),
                   scenario_config(3, mu=0.1, replicates=3, j_variants=30,
                                   seed=3),
                   scenario_config(4, mu=0.1, replicates=200, j_variants=30,
                                   seed=4),
                   scenario_config(1, replicates=5, j_variants=30, seed=5)]
        for threads in ("1", "2"):
            monkeypatch.setenv("MRKIT_THREADS", threads)
            packed = list(simulation._replicate_results(configs))
            assert [a.shape for a in packed] == [
                (3, 5, c.replicates) for c in configs]
            for config, results in zip(configs, packed):
                alone = next(simulation._replicate_results([config]))
                assert results.tobytes() == alone.tobytes(), threads
        with pytest.raises(ValueError, match="share j_variants"):
            list(simulation._replicate_results(
                [configs[0], scenario_config(1, replicates=5, j_variants=20)]))

    def test_chunk_draws_match_single_replicate(self, monkeypatch):
        # The chunk fills its draw block in place through _chunk_normals,
        # which must draw what generate_dataset draws for each replicate:
        # for a config cut into two chunks, and for a chunk packed with four
        # configs of distinct seeds, on both sides of 2**32.
        monkeypatch.setenv("MRKIT_THREADS", "1")
        latent_draws = simulation._latent_draws
        blocks = []

        def capture(config, z, scratch):
            blocks.append((config, z.copy()))
            return latent_draws(config, z, scratch)

        monkeypatch.setattr(simulation, "_latent_draws", capture)
        single = [scenario_config(2, replicates=2 * simulation._CHUNK,
                                  j_variants=20, seed=8)]
        packed = [scenario_config(2, replicates=simulation._CHUNK // 4,
                                  j_variants=20, seed=seed)
                  for seed in (2 ** 40 + 3, 8, 2 ** 32, 2 ** 64 - 1)]
        for configs, sizes in ((single, [simulation._CHUNK] * 2),
                               (packed, [simulation._CHUNK // 4] * 4)):
            blocks.clear()
            list(simulation._replicate_results(configs))
            assert [len(z) for _, z in blocks] == sizes
            for config in configs:
                z = np.concatenate([z for c, z in blocks if c is config])
                for r in range(config.replicates):
                    rng = np.random.default_rng(
                        np.random.SeedSequence([config.seed, r]))
                    assert np.array_equal(z[r], rng.standard_normal((20, 5)))

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
            assert np.random.PCG64(simulation._SeedWords(row)).state == (
                np.random.PCG64(sequence).state)

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937,
                                               np.random.SFC64])
    def test_seed_words_seed_only_pcg64(self, bit_generator):
        # Other bit generators ask for other words: 624 uint32, 3 uint64.
        [row] = simulation._seed_words(3, np.array([0], dtype=np.uint64))
        with pytest.raises(RuntimeError, match="seed only PCG64"):
            bit_generator(simulation._SeedWords(row))

    @given(pairs=st.lists(st.tuples(
        st.integers(min_value=0, max_value=2 ** 64 - 1),
        st.integers(min_value=0, max_value=2 ** 64 - 1)), max_size=6))
    @example(pairs=[])
    @hypothesis_settings(max_examples=60, deadline=None)
    def test_chunk_seeding_matches_seed_sequence_per_seed(self, pairs):
        # One seed per index, as a packed chunk hashes its rows' replicates:
        # seeds below 2**32 and at or above it always take part.
        pairs = [(2 ** 32 - 1, 5), (2 ** 32, 5), (0, 2 ** 32)] + pairs
        seeds, indices = (np.array(column, dtype=np.uint64)
                          for column in zip(*pairs))
        words = simulation._seed_words(seeds, indices)
        assert words.shape == (len(pairs), 4)
        for (seed, r), row in zip(pairs, words):
            assert np.array_equal(row, np.random.SeedSequence(
                [seed, r]).generate_state(4, np.uint64))

    def test_grid_hashes_once_per_chunk_and_guards_every_row(self,
                                                             monkeypatch):
        # The 32 mediation rows of 32 replicates fill 8 chunks of 4 rows:
        # each chunk hashes its seeds in one call, and the guard checks the
        # first replicate of each row against numpy's seeding.
        # The guard is numpy's SeedSequence asked for a replicate's 4 words;
        # the grid asks it for each row's 1-word seed.
        monkeypatch.setenv("MRKIT_THREADS", "1")
        seed_words = simulation._seed_words
        hashed, guarded = [], []

        def hash_chunk(seeds, indices):
            hashed.append(len(indices))
            return seed_words(seeds, indices)

        class GuardSequence(np.random.SeedSequence):
            def generate_state(self, n_words, dtype=np.uint32):
                if n_words == 4:
                    guarded.append(tuple(self.entropy))
                return super().generate_state(n_words, dtype)

        monkeypatch.setattr(simulation, "_seed_words", hash_chunk)
        monkeypatch.setattr(np.random, "SeedSequence", GuardSequence)
        rows = run_scenario_grid(32, mediation_only=True)
        assert hashed == [128] * 8
        assert guarded == [(row.config.seed, 0) for row in rows]

    def test_seeding_guard_raises_on_a_corrupted_hash(self, monkeypatch):
        corrupted = simulation._STATE_XOR.copy()
        corrupted[3] ^= 1
        monkeypatch.setattr(simulation, "_STATE_XOR", corrupted)
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
        batched = getattr(summary, name.lower())
        np.testing.assert_allclose(
            [batched.mean_theta1, batched.mean_se],
            [np.mean([e.theta_hat for e in estimates]),
             np.mean([e.se for e in estimates])], rtol=1e-9)


def _public_tests(config, replicate):
    """One replicate's five _TESTS coefficients from the public estimators.

    Returns the (4, len(_TESTS)) estimates, ses, t test decisions and
    p-values, the first three in the engine's layout (a decision is 1.0
    where p < POWER_ALPHA, 0.0 where not and NaN where p is), and the MI,
    UE and ME results. An estimator that raises RankError gives None and
    NaN in its coefficients.
    """
    dataset, _ = generate_dataset(config, replicate)
    univariable = make_dataset(
        dataset.beta_x[:, 0], dataset.beta_y,
        np.sqrt(dataset.se_y ** 2 + _univariable_extra_variance(config)))
    fits = []
    for fit in (lambda: ivw_multivariable(dataset),
                lambda: egger_univariable(univariable),
                lambda: egger_multivariable(dataset, "x1")):
        try:
            fits.append(fit())
        except RankError:
            fits.append(None)
    out = np.full((4, len(simulation._TESTS)), np.nan)
    for row, (estimator, column) in enumerate(simulation._TESTS):
        result = fits[estimator]
        if result is None:
            continue
        if column == 0 and result.intercept is not None:
            test = result.intercept
            out[[0, 1, 3], row] = test.theta_0, test.se, test.p_value
        else:
            test = result.estimates[0]
            out[[0, 1, 3], row] = test.theta_hat, test.se, test.p_value
    out[2] = np.where(np.isnan(out[3]), np.nan,
                      out[3] < simulation.POWER_ALPHA)
    return out, fits


def _assert_paths_agree(batched, public):
    """The engine's results agree with the public estimators' (_both_paths).

    Estimates and ses agree to rtol 1e-9. The t test decisions are NaN in
    the same places, and equal wherever the public p-value is clear of
    POWER_ALPHA by 1e-9.
    """
    np.testing.assert_allclose(batched[:2], public[:2], rtol=1e-9, atol=0)
    assert np.array_equal(np.isnan(batched[2]), np.isnan(public[2]))
    clear = np.abs(public[3] - simulation.POWER_ALPHA) > 1e-9
    assert np.array_equal(batched[2][clear], public[2][clear])


def _both_paths(config):
    """The engine's per-replicate results and the public estimators'.

    Returns the engine's array, the public estimators' results in its
    layout with their p-values as a fourth plane (see _public_tests), and
    each replicate's (MI, UE, ME) results.
    """
    batched = next(simulation._replicate_results([config]))
    outs, fits = zip(*(_public_tests(config, r)
                       for r in range(config.replicates)))
    return batched, np.stack(outs, axis=-1), fits


@st.composite
def _configs(draw):
    scenario = draw(st.integers(1, 4))
    return scenario_config(
        scenario, theta1=draw(st.sampled_from((0.0, 0.3))),
        mu=draw(st.floats(0.005, 0.2)) if scenario > 2 else 0.0,
        correlated=draw(st.booleans()), mediation=draw(st.booleans()),
        j_variants=draw(st.sampled_from((5, 6, 7, 185))), replicates=8,
        seed=draw(st.integers(0, 2 ** 64 - 1)))


@given(config=_configs())
@example(config=scenario_config(4, theta1=0.3, mu=0.1, correlated=True,
                                mediation=True, j_variants=5, replicates=8,
                                seed=1))
@hypothesis_settings(max_examples=40, deadline=None)
def test_replicates_match_single_dataset_fits(config):
    """Each replicate's engine results equal the public estimators'.

    Every tested coefficient's estimate and random-effects se agree to rtol
    1e-9, and so does every p < 0.05 decision not within 1e-9 of the
    threshold.
    """
    _assert_paths_agree(*_both_paths(config)[:2])


@pytest.mark.parametrize("weight_mode", ["realized", "variance_component"])
@pytest.mark.parametrize("scenario, mu", [(1, 0.0), (2, 0.0), (3, 0.05),
                                          (4, 0.1)])
def test_observables_in_place_match_generate_dataset(monkeypatch, scenario,
                                                     mu, weight_mode):
    """The engine's _observables call equals generate_dataset's, bit for bit.

    The engine writes the observables over the latent draws they are made
    from; generate_dataset writes them into its own (4, J) array.
    """
    observables = simulation._observables
    calls = []

    def capture(config, beta_cols, alpha_prime, epsilon, out):
        aliased = (np.shares_memory(out[0], beta_cols[0])
                   and np.shares_memory(out[1], beta_cols[1])
                   and np.shares_memory(out[2], alpha_prime))
        result = observables(config, beta_cols, alpha_prime, epsilon, out)
        calls.append((aliased, np.stack(result)))
        return result

    monkeypatch.setattr(simulation, "_observables", capture)
    for correlated, mediation in itertools.product((False, True), repeat=2):
        config = scenario_config(scenario, theta1=0.3, mu=mu,
                                 correlated=correlated, mediation=mediation,
                                 j_variants=30, replicates=6, seed=23,
                                 weight_mode=weight_mode)
        calls.clear()
        next(simulation._replicate_results([config]))
        [(aliased, engine)] = calls
        assert aliased
        for r in range(config.replicates):
            calls.clear()
            generate_dataset(config, r)
            [(aliased, single)] = calls
            assert not aliased
            assert engine[:, r].tobytes() == single.tobytes(), (config, r)


def test_collinear_replicates_fail_where_estimators_raise(monkeypatch):
    """MI and ME fail in the engine exactly where the estimators raise.

    A replicate whose x3 duplicates x2 is rank deficient for MI and ME: the
    engine gives NaN and counts a failure where ``ivw_multivariable`` and
    ``egger_multivariable`` raise RankError. UE, which does not use x3, is
    unaffected.
    """
    observables = simulation._observables

    def collinear(*args):
        abs_x1, x2, x3, beta_y, se2 = observables(*args)
        # A per-replicate rule on the replicate's own draws, so both paths,
        # chunk and single dataset, choose the same replicates.
        x3 = np.where(abs_x1[..., :1] > BETA_MEANS[0], x2, x3)
        return abs_x1, x2, x3, beta_y, se2

    monkeypatch.setattr(simulation, "_observables", collinear)
    config = scenario_config(3, mu=0.05, replicates=24, j_variants=20,
                             seed=8)
    batched, public, fits = _both_paths(config)
    raised = np.array([mi is None for mi, _, _ in fits])
    assert 0 < raised.sum() < config.replicates
    assert [me is None for _, _, me in fits] == raised.tolist()
    assert all(ue is not None for _, ue, _ in fits)
    _assert_paths_agree(batched, public)
    assert np.array_equal(np.isnan(batched[0, 0]), raised)
    assert simulation._summarise(batched).failures == raised.sum()


def _reference_summary(results):
    """A summary from one masked ``np.mean`` per estimator and quantity.

    An estimator uses the replicates whose estimate, se and t test decision
    are finite, and, for UE and ME, whose intercept decision (rows 3 and 4
    of _TESTS) is finite too. A power is the mean of the decisions, 1.0
    where a test rejects and 0.0 where it does not.
    """
    theta, se, rejects = results
    summaries, all_ok = [], np.ones(results.shape[-1], dtype=bool)
    for e, (estimator, intercept) in enumerate(
            (("MI", None), ("UE", 3), ("ME", 4))):
        ok = (np.isfinite(theta[e]) & np.isfinite(se[e])
              & np.isfinite(rejects[e]))
        if intercept is not None:
            ok &= np.isfinite(rejects[intercept])
        if not ok.any():
            raise ValueError(
                f"every replicate failed for estimator {estimator}")
        summaries.append(simulation.EstimatorSummary(
            estimator=estimator,
            mean_theta1=float(np.mean(theta[e][ok])),
            mean_se=float(np.mean(se[e][ok])),
            power_causal=float(np.mean(rejects[e][ok])),
            power_intercept=(None if intercept is None else
                             float(np.mean(rejects[intercept][ok]))),
            replicates_used=int(ok.sum())))
        all_ok &= ok
    return simulation.SimulationSummary(*summaries,
                                        failures=int(np.sum(~all_ok)))


@pytest.mark.parametrize("n", [1, 8, 129, 8193, 10_000])
@pytest.mark.parametrize("failed", [0.0, 0.001, 0.3])
@given(offset=st.sampled_from((0, 3)), seed=st.integers(0, 2 ** 32 - 1))
@hypothesis_settings(max_examples=8, deadline=None)
def test_summary_matches_masked_means(n, failed, offset, seed):
    """_summarise equals the per-estimator masked means bit for bit.

    The results are a slice of a wider array, as the engine yields a
    packed chunk's rows, and a share of their values is NaN or infinite.
    """
    rng = np.random.default_rng(seed)
    wide = np.empty((3, len(simulation._TESTS), offset + n + 2))
    results = wide[..., offset:offset + n]
    results[0] = rng.normal(0.1, 0.3, results[0].shape)
    results[1] = rng.exponential(0.05, results[1].shape)
    results[2] = rng.random(results[2].shape) < 0.25
    if failed:
        bad = rng.random(results.shape) < failed / len(simulation._TESTS)
        results[bad] = rng.choice([np.nan, np.inf, -np.inf], bad.sum())
    try:
        want = _reference_summary(results)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            simulation._summarise(results)
        return
    got = simulation._summarise(results)
    # The repr of a float round-trips, so equal reprs are equal bits.
    assert repr(got) == repr(want)
    assert got == want


@pytest.mark.parametrize("j_variants", [5, 185])
def test_exact_fit_replicates_match_single_dataset_fits(monkeypatch,
                                                        j_variants):
    """An exact fit gives the same results on both paths, with sigma_hat = 0.

    beta_Y is set to 0.3 |bX1| + 0.1 x2 - 0.3 x3 with no noise, so MI and ME
    fit it exactly on both paths; UE, which omits x2 and x3, does not. The
    true intercept is exactly 0, so ME's estimate of it is rounding noise of
    either sign and is compared absolutely. df = 0, the other way to
    sigma_hat = 0, cannot occur in the engine: j_variants >= 5 leaves ME,
    the largest model, at least one residual degree of freedom.
    """
    observables, fit_from_r = simulation._observables, simulation._fit_from_r
    sigmas = []

    def exact(*args):
        abs_x1, x2, x3, beta_y, se2 = observables(*args)
        beta_y[...] = 0.3 * abs_x1 + 0.1 * x2 - 0.3 * x3
        return abs_x1, x2, x3, beta_y, se2

    def recording(*args):  # the engine's MI and ME fits
        fit = fit_from_r(*args)
        sigmas.append(fit[2])
        return fit

    monkeypatch.setattr(simulation, "_observables", exact)
    monkeypatch.setattr(simulation, "_fit_from_r", recording)
    config = scenario_config(2, theta1=0.3, replicates=16,
                             j_variants=j_variants, seed=3)
    batched, public, fits = _both_paths(config)
    assert len(sigmas) == 2 and not np.concatenate(sigmas).any()
    for mi, ue, me in fits:
        assert mi.residual_scale == me.residual_scale == 0.0
        assert ue.residual_scale > 0.0
    np.testing.assert_allclose(batched[0, 4], public[0, 4], rtol=0,
                               atol=1e-12)
    batched[0, 4] = public[0, 4]
    _assert_paths_agree(batched, public)


@pytest.fixture(scope="module")
def grid_rows():
    return run_scenario_grid(replicates=20, seed=404)


class TestGrid:
    def test_structure_and_determinism(self, grid_rows):
        rows = grid_rows
        assert len(rows) == 64
        assert [r.index for r in rows] == list(range(64))
        configs = [r.config for r in rows]
        assert all(not c.mediation for c in configs[:32])
        assert all(c.mediation for c in configs[32:])
        # Within each 32-row half: independent block then correlated block.
        assert all(not c.correlated for c in configs[:16])
        assert all(c.correlated for c in configs[16:32])
        # Within each 16-row block: theta1 = 0 rows then theta1 = 0.3 rows.
        assert [c.theta1 for c in configs[:16]] == [0.0] * 8 + [0.3] * 8
        # Each 8-row run walks the pleiotropy scenarios in table order.
        assert [c.scenario for c in configs[:8]] == [1, 2, 3, 3, 3, 4, 4, 4]
        assert [c.mu for c in configs[:8]] == [0.0, 0.0, 0.01, 0.05, 0.1,
                                               0.01, 0.05, 0.1]
        assert all(c.replicates == 20 for c in configs)
        # Row seeds are distinct, derived from (seed, index).
        assert len({c.seed for c in configs}) == 64

    def test_rows_reproducible_in_isolation(self, grid_rows, monkeypatch):
        # At 20 replicates six rows share each chunk; at 50, two. Every row
        # must still be bit for bit run_scenario on that row alone.
        for threads in ("1", "2"):
            monkeypatch.setenv("MRKIT_THREADS", threads)
            full = run_scenario_grid(replicates=20, seed=404)
            assert full == grid_rows
            mediation = run_scenario_grid(replicates=50, seed=404,
                                          mediation_only=True)
            for rows, replicates in ((full, 20), (mediation, 50)):
                for row in rows:
                    assert row.config.replicates == replicates
                    assert run_scenario(row.config) == row.summary, (
                        threads, replicates, row.index)

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
        real = simulation._replicate_results

        def counting(configs):
            computed.extend(config.gamma for config in configs)
            return real(configs)

        monkeypatch.setattr(simulation, "_replicate_results", counting)
        run_scenario_grid(replicates=2, seed=404,
                          mediation_only=mediation_only)
        assert computed == gammas

    @pytest.mark.parametrize("replicates, sizes", [
        (32, [4] * 8), (20, [6] * 5 + [2]), (129, None)])
    def test_chunk_plan(self, monkeypatch, replicates, sizes):
        # Whole rows share a chunk while they fit in it, and a row larger
        # than a chunk is cut into chunks of its own. Each recorded segment
        # is (row config, first replicate, end, row of the chunk buffers):
        # the chunk draws the segment's replicates under the row's seed and
        # builds their problems in those rows of its buffers.
        monkeypatch.setenv("MRKIT_THREADS", "1")
        normals, whitened, tests = (simulation._chunk_normals,
                                    simulation._whitened_problems,
                                    simulation._chunk_tests)
        chunks, drawn, built = [], [], []

        def draw(segments, out):
            drawn.extend(segments)
            normals(segments, out)

        def record(config, buffers, rows):
            built.append((config, rows.start))
            whitened(config, buffers, rows)

        def close(me, ue, out):
            assert [seed for seed, _, _ in drawn] == [
                config.seed for config, _ in built]
            chunks.append([(config, start, end, at) for (config, at), (
                _, start, end) in zip(built, drawn, strict=True)])
            drawn.clear()
            built.clear()
            tests(me, ue, out)

        monkeypatch.setattr(simulation, "_chunk_normals", draw)
        monkeypatch.setattr(simulation, "_whitened_problems", record)
        monkeypatch.setattr(simulation, "_chunk_tests", close)
        configs = [row.config for row in run_scenario_grid(
            replicates, seed=404, mediation_only=True)]
        if sizes is None:
            expected = [chunk for config in configs for chunk in (
                [(config, 0, 128, 0)], [(config, 128, 129, 0)])]
        else:
            rows = iter(configs)
            expected = [[(next(rows), 0, replicates, i * replicates)
                         for i in range(size)] for size in sizes]
        assert chunks == expected

    def test_seed_changes_rows(self):
        a = run_scenario_grid(replicates=20, seed=1)
        b = run_scenario_grid(replicates=20, seed=2)
        assert a[0].summary != b[0].summary


def test_config_immutable():
    config = scenario_config(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.mu = 0.5
