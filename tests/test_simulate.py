import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from glmmfp import covariance, fixed_point, simulate
from glmmfp.covariance import MaternParams
from glmmfp.dataio import ConfigError
from glmmfp.estimate import EstimateResult
from glmmfp.metrics import rl2
from glmmfp.simulate import (
    ORACLE,
    SIC_ESTIMATED,
    SIC_TRUE,
    SimConfig,
    generate_dataset,
    run_scenarios,
    write_audit_json,
    write_table_csv,
)
from glmmfp.spatial import krige, site_problem

SMALL = SimConfig(
    n=50, n_star=40, beta=(2.0, 0.0), omega=MaternParams(0.5, 1.0),
    replications=3, seed=0, side=7.0, scenarios=(ORACLE, SIC_TRUE),
)


class TestConfig:
    def test_defaults_match_the_reference_setting(self):
        cfg = SimConfig()
        assert cfg.n == 400 and cfg.n_star == 400
        assert cfg.beta == (8.0, 0.0)
        assert (cfg.omega.omega1, cfg.omega.omega2, cfg.omega.omega3) == (
            0.5, 1.0, 0.5,
        )
        assert cfg.replications == 100

    def test_invalid_configs_rejected(self):
        # each names its key, as the CLI's checks do
        for bad, message in (
            (dict(replications=0), r"simulate.replications must be an integer in \[1, inf\]: 0"),
            (dict(n=0), r"simulate.n must be an integer in \[1, inf\]: 0"),
            (dict(side=-1.0), "simulate.side must be a positive number: -1.0"),
        ):
            with pytest.raises(ConfigError, match=message):
                SimConfig(**bad)
        for scenarios in (("oracle", "bogus"), (), ("oracle", "sic_true", "oracle")):
            with pytest.raises(ConfigError, match="simulate.scenarios must name"):
                SimConfig(scenarios=scenarios)
        # the joint prior of n + n* sites holds (n + n*)**2 doubles
        assert covariance.PRIOR_BUDGET == 4096**2
        SimConfig(n=4000, n_star=96)
        for n, n_star in ((4000, 97), (1, 4096), (10**400, 1)):
            with pytest.raises(ValueError, match="simulate.n \\+ simulate.n_star"):
                SimConfig(n=n, n_star=n_star)
        for beta in (8.0, (8.0,), (8.0, 0.0, 1.0), (8.0, np.nan), (True, 0.0), "ab"):
            with pytest.raises(ValueError, match="beta"):
                SimConfig(beta=beta)


class TestGeneration:
    def test_deterministic_per_replication(self):
        a = generate_dataset(SMALL, 2)
        b = generate_dataset(SMALL, 2)
        assert np.array_equal(a.observed.y, b.observed.y)
        assert np.array_equal(a.gamma, b.gamma)
        assert np.array_equal(a.unobserved.coords, b.unobserved.coords)

    def test_replications_are_independent_of_order(self):
        # replication 5 is the same whether or not 0..4 were generated
        direct = generate_dataset(SMALL, 5)
        for rep in range(5):
            generate_dataset(SMALL, rep)
        again = generate_dataset(SMALL, 5)
        assert np.array_equal(direct.observed.y, again.observed.y)

    def test_shapes(self):
        d = generate_dataset(SMALL, 0)
        obs = d.observed
        assert obs.y.shape == (50,)
        assert d.gamma.shape == (50,)
        assert d.gamma_star.shape == (40,)
        assert obs.X.shape == (50, 2)
        assert d.unobserved.X.shape == (40, 2)
        assert obs.coords.min() >= 0 and obs.coords.max() <= SMALL.side
        assert d.unobserved.coords.shape == (40, 2)
        assert d.unobserved.y is None

    def test_counts_are_poisson_like(self):
        d = generate_dataset(SMALL, 1)
        y = d.observed.y
        assert np.all(y >= 0)
        assert np.all(y == np.round(y))


class TestScenarios:
    def test_estimation_reads_the_replications_own_sites(self, monkeypatch):
        config = SimConfig(
            n=30, n_star=20, beta=(2.0, 0.0), replications=1, side=5.0,
            scenarios=(SIC_ESTIMATED,),
        )
        dataset = generate_dataset(config, 0)
        handed, fits, crossed = [], [], []
        estimate, cross_covariance = simulate.estimate, simulate.cross_covariance

        def spy_estimate(data, *args, **kwargs):
            handed.append(data)
            fits.append(estimate(data, *args, **kwargs))
            return fits[-1]

        def spy_cross(omega, coords_obs, coords_unobs):
            crossed.append((omega, coords_obs, coords_unobs))
            return cross_covariance(omega, coords_obs, coords_unobs)

        monkeypatch.setattr(simulate, "estimate", spy_estimate)
        monkeypatch.setattr(simulate, "cross_covariance", spy_cross)
        record = simulate._scenario_metrics(dataset, SIC_ESTIMATED, config)
        assert len(handed) == 1 and handed[0] is dataset.observed
        [fit] = fits
        # the estimate's own mode fit is kriged, at its own parameters
        assert record["rl2"] == rl2(dataset.gamma, fit.report.xi)
        [(omega, coords_obs, coords_unobs)] = crossed
        assert omega is fit.omega_hat
        assert coords_obs is dataset.observed.coords
        assert coords_unobs is dataset.unobserved.coords

    @staticmethod
    def oracle_prediction(dataset, config, monkeypatch):
        """The oracle's prediction at the unobserved sites, as ``rl2`` sees it."""
        seen = []
        monkeypatch.setattr(simulate, "rl2", lambda truth, pred: seen.append(pred) or 0.0)
        simulate._scenario_metrics(dataset, ORACLE, config)
        [pred] = seen
        return pred

    def test_oracle_krigs_the_replications_own_draw(self, monkeypatch):
        dataset = generate_dataset(SMALL, 1)
        # z is the stream's draw after the sites and the covariates
        rng = np.random.default_rng([SMALL.seed, 1])
        n, n_star = SMALL.n, SMALL.n_star
        rng.uniform(size=(n + n_star) * 2)
        rng.standard_normal(n + n_star)
        assert np.array_equal(dataset.z, rng.standard_normal(n + n_star))
        L = dataset.blocked.chol
        assert np.array_equal(L @ dataset.z, np.concatenate([dataset.gamma, dataset.gamma_star]))
        pred = self.oracle_prediction(dataset, SMALL, monkeypatch)
        assert np.array_equal(pred, L[n:, :n] @ dataset.z[:n])

    @pytest.mark.parametrize("nu", [0.5, 2.5])
    def test_oracle_is_the_dense_conditional_mean(self, nu, monkeypatch):
        # D21 D11^-1 gamma by a dense solve, on a prior whose D11 is well conditioned
        config = SimConfig(
            n=30, n_star=12, beta=(2.0, 0.0), omega=MaternParams(0.5, 1.0, nu),
            replications=1, side=10.0, scenarios=(ORACLE,),
        )
        dataset = generate_dataset(config, 0)
        blocked = dataset.blocked
        assert np.linalg.cond(blocked.d11) < 1e6
        expected = blocked.d12.T @ np.linalg.solve(blocked.d11, dataset.gamma)
        pred = self.oracle_prediction(dataset, config, monkeypatch)
        assert pred.shape == (12,)
        assert np.max(np.abs(pred - expected)) < 1e-10

    def test_oracle_and_sic_true_metrics(self):
        result = run_scenarios(SMALL)
        assert set(result.aggregates) == {ORACLE, SIC_TRUE}
        assert result.aggregates[ORACLE]["rl2"] == 0.0
        assert 0.0 < result.aggregates[ORACLE]["rl2_star"] < 1.0
        # with true parameters the fixed point tracks the latent field
        assert result.aggregates[SIC_TRUE]["rl2"] < 0.2
        assert result.failures == {ORACLE: 0, SIC_TRUE: 0}
        assert len(result.records) == SMALL.replications

    def test_nonconverged_fit_is_a_failed_replication(self, monkeypatch):
        # one iteration cannot reach the stop
        monkeypatch.setattr(fixed_point, "MAX_ITER", 1)
        cfg = replace(SMALL, replications=1)
        with pytest.raises(simulate.ScenarioFailureError) as exc:
            run_scenarios(cfg)
        [record] = exc.value.result.records
        assert record[SIC_TRUE] == {
            "failed": True, "error": "mode-finder did not converge",
            "error_type": "RuntimeError",
        }
        assert "failed" not in record[ORACLE]
        assert exc.value.result.failures == {ORACLE: 0, SIC_TRUE: 1}

    def test_nonconverged_estimate_is_a_failed_replication(self, monkeypatch):
        cfg = SimConfig(
            n=30, n_star=20, beta=(2.0, 0.0), replications=1, side=5.0,
            scenarios=(ORACLE, SIC_ESTIMATED),
        )
        stopped = EstimateResult(
            beta_hat=np.array([2.0, 0.0]), omega_hat=cfg.omega, objective_value=-1.0,
            optimizer_iterations=400, newton_steps=0, stop="step_limit",
            fits=14128, failed_fits=0, report=None,
        )
        priors = []
        build_blocked = simulate.build_blocked
        monkeypatch.setattr(simulate, "estimate", lambda *a: stopped)
        monkeypatch.setattr(
            simulate, "build_blocked", lambda *a: priors.append(a) or build_blocked(*a)
        )
        with pytest.raises(simulate.ScenarioFailureError) as exc:
            run_scenarios(cfg)
        [record] = exc.value.result.records
        assert record[SIC_ESTIMATED] == {
            "failed": True,
            "error": "the estimate did not converge (stop: step_limit) in 400 scoring "
            "steps and 14128 fits",
            "error_type": "RuntimeError",
        }
        assert "failed" not in record[ORACLE]
        assert exc.value.result.failures == {ORACLE: 0, SIC_ESTIMATED: 1}
        assert len(priors) == 1  # the replication's own; no prior at the estimate

    def test_estimated_scenario_produces_rmse_columns(self):
        cfg = SimConfig(
            n=40, n_star=20, beta=(2.0, 0.0), omega=MaternParams(0.5, 1.0),
            replications=1, seed=3, side=6.0, scenarios=(SIC_ESTIMATED,),
        )
        result = run_scenarios(cfg)
        agg = result.aggregates[SIC_ESTIMATED]
        for key in ("rmse_beta0", "rmse_beta1", "rmse_omega1", "rmse_omega2"):
            assert np.isfinite(agg[key]) and agg[key] >= 0.0
        assert set(agg) == set(simulate._TABLE_COLUMNS[1:])

    def test_estimated_records_count_the_estimate(self, monkeypatch):
        cfg = SimConfig(
            n=40, n_star=20, beta=(2.0, 0.0), omega=MaternParams(0.5, 1.0),
            replications=2, seed=3, side=6.0, scenarios=(SIC_TRUE, SIC_ESTIMATED),
        )
        results = []
        estimate = simulate.estimate
        monkeypatch.setattr(
            simulate, "estimate", lambda *a: results.append(estimate(*a)) or results[-1]
        )
        result = run_scenarios(cfg)
        for record, fit in zip(result.records, results, strict=True):
            keys = ("fits", "failed_fits", "optimizer_iterations", "newton_steps", "stop")
            counts = {k: record[SIC_ESTIMATED][k] for k in keys}
            assert counts == {k: getattr(fit, k) for k in keys}
            assert fit.fits > fit.optimizer_iterations > 0
            assert set(record[SIC_TRUE]) == set(simulate._TABLE_COLUMNS[1:])

    def test_estimated_records_hold_the_estimates_record(self, tmp_path, monkeypatch):
        # the nine keys that fit writes under estimation, beside the metrics
        cfg = SimConfig(
            n=30, n_star=20, beta=(2.0, 0.0), replications=2, seed=3, side=5.0,
            scenarios=(SIC_ESTIMATED,),
        )
        results = []
        estimate = simulate.estimate
        monkeypatch.setattr(
            simulate, "estimate", lambda *a: results.append(estimate(*a)) or results[-1]
        )
        write_audit_json(run_scenarios(cfg), tmp_path / "audit.json")
        records = json.loads((tmp_path / "audit.json").read_text())["records"]
        for record, fit in zip(records, results, strict=True):
            row = record[SIC_ESTIMATED]
            assert set(row) == set(simulate._TABLE_COLUMNS[1:]) | set(fit.record)
            assert {k: row[k] for k in fit.record} == fit.record
            assert fit.converged and len(fit.record) == 9

    def test_repeat_run_is_identical(self):
        a = run_scenarios(SMALL)
        b = run_scenarios(SMALL)
        assert a.aggregates == b.aggregates
        assert a.records == b.records


class TestLentBuffers:
    """Each replication borrows the previous one's prior (its factor's memory and
    its observed rows) and n x n buffer."""

    def test_lent_replication_equals_a_fresh_one(self):
        spent = generate_dataset(SMALL, 0)
        for scenario in (ORACLE, SIC_TRUE):  # sic_true works in its buffer
            simulate._scenario_metrics(spent, scenario, SMALL)
        lent = generate_dataset(SMALL, 1, spent)
        fresh = generate_dataset(SMALL, 1)
        for name in ("rows", "chol", "d11", "d12"):
            assert np.array_equal(
                getattr(lent.blocked, name), getattr(fresh.blocked, name)
            )
        assert np.array_equal(lent.gamma, fresh.gamma)
        assert np.array_equal(lent.gamma_star, fresh.gamma_star)
        assert np.array_equal(lent.observed.y, fresh.observed.y)
        assert np.array_equal(lent.z, fresh.z)
        assert lent.buffer is spent.buffer
        beta = np.asarray(SMALL.beta)
        fit_lent = simulate.fit_posterior(
            site_problem(lent.observed, lent.blocked, beta), lent.buffer
        )
        fit_fresh = simulate.fit_posterior(site_problem(fresh.observed, fresh.blocked, beta))
        assert np.shares_memory(fit_lent.chol, spent.buffer)
        assert np.array_equal(fit_lent.xi, fit_fresh.xi)
        assert np.array_equal(
            krige(fit_lent, lent.unobserved, lent.blocked.d12).xi_star,
            krige(fit_fresh, fresh.unobserved, fresh.blocked.d12).xi_star,
        )

    def test_consecutive_replications_share_prior_and_factor(self, monkeypatch):
        priors, buffers, factors = [], [], []
        generate, fit_posterior = simulate.generate_dataset, simulate.fit_posterior

        def spy_generate(*args):
            dataset = generate(*args)
            priors.append(dataset.blocked)
            buffers.append(dataset.buffer)
            return dataset

        def spy_fit_posterior(*args, **kwargs):
            report = fit_posterior(*args, **kwargs)
            factors.append(report.chol)
            return report

        monkeypatch.setattr(simulate, "generate_dataset", spy_generate)
        monkeypatch.setattr(simulate, "fit_posterior", spy_fit_posterior)
        run_scenarios(replace(SMALL, replications=4))
        assert len(priors) == len(factors) == 4
        for a, b in zip(priors, priors[1:]):
            assert np.shares_memory(a.rows, b.rows) and np.shares_memory(a.chol, b.chol)
        for a, b in zip(factors, factors[1:]):
            assert np.shares_memory(a, b)
        assert all(np.shares_memory(a, b) for a, b in zip(factors, buffers, strict=True))
        prior = priors[-1]
        assert not np.shares_memory(prior.rows, prior.chol)
        assert not np.shares_memory(prior.rows, factors[-1])
        assert not np.shares_memory(prior.chol, factors[-1])

    def test_reference_size_run_holds_one_prior_array(self):
        # acceptance 5's n = n* = 400: the prior is factored in its own buffer,
        # beside its n x (n + n*) rows, in which its bands are also made, and
        # the fit's n x n buffer: 1.75 (n + n*)^2 arrays of doubles and small
        # temporaries, about 1.79 at the peak, not 1.96 with band-sized scratch
        tracemalloc.start()
        try:
            run_scenarios(SimConfig(replications=3, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.85 * 8 * 800**2

    def test_replication_of_another_size_rejected(self):
        spent = generate_dataset(SMALL, 0)
        rows, chol = spent.blocked.rows.copy(), spent.blocked.chol.copy()
        with pytest.raises(ValueError, match="lent array"):
            generate_dataset(replace(SMALL, n=49), 0, spent)
        assert np.array_equal(spent.blocked.rows, rows)
        assert np.array_equal(spent.blocked.chol, chol)

    def test_reference_size_outputs_match_fresh_buffers(self, tmp_path, monkeypatch):
        # acceptance 5's n = n* = 400, against replications that allocate
        # every buffer afresh
        config = SimConfig(replications=3, seed=11)
        generate = simulate.generate_dataset
        blobs = []
        for lend in (True, False):
            if not lend:
                monkeypatch.setattr(
                    simulate, "generate_dataset", lambda config, rep, spent: generate(config, rep)
                )
            result = run_scenarios(config)
            table, audit = tmp_path / f"table_{lend}.csv", tmp_path / f"audit_{lend}.json"
            write_table_csv(result, table)
            write_audit_json(result, audit)
            blobs.append((table.read_bytes(), audit.read_bytes()))
        assert blobs[0] == blobs[1]


class TestWriters:
    def test_table_csv_layout(self, tmp_path):
        result = run_scenarios(SMALL)
        path = tmp_path / "table.csv"
        write_table_csv(result, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("scenario,rl2,rl2_star,rmse_beta0")
        assert len(lines) == 3
        assert lines[1].startswith("oracle,0,")

    def test_outputs_byte_identical_across_runs(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            result = run_scenarios(SMALL)
            table = tmp_path / f"table_{tag}.csv"
            audit = tmp_path / f"audit_{tag}.json"
            write_table_csv(result, table)
            write_audit_json(result, audit)
            paths.append((table.read_bytes(), audit.read_bytes()))
        assert paths[0] == paths[1]

    def test_audit_json_structure(self, tmp_path):
        result = run_scenarios(SMALL)
        path = tmp_path / "audit.json"
        write_audit_json(result, path)
        payload = json.loads(path.read_text())
        assert payload["config"] == {
            "n": 50, "n_star": 40, "beta": [2.0, 0.0], "omega": [0.5, 1.0, 0.5],
            "replications": 3, "seed": 0, "side": 7.0, "scenarios": [ORACLE, SIC_TRUE],
        }
        assert len(payload["records"]) == 3
        assert payload["failures"] == {ORACLE: 0, SIC_TRUE: 0}
        assert ORACLE in payload["records"][0]
