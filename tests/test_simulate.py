import json
from dataclasses import replace

import numpy as np
import pytest

from glmmfp import simulate
from glmmfp.covariance import MaternParams
from glmmfp.dataio import ConfigError
from glmmfp.fixed_point import FitOptions
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
        with pytest.raises(ValueError):
            SimConfig(replications=0)
        with pytest.raises(ValueError):
            SimConfig(n=0)
        with pytest.raises(ValueError):
            SimConfig(side=-1.0)
        with pytest.raises(ValueError, match="unknown scenarios"):
            SimConfig(scenarios=("oracle", "bogus"))
        # the joint prior of n + n* sites holds (n + n*)**2 doubles
        assert simulate.SIM_BUDGET == 4096**2
        SimConfig(n=4000, n_star=96)
        for n, n_star in ((4000, 97), (1, 4096), (10**400, 1)):
            with pytest.raises(ConfigError, match="simulate.n \\+ simulate.n_star"):
                SimConfig(n=n, n_star=n_star)
        for beta in (8.0, (8.0,), (8.0, 0.0, 1.0), (8.0, np.nan), (True, 0.0), "ab"):
            with pytest.raises(ValueError, match="beta"):
                SimConfig(beta=beta)


class TestGeneration:
    def test_deterministic_per_replication(self):
        a = generate_dataset(SMALL, 2)
        b = generate_dataset(SMALL, 2)
        assert np.array_equal(a.problem.observed.y, b.problem.observed.y)
        assert np.array_equal(a.gamma, b.gamma)
        assert np.array_equal(a.problem.unobserved.coords, b.problem.unobserved.coords)

    def test_replications_are_independent_of_order(self):
        # replication 5 is the same whether or not 0..4 were generated
        direct = generate_dataset(SMALL, 5)
        for rep in range(5):
            generate_dataset(SMALL, rep)
        again = generate_dataset(SMALL, 5)
        assert np.array_equal(direct.problem.observed.y, again.problem.observed.y)

    def test_shapes(self):
        d = generate_dataset(SMALL, 0)
        obs = d.problem.observed
        assert obs.y.shape == (50,)
        assert d.gamma.shape == (50,)
        assert d.gamma_star.shape == (40,)
        assert obs.X.shape == (50, 2)
        assert d.problem.unobserved.X.shape == (40, 2)
        assert obs.coords.min() >= 0 and obs.coords.max() <= SMALL.side
        assert d.problem.unobserved.coords.shape == (40, 2)
        assert d.problem.unobserved.y is None

    def test_counts_are_poisson_like(self):
        d = generate_dataset(SMALL, 1)
        y = d.problem.observed.y
        assert np.all(y >= 0)
        assert np.all(y == np.round(y))


class TestScenarios:
    def test_estimation_reads_the_replications_own_sites(self, monkeypatch):
        config = SimConfig(
            n=30, n_star=20, beta=(2.0, 0.0), replications=1, side=5.0,
            scenarios=(SIC_ESTIMATED,),
        )
        dataset = generate_dataset(config, 0)
        handed, priors = [], []
        estimate, build_blocked = simulate.estimate, simulate.build_blocked

        def spy_estimate(data, *args, **kwargs):
            handed.append(data)
            return estimate(data, *args, **kwargs)

        def spy_prior(omega, coords_obs, coords_unobs):
            priors.append((coords_obs, coords_unobs))
            return build_blocked(omega, coords_obs, coords_unobs)

        monkeypatch.setattr(simulate, "estimate", spy_estimate)
        monkeypatch.setattr(simulate, "build_blocked", spy_prior)
        simulate._scenario_metrics(dataset, SIC_ESTIMATED, config)
        problem = dataset.problem
        assert len(handed) == 1 and handed[0] is problem.observed
        [(coords_obs, coords_unobs)] = priors
        assert coords_obs is problem.observed.coords
        assert coords_unobs is problem.unobserved.coords

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
        # one iteration cannot reach the default tolerance
        monkeypatch.setattr(simulate, "FitOptions", lambda: FitOptions(max_iter=1))
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

    def test_estimated_scenario_produces_rmse_columns(self):
        cfg = SimConfig(
            n=40, n_star=20, beta=(2.0, 0.0), omega=MaternParams(0.5, 1.0),
            replications=1, seed=3, side=6.0, scenarios=(SIC_ESTIMATED,),
        )
        result = run_scenarios(cfg)
        agg = result.aggregates[SIC_ESTIMATED]
        for key in ("rmse_beta0", "rmse_beta1", "rmse_omega1", "rmse_omega2"):
            assert np.isfinite(agg[key]) and agg[key] >= 0.0

    def test_repeat_run_is_identical(self):
        a = run_scenarios(SMALL)
        b = run_scenarios(SMALL)
        assert a.aggregates == b.aggregates
        assert a.records == b.records


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
        assert payload["config"]["n"] == 50
        assert payload["config"]["seed"] == 0
        assert len(payload["records"]) == 3
        assert payload["failures"] == {ORACLE: 0, SIC_TRUE: 0}
        assert ORACLE in payload["records"][0]
