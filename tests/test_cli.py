import json
import tracemalloc

import numpy as np
import pytest

from glmmfp import cli, covariance, dataio, fixed_point, simulate, spatial
from glmmfp.covariance import MaternParams, build_blocked


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def poisson_dataset(tmp_path, n=30, seed=0, name="data.csv"):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 5, size=(n, 2))
    blocked = build_blocked(MaternParams(0.5, 1.0), coords)
    gamma = np.linalg.cholesky(blocked.d11) @ rng.standard_normal(n)
    y = rng.poisson(np.exp(1.5 + gamma))
    lines = ["y,x_coord,y_coord"]
    for yi, (cx, cy) in zip(y, coords):
        lines.append(f"{yi},{cx},{cy}")
    return write_csv(tmp_path, "\n".join(lines) + "\n", name), coords, y


class TestFit:
    def test_poisson_fit_with_given_parameters(self, tmp_path):
        data, _, _ = poisson_dataset(tmp_path)
        config = write_config(
            tmp_path,
            {
                "family": "poisson",
                "beta": [1.5],
                "matern": {"omega1": 0.5, "omega2": 1.0},
            },
        )
        out = tmp_path / "out"
        code = cli.main(
            ["fit", "--config", config, "--data", data, "--out", str(out), "--quiet"]
        )
        assert code == cli.EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert report["beta"] == [1.5]
        assert report["step_halvings"] == 0
        assert "damping_used" not in report
        xi_lines = (out / "xi.csv").read_text().strip().split("\n")
        assert xi_lines[0] == "site,xi"
        assert len(xi_lines) == 31
        Xi = np.loadtxt(out / "Xi.csv", delimiter=",")
        assert Xi.shape == (30, 30)
        assert np.allclose(Xi, Xi.T)

    def test_gaussian_fit_matches_conjugate_closed_form(self, tmp_path):
        rng = np.random.default_rng(1)
        coords = rng.uniform(0, 4, size=(10, 2))
        y = rng.normal(2.0, 1.0, size=10)
        lines = ["y,x_coord,y_coord"]
        for yi, (cx, cy) in zip(y, coords):
            lines.append(f"{yi},{cx},{cy}")
        data = write_csv(tmp_path, "\n".join(lines) + "\n")
        config = write_config(
            tmp_path,
            {
                "family": "gaussian",
                "gaussian_variance": 1.0,
                "beta": [2.0],
                "matern": {"omega1": 0.5, "omega2": 1.0},
            },
        )
        out = tmp_path / "out"
        code = cli.main(
            ["fit", "--config", config, "--data", data, "--out", str(out), "--quiet"]
        )
        assert code == cli.EXIT_OK
        xi = np.loadtxt(out / "xi.csv", delimiter=",", skiprows=1)[:, 1]
        blocked = build_blocked(MaternParams(0.5, 1.0), coords)
        expected = blocked.d11 @ np.linalg.solve(
            blocked.d11 + np.eye(10), y - 2.0
        )
        assert np.max(np.abs(xi - expected)) < 1e-9
        report = json.loads((out / "report.json").read_text())
        assert report["iterations"] == 1

    def test_fit_with_estimated_parameters(self, tmp_path):
        data, _, _ = poisson_dataset(tmp_path, n=25, seed=2)
        config = write_config(
            tmp_path, {"family": "poisson", "beta": "estimate", "matern": "estimate"}
        )
        out = tmp_path / "out"
        code = cli.main(
            ["fit", "--config", config, "--data", data, "--out", str(out), "--quiet"]
        )
        assert code == cli.EXIT_OK
        report = json.loads((out / "report.json").read_text())
        est = report["estimation"]
        assert len(est["beta_hat"]) == 1
        assert 0.0 < est["omega_hat"][0] < 1.0
        assert est["optimizer_converged"]
        assert est["failed_fits"] == 0
        assert est["fits"] > est["optimizer_iterations"] >= 1

    @pytest.mark.parametrize("seed", range(4))
    def test_estimated_fit_is_written_without_a_second_fit(
        self, tmp_path, monkeypatch, seed
    ):
        # the estimate's fit at its optimum is written, and it is the fit
        # that fixed parameters at the written estimates make
        from glmmfp import estimate

        data = tmp_path / "counts.csv"
        dataio.write_synthetic_counts(data, n_sites=100, seed=seed)
        calls = []
        fit = fixed_point.fit_posterior
        for module in (cli, estimate):
            monkeypatch.setattr(module, "fit_posterior", lambda *a: calls.append(1) or fit(*a))

        def run(name, beta, matern):
            config = write_config(
                tmp_path, {"family": "poisson", "beta": beta, "matern": matern}, name
            )
            out = tmp_path / name.removesuffix(".json")
            argv = ["fit", "--config", config, "--data", str(data), "--out", str(out)]
            assert cli.main([*argv, "--quiet"]) == cli.EXIT_OK
            return out

        estimated = run("estimated.json", "estimate", "estimate")
        report = json.loads((estimated / "report.json").read_text())
        assert len(calls) == report["estimation"]["fits"]
        omega = dict(zip(("omega1", "omega2", "omega3"), report["omega"]))
        fixed = run("fixed.json", report["beta"], omega)
        assert len(calls) == report["estimation"]["fits"] + 1
        for name in ("xi.csv", "Xi.csv"):
            assert (estimated / name).read_bytes() == (fixed / name).read_bytes()

    @pytest.mark.parametrize("command", ["fit", "predict"])
    def test_estimate_that_did_not_converge_exits_3(self, tmp_path, command):
        # constant counts: the surrogate has no interior maximum, so scoring
        # stops unconverged while every mode fit converges (on these sites;
        # from the same start it converges on default_rng(0)'s)
        coords = np.random.default_rng(1).uniform(0, 3, (12, 2))
        rows = [f"5,{cx!r},{cy!r}" for cx, cy in coords.tolist()]
        if command == "predict":
            rows = ["y,x_coord,y_coord,role", *(f"{r},train" for r in rows), "5,1.0,1.0,test"]
        else:
            rows = ["y,x_coord,y_coord", *rows]
        data = write_csv(tmp_path, "\n".join(rows) + "\n")
        config = write_config(
            tmp_path, {"family": "poisson", "beta": "estimate", "matern": "estimate"}
        )
        out = tmp_path / "out"
        argv = [command, "--config", config, "--data", data, "--out", str(out), "--quiet"]
        assert cli.main(argv) == cli.EXIT_NONCONVERGENCE
        if command == "fit":
            report = json.loads((out / "report.json").read_text())
            assert report["converged"] is True
            assert report["estimation"]["optimizer_converged"] is False
        else:
            assert (out / "predictions.csv").exists()

    @pytest.mark.parametrize(
        "command, params",
        [("fit", "given"), ("fit", "estimate"), ("predict", "given")],
    )
    def test_sites_over_the_prior_budget_exit_1(self, tmp_path, capsys, command, params):
        # 4,097 sites: 4,000 to fit and 97 to predict at
        coords = np.random.default_rng(2).uniform(0, 50, (4097, 2))
        rows = [f"3,{cx!r},{cy!r}" for cx, cy in coords.tolist()]
        if command == "predict":
            roles = ["train"] * 4000 + ["test"] * 97
            rows = ["y,x_coord,y_coord,role", *(f"{r},{s}" for r, s in zip(rows, roles))]
        else:
            rows = ["y,x_coord,y_coord", *rows]
        data = write_csv(tmp_path, "\n".join(rows) + "\n")
        payload = {"family": "poisson", "beta": [1.0], "matern": {"omega1": 0.5, "omega2": 1.0}}
        if params == "estimate":
            payload.update(beta="estimate", matern="estimate")
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        argv = [command, "--config", config, "--data", data, "--out", str(out), "--quiet"]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert "error: 4097 sites are more than the 4096" in capsys.readouterr().err
        assert not out.exists()

    def test_beta_given_with_estimated_matern_is_rejected(self, tmp_path):
        data, _, _ = poisson_dataset(tmp_path)
        config = write_config(
            tmp_path, {"family": "poisson", "beta": [1.5], "matern": "estimate"}
        )
        code = cli.main(
            [
                "fit", "--config", config, "--data", data,
                "--out", str(tmp_path / "out"), "--quiet",
            ]
        )
        assert code == cli.EXIT_VALIDATION

    def test_missing_parameter_spec_is_rejected(self, tmp_path):
        data, _, _ = poisson_dataset(tmp_path)
        config = write_config(tmp_path, {"family": "poisson"})
        code = cli.main(
            [
                "fit", "--config", config, "--data", data,
                "--out", str(tmp_path / "out"), "--quiet",
            ]
        )
        assert code == cli.EXIT_VALIDATION

    def test_malformed_dataset_exit_code(self, tmp_path):
        data = write_csv(tmp_path, "y,x_coord\n1,0.5\n")
        config = write_config(
            tmp_path,
            {"beta": [1.0], "matern": {"omega1": 0.5, "omega2": 1.0}},
        )
        code = cli.main(
            [
                "fit", "--config", config, "--data", data,
                "--out", str(tmp_path / "out"), "--quiet",
            ]
        )
        assert code == cli.EXIT_VALIDATION

    def test_beta_length_mismatch(self, tmp_path):
        data, _, _ = poisson_dataset(tmp_path)
        config = write_config(
            tmp_path,
            {"beta": [1.0, 2.0], "matern": {"omega1": 0.5, "omega2": 1.0}},
        )
        code = cli.main(
            [
                "fit", "--config", config, "--data", data,
                "--out", str(tmp_path / "out"), "--quiet",
            ]
        )
        assert code == cli.EXIT_VALIDATION


class TestPredict:
    def _config(self, tmp_path):
        return write_config(
            tmp_path,
            {
                "family": "poisson",
                "beta": [1.5],
                "matern": {"omega1": 0.5, "omega2": 1.0},
            },
        )

    def test_predict_with_test_file(self, tmp_path):
        data, _, _ = poisson_dataset(tmp_path)
        rng = np.random.default_rng(9)
        test_coords = rng.uniform(0, 5, size=(6, 2))
        lines = ["x_coord,y_coord"]
        for cx, cy in test_coords:
            lines.append(f"{cx},{cy}")
        test = write_csv(tmp_path, "\n".join(lines) + "\n", name="test.csv")
        out = tmp_path / "out"
        code = cli.main(
            [
                "predict", "--config", self._config(tmp_path), "--data", data,
                "--test", test, "--out", str(out), "--quiet",
            ]
        )
        assert code == cli.EXIT_OK
        rows = (out / "predictions.csv").read_text().strip().split("\n")
        assert rows[0] == "site,xi_star,y_hat_star,u_hat_star"
        assert len(rows) == 7
        y_hat = np.array([float(r.split(",")[2]) for r in rows[1:]])
        assert np.all(y_hat > 0)

    def test_predict_with_role_column(self, tmp_path):
        rng = np.random.default_rng(10)
        coords = rng.uniform(0, 5, size=(20, 2))
        y = rng.poisson(4.0, size=20)
        roles = ["train"] * 14 + ["test"] * 6
        lines = ["y,x_coord,y_coord,role"]
        for yi, (cx, cy), role in zip(y, coords, roles):
            lines.append(f"{yi},{cx},{cy},{role}")
        data = write_csv(tmp_path, "\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = cli.main(
            [
                "predict", "--config", self._config(tmp_path), "--data", data,
                "--out", str(out), "--quiet",
            ]
        )
        assert code == cli.EXIT_OK
        rows = (out / "predictions.csv").read_text().strip().split("\n")
        assert len(rows) == 7

    @pytest.mark.parametrize("beta", [[1.5], "estimate"])
    def test_repeated_training_sites_get_the_fit(
        self, tmp_path, caplog, beta
    ):
        # D21's row at a repeated site is D11's, so D21 alpha is the fit's xi
        # there; only the training sites' prior is factored, so no jitter
        data, coords, _ = poisson_dataset(tmp_path)
        config = write_config(
            tmp_path,
            {"family": "poisson", "beta": beta, "matern": {"omega1": 0.5, "omega2": 1.0}},
        )
        sites = [3, 0, 17]
        lines = ["x_coord,y_coord", *(f"{cx},{cy}" for cx, cy in coords[sites])]
        test = write_csv(tmp_path, "\n".join(lines) + "\n", name="test.csv")
        with caplog.at_level("INFO"):
            for command, extra in (("fit", []), ("predict", ["--test", test])):
                argv = [command, "--config", config, "--data", data, *extra]
                assert cli.main([*argv, "--out", str(tmp_path / command)]) == cli.EXIT_OK
        assert not [r for r in caplog.records if "jitter" in r.getMessage()]
        xi = np.loadtxt(tmp_path / "fit" / "xi.csv", delimiter=",", skiprows=1)[:, 1]
        pred = np.loadtxt(
            tmp_path / "predict" / "predictions.csv", delimiter=",", skiprows=1
        )
        assert np.max(np.abs(pred[:, 1] - xi[sites])) <= 1e-12 * np.max(np.abs(xi))

    def test_estimated_predict_fits_only_in_the_estimate(self, tmp_path, monkeypatch):
        # the estimate's own fit is kriged: predict makes as many mode fits
        # as the estimate reports, as fit does
        from glmmfp import estimate

        data, _, _ = poisson_dataset(tmp_path)
        test = write_csv(tmp_path, "x_coord,y_coord\n1.0,2.0\n4.0,0.5\n", name="test.csv")
        config = write_config(
            tmp_path, {"family": "poisson", "beta": "estimate", "matern": "estimate"}
        )
        calls = []
        fit = fixed_point.fit_posterior
        for module in (cli, estimate, spatial):
            monkeypatch.setattr(module, "fit_posterior", lambda *a: calls.append(1) or fit(*a))
        argv = ["--config", config, "--data", data, "--quiet"]
        out = tmp_path / "fit"
        assert cli.main(["fit", *argv, "--out", str(out)]) == cli.EXIT_OK
        fits = json.loads((out / "report.json").read_text())["estimation"]["fits"]
        assert len(calls) == fits
        argv += ["--test", test, "--out", str(tmp_path / "predict")]
        assert cli.main(["predict", *argv]) == cli.EXIT_OK
        assert len(calls) == 2 * fits

    def _binomial(self, tmp_path, test_columns):
        rng = np.random.default_rng(11)
        coords = rng.uniform(0, 5, size=(10, 2))
        m = rng.integers(1, 9, size=10)
        y = rng.binomial(m, 0.6)
        lines = ["y,m,x_coord,y_coord"]
        for yi, mi, (cx, cy) in zip(y, m, coords):
            lines.append(f"{yi},{mi},{cx},{cy}")
        data = write_csv(tmp_path, "\n".join(lines) + "\n")
        m_star = np.array([2, 9, 5, 1])
        lines = [",".join(test_columns)]
        for mi, (cx, cy) in zip(m_star, rng.uniform(0, 5, size=(4, 2))):
            row = {"m": mi, "x_coord": cx, "y_coord": cy}
            lines.append(",".join(str(row[c]) for c in test_columns))
        test = write_csv(tmp_path, "\n".join(lines) + "\n", name="test.csv")
        config = write_config(
            tmp_path,
            {
                "family": "binomial",
                "beta": [0.4],
                "matern": {"omega1": 0.5, "omega2": 1.0},
            },
        )
        out = tmp_path / "out"
        code = cli.main(
            [
                "predict", "--config", config, "--data", data,
                "--test", test, "--out", str(out), "--quiet",
            ]
        )
        return code, out, m_star

    def test_binomial_predictions_use_the_test_trial_counts(self, tmp_path):
        code, out, m_star = self._binomial(tmp_path, ["m", "x_coord", "y_coord"])
        assert code == cli.EXIT_OK
        table = np.loadtxt(out / "predictions.csv", delimiter=",", skiprows=1)
        y_hat, u_hat = table[:, 2], table[:, 3]
        assert np.allclose(y_hat, m_star / (1.0 + np.exp(-u_hat)), rtol=1e-14)

    def test_binomial_role_file_without_test_rows(self, tmp_path):
        # the test rows are an empty site set, whose kernel holds no trial counts
        rng = np.random.default_rng(12)
        lines = ["y,m,x_coord,y_coord,role"]
        for (cx, cy), mi in zip(rng.uniform(0, 5, size=(8, 2)), rng.integers(1, 9, 8)):
            lines.append(f"{rng.integers(0, mi + 1)},{mi},{cx},{cy},train")
        data = write_csv(tmp_path, "\n".join(lines) + "\n")
        config = write_config(
            tmp_path,
            {"family": "binomial", "beta": [0.4], "matern": {"omega1": 0.5, "omega2": 1.0}},
        )
        out = tmp_path / "out"
        code = cli.main(
            ["predict", "--config", config, "--data", data, "--out", str(out), "--quiet"]
        )
        assert code == cli.EXIT_OK
        assert (out / "predictions.csv").read_text() == "site,xi_star,y_hat_star,u_hat_star\n"

    def test_binomial_test_sites_need_trial_counts(self, tmp_path):
        code, _, _ = self._binomial(tmp_path, ["x_coord", "y_coord"])
        assert code == cli.EXIT_VALIDATION

    def test_predict_without_test_sites_is_rejected(self, tmp_path):
        data, _, _ = poisson_dataset(tmp_path)
        code = cli.main(
            [
                "predict", "--config", self._config(tmp_path), "--data", data,
                "--out", str(tmp_path / "out"), "--quiet",
            ]
        )
        assert code == cli.EXIT_VALIDATION


class TestSimulate:
    def _config(self, tmp_path):
        return write_config(
            tmp_path,
            {
                "simulate": {
                    "n": 30, "n_star": 20, "beta": [2.0, 0.0], "side": 6.0,
                    "omega": {"omega1": 0.5, "omega2": 1.0},
                    "replications": 2, "scenarios": ["oracle", "sic_true"],
                }
            },
        )

    def test_runs_and_is_byte_identical(self, tmp_path):
        config = self._config(tmp_path)
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = cli.main(
                ["simulate", "--config", config, "--out", str(out), "--quiet"]
            )
            assert code == cli.EXIT_OK
            outputs.append(
                ((out / "table.csv").read_bytes(), (out / "audit.json").read_bytes())
            )
        assert outputs[0] == outputs[1]

    def test_replication_override(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(
            [
                "simulate", "--config", self._config(tmp_path),
                "--out", str(out), "--replications", "1", "--quiet",
            ]
        )
        assert code == cli.EXIT_OK
        audit = json.loads((out / "audit.json").read_text())
        assert len(audit["records"]) == 1

    def test_failed_replication_is_recorded_and_left_out(self, tmp_path, monkeypatch):
        original = simulate.fit_posterior
        calls = []

        def fail_first(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("injected failure")
            return original(*args, **kwargs)

        # one failure in 20 replications is within MAX_FAILURE_FRACTION
        monkeypatch.setattr(simulate, "fit_posterior", fail_first)
        out = tmp_path / "out"
        code = cli.main(
            [
                "simulate", "--config", self._config(tmp_path),
                "--out", str(out), "--replications", "20", "--quiet",
            ]
        )
        assert code == cli.EXIT_OK
        audit = json.loads((out / "audit.json").read_text())
        assert audit["failures"] == {"oracle": 0, "sic_true": 1}
        records = audit["records"]
        assert records[0]["sic_true"] == {
            "failed": True, "error": "injected failure", "error_type": "LinAlgError",
        }
        rows = (out / "table.csv").read_text().strip().split("\n")
        header = rows[0].split(",")
        sic = dict(zip(header, rows[2].split(",")))
        assert sic["scenario"] == "sic_true"
        for metric in ("rl2", "rl2_star"):
            kept = sum((r["sic_true"][metric] for r in records[1:]), 0.0) / 19
            assert float(sic[metric]) == pytest.approx(kept, rel=1e-15)

    def test_too_many_failed_replications_exit_numerical(
        self, tmp_path, monkeypatch, capsys
    ):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("injected failure")

        monkeypatch.setattr(simulate, "fit_posterior", fail)
        out = tmp_path / "out"
        code = cli.main(
            ["simulate", "--config", self._config(tmp_path), "--out", str(out), "--quiet"]
        )
        assert code == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "2/2 replications failed in scenario 'sic_true'" in err
        # the audit of the failed run says what failed
        audit = json.loads((out / "audit.json").read_text())
        assert audit["failures"] == {"oracle": 0, "sic_true": 2}
        assert [r["sic_true"]["error_type"] for r in audit["records"]] == [
            "LinAlgError", "LinAlgError",
        ]
        assert all(r["oracle"]["rl2"] == 0.0 for r in audit["records"])
        assert not (out / "table.csv").exists()


class TestValidate:
    def test_noiseless_gaussian_mean_g2_near_zero(self, tmp_path):
        # constant field predicted by its own fixed effect: perfect
        # prediction, so the deviance must vanish on every split
        rng = np.random.default_rng(11)
        coords = rng.uniform(0, 5, size=(30, 2))
        lines = ["y,x_coord,y_coord"]
        for cx, cy in coords:
            lines.append(f"4.0,{cx},{cy}")
        data = write_csv(tmp_path, "\n".join(lines) + "\n")
        config = write_config(
            tmp_path,
            {
                "family": "gaussian",
                "gaussian_variance": 1.0,
                "beta": [4.0],
                "matern": {"omega1": 0.5, "omega2": 1.0},
                "validate": {
                    "splits": 3, "n_train": 20, "n_test": 8,
                    "tiers": ["intercept"],
                },
            },
        )
        out = tmp_path / "out"
        code = cli.main(
            [
                "validate", "--config", config, "--data", data,
                "--out", str(out), "--quiet",
            ]
        )
        assert code == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failures"] == []
        assert abs(summary["tiers"]["intercept"]["mean_g2"]) <= 1e-6

    def test_three_tiers_emit_three_values_per_split(self, tmp_path):
        data, _, _ = poisson_dataset(tmp_path, n=40, seed=12)
        config = write_config(
            tmp_path,
            {
                "family": "poisson",
                "beta": "estimate",
                "matern": {"omega1": 0.5, "omega2": 1.0},
                "validate": {"splits": 1, "n_train": 30, "n_test": 8},
            },
        )
        out = tmp_path / "out"
        code = cli.main(
            [
                "validate", "--config", config, "--data", data,
                "--out", str(out), "--quiet",
            ]
        )
        assert code == cli.EXIT_OK
        rows = (out / "validation.csv").read_text().strip().split("\n")
        assert rows[0] == "split,tier,g2"
        assert len(rows) == 4
        tiers = [r.split(",")[1] for r in rows[1:]]
        assert tiers == ["intercept", "main_effects", "quadratic"]

    def test_oversized_split_is_rejected(self, tmp_path):
        data, _, _ = poisson_dataset(tmp_path, n=20)
        config = write_config(
            tmp_path,
            {
                "beta": [1.5],
                "matern": {"omega1": 0.5, "omega2": 1.0},
                "validate": {"splits": 1, "n_train": 18, "n_test": 5},
            },
        )
        code = cli.main(
            [
                "validate", "--config", config, "--data", data,
                "--out", str(tmp_path / "out"), "--quiet",
            ]
        )
        assert code == cli.EXIT_VALIDATION

    def test_split_over_the_prior_budget_is_rejected_before_any_fit(self, tmp_path, capsys):
        data, _, _ = poisson_dataset(tmp_path, n=20)
        config = write_config(
            tmp_path,
            {
                "beta": [1.5],
                "matern": {"omega1": 0.5, "omega2": 1.0},
                "validate": {"splits": 1, "n_train": 4000, "n_test": 97},
            },
        )
        out = tmp_path / "out"
        code = cli.main(
            ["validate", "--config", config, "--data", data, "--out", str(out), "--quiet"]
        )
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "error: validate.n_train + validate.n_test must be at most 4096" in err
        assert not out.exists()

    def test_beta_too_short_for_a_tier_is_rejected_before_any_fit(self, tmp_path):
        # the default tiers' designs have 1, 3 and 6 columns
        data, _, _ = poisson_dataset(tmp_path, n=30, seed=3)
        config = write_config(
            tmp_path,
            {
                "beta": [4.5],
                "matern": {"omega1": 0.5, "omega2": 1.0},
                "validate": {"splits": 2, "n_train": 20, "n_test": 8},
            },
        )
        out = tmp_path / "out"
        code = cli.main(
            ["validate", "--config", config, "--data", data, "--out", str(out), "--quiet"]
        )
        assert code == cli.EXIT_VALIDATION
        assert not (out / "validation.csv").exists()

    def test_failed_split_is_recorded_and_exits_numerical(self, tmp_path):
        # one Newton iteration is too few for the mode-finder to converge
        data, _, _ = poisson_dataset(tmp_path, n=30, seed=5)
        config = write_config(
            tmp_path,
            {
                "beta": [1.5],
                "matern": {"omega1": 0.5, "omega2": 1.0},
                "sic": {"max_iter": 1},
                "validate": {"splits": 2, "n_train": 20, "n_test": 8,
                             "tiers": ["intercept"]},
            },
        )
        out = tmp_path / "out"
        code = cli.main(
            ["validate", "--config", config, "--data", data, "--out", str(out), "--quiet"]
        )
        assert code == cli.EXIT_NUMERICAL
        summary = json.loads((out / "summary.json").read_text())
        assert summary["tiers"] == {}
        assert summary["failures"] == [
            {"split": split, "tier": "intercept",
             "error": "mode-finder did not converge on a split"}
            for split in range(2)
        ]
        assert (out / "validation.csv").read_text() == "split,tier,g2\n"

    def test_binomial_splits_use_the_binomial_deviance(self, tmp_path):
        rng = np.random.default_rng(13)
        n, n_train, n_test, seed = 30, 20, 10, 4
        coords = rng.uniform(0, 5, size=(n, 2))
        m = rng.integers(1, 9, size=n)
        y = rng.binomial(m, 0.6)
        rows = [f"{yi},{mi},{cx},{cy}" for yi, mi, (cx, cy) in zip(y, m, coords)]
        data = write_csv(tmp_path, "y,m,x_coord,y_coord\n" + "\n".join(rows) + "\n")
        params = {"family": "binomial", "beta": [0.4],
                  "matern": {"omega1": 0.5, "omega2": 1.0}}
        split = {"splits": 2, "n_train": n_train, "n_test": n_test,
                 "tiers": ["intercept"]}
        config = write_config(tmp_path, {**params, "validate": split})
        out = tmp_path / "out"
        code = cli.main(["validate", "--config", config, "--data", data,
                         "--out", str(out), "--seed", str(seed), "--quiet"])
        assert code == cli.EXIT_OK
        table = np.loadtxt(out / "validation.csv", delimiter=",", skiprows=1,
                           usecols=(0, 2), ndmin=2)
        assert table[:, 0].tolist() == [0, 1]
        for split, g2 in table:
            # the same split, predicted through `predict` and scored by hand
            perm = np.random.default_rng([seed, int(split)]).permutation(n)
            test_idx, train_idx = perm[:n_test], perm[n_test : n_test + n_train]
            assert np.any((y[test_idx] == 0) | (y[test_idx] == m[test_idx]))
            train = write_csv(
                tmp_path, "y,m,x_coord,y_coord\n"
                + "\n".join(rows[i] for i in train_idx) + "\n", name="train.csv",
            )
            test = write_csv(
                tmp_path, "m,x_coord,y_coord\n"
                + "\n".join(rows[i].split(",", 1)[1] for i in test_idx) + "\n",
                name="test.csv",
            )
            pred_out = tmp_path / f"pred{int(split)}"
            code = cli.main(["predict", "--config", write_config(tmp_path, params),
                             "--data", train, "--test", test,
                             "--out", str(pred_out), "--quiet"])
            assert code == cli.EXIT_OK
            mu = np.loadtxt(pred_out / "predictions.csv", delimiter=",",
                            skiprows=1)[:, 2]
            yt, mt = y[test_idx].astype(float), m[test_idx].astype(float)
            with np.errstate(divide="ignore", invalid="ignore"):
                hits = np.where(yt > 0, yt * np.log(yt / mu), 0.0)
                misses = np.where(
                    yt < mt, (mt - yt) * np.log((mt - yt) / (mt - mu)), 0.0
                )
            assert g2 == pytest.approx(2.0 * np.sum(hits + misses), rel=1e-12)

    def test_gaussian_splits_use_the_squared_error_over_the_variance(self, tmp_path):
        rng = np.random.default_rng(14)
        n, n_train, n_test, seed, variance = 30, 20, 10, 6, 0.5
        coords = rng.uniform(0, 5, size=(n, 2))
        y = rng.standard_normal(n)
        rows = [f"{yi},{cx},{cy}" for yi, (cx, cy) in zip(y, coords)]
        data = write_csv(tmp_path, "y,x_coord,y_coord\n" + "\n".join(rows) + "\n")
        params = {"family": "gaussian", "gaussian_variance": variance,
                  "beta": [0.0], "matern": {"omega1": 0.5, "omega2": 1.0}}
        split = {"splits": 2, "n_train": n_train, "n_test": n_test,
                 "tiers": ["intercept"]}
        config = write_config(tmp_path, {**params, "validate": split})
        out = tmp_path / "out"
        code = cli.main(["validate", "--config", config, "--data", data,
                         "--out", str(out), "--seed", str(seed), "--quiet"])
        assert code == cli.EXIT_OK
        table = np.loadtxt(out / "validation.csv", delimiter=",", skiprows=1,
                           usecols=(0, 2), ndmin=2)
        assert table[:, 0].tolist() == [0, 1]
        for split, g2 in table:
            # the same split, predicted through `predict` and scored by hand
            perm = np.random.default_rng([seed, int(split)]).permutation(n)
            test_idx, train_idx = perm[:n_test], perm[n_test : n_test + n_train]
            assert np.any(y[test_idx] <= 0)
            train = write_csv(
                tmp_path, "y,x_coord,y_coord\n"
                + "\n".join(rows[i] for i in train_idx) + "\n", name="train.csv",
            )
            test = write_csv(
                tmp_path, "x_coord,y_coord\n"
                + "\n".join(rows[i].split(",", 1)[1] for i in test_idx) + "\n",
                name="test.csv",
            )
            pred_out = tmp_path / f"pred{int(split)}"
            code = cli.main(["predict", "--config", write_config(tmp_path, params),
                             "--data", train, "--test", test,
                             "--out", str(pred_out), "--quiet"])
            assert code == cli.EXIT_OK
            mu = np.loadtxt(pred_out / "predictions.csv", delimiter=",",
                            skiprows=1)[:, 2]
            assert np.any(mu <= 0)
            expected = np.sum((y[test_idx] - mu) ** 2) / variance
            assert g2 == pytest.approx(expected, rel=1e-12)


class TestVerify:
    def _config(self, tmp_path):
        return write_config(
            tmp_path, {"verify": {"identity_instances": 40, "order": 32}}
        )

    def test_verify_passes_and_reports(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(
            ["verify", "--config", self._config(tmp_path), "--out", str(out), "--quiet"]
        )
        assert code == cli.EXIT_OK
        payload = json.loads((out / "verdicts.json").read_text())
        assert payload["identity"]["instances"] == 40
        assert payload["identity"]["max_gap"] <= 1e-8
        assert len(payload["battery"]) >= 20
        for inst in payload["battery"]:
            assert inst["verdict"] in {"CONFIRMED", "REFUTED", "INCONCLUSIVE"}
            assert np.isfinite(inst["mean_gap"])

    @pytest.mark.parametrize("bad", [0, 2])
    def test_nan_identity_gap_exits_numerical(self, tmp_path, monkeypatch, bad):
        # Python's max keeps a leading NaN and drops a later one; neither passes
        def gaps(instances):
            out = np.full(len(instances), 1e-12)
            out[bad] = np.nan
            return out

        monkeypatch.setattr(cli, "identity_gaps", gaps)
        config = write_config(
            tmp_path, {"verify": {"identity_instances": 3, "order": 16}}
        )
        out = tmp_path / "out"
        code = cli.main(["verify", "--config", config, "--out", str(out), "--quiet"])
        assert code == cli.EXIT_NUMERICAL
        payload = json.loads((out / "verdicts.json").read_text())
        assert payload["identity"]["max_gap"] is None

    @pytest.mark.parametrize(
        "key, value",
        [("identity_instances", 0), ("identity_instances", -3),
         ("identity_instances", 2.5), ("identity_instances", "ten"),
         ("identity_instances", True), ("order", 4), ("order", 512),
         ("order", 16.5)],
    )
    def test_bad_counts_are_config_errors(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, {"verify": {"identity_instances": 3, key: value}})
        out = tmp_path / "out"
        code = cli.main(["verify", "--config", config, "--out", str(out), "--quiet"])
        assert code == cli.EXIT_VALIDATION
        assert f"verify.{key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("chunk", [7, 1024])
    def test_max_gap_is_that_of_the_drawn_instances(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(cli, "IDENTITY_CHUNK", chunk)
        out = tmp_path / "out"
        code = cli.main(
            ["verify", "--config", self._config(tmp_path), "--out", str(out),
             "--seed", "4", "--quiet"]
        )
        assert code == cli.EXIT_OK
        rng = np.random.default_rng([4, 0])
        instances = [fixed_point.random_identity_instance(rng) for _ in range(40)]
        payload = json.loads((out / "verdicts.json").read_text())
        assert payload["identity"]["max_gap"] == float(np.max(fixed_point.identity_gaps(instances)))

    def test_verify_byte_identical(self, tmp_path):
        config = self._config(tmp_path)
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = cli.main(
                ["verify", "--config", config, "--out", str(out), "--seed", "5",
                 "--quiet"]
            )
            assert code == cli.EXIT_OK
            blobs.append((out / "verdicts.json").read_bytes())
        assert blobs[0] == blobs[1]


# each integer a config holds, as (section, key, the command that reads it);
# a None section is the top level
CONFIG_COUNTS = [
    (None, "seed", "simulate"),
    ("sic", "max_iter", "fit"),
    ("simulate", "n", "simulate"),
    ("simulate", "n_star", "simulate"),
    ("simulate", "replications", "simulate"),
    ("simulate", "seed", "simulate"),
    ("validate", "splits", "validate"),
    ("validate", "n_train", "validate"),
    ("validate", "n_test", "validate"),
    ("verify", "battery_seed", "verify"),
]


# each config number or list that is not a count, as (the command that reads
# it, the config, the start of its error)
CONFIG_VALUES = [
    ("fit", {"sic": {"tol": True}}, "sic.tol must be a positive number: True"),
    ("fit", {"sic": {"tol": 0}}, "sic.tol must be a positive number: 0"),
    ("fit", {"sic": {"tol": "1e-8"}}, "sic.tol must be a positive number"),
    ("fit", {"beta": "4"}, "beta must be a JSON array: '4'"),
    ("fit", {"beta": [True]}, "beta[0] must be a finite number: True"),
    ("fit", {"beta": [1.0, float("inf")]}, "beta[1] must be a finite number"),
    ("fit", {"beta": [10**400]}, "beta[0] must be a finite number: 1000"),
    ("fit", {"family": "gaussian", "gaussian_variance": True},
     "gaussian_variance must be a positive number: True"),
    ("fit", {"family": "gaussian", "gaussian_variance": "x"},
     "gaussian_variance must be a positive number: 'x'"),
    ("fit", {"family": "gaussian", "gaussian_variance": 0.0},
     "gaussian_variance must be a positive number"),
    ("fit", {"covariates": "elev"}, "covariates must be a JSON array: 'elev'"),
    ("fit", {"matern": {"omega1": 0.5, "omega2": "1"}},
     "matern.omega2 must be a finite number: '1'"),
    ("simulate", {"simulate": {"side": True}},
     "simulate.side must be a positive number: True"),
    ("simulate", {"simulate": {"side": -2.0}}, "simulate.side must be a positive number"),
    ("simulate", {"simulate": {"scenarios": "oracle"}},
     "simulate.scenarios must be a JSON array"),
    ("simulate", {"simulate": {"scenarios": [["oracle"]]}},
     "unknown scenarios: [['oracle']]"),
    ("simulate", {"simulate": {"omega": {"omega1": 0.5, "omega2": False}}},
     "simulate.omega.omega2 must be a finite number"),
    ("validate", {"validate": {"tiers": "intercept"}},
     "validate.tiers must be a JSON array"),
]


class TestConfigCounts:
    """A config count, number or list of the wrong kind is an error naming its key."""

    @staticmethod
    def run(tmp_path, command, payload, *flags):
        payload = {"beta": [1.5], "matern": {"omega1": 0.5, "omega2": 1.0}, **payload}
        out = tmp_path / "out"
        argv = [command, "--config", write_config(tmp_path, payload), "--out", str(out),
                "--quiet", *flags]
        if command in ("fit", "validate"):
            argv += ["--data", poisson_dataset(tmp_path)[0]]
        return cli.main(argv), out

    @pytest.mark.parametrize("value", [2.5, True, "7", float("nan")],
                             ids=["fraction", "true", "string", "nan"])
    @pytest.mark.parametrize(
        "section, key, command", CONFIG_COUNTS,
        ids=[f"{s}.{k}" if s else k for s, k, _ in CONFIG_COUNTS],
    )
    def test_non_integers_are_rejected_before_out(
        self, tmp_path, capsys, section, key, command, value
    ):
        payload = {key: value} if section is None else {section: {key: value}}
        code, out = self.run(tmp_path, command, payload)
        assert code == cli.EXIT_VALIDATION
        name = key if section is None else f"{section}.{key}"
        assert f"error: {name} must be an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "verify"])
    def test_negative_seed_option_is_rejected_before_out(self, tmp_path, capsys, command):
        code, out = self.run(tmp_path, command, {}, "--seed", "-1")
        assert code == cli.EXIT_VALIDATION
        assert "error: --seed must be an integer in [0, inf]: -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("beta", [8, [8], [1.0, float("nan")], [1.0, True], "ab"])
    def test_simulated_beta_must_be_two_finite_numbers(self, tmp_path, capsys, beta):
        simulate_section = {"n": 10, "n_star": 5, "replications": 1, "beta": beta}
        code, out = self.run(tmp_path, "simulate", {"simulate": simulate_section})
        assert code == cli.EXIT_VALIDATION
        assert "error: simulate.beta must be two finite numbers" in capsys.readouterr().err
        assert not out.exists()

    def test_over_budget_simulation_is_rejected_before_drawing(self, tmp_path, capsys):
        # an integer beyond any memory: the budget names the keys before numpy sees it
        tracemalloc.start()
        try:
            code, out = self.run(tmp_path, "simulate", {"simulate": {"n": 10**400}})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "error: simulate.n + simulate.n_star must be at most 4096" in err
        assert peak < 1_000_000
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, payload, message", CONFIG_VALUES,
        ids=[f"{command}-{message.split()[0]}" for command, _, message in CONFIG_VALUES],
    )
    def test_numbers_and_lists_are_checked_not_coerced(
        self, tmp_path, capsys, command, payload, message
    ):
        code, out = self.run(tmp_path, command, payload)
        assert code == cli.EXIT_VALIDATION
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestOutputDirectory:
    """``--out`` is created by a command's first result file, not before."""

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below_a_file"])
    def test_out_in_a_files_way_is_rejected_before_the_command(
        self, tmp_path, monkeypatch, capsys, command, below
    ):
        def run(args):
            raise AssertionError("the command ran")

        monkeypatch.setitem(cli._COMMANDS, command, run)
        plain = tmp_path / "outfile"
        plain.write_text("kept")
        argv = [command, "--config", "config.json", "--out", str(plain / below), "--quiet"]
        if command in ("fit", "predict", "validate"):
            argv += ["--data", "data.csv"]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: --out ") and "is not a directory" in err
        assert plain.read_text() == "kept"

    def test_write_failure_is_an_error_line(self, tmp_path, capsys):
        data = poisson_dataset(tmp_path)[0]
        config = write_config(
            tmp_path, {"beta": [1.5], "matern": {"omega1": 0.5, "omega2": 1.0}}
        )
        out = tmp_path / "out"
        (out / "Xi.csv").mkdir(parents=True)  # a directory where a result file goes
        code = cli.main(["fit", "--config", config, "--data", data, "--out", str(out),
                         "--quiet"])
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Xi.csv" in err
        assert "Traceback" not in err
        # xi.csv, written before the failure, is removed: no partial result set
        assert not (out / "xi.csv").exists()
        assert sorted(p.name for p in out.iterdir()) == ["Xi.csv"]

    def test_failed_write_removes_only_this_runs_results(self, tmp_path, capsys):
        # an earlier run's table.csv is overwritten, then audit.json fails
        config = write_config(tmp_path, {"simulate": {
            "n": 12, "n_star": 6, "replications": 1, "side": 4.0, "beta": [1.0, 0.0],
        }})
        out = tmp_path / "out"
        (out / "audit.json").mkdir(parents=True)
        (out / "table.csv").write_text("earlier run")
        (out / "notes.txt").write_text("kept")
        code = cli.main(["simulate", "--config", config, "--out", str(out), "--quiet"])
        assert code == cli.EXIT_VALIDATION
        assert "audit.json" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["audit.json", "notes.txt"]
        assert (out / "notes.txt").read_text() == "kept"

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("fit", {"beta": [4.5, 1.0]}),
            ("predict", {"beta": [4.5, 1.0]}),
            ("simulate", {"simulate": {"scenarios": ["oracle", "kriging"]}}),
            ("validate", {"validate": {"tiers": ["cubic"]}}),
            ("verify", {"verify": {"order": 4}}),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_config_error_leaves_no_out(self, tmp_path, command, payload):
        payload = {"beta": [1.5], "matern": {"omega1": 0.5, "omega2": 1.0}, **payload}
        out = tmp_path / "out" / "nested"
        argv = [command, "--config", write_config(tmp_path, payload), "--out", str(out),
                "--quiet"]
        if command in ("fit", "predict", "validate"):
            argv += ["--data", poisson_dataset(tmp_path)[0]]
        if command == "predict":
            argv += ["--test", poisson_dataset(tmp_path, n=5, seed=1, name="test.csv")[0]]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert not (tmp_path / "out").exists()

    def test_singular_prior_leaves_no_out(self, tmp_path, monkeypatch, capsys):
        def never_positive_definite(*args, **kwargs):
            raise np.linalg.LinAlgError("not positive definite")

        data = poisson_dataset(tmp_path)[0]
        config = write_config(
            tmp_path, {"beta": [1.5], "matern": {"omega1": 0.5, "omega2": 1.0}}
        )
        # every factorization fails, so the prior escalates its jitter to the cap
        monkeypatch.setattr(covariance, "potrf", never_positive_definite)
        out = tmp_path / "out"
        code = cli.main(["fit", "--config", config, "--data", data, "--out", str(out),
                         "--quiet"])
        assert code == cli.EXIT_NUMERICAL
        assert "not positive definite after jitter" in capsys.readouterr().err
        assert not out.exists()


class TestFlags:
    @pytest.mark.parametrize(
        "command, flag",
        [("fit", "--seed"), ("predict", "--seed"), ("fit", "--replications"),
         ("predict", "--replications"), ("validate", "--replications"),
         ("verify", "--replications")],
    )
    def test_unread_flags_are_usage_errors(self, command, flag, capsys):
        argv = [command, "--config", "config.json", "--out", "out", flag, "1"]
        if command != "verify":
            argv += ["--data", "data.csv"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


class TestEntryPoint:
    def test_console_script_is_wired(self):
        import importlib
        import tomllib
        from pathlib import Path

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts.get("glmmfp") == "glmmfp.cli:entry"
        module, _, attr = scripts["glmmfp"].partition(":")
        assert callable(getattr(importlib.import_module(module), attr))

    def test_exit_code_constants(self):
        assert (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_NUMERICAL,
                cli.EXIT_NONCONVERGENCE) == (0, 1, 2, 3)

    def test_default_beta_init_reasonable(self):
        from glmmfp.families import poisson_kernel

        y = np.array([2.0, 3.0, 4.0, 2.0])
        X = np.ones((4, 1))
        init = cli._default_beta_init(poisson_kernel(), y, X)
        assert init.shape == (1,)
        assert 0.5 < init[0] < 2.0
