import json

import numpy as np
import pytest

from glmmfp import cli, dataio
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
