import ast
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from glmmfp import dataio
from glmmfp.covariance import MaternParams
from glmmfp.dataio import (
    ConfigError,
    RunConfig,
    build_design,
    fmt,
    load_config,
    load_dataset,
    write_json,
    write_symmetric_csv,
    write_synthetic_counts,
)
from glmmfp.simulate import SimConfig


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


BASIC_CSV = "y,x_coord,y_coord\n3,0.1,0.2\n0,0.5,0.9\n7,0.8,0.3\n"


class TestConfig:
    def test_minimal_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {}))
        assert cfg.family == "poisson"
        assert cfg.model_tier == "intercept"
        assert cfg.matern is None and cfg.beta is None
        assert vars(cfg) == vars(RunConfig())

    def test_full_round_trip(self, tmp_path):
        cfg = load_config(
            write_config(
                tmp_path,
                {
                    "family": "binomial",
                    "matern": {"omega1": 0.5, "omega2": 2.0, "omega3": 1.5},
                    "beta": [1.0, -0.5],
                    "seed": 7,
                },
            )
        )
        assert cfg.family == "binomial"
        assert cfg.matern == MaternParams(0.5, 2.0, 1.5)
        assert cfg.beta == [1.0, -0.5]
        assert cfg.seed == 7

    def test_estimate_sentinels(self, tmp_path):
        cfg = load_config(
            write_config(tmp_path, {"matern": "estimate", "beta": "estimate"})
        )
        assert cfg.matern == dataio.ESTIMATE
        assert cfg.beta == dataio.ESTIMATE

    def test_unknown_top_level_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match="'banana'"):
            load_config(write_config(tmp_path, {"banana": 1}))

    def test_unknown_nested_key(self, tmp_path):
        with pytest.raises(ConfigError, match="verify"):
            load_config(write_config(tmp_path, {"verify": {"tolerance": 1e-8}}))
        with pytest.raises(ConfigError, match="'damping'"):
            load_config(write_config(tmp_path, {"validate": {"damping": 0.5}}))

    def test_solver_section_is_an_unknown_key(self, tmp_path):
        # the mode-finder works out its own stop; no config sets it
        with pytest.raises(ConfigError, match="^unknown key 'sic' in config$"):
            load_config(write_config(tmp_path, {"sic": {"tol": 1e-10, "max_iter": 200}}))

    def test_unknown_family(self, tmp_path):
        with pytest.raises(ConfigError, match="family"):
            load_config(write_config(tmp_path, {"family": "gamma"}))

    def test_invalid_matern(self, tmp_path):
        with pytest.raises(ConfigError, match="matern"):
            load_config(
                write_config(tmp_path, {"matern": {"omega1": 2.0, "omega2": 1.0}})
            )

    def test_matern_fields_and_default_are_those_of_matern_params(self, tmp_path):
        matern = {"omega1": 0.5, "omega2": 2.0}
        assert load_config(write_config(tmp_path, {"matern": matern})).matern == (
            MaternParams(0.5, 2.0)
        )
        with pytest.raises(ConfigError, match="omega2 must be a finite number: None"):
            load_config(write_config(tmp_path, {"matern": {"omega1": 0.5}}))
        with pytest.raises(ConfigError, match="'omega4' in matern"):
            load_config(write_config(tmp_path, {"matern": {"omega4": 0.5}}))

    def test_written_out_section_keys_are_their_dataclass_fields(self):
        # dataio does not import simulate, so its keys stay literal; they must
        # name exactly the fields the section configures
        assert dataio._SECTION_KEYS["simulate"] == {f.name for f in fields(SimConfig)}

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_nonpositive_gaussian_variance(self, tmp_path):
        with pytest.raises(ConfigError, match="gaussian_variance"):
            load_config(
                write_config(
                    tmp_path, {"family": "gaussian", "gaussian_variance": -1.0}
                )
            )


class TestDataset:
    def test_basic_load(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {}))
        ds = load_dataset(write_csv(tmp_path, BASIC_CSV), cfg)
        assert ds.n == 3
        assert np.array_equal(ds.y, [3.0, 0.0, 7.0])
        assert ds.coords.shape == (3, 2)
        assert ds.trials is None and ds.role is None

    def test_empty_file_has_no_header(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {}))
        with pytest.raises(ConfigError, match="dataset has no header row"):
            load_dataset(write_csv(tmp_path, ""), cfg)

    def test_unreadable_path(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {}))
        with pytest.raises(ConfigError, match="cannot read dataset"):
            load_dataset(tmp_path / "absent.csv", cfg)

    def test_missing_column(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {}))
        with pytest.raises(ConfigError, match="'y_coord'"):
            load_dataset(write_csv(tmp_path, "y,x_coord\n1,0.5\n"), cfg)

    def test_missing_covariate_column(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"covariates": ["elev"]}))
        with pytest.raises(ConfigError, match="'elev'"):
            load_dataset(write_csv(tmp_path, BASIC_CSV), cfg)

    def test_non_numeric_cell(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {}))
        bad = "y,x_coord,y_coord\n3,oops,0.2\n"
        with pytest.raises(ConfigError, match="'oops'"):
            load_dataset(write_csv(tmp_path, bad), cfg)

    @pytest.mark.parametrize("bad, where", [
        ("3,0.1,0.2,1.5\n0,0.5,0.9,nan\n", "'nan' in column 'elev' row 2"),
        ("3,inf,0.2,1.5\n", "'inf' in column 'x_coord' row 1"),
    ])
    def test_non_finite_cell(self, tmp_path, bad, where):
        cfg = load_config(write_config(tmp_path, {"covariates": ["elev"]}))
        csv_text = "y,x_coord,y_coord,elev\n" + bad
        with pytest.raises(ConfigError, match=f"non-finite value {where}"):
            load_dataset(write_csv(tmp_path, csv_text), cfg)

    def test_empty_dataset(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {}))
        with pytest.raises(ConfigError, match="no rows"):
            load_dataset(write_csv(tmp_path, "y,x_coord,y_coord\n"), cfg)

    def test_binomial_requires_trials_column(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"family": "binomial"}))
        with pytest.raises(ConfigError, match="'m'"):
            load_dataset(write_csv(tmp_path, BASIC_CSV), cfg)

    def test_subset_takes_a_mask_or_indices(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"family": "binomial"}))
        csv = "y,m,x_coord,y_coord,role\n1,2,0.1,0.2,train\n0,3,0.3,0.4,test\n4,4,0.5,0.6,train\n"
        ds = load_dataset(write_csv(tmp_path, csv), cfg)
        by_mask = ds.subset(ds.role == "train")
        by_index = ds.subset(np.array([0, 2]))
        for part in (by_mask, by_index):
            assert np.array_equal(part.y, [1.0, 4.0])
            assert np.array_equal(part.trials, [2.0, 4.0])
            assert np.array_equal(part.coords, [[0.1, 0.2], [0.5, 0.6]])
            assert part.role is None

    def test_binomial_test_sites_require_trials_column(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"family": "binomial"}))
        with pytest.raises(ConfigError, match="'m'"):
            load_dataset(
                write_csv(tmp_path, "x_coord,y_coord\n0.1,0.2\n"), cfg,
                require_response=False,
            )

    def test_role_column(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {}))
        text = (
            "y,x_coord,y_coord,role\n3,0.1,0.2,train\n0,0.5,0.9,test\n"
        )
        ds = load_dataset(write_csv(tmp_path, text), cfg)
        assert ds.role.tolist() == ["train", "test"]

    def test_bad_role_value(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {}))
        text = "y,x_coord,y_coord,role\n3,0.1,0.2,holdout\n"
        with pytest.raises(ConfigError, match="'holdout'"):
            load_dataset(write_csv(tmp_path, text), cfg)

    def test_padded_header_cells_read_as_their_names(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"covariates": ["elev"]}))
        text = "y , x_coord,y_coord,elev ,  role\n3,0.1,0.2,1.5,train\n0,0.5,0.9,2.5,test\n"
        ds = load_dataset(write_csv(tmp_path, text), cfg)
        assert np.array_equal(ds.y, [3.0, 0.0])
        assert np.array_equal(ds.coords, [[0.1, 0.2], [0.5, 0.9]])
        assert np.array_equal(ds.covariates["elev"], [1.5, 2.5])
        assert ds.role.tolist() == ["train", "test"]

    @pytest.mark.parametrize("header, column", [
        ("y,x_coord,y_coord,y", "y"),
        ("y,x_coord,y_coord, x_coord", "x_coord"),
        ("y,x_coord,y_coord,role,role ", "role"),
        ("y,m,x_coord,y_coord,m", "m"),
        ("y,x_coord,y_coord,elev,elev", "elev"),
    ])
    def test_column_read_twice_rejected(self, tmp_path, header, column):
        covariates = ["elev"] if column == "elev" else []
        cfg = load_config(write_config(tmp_path, {"covariates": covariates}))
        text = header + "\n" + ",".join(["1"] * (header.count(",") + 1)) + "\n"
        with pytest.raises(ConfigError, match=f"column {column!r} more than once"):
            load_dataset(write_csv(tmp_path, text), cfg)

    def test_unread_column_may_repeat(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {}))
        text = "y,x_coord,y_coord,note,note\n3,0.1,0.2,a,b\n"
        assert load_dataset(write_csv(tmp_path, text), cfg).n == 1


class TestDesign:
    def make(self, tmp_path, tier, covariates=(), beta=None):
        cfg = load_config(
            write_config(
                tmp_path, {"model_tier": tier, "covariates": list(covariates), "beta": beta}
            )
        )
        text = "y,x_coord,y_coord,elev\n3,1.0,2.0,0.3\n0,4.0,5.0,0.6\n"
        ds = load_dataset(write_csv(tmp_path, text), cfg)
        return build_design(ds, cfg), ds

    def test_intercept_tier(self, tmp_path):
        X, _ = self.make(tmp_path, "intercept")
        assert X.shape == (2, 1)
        assert np.all(X == 1.0)

    def test_main_effects_tier(self, tmp_path):
        X, ds = self.make(tmp_path, "main_effects")
        assert X.shape == (2, 3)
        assert np.array_equal(X[:, 1], ds.coords[:, 0])
        assert np.array_equal(X[:, 2], ds.coords[:, 1])

    def test_quadratic_tier(self, tmp_path):
        X, ds = self.make(tmp_path, "quadratic")
        assert X.shape == (2, 6)
        lon, lat = ds.coords[:, 0], ds.coords[:, 1]
        assert np.array_equal(X[:, 3], lon**2)
        assert np.array_equal(X[:, 5], lon * lat)

    def test_covariates_come_before_coordinates(self, tmp_path):
        X, ds = self.make(tmp_path, "main_effects", covariates=["elev"])
        assert X.shape == (2, 4)
        assert np.array_equal(X[:, 1], ds.covariates["elev"])

    @pytest.mark.parametrize(
        "tier, covariates, name",
        [
            ("intercept", ["y"], "y"),
            ("main_effects", ["x_coord"], "x_coord"),
            ("quadratic", ["elev", "y_coord"], "y_coord"),
            ("intercept", ["elev", "elev"], "elev"),
        ],
        ids=["response", "main-effects-coordinate", "quadratic-coordinate", "repeated"],
    )
    def test_unidentifiable_covariate_is_rejected_when_beta_is_estimated(
        self, tmp_path, tier, covariates, name
    ):
        with pytest.raises(ConfigError) as exc:
            self.make(tmp_path, tier, covariates, beta="estimate")
        assert str(exc.value) == (
            f"covariate {name!r} is the response or repeats a column of the "
            f"{tier!r} design: beta cannot be estimated"
        )
        # given fixed effects need no identification
        X, _ = self.make(tmp_path, tier, covariates, beta=[0.0])
        assert X.shape[1] == 1 + len(covariates) + {"intercept": 0, "main_effects": 2,
                                                    "quadratic": 5}[tier]

    def test_collinear_columns_are_rejected_when_beta_is_estimated(self, tmp_path):
        payload = {"covariates": ["elev"], "beta": "estimate"}
        cfg = load_config(write_config(tmp_path, payload))
        text = "y,x_coord,y_coord,elev\n3,1.0,2.0,0.0\n0,4.0,5.0,0.0\n"
        ds = load_dataset(write_csv(tmp_path, text), cfg)
        # a column of zeros has no unit-norm scaling; it identifies nothing
        with pytest.raises(ConfigError, match=r"columns \['intercept', 'elev'\] are linear"):
            build_design(ds, cfg)
        # a design only predicted at is not checked
        assert build_design(ds, cfg, fitted=False).shape == (2, 2)

    def test_quadratic_design_on_large_offset_coordinates_is_accepted(self):
        # coordinates in [5e5, 1.5e6]: the raw columns' condition number is 6e13,
        # near matrix_rank's tolerance, and 148 once each is scaled to unit norm
        coords = 5e5 + 1e6 * np.random.default_rng(3).uniform(size=(30, 2))
        ds = dataio.Dataset(y=np.ones(30), coords=coords, covariates={}, trials=None,
                            role=None)
        cfg = dataio.RunConfig(model_tier="quadratic", beta=dataio.ESTIMATE)
        assert build_design(ds, cfg).shape == (30, 6)

    def test_coordinate_covariate_is_identifiable_under_the_intercept_tier(self, tmp_path):
        X, ds = self.make(tmp_path, "intercept", ["x_coord"], beta="estimate")
        assert np.array_equal(X[:, 1], ds.coords[:, 0])


class TestWriters:
    def test_vector_csv_full_precision(self, tmp_path):
        path = tmp_path / "xi.csv"
        dataio.write_csv(path, ("site", "xi"), enumerate([1.0 / 3.0]))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "site,xi"
        assert float(lines[1].split(",")[1]) == 1.0 / 3.0

    # each cell as the per-file writers it replaced rendered it: an index or
    # a count by f"{int(v)}", a label as it is, a number by fmt
    @pytest.mark.parametrize(
        "cell, text",
        [(7, "7"), (np.int64(1800), "1800"), (0.1, "0.10000000000000001"),
         (np.float64(1.0 / 3.0), "0.33333333333333331"), (float("nan"), "nan"),
         (np.inf, "inf"), (-np.inf, "-inf"), (-0.0, "-0"), (1e-300, "1e-300"),
         ("quadratic", "quadratic")],
    )
    def test_csv_cell_rendering(self, tmp_path, cell, text):
        path = tmp_path / "t.csv"
        dataio.write_csv(path, ("site", "value"), [(0, cell), (np.int64(1), cell)])
        assert path.read_bytes() == f"site,value\n0,{text}\n1,{text}\n".encode()

    def test_csv_without_rows_is_its_header(self, tmp_path):
        path = tmp_path / "t.csv"
        dataio.write_csv(path, ("split", "tier", "g2"), [])
        assert path.read_bytes() == b"split,tier,g2\n"

    def test_every_writer_creates_the_missing_directory(self, tmp_path):
        writes = {
            "a.csv": lambda p: dataio.write_csv(p, ("x",), [(1.5,)]),
            "b.csv": lambda p: write_symmetric_csv(p, np.eye(2)),
            "c.json": lambda p: write_json(p, {"x": 1}),
            "d.csv": lambda p: write_synthetic_counts(p, n_sites=3),
        }
        for name, write in writes.items():
            path = tmp_path / name.split(".")[0] / "nested" / name
            write(path)
            assert path.is_file()

    def test_fmt_round_trips(self):
        for x in (0.1, np.pi, 1e-300, -2.5e17):
            assert float(fmt(x)) == x

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_symmetric_csv_matches_per_cell_writer(self, tmp_path, n):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-20, 20, size=(n, n))
        M = A + A.T
        special = [np.nan, np.inf, -np.inf, -0.0, 1e-300, 0.0]
        for k, (i, j) in enumerate(zip(*np.triu_indices(n))):
            if k < len(special):
                M[i, j] = M[j, i] = special[k]
        path = tmp_path / "M.csv"
        write_symmetric_csv(path, M)
        per_cell = "\n".join(",".join(fmt(v) for v in row) for row in M) + "\n"
        assert path.read_bytes() == per_cell.encode()

    def test_symmetric_csv_rejects_asymmetry(self, tmp_path):
        M = np.eye(3)
        M[0, 2] = 1e-16
        with pytest.raises(ValueError, match="symmetric"):
            write_symmetric_csv(tmp_path / "M.csv", M)
        with pytest.raises(ValueError, match="symmetric"):
            write_symmetric_csv(tmp_path / "M.csv", np.ones((2, 3)))

    def test_json_non_finite_is_null(self, tmp_path):
        path = tmp_path / "r.json"
        payload = {
            "a": float("nan"), "b": [np.float64(np.inf), 1.5, (np.float32(-np.inf), 2)],
            "c": {"d": -np.inf, "e": np.float64(0.25), "f": None, "g": "nan"},
        }
        write_json(path, payload)
        assert json.loads(path.read_text(), parse_constant=pytest.fail) == {
            "a": None, "b": [None, 1.5, [None, 2]],
            "c": {"d": None, "e": 0.25, "f": None, "g": "nan"},
        }

    def test_json_finite_payload_unchanged(self, tmp_path):
        path = tmp_path / "r.json"
        payload = {"x": [np.float64(1 / 3), 2, True, (0.1, "s")], "y": {"z": -0.0}}
        write_json(path, payload)
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert path.read_text() == expected

    def test_synthetic_counts_loadable(self, tmp_path):
        path = tmp_path / "synthetic.csv"
        write_synthetic_counts(path, n_sites=25, seed=1)
        cfg = load_config(write_config(tmp_path, {}))
        ds = load_dataset(path, cfg)
        assert ds.n == 25
        assert np.all(ds.y >= 0)
        assert np.all(ds.y == np.round(ds.y))

    def test_synthetic_counts_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_synthetic_counts(a, n_sites=10, seed=3)
        write_synthetic_counts(b, n_sites=10, seed=3)
        assert a.read_bytes() == b.read_bytes()


SRC = Path(__file__).resolve().parents[1] / "src" / "glmmfp"


def file_writes(node):
    """The name of each ``mkdir`` call and each write-mode open under ``node``."""
    for call in ast.walk(node):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("mkdir", "makedirs", "write_text", "write_bytes"):
            yield name
        elif name == "open":
            # open(path, mode) or path.open(mode); a mode not spelled out counts
            modes = call.args[1:] if isinstance(func, ast.Name) else call.args
            modes = [*modes, *(k.value for k in call.keywords if k.arg == "mode")]
            if modes and not (
                isinstance(modes[0], ast.Constant) and set(modes[0].value) <= set("rbt")
            ):
                yield name


class TestOneWriter:
    def test_files_are_written_only_through_the_dataio_helper(self):
        found = set()
        for path in sorted(SRC.glob("*.py")):
            for node in ast.parse(path.read_text()).body:
                owner = getattr(node, "name", None)
                found |= {(path.stem, owner, call) for call in file_writes(node)}
        assert found == {
            ("dataio", "_open_for_write", "mkdir"),
            ("dataio", "_open_for_write", "open"),
        }

    @pytest.mark.parametrize(
        "source, calls",
        [("open(p, 'w')", ["open"]), ("open(p, mode='a')", ["open"]),
         ("p.open('wb')", ["open"]), ("open(p, m)", ["open"]),
         ("p.mkdir()", ["mkdir"]), ("os.makedirs(d)", ["makedirs"]),
         ("p.write_text(s)", ["write_text"]), ("open(p)", []), ("open(p, 'rb')", []),
         ("p.open()", [])],
    )
    def test_the_guard_sees_each_way_to_write(self, source, calls):
        assert list(file_writes(ast.parse(source))) == calls
