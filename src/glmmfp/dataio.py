"""CSV dataset ingestion, JSON run configuration, and result writers.

The dataset schema is a headed CSV with a count column ``y``, site
coordinate columns ``x_coord`` / ``y_coord`` for spatial runs, any
declared covariate columns, an optional binomial trial-count column
``m``, and an optional ``role`` column with values ``train`` / ``test``.
CSV cells are written at 17 significant digits (``%.17g``) and JSON
numbers in Python's shortest round-trip form; both read back as the
same double, so pipelines between subcommands round-trip bit-faithfully.

A run configuration's keys and defaults are the fields of :class:`RunConfig`
and, in its ``matern`` object, of :class:`covariance.MaternParams`.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .covariance import MaternParams, build_blocked
from .families import FAMILIES, binomial_kernel, gaussian_kernel, poisson_kernel

ESTIMATE = "estimate"
TIERS = ("intercept", "main_effects", "quadratic")


class ConfigError(ValueError):
    """Configuration or dataset validation failure (exit code 1)."""


def fmt(x) -> str:
    """A CSV cell's ``%.17g`` rendering, which reads back as the same double."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class RunConfig:
    family: str = "poisson"
    covariates: list = field(default_factory=list)
    model_tier: str = "intercept"
    matern: object = None          # MaternParams or "estimate"
    beta: object = None            # list of floats or "estimate"
    gaussian_variance: float = 1.0
    seed: int = 0
    simulate: dict = field(default_factory=dict)
    validate: dict = field(default_factory=dict)
    verify: dict = field(default_factory=dict)


_TOP_KEYS = {f.name for f in fields(RunConfig)}
_MATERN_KEYS = {f.name for f in fields(MaternParams)}
# each section's keys; simulate's are SimConfig's fields, written out since
# simulate imports this module
_SECTION_KEYS = {
    "simulate": {
        "n", "n_star", "beta", "omega", "replications", "seed", "side", "scenarios",
    },
    "validate": {"splits", "n_train", "n_test", "tiers"},
    "verify": {"identity_instances", "battery_seed", "order"},
}


def _check_keys(obj: dict, allowed: set, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in {where}")


def read_int(section: dict, key: str, default, low: int, where: str, high=math.inf) -> int:
    """``section[key]`` (``default`` when absent), an integer in [low, high].

    Anything else is a ConfigError naming ``where.key`` (or ``key``).
    """
    value = section.get(key, default)
    # bool is not a count; NaN fails the bounds, and inf % 1 is NaN
    if type(value) not in (int, float) or not low <= value <= high or value % 1:
        name = f"{where}.{key}" if where else key
        raise ConfigError(f"{name} must be an integer in [{low}, {high}]: {value!r}")
    return int(value)


def read_float(value, name: str, positive: bool = False) -> float:
    """``value``, a finite JSON number (> 0 when ``positive``), as a float.

    Anything else, a bool or a numeric string included, is a ConfigError
    naming ``name``.
    """
    # compared, not converted, so NaN and ints beyond float range fail too
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max or (
        positive and value <= 0
    ):
        kind = "a positive number" if positive else "a finite number"
        raise ConfigError(f"{name} must be {kind}: {value!r}")
    return float(value)


def read_list(value, name: str) -> list:
    """``value`` if it is a JSON array, else a ConfigError naming ``name``."""
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a JSON array: {value!r}")
    return value


def read_names(value, known: tuple, name: str) -> tuple:
    """``value``, a JSON array (or a library caller's tuple) of at least one of the
    ``known`` strings, each once, as a tuple, else a ConfigError naming ``name``."""
    names = value if isinstance(value, tuple) else tuple(read_list(value, name))
    # only strings equal a known name, so set() hashes nothing else
    if not (names and all(v in known for v in names) and len(set(names)) == len(names)):
        raise ConfigError(
            f"{name} must name at least one of {list(known)}, each once: {list(names)}"
        )
    return names


def parse_matern(obj, where: str = "matern") -> MaternParams:
    _check_keys(obj, _MATERN_KEYS, where)
    omegas = []
    for f in fields(MaternParams):  # an absent required field reads None: rejected
        default = None if f.default is MISSING else f.default
        omegas.append(read_float(obj.get(f.name, default), f"{where}.{f.name}"))
    try:
        return MaternParams(*omegas)
    except ValueError as exc:
        raise ConfigError(f"invalid {where} parameters: {exc}") from exc


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys(raw, _TOP_KEYS, "config")
    cfg = RunConfig()
    cfg.family = raw.get("family", cfg.family)
    if cfg.family not in FAMILIES:
        raise ConfigError(f"unknown family {cfg.family!r}")
    cfg.covariates = read_list(raw.get("covariates", cfg.covariates), "covariates")
    cfg.model_tier = raw.get("model_tier", cfg.model_tier)
    if cfg.model_tier not in TIERS:
        raise ConfigError(f"unknown model_tier {cfg.model_tier!r}")
    matern = raw.get("matern")
    if matern is not None:
        cfg.matern = ESTIMATE if matern == ESTIMATE else parse_matern(matern)
    beta = raw.get("beta")
    if beta is not None:
        cfg.beta = ESTIMATE if beta == ESTIMATE else [
            read_float(b, f"beta[{i}]") for i, b in enumerate(read_list(beta, "beta"))
        ]
    variance = raw.get("gaussian_variance", cfg.gaussian_variance)
    cfg.gaussian_variance = read_float(variance, "gaussian_variance", positive=True)
    cfg.seed = read_int(raw, "seed", cfg.seed, 0, "")
    for name, keys in _SECTION_KEYS.items():
        section = raw.get(name, getattr(cfg, name))
        _check_keys(section, keys, name)
        setattr(cfg, name, section)
    return cfg


def make_kernel(cfg: RunConfig, trials):
    """The family's kernel; the binomial one's ``trials`` is load_dataset's ``m``."""
    if cfg.family == "poisson":
        return poisson_kernel()
    if cfg.family == "binomial":
        return binomial_kernel(trials)
    return gaussian_kernel(cfg.gaussian_variance)


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Dataset:
    y: np.ndarray | None
    coords: np.ndarray
    covariates: dict          # column name -> vector
    trials: np.ndarray | None
    role: np.ndarray | None   # array of "train"/"test" strings, or None

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    def subset(self, rows) -> "Dataset":
        """The rows a boolean mask or an index array picks, without roles."""
        return Dataset(
            y=self.y[rows] if self.y is not None else None,
            coords=self.coords[rows],
            covariates={k: v[rows] for k, v in self.covariates.items()},
            trials=self.trials[rows] if self.trials is not None else None,
            role=None,
        )


def load_dataset(path, cfg: RunConfig, require_response: bool = True) -> Dataset:
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ConfigError("dataset has no header row")
            # rows are read by the stripped names that the checks below use
            header = reader.fieldnames = [h.strip() for h in reader.fieldnames]
            rows = list(reader)
    except OSError as exc:
        raise ConfigError(f"cannot read dataset: {exc}") from exc
    if not rows:
        raise ConfigError("dataset has no rows")

    required = ["x_coord", "y_coord"] + list(cfg.covariates)
    if require_response:
        required.append("y")
    if cfg.family == "binomial":
        required.append("m")
    for col in required:
        if col not in header:
            raise ConfigError(f"dataset is missing required column {col!r}")
    for col in ("y", "m", "role", "x_coord", "y_coord", *cfg.covariates):
        if header.count(col) > 1:
            raise ConfigError(f"dataset header names column {col!r} more than once")

    def column(name):
        out = np.empty(len(rows))
        for i, row in enumerate(rows):
            val = row.get(name)
            try:
                out[i] = float(val)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"non-numeric value {val!r} in column {name!r} row {i + 1}"
                ) from None
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            i = bad[0]
            raise ConfigError(
                f"non-finite value {rows[i].get(name)!r} in column {name!r} row {i + 1}"
            )
        return out

    coords = np.column_stack([column("x_coord"), column("y_coord")])
    y = column("y") if "y" in header and require_response else None
    trials = column("m") if "m" in header else None
    covs = {name: column(name) for name in cfg.covariates}
    role = None
    if "role" in header:
        for i, row in enumerate(rows):
            if row["role"] is None:  # a row short of the header
                raise ConfigError(f"missing value in column 'role' row {i + 1}")
        role = np.array([row["role"].strip() for row in rows])
        bad = set(role) - {"train", "test"}
        if bad:
            raise ConfigError(f"unknown role value {sorted(bad)[0]!r}")
    return Dataset(y=y, coords=coords, covariates=covs, trials=trials, role=role)


def build_design(dataset: Dataset, cfg: RunConfig, tier=None, fitted=True) -> np.ndarray:
    """Intercept + declared covariates + coordinate expansion of ``tier`` (by default
    ``model_tier``), which load_config or read_names has checked.  With ``beta``
    estimated from the design (``fitted``, unlike test sites'), a covariate that is the
    response or repeats a column, and columns that lack full ``matrix_rank`` once each
    has unit norm, are ConfigErrors."""
    tier = tier or cfg.model_tier
    lon, lat = dataset.coords[:, 0], dataset.coords[:, 1]
    columns = [("intercept", np.ones(dataset.n))]
    columns += [(name, dataset.covariates[name]) for name in cfg.covariates]
    if tier in ("main_effects", "quadratic"):
        columns += [("x_coord", lon), ("y_coord", lat)]
    if tier == "quadratic":
        columns += [("x_coord^2", lon**2), ("y_coord^2", lat**2)]
        columns += [("x_coord*y_coord", lon * lat)]
    X = np.column_stack([col for _, col in columns])
    if fitted and cfg.beta == ESTIMATE:
        # no data identify the coefficient of the response or of a repeated column
        taken = ["y"] + (["x_coord", "y_coord"] if tier != "intercept" else [])
        for i, name in enumerate(cfg.covariates):
            if name in taken + cfg.covariates[:i]:
                raise ConfigError(
                    f"covariate {name!r} is the response or repeats a column of the "
                    f"{tier!r} design: beta cannot be estimated"
                )
        norms = np.linalg.norm(X, axis=0)
        if not norms.all() or np.linalg.matrix_rank(X / norms) < len(columns):
            raise ConfigError(
                f"the {tier!r} design's columns {[name for name, _ in columns]} are "
                f"linearly dependent: beta cannot be estimated"
            )
    return X


# ---------------------------------------------------------------------------
# Result writers
# ---------------------------------------------------------------------------


class ResultDir:
    """A command's ``--out``: ``out / name`` is a result file's path, recorded.

    :meth:`discard` removes the file at every path recorded, so that a
    command that fails partway leaves no partial result set behind.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.named = []

    def __truediv__(self, name) -> Path:
        path = self.path / name
        self.named.append(path)
        return path

    def discard(self):
        for path in self.named:
            if path.is_file():
                path.unlink()


def _open_for_write(path):
    """``path`` opened for writing, its directory created first; every writer's file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w")


def write_csv(path, header, rows):
    """Write a headed CSV: string cells as they are, every other cell by :func:`fmt`."""
    lines = [",".join(header)]
    lines += (",".join(c if isinstance(c, str) else fmt(c) for c in row) for row in rows)
    with _open_for_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def write_symmetric_csv(path, matrix):
    """Write an exactly symmetric matrix, formatting each pair of cells once.

    ``"%.17g"`` renders a float exactly as :func:`fmt` does, ``nan``,
    ``inf`` and ``-0`` included.  Each row's cells from the diagonal on
    are formatted in one operation, and each cell right of the diagonal
    is kept only until the row below that mirrors it is written.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if not np.array_equal(matrix, matrix.T, equal_nan=True):
        raise ValueError("matrix must be exactly symmetric")
    n = matrix.shape[0]
    # column k's cells above the diagonal, in the rows written so far
    columns = [[] for _ in range(n)]
    with _open_for_write(path) as fh:
        for i, row in enumerate(matrix):
            upper = (",".join(["%.17g"] * (n - i)) % tuple(row[i:].tolist())).split(",")
            fh.write(",".join(columns[i] + upper) + "\n")
            columns[i] = None
            for k in range(1, n - i):
                columns[i + k].append(upper[k])


def _json_safe(value):
    """``value`` with every non-finite float, numpy's included, made ``None``."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return None
    return value


def write_json(path, payload: dict):
    """Write ``payload`` as RFC 8259 JSON: a non-finite float becomes ``null``."""
    text = json.dumps(_json_safe(payload), indent=2, sort_keys=True, allow_nan=False)
    with _open_for_write(path) as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# Synthetic dataset generator (schema-compatible stand-in)
# ---------------------------------------------------------------------------

# the latent field's Matern prior, the log-mean intercept, and the rectangle
# the sites are uniform on
SYNTHETIC_OMEGA = MaternParams(0.5, 1.5)
SYNTHETIC_BETA0 = 4.5
SYNTHETIC_EXTENT = (1.0, 0.75)


def write_synthetic_counts(path, n_sites: int = 100, seed: int = 0):
    """Write a synthetic coordinate-indexed count CSV (farm-like layout)."""
    rng = np.random.default_rng(seed)
    coords = rng.uniform((0.0, 0.0), SYNTHETIC_EXTENT, size=(n_sites, 2))
    blocked = build_blocked(SYNTHETIC_OMEGA, coords)
    gamma = blocked.chol @ rng.standard_normal(n_sites)
    y = rng.poisson(np.exp(SYNTHETIC_BETA0 + gamma))
    write_csv(path, ("y", "x_coord", "y_coord"), zip(y, *coords.T))
