"""Monte Carlo evaluation of spatial prediction accuracy.

Generates synthetic spatial count datasets (Poisson responses over a
latent field with exponential-family Matern prior), runs up to three
evaluation scenarios per replication, and aggregates relative-loss and
RMSE metrics:

* ``oracle``        - true parameters and true random effects known;
                      unobserved effects predicted by the conditional
                      mean D21 D11^-1 gamma = L21 L11^-1 gamma
                      (ground-truth ceiling).
* ``sic_true``      - true parameters known, effects predicted at the
                      posterior mode.
* ``sic_estimated`` - parameters estimated first (Laplace-surrogate ML),
                      then the posterior mode is predicted.

A replication (:class:`SimDataset`) is its :class:`spatial.SpatialProblem`
plus the true effects; ``sic_estimated`` estimates from the problem's own
``observed`` sites and rebuilds the prior from the problem's coordinates.

Each replication factors its joint (n + n*) prior once, in
:func:`covariance.build_blocked`.  That factor ``L`` draws the field
(gamma, gamma*) = L z, krigs the oracle through its blocks L11 and L21,
and certifies the observed block D11 for the mode-finder.

Replications draw independent streams from (seed, replication index),
so results are identical regardless of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .covariance import MaternParams, build_blocked
from .dataio import ConfigError, write_csv, write_json
from .estimate import estimate
from .families import poisson_kernel
from .fixed_point import FitOptions
from .metrics import rl2
from .spatial import SpatialData, SpatialPrediction, SpatialProblem
from .spatial import conditional_mean, fit_predict

ORACLE = "oracle"
SIC_TRUE = "sic_true"
SIC_ESTIMATED = "sic_estimated"
SCENARIOS = (ORACLE, SIC_TRUE, SIC_ESTIMATED)

# Square side length for 400 observed sites, calibrated so that the
# oracle's relative loss at unobserved sites is about one half under the
# unit-range exponential covariance (the site layout is a free choice).
DEFAULT_SIDE = 20.0

MAX_FAILURE_FRACTION = 0.05

# (n + n*)**2 doubles, the joint prior of one replication.  A replication
# peaks at about three such arrays (the covariance in its distance buffer,
# its factor, the mode fit's n x n buffer): 2.5 at n = n* = 800 by
# tracemalloc.  2**24 doubles is 128 MiB an array, so the peak stays near
# 400 MiB, and n + n* <= 4096, five times the reference 400 + 400
SIM_BUDGET = 2**24


class ScenarioFailureError(RuntimeError):
    """More than ``MAX_FAILURE_FRACTION`` of a scenario's replications failed.

    ``result`` is the run's :class:`SimResult`, whose per-replication
    records say what failed and why.
    """

    def __init__(self, message: str, result: "SimResult"):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class SimConfig:
    n: int = 400
    n_star: int = 400
    beta: tuple = (8.0, 0.0)
    omega: MaternParams = field(default_factory=lambda: MaternParams(0.5, 1.0, 0.5))
    replications: int = 100
    seed: int = 0
    side: float = DEFAULT_SIDE
    scenarios: tuple = (ORACLE, SIC_TRUE)

    def __post_init__(self):
        beta = tuple(self.beta) if isinstance(self.beta, (list, tuple, np.ndarray)) else ()
        if len(beta) != 2 or not all(
            isinstance(b, (int, float)) and not isinstance(b, bool) and np.isfinite(b)
            for b in beta
        ):
            raise ConfigError(f"simulate.beta must be two finite numbers: {self.beta!r}")
        object.__setattr__(self, "beta", beta)
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.n < 1 or self.n_star < 1:
            raise ValueError("site counts must be >= 1")
        if (self.n + self.n_star) ** 2 > SIM_BUDGET:
            raise ConfigError(
                f"simulate.n + simulate.n_star must be at most {math.isqrt(SIM_BUDGET)}, "
                f"a joint prior of {SIM_BUDGET} doubles: {self.n} + {self.n_star}"
            )
        if self.side <= 0:
            raise ValueError("side length must be positive")
        unknown = [s for s in self.scenarios if s not in SCENARIOS]
        if unknown:
            raise ValueError(f"unknown scenarios: {unknown}")


@dataclass(eq=False)
class SimDataset:
    """One replication: its spatial problem and the true effects drawn for it."""

    problem: SpatialProblem
    gamma: np.ndarray
    gamma_star: np.ndarray


def generate_dataset(config: SimConfig, rep_index: int) -> SimDataset:
    """One replication's dataset, deterministic in (seed, rep_index)."""
    rng = np.random.default_rng([config.seed, rep_index])
    n, n_star = config.n, config.n_star
    coords_obs = rng.uniform(0.0, config.side, size=(n, 2))
    coords_unobs = rng.uniform(0.0, config.side, size=(n_star, 2))
    x_obs = rng.standard_normal(n)
    x_unobs = rng.standard_normal(n_star)
    blocked = build_blocked(config.omega, coords_obs, coords_unobs)
    gamma_joint = blocked.chol @ rng.standard_normal(n + n_star)
    gamma, gamma_star = gamma_joint[:n], gamma_joint[n:]
    beta = np.asarray(config.beta, dtype=float)
    X = np.column_stack([np.ones(n), x_obs])
    X_unobs = np.column_stack([np.ones(n_star), x_unobs])
    y = rng.poisson(np.exp(X @ beta + gamma)).astype(float)
    observed = SpatialData(y=y, X=X, coords=coords_obs, kernel=poisson_kernel())
    unobserved = SpatialData(None, X_unobs, coords_unobs, observed.kernel)
    problem = SpatialProblem(observed, unobserved, blocked, beta)
    return SimDataset(problem=problem, gamma=gamma, gamma_star=gamma_star)


@dataclass(eq=False)
class SimResult:
    config: SimConfig
    aggregates: dict          # scenario -> {metric: mean value}
    records: list             # per-replication dicts for auditing
    failures: dict            # scenario -> count of excluded replications


def _scenario_metrics(dataset: SimDataset, scenario: str, config: SimConfig) -> dict:
    truth = dataset.gamma
    truth_star = dataset.gamma_star
    zeros = dict.fromkeys(
        ("rmse_beta0", "rmse_beta1", "rmse_omega1", "rmse_omega2"), 0.0
    )
    if scenario == ORACLE:
        pred_star = conditional_mean(truth, dataset.problem.blocked)
        return dict(rl2=0.0, rl2_star=rl2(truth_star, pred_star), **zeros)
    if scenario == SIC_TRUE:
        pred = fit_predict(dataset.problem, FitOptions())
        _require_converged(pred)
        return dict(
            rl2=rl2(truth, pred.report.xi),
            rl2_star=rl2(truth_star, pred.xi_star),
            **zeros,
        )
    # parameter-estimation scenario: estimate (beta, omega1, omega2) first
    problem = dataset.problem
    observed = problem.observed
    init_beta = np.array([np.log(np.mean(observed.y) + 0.5), 0.0])
    fit = estimate(observed, init_beta, config.omega)
    blocked_hat = build_blocked(fit.omega_hat, observed.coords, problem.unobserved.coords)
    problem_hat = replace(problem, blocked=blocked_hat, beta=fit.beta_hat)
    pred = fit_predict(problem_hat, FitOptions())
    _require_converged(pred)
    beta = np.asarray(config.beta, dtype=float)
    return dict(
        rl2=rl2(truth, pred.report.xi),
        rl2_star=rl2(truth_star, pred.xi_star),
        rmse_beta0=(fit.beta_hat[0] - beta[0]) ** 2,
        rmse_beta1=(fit.beta_hat[1] - beta[1]) ** 2,
        rmse_omega1=(fit.omega_hat.omega1 - config.omega.omega1) ** 2,
        rmse_omega2=(fit.omega_hat.omega2 - config.omega.omega2) ** 2,
    )


def _require_converged(pred: SpatialPrediction):
    if not pred.report.converged:
        raise RuntimeError("mode-finder did not converge")


def run_scenarios(config: SimConfig) -> SimResult:
    """Run all configured scenarios across the replications."""
    records = []
    metrics = {s: [] for s in config.scenarios}   # each scenario's successes
    for rep in range(config.replications):
        dataset = generate_dataset(config, rep)
        record = {"replication": rep}
        for scenario in config.scenarios:
            try:
                record[scenario] = _scenario_metrics(dataset, scenario, config)
                metrics[scenario].append(record[scenario])
            except Exception as exc:  # noqa: BLE001 - recorded, never dropped
                record[scenario] = {
                    "failed": True, "error": str(exc), "error_type": type(exc).__name__,
                }
        records.append(record)
        del dataset  # its prior and factor are freed before the next is built
    aggregates = {}
    for scenario, rows in metrics.items():
        if not rows:
            continue
        agg = {k: sum(row[k] for row in rows) / len(rows) for k in rows[0]}
        # RMSE aggregates are root mean squared errors, not mean squares
        for k in ("rmse_beta0", "rmse_beta1", "rmse_omega1", "rmse_omega2"):
            agg[k] = float(np.sqrt(agg[k]))
        aggregates[scenario] = agg
    failures = {s: config.replications - len(rows) for s, rows in metrics.items()}
    result = SimResult(
        config=config, aggregates=aggregates, records=records, failures=failures
    )
    for scenario, bad in failures.items():
        if bad > MAX_FAILURE_FRACTION * config.replications:
            raise ScenarioFailureError(
                f"{bad}/{config.replications} replications failed in "
                f"scenario {scenario!r}",
                result,
            )
    return result


_TABLE_COLUMNS = (
    "scenario", "rl2", "rl2_star",
    "rmse_beta0", "rmse_beta1", "rmse_omega1", "rmse_omega2",
)


def write_table_csv(result: SimResult, path):
    """Aggregate metrics, one row per scenario."""
    rows = [
        [s] + [result.aggregates[s][c] for c in _TABLE_COLUMNS[1:]]
        for s in result.config.scenarios if s in result.aggregates
    ]
    write_csv(path, _TABLE_COLUMNS, rows)


def write_audit_json(result: SimResult, path):
    """Per-replication records plus configuration metadata."""
    payload = {
        "config": {
            "n": result.config.n,
            "n_star": result.config.n_star,
            "beta": list(result.config.beta),
            "omega": [
                result.config.omega.omega1,
                result.config.omega.omega2,
                result.config.omega.omega3,
            ],
            "replications": result.config.replications,
            "seed": result.config.seed,
            "side": result.config.side,
            "scenarios": list(result.config.scenarios),
        },
        "failures": result.failures,
        "records": result.records,
    }
    write_json(path, payload)
