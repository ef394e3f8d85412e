"""Monte Carlo evaluation of spatial prediction accuracy.

Generates synthetic spatial count datasets (Poisson responses over a
latent field with exponential-family Matern prior), runs up to three
evaluation scenarios per replication, and aggregates relative-loss and
RMSE metrics:

* ``oracle``        - true parameters and true random effects known;
                      unobserved effects predicted by the conditional
                      mean D21 D11^-1 gamma = L21 L11^-1 gamma
                      (ground-truth ceiling).
* ``sic_true``      - the posterior mode at the true parameters, kriged
                      (:func:`spatial.krige`) through the prior's ``d12``.
* ``sic_estimated`` - parameters estimated first (Laplace-surrogate ML),
                      then the estimate's own mode fit is kriged through
                      the cross covariance at the estimates.

A replication (:class:`SimDataset`) factors the joint (n + n*) prior of
its sites once, in :func:`covariance.build_blocked`.  That factor ``L``
draws the field (gamma, gamma*) = L z, krigs the oracle through its
blocks L11 and L21, and certifies the observed block D11 for the
mode-finder.

Once its scenarios are recorded, a replication is dead: nothing reads it
again.  It lends the next replication its prior's two (n + n*)^2 buffers
and its n x n buffer, in which the oracle's triangular solve and then the
``sic_true`` fit's factor are made, so only the first replication of a
run allocates them; every number is the same as with fresh buffers.

Replications draw independent streams from (seed, replication index),
so results are identical regardless of execution order.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

import numpy as np

from .covariance import PRIOR_BUDGET, BlockedCovariance, MaternParams
from .covariance import build_blocked, cross_covariance
from .dataio import ConfigError, write_csv, write_json
from .estimate import estimate
from .families import poisson_kernel
from .fixed_point import FitOptions, fit_posterior
from .metrics import rl2
from .spatial import SpatialData, conditional_mean, krige, site_problem

ORACLE = "oracle"
SIC_TRUE = "sic_true"
SIC_ESTIMATED = "sic_estimated"
SCENARIOS = (ORACLE, SIC_TRUE, SIC_ESTIMATED)

# Square side length for 400 observed sites, calibrated so that the
# oracle's relative loss at unobserved sites is about one half under the
# unit-range exponential covariance (the site layout is a free choice).
DEFAULT_SIDE = 20.0

MAX_FAILURE_FRACTION = 0.05

# (n + n*)**2 doubles, the joint prior of one replication, checked before
# any work.  A replication peaks at about three such arrays: 2.5 at
# n = n* = 800 by tracemalloc, so the peak stays near 400 MiB, and
# n + n* <= 4096, five times the reference 400 + 400
SIM_BUDGET = PRIOR_BUDGET


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
    """One replication: its sites, their joint prior, the true effects drawn.

    ``buffer`` is the n x n array that its oracle's triangular solve and
    then its ``sic_true`` fit's factor are made in.
    """

    observed: SpatialData
    unobserved: SpatialData
    blocked: BlockedCovariance
    gamma: np.ndarray
    gamma_star: np.ndarray
    buffer: np.ndarray


def generate_dataset(
    config: SimConfig, rep_index: int, spent: SimDataset | None = None
) -> SimDataset:
    """One replication's dataset, deterministic in (seed, rep_index).

    ``spent``, a replication of ``config`` that its owner no longer reads,
    lends its prior (:func:`covariance.build_blocked`) and its buffer.
    """
    rng = np.random.default_rng([config.seed, rep_index])
    n, n_star = config.n, config.n_star
    if spent is None:
        prior, buffer = None, np.empty((n, n), order="F")
    else:
        prior, buffer = spent.blocked, spent.buffer
    coords_obs = rng.uniform(0.0, config.side, size=(n, 2))
    coords_unobs = rng.uniform(0.0, config.side, size=(n_star, 2))
    x_obs = rng.standard_normal(n)
    x_unobs = rng.standard_normal(n_star)
    blocked = build_blocked(config.omega, coords_obs, coords_unobs, prior)
    gamma_joint = blocked.chol @ rng.standard_normal(n + n_star)
    gamma, gamma_star = gamma_joint[:n], gamma_joint[n:]
    beta = np.asarray(config.beta, dtype=float)
    X = np.column_stack([np.ones(n), x_obs])
    X_unobs = np.column_stack([np.ones(n_star), x_unobs])
    y = rng.poisson(np.exp(X @ beta + gamma)).astype(float)
    observed = SpatialData(y=y, X=X, coords=coords_obs, kernel=poisson_kernel())
    unobserved = SpatialData(None, X_unobs, coords_unobs, observed.kernel)
    return SimDataset(observed, unobserved, blocked, gamma, gamma_star, buffer)


@dataclass(eq=False)
class SimResult:
    config: SimConfig
    aggregates: dict          # scenario -> {metric: mean value}
    records: list             # per-replication dicts for auditing
    failures: dict            # scenario -> count of excluded replications


def _scenario_metrics(dataset: SimDataset, scenario: str, config: SimConfig) -> dict:
    """One replication's record of ``scenario``: the table's metrics.

    A ``sic_estimated`` record also counts the estimate's fits, failed
    fits and scoring steps, which the aggregate leaves out; an estimate
    that did not converge raises ``RuntimeError``, as a mode fit that did
    not converge does, so the replication is recorded as failed.
    """
    truth, truth_star = dataset.gamma, dataset.gamma_star
    zeros = dict.fromkeys(_TABLE_COLUMNS[3:], 0.0)  # the rmse columns
    if scenario == ORACLE:
        pred_star = conditional_mean(truth, dataset.blocked, dataset.buffer)
        return dict(rl2=0.0, rl2_star=rl2(truth_star, pred_star), **zeros)
    observed, unobserved, blocked = dataset.observed, dataset.unobserved, dataset.blocked
    beta = np.asarray(config.beta, dtype=float)
    if scenario == SIC_TRUE:
        glmm = site_problem(observed, blocked, beta)
        report = fit_posterior(glmm, FitOptions(), dataset.buffer)
        d12, record = blocked.d12, zeros
    else:  # estimate (beta, omega1, omega2) first
        init_beta = np.array([np.log(np.mean(observed.y) + 0.5), 0.0])
        fit = estimate(observed, init_beta, config.omega)
        if not fit.converged:
            raise RuntimeError(
                f"the estimate did not converge in {fit.optimizer_iterations} scoring "
                f"steps and {fit.fits} fits"
            )
        report = fit.report
        d12 = cross_covariance(fit.omega_hat, observed.coords, unobserved.coords)
        record = dict(
            rmse_beta0=(fit.beta_hat[0] - beta[0]) ** 2,
            rmse_beta1=(fit.beta_hat[1] - beta[1]) ** 2,
            rmse_omega1=(fit.omega_hat.omega1 - config.omega.omega1) ** 2,
            rmse_omega2=(fit.omega_hat.omega2 - config.omega.omega2) ** 2,
            fits=fit.fits,
            failed_fits=fit.failed_fits,
            optimizer_iterations=fit.optimizer_iterations,
        )
    if not report.converged:
        raise RuntimeError("mode-finder did not converge")
    pred = krige(report, unobserved, d12)
    return dict(rl2=rl2(truth, report.xi), rl2_star=rl2(truth_star, pred.xi_star), **record)


def run_scenarios(config: SimConfig) -> SimResult:
    """Run all configured scenarios across the replications."""
    records = []
    metrics = {s: [] for s in config.scenarios}   # each scenario's successes
    spent = None
    for rep in range(config.replications):
        dataset = generate_dataset(config, rep, spent)
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
        spent = dataset  # recorded, so nothing reads it again
    aggregates = {}
    for scenario, rows in metrics.items():
        if not rows:
            continue
        agg = {k: sum(row[k] for row in rows) / len(rows) for k in _TABLE_COLUMNS[1:]}
        # RMSE aggregates are root mean squared errors, not mean squares
        for k in _TABLE_COLUMNS[3:]:
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
            "omega": list(astuple(result.config.omega)),
            "replications": result.config.replications,
            "seed": result.config.seed,
            "side": result.config.side,
            "scenarios": list(result.config.scenarios),
        },
        "failures": result.failures,
        "records": result.records,
    }
    write_json(path, payload)
