"""Monte Carlo evaluation of spatial prediction accuracy.

Generates synthetic spatial count datasets (Poisson responses over a
latent field with exponential-family Matern prior), runs up to three
evaluation scenarios per replication, and aggregates relative-loss and
RMSE metrics:

* ``oracle``        - true parameters and true random effects known;
                      unobserved effects predicted by the conditional
                      mean D21 D11^-1 gamma, the noise-free limit of
                      kriging (ground-truth ceiling).
* ``sic_true``      - the posterior mode at the true parameters, kriged
                      (:func:`spatial.krige`) through the prior's ``d12``.
* ``sic_estimated`` - parameters estimated first (Laplace-surrogate ML,
                      from :func:`estimate.initial_beta` and the true
                      omega), then the estimate's own mode fit is kriged
                      through the cross covariance at the estimates.

A replication (:class:`SimDataset`) factors the joint (n + n*) prior of
its sites once, in :func:`covariance.build_blocked`.  That factor ``L``
draws the field (gamma, gamma*) = L z and certifies the observed block
D11 for the mode-finder.  With ``L`` partitioned like the prior,
D21 = L21 L11' and D11 = L11 L11', and the draw is gamma = L11 z1, so the
oracle's predictor is exactly D21 D11^-1 gamma = L21 z1: one product with
the draw's own normals, and no solve with D11.

Once its scenarios are recorded, a replication is dead: nothing reads it
again.  It lends the next replication its prior's (n + n*)^2 buffer and
n x (n + n*) rows, and its n x n buffer, in which the ``sic_true`` fit's
factor is made, so only the first replication of a run allocates them;
every number is the same as with fresh buffers.

Replications draw independent streams from (seed, replication index),
so results are identical regardless of execution order.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass

import numpy as np

from ._lapack import workspace
from .covariance import BlockedCovariance, MaternParams
from .covariance import build_blocked, check_site_count, cross_covariance
from .dataio import ConfigError, parse_matern, read_float, read_int, read_names
from .dataio import write_csv, write_json
from .estimate import estimate
from .families import poisson_kernel
from .fixed_point import fit_posterior
from .metrics import rl2
from .spatial import SpatialData, krige, site_problem

ORACLE = "oracle"
SIC_TRUE = "sic_true"
SIC_ESTIMATED = "sic_estimated"
SCENARIOS = (ORACLE, SIC_TRUE, SIC_ESTIMATED)

# Square side length for 400 observed sites, calibrated so that the
# oracle's relative loss at unobserved sites is about one half under the
# unit-range exponential covariance (the site layout is a free choice).
DEFAULT_SIDE = 20.0

DEFAULT_OMEGA = MaternParams(0.5, 1.0)

MAX_FAILURE_FRACTION = 0.05


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
    """Settings, each checked by :mod:`dataio`'s readers as its ``simulate`` config
    key, so a config section's values pass as they are; ``omega`` None is the default.
    ``n + n_star`` is held to :func:`covariance.check_site_count` before any draw."""

    n: int = 400
    n_star: int = 400
    beta: tuple = (8.0, 0.0)
    omega: MaternParams = DEFAULT_OMEGA
    replications: int = 100
    seed: int = 0
    side: float = DEFAULT_SIDE
    scenarios: tuple = (ORACLE, SIC_TRUE)

    def __post_init__(self):
        def put(key, value):
            object.__setattr__(self, key, value)

        for key, low in (("n", 1), ("n_star", 1), ("replications", 1), ("seed", 0)):
            put(key, read_int(vars(self), key, None, low, "simulate"))
        if self.omega is None:
            put("omega", DEFAULT_OMEGA)
        elif not isinstance(self.omega, MaternParams):
            put("omega", parse_matern(self.omega, "simulate.omega"))
        put("side", read_float(self.side, "simulate.side", positive=True))
        put("scenarios", read_names(self.scenarios, SCENARIOS, "simulate.scenarios"))
        beta = self.beta.tolist() if isinstance(self.beta, np.ndarray) else self.beta
        try:  # a ValueError: not two entries, or one not a finite number (ConfigError)
            b0, b1 = beta if isinstance(beta, (list, tuple)) else ()
            put("beta", tuple(read_float(b, "simulate.beta") for b in (b0, b1)))
        except ValueError:
            msg = f"simulate.beta must be two finite numbers: {self.beta!r}"
            raise ConfigError(msg) from None
        check_site_count(self.n + self.n_star, "simulate.n + simulate.n_star")


@dataclass(eq=False)
class SimDataset:
    """One replication: its sites, their joint prior, the true effects drawn
    and the standard normals ``z`` that drew them, (gamma, gamma*) = L z.

    ``buffer`` is the n x n array that its ``sic_true`` fit's factor is
    made in.
    """

    observed: SpatialData
    unobserved: SpatialData
    blocked: BlockedCovariance
    gamma: np.ndarray
    gamma_star: np.ndarray
    z: np.ndarray
    buffer: np.ndarray


def generate_dataset(
    config: SimConfig, rep_index: int, spent: SimDataset | None = None
) -> SimDataset:
    """One replication's dataset, deterministic in (seed, rep_index).

    The field is the prior's factor times the normals ``z``, which are kept
    for the oracle.  ``spent``, a replication of ``config`` that its owner
    no longer reads, lends its prior (:func:`covariance.build_blocked`) and
    its buffer.
    """
    rng = np.random.default_rng([config.seed, rep_index])
    n, n_star = config.n, config.n_star
    if spent is None:
        prior, buffer = None, workspace(None, (n, n))
    else:
        prior, buffer = spent.blocked, spent.buffer
    coords_obs = rng.uniform(0.0, config.side, size=(n, 2))
    coords_unobs = rng.uniform(0.0, config.side, size=(n_star, 2))
    x_obs = rng.standard_normal(n)
    x_unobs = rng.standard_normal(n_star)
    blocked = build_blocked(config.omega, coords_obs, coords_unobs, prior)
    z = rng.standard_normal(n + n_star)
    gamma_joint = blocked.chol @ z
    gamma, gamma_star = gamma_joint[:n], gamma_joint[n:]
    beta = np.asarray(config.beta, dtype=float)
    X = np.column_stack([np.ones(n), x_obs])
    X_unobs = np.column_stack([np.ones(n_star), x_unobs])
    y = rng.poisson(np.exp(X @ beta + gamma)).astype(float)
    observed = SpatialData(y=y, X=X, coords=coords_obs, kernel=poisson_kernel())
    unobserved = SpatialData(None, X_unobs, coords_unobs, observed.kernel)
    return SimDataset(observed, unobserved, blocked, gamma, gamma_star, z, buffer)


@dataclass(eq=False)
class SimResult:
    config: SimConfig
    aggregates: dict          # scenario -> {metric: mean value}
    records: list             # per-replication dicts for auditing
    failures: dict            # scenario -> count of excluded replications


def _scenario_metrics(dataset: SimDataset, scenario: str, config: SimConfig) -> dict:
    """One replication's record of ``scenario``: the table's metrics.

    A ``sic_estimated`` record also holds the estimate's own record
    (:attr:`estimate.EstimateResult.record`: its estimates, fits, steps
    and stop), which the aggregate leaves out; an estimate that did not
    converge raises ``RuntimeError`` naming its stop, as a mode fit that
    did not converge raises, so the replication is recorded as failed.
    """
    truth, truth_star = dataset.gamma, dataset.gamma_star
    zeros = dict.fromkeys(_TABLE_COLUMNS[3:], 0.0)  # the rmse columns
    if scenario == ORACLE:
        n = dataset.blocked.n_observed
        pred_star = dataset.blocked.chol[n:, :n] @ dataset.z[:n]  # D21 D11^-1 gamma
        return dict(rl2=0.0, rl2_star=rl2(truth_star, pred_star), **zeros)
    observed, unobserved, blocked = dataset.observed, dataset.unobserved, dataset.blocked
    beta = np.asarray(config.beta, dtype=float)
    if scenario == SIC_TRUE:
        glmm = site_problem(observed, blocked, beta)
        report = fit_posterior(glmm, dataset.buffer)
        d12, record = blocked.d12, zeros
    else:  # estimate (beta, omega1, omega2) first, from the estimator's start
        fit = estimate(observed, None, config.omega)
        fit.check_converged()
        report = fit.report
        d12 = cross_covariance(fit.omega_hat, observed.coords, unobserved.coords)
        record = dict(
            rmse_beta0=(fit.beta_hat[0] - beta[0]) ** 2,
            rmse_beta1=(fit.beta_hat[1] - beta[1]) ** 2,
            rmse_omega1=(fit.omega_hat.omega1 - config.omega.omega1) ** 2,
            rmse_omega2=(fit.omega_hat.omega2 - config.omega.omega2) ** 2,
            **fit.record,
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
    """Per-replication records plus the configuration, every field of it."""
    payload = {
        "config": {**asdict(result.config), "omega": list(astuple(result.config.omega))},
        "failures": result.failures,
        "records": result.records,
    }
    write_json(path, payload)
