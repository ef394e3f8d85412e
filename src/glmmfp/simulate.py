"""Monte Carlo evaluation of spatial prediction accuracy.

Generates synthetic spatial count datasets (Poisson responses over a
latent field with exponential-family Matern prior), runs up to three
evaluation scenarios per replication, and aggregates relative-loss and
RMSE metrics:

* ``oracle``        - true parameters and true random effects known;
                      unobserved effects predicted by the conditional
                      mean D21 D11^-1 gamma (ground-truth ceiling).
* ``sic_true``      - true parameters known, effects predicted by the
                      fixed-point solver.
* ``sic_estimated`` - parameters estimated first (Laplace-surrogate ML),
                      then the fixed-point solver is applied.

Replications draw independent streams from (seed, replication index),
so results are identical regardless of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .covariance import MaternParams, _blocked_and_factor, build_blocked
from .dataio import fmt, write_json
from .estimate import EstimateOptions, SpatialData, estimate
from .families import poisson_kernel
from .fixed_point import FitOptions
from .metrics import rl2
from .spatial import SpatialPrediction, SpatialProblem, conditional_mean, fit_predict

ORACLE = "oracle"
SIC_TRUE = "sic_true"
SIC_ESTIMATED = "sic_estimated"
SCENARIOS = (ORACLE, SIC_TRUE, SIC_ESTIMATED)

# Square side length for 400 observed sites, calibrated so that the
# oracle's relative loss at unobserved sites is about one half under the
# unit-range exponential covariance (the site layout is a free choice).
DEFAULT_SIDE = 20.0

MAX_FAILURE_FRACTION = 0.05


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
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.n < 1 or self.n_star < 1:
            raise ValueError("site counts must be >= 1")
        if self.side <= 0:
            raise ValueError("side length must be positive")
        unknown = set(self.scenarios) - set(SCENARIOS)
        if unknown:
            raise ValueError(f"unknown scenarios: {sorted(unknown)}")


@dataclass(eq=False)
class SimDataset:
    problem: SpatialProblem
    coords_obs: np.ndarray
    coords_unobs: np.ndarray
    gamma: np.ndarray
    gamma_star: np.ndarray
    y_star: np.ndarray
    x_obs: np.ndarray
    x_unobs: np.ndarray


def generate_dataset(config: SimConfig, rep_index: int) -> SimDataset:
    """One replication's dataset, deterministic in (seed, rep_index)."""
    rng = np.random.default_rng([config.seed, rep_index])
    n, n_star = config.n, config.n_star
    coords_obs = rng.uniform(0.0, config.side, size=(n, 2))
    coords_unobs = rng.uniform(0.0, config.side, size=(n_star, 2))
    x_obs = rng.standard_normal(n)
    x_unobs = rng.standard_normal(n_star)
    blocked, chol = _blocked_and_factor(config.omega, coords_obs, coords_unobs)
    gamma_joint = chol @ rng.standard_normal(n + n_star)
    gamma, gamma_star = gamma_joint[:n], gamma_joint[n:]
    beta = np.asarray(config.beta, dtype=float)
    X = np.column_stack([np.ones(n), x_obs])
    Xstar = np.column_stack([np.ones(n_star), x_unobs])
    eta = X @ beta + gamma
    eta_star = Xstar @ beta + gamma_star
    y = rng.poisson(np.exp(eta)).astype(float)
    y_star = rng.poisson(np.exp(eta_star)).astype(float)
    problem = SpatialProblem(
        y=y, X=X, Xstar=Xstar, blocked=blocked, beta=beta, kernel=poisson_kernel()
    )
    return SimDataset(
        problem=problem,
        coords_obs=coords_obs,
        coords_unobs=coords_unobs,
        gamma=gamma,
        gamma_star=gamma_star,
        y_star=y_star,
        x_obs=x_obs,
        x_unobs=x_unobs,
    )


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
            rl2=rl2(truth, pred.xi),
            rl2_star=rl2(truth_star, pred.xi_star),
            **zeros,
        )
    # parameter-estimation scenario: estimate (beta, omega1, omega2) first
    data = SpatialData(
        y=dataset.problem.y,
        X=dataset.problem.X,
        coords=dataset.coords_obs,
        kernel=dataset.problem.kernel,
    )
    init_beta = np.array([np.log(np.mean(dataset.problem.y) + 0.5), 0.0])
    fit = estimate(data, init_beta, config.omega, EstimateOptions())
    blocked_hat = build_blocked(fit.omega_hat, dataset.coords_obs, dataset.coords_unobs)
    problem_hat = SpatialProblem(
        y=dataset.problem.y,
        X=dataset.problem.X,
        Xstar=dataset.problem.Xstar,
        blocked=blocked_hat,
        beta=fit.beta_hat,
        kernel=dataset.problem.kernel,
    )
    pred = fit_predict(problem_hat, FitOptions())
    _require_converged(pred)
    beta = np.asarray(config.beta, dtype=float)
    return dict(
        rl2=rl2(truth, pred.xi),
        rl2_star=rl2(truth_star, pred.xi_star),
        rmse_beta0=(fit.beta_hat[0] - beta[0]) ** 2,
        rmse_beta1=(fit.beta_hat[1] - beta[1]) ** 2,
        rmse_omega1=(fit.omega_hat.omega1 - config.omega.omega1) ** 2,
        rmse_omega2=(fit.omega_hat.omega2 - config.omega.omega2) ** 2,
    )


def _require_converged(pred: SpatialPrediction):
    if not pred.report.converged:
        raise RuntimeError("fixed-point solver did not converge")


def run_scenarios(config: SimConfig) -> SimResult:
    """Run all configured scenarios across the replications."""
    records = []
    failures = dict.fromkeys(config.scenarios, 0)
    sums = {s: None for s in config.scenarios}
    counts = dict.fromkeys(config.scenarios, 0)
    for rep in range(config.replications):
        dataset = generate_dataset(config, rep)
        record = {"replication": rep}
        for scenario in config.scenarios:
            try:
                metrics = _scenario_metrics(dataset, scenario, config)
            except Exception as exc:  # noqa: BLE001 - recorded, never dropped
                failures[scenario] += 1
                record[scenario] = {"failed": True, "error": str(exc)}
                continue
            record[scenario] = metrics
            counts[scenario] += 1
            if sums[scenario] is None:
                sums[scenario] = dict.fromkeys(metrics, 0.0)
            for k, v in metrics.items():
                sums[scenario][k] += v
        records.append(record)
    for scenario, bad in failures.items():
        if bad > MAX_FAILURE_FRACTION * config.replications:
            raise RuntimeError(
                f"{bad}/{config.replications} replications failed in "
                f"scenario {scenario!r}"
            )
    aggregates = {}
    for scenario in config.scenarios:
        if counts[scenario] == 0:
            continue
        agg = {k: v / counts[scenario] for k, v in sums[scenario].items()}
        # RMSE aggregates are root mean squared errors, not mean squares
        for k in ("rmse_beta0", "rmse_beta1", "rmse_omega1", "rmse_omega2"):
            agg[k] = float(np.sqrt(agg[k]))
        aggregates[scenario] = agg
    return SimResult(
        config=config, aggregates=aggregates, records=records, failures=failures
    )


_TABLE_COLUMNS = (
    "scenario", "rl2", "rl2_star",
    "rmse_beta0", "rmse_beta1", "rmse_omega1", "rmse_omega2",
)


def write_table_csv(result: SimResult, path):
    """Aggregate metrics, one row per scenario."""
    lines = [",".join(_TABLE_COLUMNS)]
    for scenario in result.config.scenarios:
        if scenario not in result.aggregates:
            continue
        agg = result.aggregates[scenario]
        lines.append(
            ",".join([scenario] + [fmt(agg[c]) for c in _TABLE_COLUMNS[1:]])
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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
