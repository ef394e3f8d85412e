"""Command-line front end.

Subcommands:

* ``fit``       - posterior mode and Laplace covariance of the site effects
* ``predict``   - fit on training sites, krige effects/responses to test sites
* ``simulate``  - Monte Carlo evaluation of the spatial predictor
* ``validate``  - repeated random train/test splits scored by predictive deviance
* ``verify``    - randomized factorization-identity suite and exactness
                  adjudication against the quadrature oracle

Exit codes: 0 success, 1 validation or output error, 2 numerical
failure, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import sys
import time
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import dataio, oracle, simulate
from .covariance import PRIOR_BUDGET, MaternParams, SingularCovarianceError
from .covariance import build_blocked, cross_covariance
from .dataio import ConfigError, RunConfig
from .estimate import estimate
from .families import initial_eta
from .fixed_point import (
    FitOptions,
    GlmmProblem,
    fit_posterior,
    identity_gaps,
    random_identity_instance,
)
from .metrics import deviance_gof
from .oracle import CapabilityError, adjudicate_exactness
from .simulate import SimConfig, run_scenarios, write_audit_json, write_table_csv
from .spatial import SpatialData, krige, site_problem

log = logging.getLogger("glmmfp")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_NONCONVERGENCE = 3

_NUMERICAL_ERRORS = (
    SingularCovarianceError,
    CapabilityError,
    simulate.ScenarioFailureError,
    np.linalg.LinAlgError,
    FloatingPointError,
)


def _fit_options(cfg: RunConfig) -> FitOptions:
    max_iter = dataio.read_int(cfg.sic, "max_iter", FitOptions.max_iter, 1, "sic")
    tol = dataio.read_float(cfg.sic.get("tol", FitOptions.tol), "sic.tol", positive=True)
    return FitOptions(tol=tol, max_iter=max_iter)


def _sites(cfg: RunConfig, dataset: dataio.Dataset, tier=None) -> SpatialData:
    """The dataset's sites: response if any, the tier's design, coordinates, family."""
    X = dataio.build_design(dataset, cfg, tier)
    kernel = dataio.make_kernel(cfg, dataset.trials)
    return SpatialData(y=dataset.y, X=X, coords=dataset.coords, kernel=kernel)


def _default_beta_init(kernel, y, X) -> np.ndarray:
    eta0, _ = initial_eta(kernel, y)
    coef, *_ = np.linalg.lstsq(X, eta0, rcond=None)
    return coef


def _check_params(cfg: RunConfig, n_columns: int):
    """Reject a parameter spec that no fit on an ``n_columns`` design can use."""
    if cfg.matern is None:
        raise ConfigError("config must set 'matern' (parameters or 'estimate')")
    if cfg.beta is None:
        raise ConfigError("config must set 'beta' (values or 'estimate')")
    if cfg.beta == dataio.ESTIMATE:
        return
    if cfg.matern == dataio.ESTIMATE:
        raise ConfigError("estimating matern parameters requires beta='estimate'")
    if len(cfg.beta) != n_columns:
        raise ConfigError(
            f"beta has {len(cfg.beta)} entries but the design has "
            f"{n_columns} columns"
        )


def _site_fit(cfg: RunConfig, data: SpatialData, options: FitOptions):
    """Return (the observed sites' mode fit, its matern_params, estimate_meta_or_None).

    With fixed parameters the fit is made on the observed sites' prior
    alone; with estimated ones it is the estimate's own fit at its optimum.
    """
    _check_params(cfg, data.X.shape[1])
    if cfg.beta != dataio.ESTIMATE:
        problem = site_problem(data, build_blocked(cfg.matern, data.coords), cfg.beta)
        return fit_posterior(problem, options), cfg.matern, None
    matern_given = isinstance(cfg.matern, MaternParams)
    init_omega = cfg.matern if matern_given else MaternParams(0.5, 1.0)
    init_beta = _default_beta_init(data.kernel, data.y, data.X)
    result = estimate(
        data, init_beta, init_omega, fit_options=options, fit_omega=not matern_given
    )
    meta = {
        "beta_hat": [float(b) for b in result.beta_hat],
        "omega_hat": list(astuple(result.omega_hat)),
        "objective": result.objective_value,
        "optimizer_converged": result.converged,
        "optimizer_iterations": result.optimizer_iterations,
        "fits": result.fits,
        "failed_fits": result.failed_fits,
    }
    return result.report, result.omega_hat, meta


def _fit_and_krige(cfg, train, test, options, tier=None):
    """Fit the mode at the training sites and krige it to the test sites: the
    :class:`SpatialPrediction` and the estimate's metadata, ``None`` if none."""
    observed = _sites(cfg, train, tier)
    report, omega, est_meta = _site_fit(cfg, observed, options)
    d12 = cross_covariance(omega, observed.coords, test.coords)
    return krige(report, _sites(cfg, test, tier), d12), est_meta


def _exit_code(report, est_meta) -> int:
    """Exit 3 unless the mode fit converged, and the estimate too if one ran."""
    if est_meta is not None and not est_meta["optimizer_converged"]:
        log.warning("the estimate of the parameters did not converge")
        return EXIT_NONCONVERGENCE
    return EXIT_OK if report.converged else EXIT_NONCONVERGENCE


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    cfg = dataio.load_config(args.config)
    dataset = dataio.load_dataset(args.data, cfg)
    options = _fit_options(cfg)
    observed = _sites(cfg, dataset)
    report, omega, est_meta = _site_fit(cfg, observed, options)
    dataio.write_csv(args.out / "xi.csv", ("site", "xi"), enumerate(report.xi))
    dataio.write_symmetric_csv(args.out / "Xi.csv", report.Xi)
    payload = {
        "converged": report.converged,
        "iterations": report.iterations,
        "residual": report.residual,
        "step_halvings": report.halvings,
        "beta": [float(b) for b in report.problem.beta],
        "omega": list(astuple(omega)),
    }
    if est_meta:
        payload["estimation"] = est_meta
    dataio.write_json(args.out / "report.json", payload)
    return _exit_code(report, est_meta)


def cmd_predict(args) -> int:
    cfg = dataio.load_config(args.config)
    dataset = dataio.load_dataset(args.data, cfg)
    if args.test:
        train = dataset
        test = dataio.load_dataset(args.test, cfg, require_response=False)
    elif dataset.role is not None:
        train = dataset.subset(dataset.role == "train")
        test = dataset.subset(dataset.role == "test")
    else:
        raise ConfigError("predict needs --test sites or a 'role' column")
    if train.n < 1:
        raise ConfigError("no training rows")
    options = _fit_options(cfg)
    pred, est_meta = _fit_and_krige(cfg, train, test, options)
    dataio.write_csv(
        args.out / "predictions.csv",
        ("site", "xi_star", "y_hat_star", "u_hat_star"),
        zip(range(len(pred.xi_star)), pred.xi_star, pred.y_hat_star, pred.u_hat_star),
    )
    return _exit_code(pred.report, est_meta)


def cmd_simulate(args) -> int:
    cfg = dataio.load_config(args.config)
    sim = {"seed": cfg.seed, **cfg.simulate}
    if not sim.get("omega"):
        sim.pop("omega", None)
    if args.replications is not None:
        sim["replications"] = args.replications
    if args.seed is not None:
        sim["seed"] = args.seed
    # each count's least value; SimConfig checks beta itself
    counts = {"n": 1, "n_star": 1, "replications": 1, "seed": 0}
    for key, value in sim.items():
        name = f"simulate.{key}"
        if key in counts:
            sim[key] = dataio.read_int(sim, key, None, counts[key], "simulate")
        elif key == "omega":
            sim[key] = dataio.parse_matern(value, name)
        elif key == "side":
            sim[key] = dataio.read_float(value, name, positive=True)
        elif key == "scenarios":
            sim[key] = tuple(dataio.read_list(value, name))
    config = SimConfig(**sim)
    start = time.perf_counter()
    try:
        result = run_scenarios(config)
    except simulate.ScenarioFailureError as exc:
        # the records say which replications failed and why
        write_audit_json(exc.result, args.out / "audit.json")
        raise
    log.info("simulation finished in %.1f s", time.perf_counter() - start)
    write_table_csv(result, args.out / "table.csv")
    write_audit_json(result, args.out / "audit.json")
    return EXIT_OK


def _seed_option(args) -> int:
    """``--seed``, an integer in [0, inf]; anything else is a ConfigError naming it."""
    return dataio.read_int({"--seed": args.seed}, "--seed", None, 0, "")


def cmd_validate(args) -> int:
    cfg = dataio.load_config(args.config)
    seed = cfg.seed if args.seed is None else _seed_option(args)
    dataset = dataio.load_dataset(args.data, cfg)
    val = cfg.validate
    splits = dataio.read_int(val, "splits", 20, 1, "validate")
    n_train = dataio.read_int(val, "n_train", 80, 1, "validate")
    n_test = dataio.read_int(val, "n_test", 20, 1, "validate")
    if (n_train + n_test) ** 2 > PRIOR_BUDGET:
        raise ConfigError(
            f"validate.n_train + validate.n_test must be at most "
            f"{math.isqrt(PRIOR_BUDGET)}, a prior of {PRIOR_BUDGET} doubles: "
            f"{n_train} + {n_test}"
        )
    tiers = dataio.read_list(val.get("tiers", list(dataio.TIERS)), "validate.tiers")
    for tier in tiers:
        # a tier's design width is the same on every split
        _check_params(cfg, dataio.build_design(dataset, cfg, tier).shape[1])
    if n_train + n_test > dataset.n:
        raise ConfigError(
            f"split sizes {n_train}+{n_test} exceed the {dataset.n} dataset rows"
        )
    options = _fit_options(cfg)
    rows = []
    failures = []
    for split in range(splits):
        rng = np.random.default_rng([seed, split])
        perm = rng.permutation(dataset.n)
        test_idx, train_idx = perm[:n_test], perm[n_test : n_test + n_train]
        for tier in tiers:
            try:
                g2 = _validate_split(
                    cfg, dataset, train_idx, test_idx, tier, options
                )
                rows.append((split, tier, g2))
            except Exception as exc:  # noqa: BLE001 - recorded per split
                failures.append({"split": split, "tier": tier, "error": str(exc)})
    dataio.write_csv(args.out / "validation.csv", ("split", "tier", "g2"), rows)
    summary = {}
    for tier in tiers:
        vals = [g2 for _, t, g2 in rows if t == tier]
        if vals:
            summary[tier] = {"mean_g2": sum(vals) / len(vals), "splits": len(vals)}
    dataio.write_json(
        args.out / "summary.json", {"tiers": summary, "failures": failures}
    )
    return EXIT_OK if not failures else EXIT_NUMERICAL


def _validate_split(cfg, dataset, train_idx, test_idx, tier, options) -> float:
    train, test = dataset.subset(train_idx), dataset.subset(test_idx)
    prediction, _ = _fit_and_krige(cfg, train, test, options, tier)
    if not prediction.report.converged:
        raise RuntimeError("mode-finder did not converge on a split")
    kernel = dataio.make_kernel(cfg, test.trials)
    return deviance_gof(test.y, prediction.y_hat_star, kernel.trials, kernel.variance)


# instances per family in one verify battery
BATTERY_POISSON = 12
BATTERY_BINOMIAL = 10
BATTERY_GAUSSIAN = 4
# identity instances drawn and evaluated in one stack, which bounds its memory
IDENTITY_CHUNK = 1024


def _verify_battery(rng):
    """Small random model instances for the exactness adjudication."""
    from .families import binomial_kernel, gaussian_kernel, poisson_kernel

    specs = (
        ["poisson"] * BATTERY_POISSON
        + ["binomial"] * BATTERY_BINOMIAL
        + ["gaussian"] * BATTERY_GAUSSIAN
    )
    for family in specs:
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        X = rng.standard_normal((n, p))
        Z = rng.standard_normal((n, r))
        A = rng.standard_normal((r, r))
        D = 0.3 * (A @ A.T) + 0.3 * np.eye(r)
        beta = rng.uniform(-0.4, 0.8, size=p)
        gamma = np.linalg.cholesky(D) @ rng.standard_normal(r)
        eta = X @ beta + Z @ gamma
        if family == "poisson":
            kernel = poisson_kernel()
            y = rng.poisson(np.exp(np.clip(eta, -20, 5))).astype(float)
        elif family == "binomial":
            m = rng.integers(1, 8, size=n)
            kernel = binomial_kernel(m)
            prob = 1.0 / (1.0 + np.exp(-eta))
            y = rng.binomial(m.astype(int), prob).astype(float)
        else:
            kernel = gaussian_kernel(1.0)
            y = eta + rng.standard_normal(n)
        yield family, GlmmProblem(y=y, X=X, Z=Z, D=D, beta=beta, kernel=kernel)


def cmd_verify(args) -> int:
    cfg = dataio.load_config(args.config)
    ver = cfg.verify
    n_identity = dataio.read_int(ver, "identity_instances", 100, 1, "verify")
    order = dataio.read_int(ver, "order", 64, 8, "verify", oracle.MAX_QUADRATURE_ORDER)
    seed = _seed_option(args) if args.seed is not None else dataio.read_int(
        ver, "battery_seed", cfg.seed, 0, "verify"
    )

    rng = np.random.default_rng([seed, 0])
    chunk_max = []
    for start in range(0, n_identity, IDENTITY_CHUNK):
        size = min(IDENTITY_CHUNK, n_identity - start)
        chunk = [random_identity_instance(rng) for _ in range(size)]
        chunk_max.append(np.max(identity_gaps(chunk)))
    # np.max propagates a NaN gap, and "not <=" below fails on it
    identity_max = float(np.max(chunk_max))

    rng = np.random.default_rng([seed, 1])
    instances = []
    for family, problem in _verify_battery(rng):
        report = adjudicate_exactness(problem, order=order)
        instances.append(
            {
                "family": family,
                "n": problem.n,
                "r": problem.r,
                "mean_gap": report.mean_gap,
                "cov_gap": report.cov_gap,
                "oracle_error": report.oracle.error_estimate,
                "oracle_order": report.oracle.order_or_samples,
                "verdict": report.verdict,
            }
        )
    payload = {
        "identity": {"instances": n_identity, "max_gap": identity_max},
        "battery": instances,
        "order": order,
        "seed": seed,
    }
    dataio.write_json(args.out / "verdicts.json", payload)
    if not identity_max <= 1e-8:
        log.error("factorization identity violated: max gap %.3e", identity_max)
        return EXIT_NUMERICAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.cache  # built once a process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glmmfp",
        description="Posterior mode and Laplace covariance of random effects "
        "in non-Gaussian mixed models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_data in (
        ("fit", True),
        ("predict", True),
        ("simulate", False),
        ("validate", True),
        ("verify", False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", type=Path, default=".")
        p.add_argument("--quiet", action="store_true")
        if needs_data:
            p.add_argument("--data", required=True)
        if name in ("simulate", "validate", "verify"):
            p.add_argument("--seed", type=int, default=None)
        if name == "simulate":
            p.add_argument("--replications", type=int, default=None)
        if name == "predict":
            p.add_argument("--test", default=None)
    return parser


_COMMANDS = {
    "fit": cmd_fit,
    "predict": cmd_predict,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
    "verify": cmd_verify,
}


def _check_out(out: Path):
    """Reject an ``--out`` that no writer could create: a file is in its way."""
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out {out}: {existing} is not a directory")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    out = args.out = dataio.ResultDir(args.out)
    try:
        _check_out(out.path)
        return _COMMANDS[args.command](args)
    except _NUMERICAL_ERRORS as exc:
        # the files written say what failed, such as simulate's audit.json
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:  # ConfigError included
        out.discard()  # no partial result set
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry():  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
