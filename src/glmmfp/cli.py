"""Command-line front end.

Subcommands:

* ``fit``       - posterior mode and Laplace covariance of the site effects
* ``predict``   - fit on training sites, krige effects/responses to test sites
* ``simulate``  - Monte Carlo evaluation of the spatial predictor
* ``validate``  - repeated random train/test splits scored by predictive deviance
* ``verify``    - randomized factorization-identity suite and exactness
                  adjudication against the quadrature oracle

Exit codes: 0 success, 1 usage, validation or output error, 2 numerical
failure, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
import time
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np

from . import dataio, oracle, simulate
from .covariance import MaternParams, SingularCovarianceError, _check_sites
from .covariance import build_blocked, check_site_count, cross_covariance
from .dataio import ConfigError, RunConfig
from .estimate import estimate
from .families import check_support, deviance_gof
from .fixed_point import fit_posterior
from .oracle import CapabilityError
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


def _sites(cfg: RunConfig, dataset: dataio.Dataset, tier=None, fitted=True):
    """The dataset's sites: response if any, the tier's design, coordinates, family."""
    X = dataio.build_design(dataset, cfg, tier, fitted)
    kernel = dataio.make_kernel(cfg, dataset.trials)
    return SpatialData(y=dataset.y, X=X, coords=dataset.coords, kernel=kernel)


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


def _site_fit(cfg: RunConfig, data: SpatialData):
    """Return (the observed sites' mode fit, its matern_params, the estimate or None).

    With fixed parameters the fit is made on the observed sites' prior
    alone; with estimated ones it is the :class:`estimate.EstimateResult`'s
    own fit at its optimum, from the estimator's start.
    """
    _check_params(cfg, data.X.shape[1])
    if cfg.beta != dataio.ESTIMATE:
        problem = site_problem(data, build_blocked(cfg.matern, data.coords), cfg.beta)
        return fit_posterior(problem), cfg.matern, None
    matern_given = isinstance(cfg.matern, MaternParams)
    init_omega = cfg.matern if matern_given else MaternParams(0.5, 1.0)
    result = estimate(data, None, init_omega, fit_omega=not matern_given)
    return result.report, result.omega_hat, result


def _fit_and_krige(cfg, observed: SpatialData, unobserved: SpatialData):
    """Fit the mode at the ``observed`` sites and krige it to the ``unobserved`` ones,
    both made by :func:`_sites`: the :class:`SpatialPrediction` and the estimate,
    ``None`` if none.  The sites are checked together first, so that sites over the
    budget (:func:`check_site_count`) are refused before any prior or fit is made."""
    _check_sites(observed.coords, unobserved.coords)
    report, omega, result = _site_fit(cfg, observed)
    d12 = cross_covariance(omega, observed.coords, unobserved.coords)
    return krige(report, unobserved, d12), result


def _exit_code(report, result) -> int:
    """Exit 3 unless the mode fit converged, and the estimate ``result`` too if one ran."""
    if result is not None and not result.converged:
        log.warning("the estimate of the parameters did not converge")
        return EXIT_NONCONVERGENCE
    return EXIT_OK if report.converged else EXIT_NONCONVERGENCE


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_fit(args, cfg: RunConfig) -> int:
    dataset = dataio.load_dataset(args.data, cfg)
    observed = _sites(cfg, dataset)
    report, omega, result = _site_fit(cfg, observed)
    dataio.write_csv(args.out / "xi.csv", ("site", "xi"), enumerate(report.xi))
    dataio.write_symmetric_csv(args.out / "Xi.csv", report.Xi)
    payload = {
        "converged": report.converged,
        "iterations": report.iterations,
        "residual": report.residual,
        "step_halvings": report.halvings,
        "eta_clamped": report.eta_clamped,
        "beta": [float(b) for b in report.problem.beta],
        "omega": list(astuple(omega)),
    }
    if result is not None:
        payload["estimation"] = result.record
    dataio.write_json(args.out / "report.json", payload)
    return _exit_code(report, result)


def cmd_predict(args, cfg: RunConfig) -> int:
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
    if test.n < 1:
        raise ConfigError("no test rows")
    pred, result = _fit_and_krige(cfg, _sites(cfg, train), _sites(cfg, test, fitted=False))
    dataio.write_csv(
        args.out / "predictions.csv",
        ("site", "xi_star", "y_hat_star", "u_hat_star"),
        zip(range(len(pred.xi_star)), pred.xi_star, pred.y_hat_star, pred.u_hat_star),
    )
    return _exit_code(pred.report, result)


def cmd_simulate(args, cfg: RunConfig) -> int:
    config = SimConfig(**{"seed": cfg.seed, **cfg.simulate})  # which checks every key
    config = replace(config, seed=_option(args, "seed", 0, config.seed),
                     replications=_option(args, "replications", 1, config.replications))
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


def _option(args, name: str, low: int, default) -> int:
    """Flag ``--name``, an integer in [low, inf], else a ConfigError naming the flag;
    ``default``, a checked config value, when the flag is not given."""
    flag, value = f"--{name}", getattr(args, name)
    if value is None:
        return default
    return dataio.read_int({flag: value}, flag, None, low, "")


def cmd_validate(args, cfg: RunConfig) -> int:
    seed = _option(args, "seed", 0, cfg.seed)
    dataset = dataio.load_dataset(args.data, cfg)
    check_support(dataio.make_kernel(cfg, dataset.trials), dataset.y)  # as fit does, once
    val = cfg.validate
    splits = dataio.read_int(val, "splits", 20, 1, "validate")
    n_train = dataio.read_int(val, "n_train", 80, 1, "validate")
    n_test = dataio.read_int(val, "n_test", 20, 1, "validate")
    check_site_count(n_train + n_test, "validate.n_train + validate.n_test")
    tiers = dataio.read_names(val.get("tiers", dataio.TIERS), dataio.TIERS,
                              "validate.tiers")
    for tier in tiers:
        # a tier's design width is the same on every split
        width = dataio.build_design(dataset, cfg, tier).shape[1]
        _check_params(cfg, width)
        if cfg.beta == dataio.ESTIMATE and n_train < width:
            raise ConfigError(
                f"validate.n_train {n_train} is below the {tier!r} design's {width} "
                f"columns: no split can estimate beta"
            )
    if n_train + n_test > dataset.n:
        raise ConfigError(
            f"split sizes {n_train}+{n_test} exceed the {dataset.n} dataset rows"
        )
    rows = []
    failures = []
    for split in range(splits):
        perm = np.random.default_rng([seed, split]).permutation(dataset.n)
        train, test = map(dataset.subset, (perm[n_test : n_test + n_train], perm[:n_test]))
        for tier in tiers:
            try:
                g2 = _validate_split(cfg, train, test, tier)
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


def _validate_split(cfg, train, test, tier) -> float:
    """Predictive deviance at the ``test`` rows of the ``tier`` fit on the ``train``
    rows, under the kernel that the test sites were kriged with."""
    observed = _sites(cfg, train, tier)  # first, so its design's error is the one recorded
    unobserved = _sites(cfg, test, tier, fitted=False)
    prediction, result = _fit_and_krige(cfg, observed, unobserved)
    if not prediction.report.converged:
        raise RuntimeError("mode-finder did not converge on a split")
    if result is not None:
        result.check_converged()
    return deviance_gof(unobserved.kernel, unobserved.y, prediction.y_hat_star)


def cmd_verify(args, cfg: RunConfig) -> int:
    ver = cfg.verify
    n_identity = dataio.read_int(ver, "identity_instances", 100, 1, "verify")
    order = dataio.read_int(ver, "order", 64, 8, "verify", oracle.MAX_QUADRATURE_ORDER)
    battery_seed = dataio.read_int(ver, "battery_seed", cfg.seed, 0, "verify")
    seed = _option(args, "seed", 0, battery_seed)

    identity_max = oracle.identity_max_gap(np.random.default_rng([seed, 0]), n_identity)
    instances = []
    for problem in oracle.verify_battery(np.random.default_rng([seed, 1])):
        report = oracle.adjudicate_exactness(problem, order=order)
        instances.append(
            {
                "family": problem.kernel.family,
                "n": problem.n,
                "r": problem.r,
                "mean_gap": report.mean_gap,
                "cov_gap": report.cov_gap,
                "marginal_gap": report.marginal_gap,
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
    # "not <=" fails on a NaN gap
    if not identity_max <= 1e-8:
        log.error("factorization identity violated: max gap %.3e", identity_max)
        return EXIT_NUMERICAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


_COMMANDS = {
    "fit": cmd_fit,
    "predict": cmd_predict,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
    "verify": cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    """A usage error, of the command or a subcommand, is a ConfigError: exit 1, not 2."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache  # built once a process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="glmmfp",
        description="Posterior mode and Laplace covariance of random effects "
        "in non-Gaussian mixed models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", type=Path, default=".")
        p.add_argument("--quiet", action="store_true")
        if name in ("fit", "predict", "validate"):
            p.add_argument("--data", required=True)
        if name in ("simulate", "validate", "verify"):
            p.add_argument("--seed", type=int, default=None)
        if name == "simulate":
            p.add_argument("--replications", type=int, default=None)
        if name == "predict":
            p.add_argument("--test", default=None)
    return parser


def _check_out(out: Path):
    """Reject an ``--out`` that no writer could create: a file is in its way."""
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out {out}: {existing} is not a directory")


def main(argv=None) -> int:
    out = None  # no result set before the flags are read
    try:
        args = _build_parser().parse_args(argv)
        logging.basicConfig(
            level=logging.WARNING if args.quiet else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
        )
        out = args.out = dataio.ResultDir(args.out)
        _check_out(out.path)
        return _COMMANDS[args.command](args, dataio.load_config(args.config))
    except _NUMERICAL_ERRORS as exc:
        # the files written say what failed, such as simulate's audit.json
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:  # ConfigError, a usage error too, included
        if out is not None:
            out.discard()  # no partial result set
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry():  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
