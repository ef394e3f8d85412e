"""The three workloads: inputs from the seed, one operation's CLI command,
and how its outputs are counted and checked.

Each workload is a closed loop: one caller issues CLI commands one after
another, each waiting for the previous one.  The parent process
(``run.py``) only draws the operation keys from the seed; the methods
that touch the package run in the child (``child.py``).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import checks

REFERENCE = Path(__file__).with_name("estimate_reference.json")


class Workload:
    name: str
    why: str
    sizes: dict
    nominal_op_s: float     # one command's wall time at 1 BLAS thread, 2-vCPU Xeon VM
    repeat_check = False    # rerun the first command and compare its bytes
    kernel = ("dense", "small", "vector", "python")  # speed.PARTS whose speed tracks it
    processes = 6           # fresh processes per untraced run; setup_s is their median

    def op_count(self, seconds: float) -> int:
        """Commands per run: about ``seconds`` of work, the same on every commit."""
        return max(4, round(seconds / self.nominal_op_s))

    def keys(self, seed: int, count: int) -> list:
        """One input key per command, drawn from the workload seed."""
        rng = random.Random(f"{self.name}/{seed}")
        return [rng.randrange(2**31) for _ in range(count)]

    def config(self) -> dict:
        raise NotImplementedError

    def prepare(self, workdir: Path, keys) -> None:
        """Write the inputs of these commands (part of set-up)."""
        (workdir / "config.json").write_text(json.dumps(self.config()))

    def argv(self, workdir: Path, key, out: Path) -> list:
        raise NotImplementedError

    def outcome(self, workdir: Path, key, out: Path, rc, error):
        """(operations attempted, operations failed, check problems)."""
        raise NotImplementedError


class SimulateN400(Workload):
    name = "simulate-n400"
    why = ("acceptance 5: glmmfp simulate, n=n*=400, oracle+sic_true, 5 replications a command; "
           "the 800x800 covariance Cholesky, large-n primal solve and prediction dominate")
    sizes = {"n": 400, "n_star": 400, "replications": 5, "scenarios": ["oracle", "sic_true"]}
    nominal_op_s = 0.62
    repeat_check = True
    kernel = ("dense",)     # its time is mostly 800x800 Choleskys and matrix products

    def config(self):
        return {"simulate": self.sizes}

    def argv(self, workdir, key, out):
        return ["simulate", "--config", str(workdir / "config.json"), "--out", str(out),
                "--seed", str(key), "--quiet"]

    def outcome(self, workdir, key, out, rc, error):
        reps = self.sizes["replications"]
        problems = checks.check_exit(rc, error)
        if problems:
            return reps, reps, problems
        audit = json.loads((out / "audit.json").read_text())
        failed = sum(
            any(isinstance(v, dict) and v.get("failed") for v in record.values())
            for record in audit["records"]
        )
        return reps, failed, checks.check_simulate((out / "table.csv").read_text(), audit)


class EstimateN100(Workload):
    name = "estimate-n100"
    why = ("glmmfp fit with beta and matern estimated, on 100-site write_synthetic_counts datasets; "
           "~300 small solves a fit, each needing log det Xi and a fresh build_blocked")
    sizes = {"n_sites": 100, "pool": 16, "family": "poisson"}
    nominal_op_s = 1.25     # so that a 20 s run fits each dataset of the pool once
    processes = 3           # a process's first fit runs cold; fewer of them, steadier median

    def keys(self, seed, count):
        # dataset seeds from the pool whose reference estimates are recorded
        rng = random.Random(f"{self.name}/{seed}")
        order = rng.sample(range(self.sizes["pool"]), self.sizes["pool"])
        return [order[i % len(order)] for i in range(count)]

    def config(self):
        return {"family": self.sizes["family"], "beta": "estimate", "matern": "estimate"}

    def prepare(self, workdir, keys):
        from glmmfp import dataio

        super().prepare(workdir, keys)
        for key in sorted(set(keys)):
            dataio.write_synthetic_counts(
                workdir / f"counts-{key}.csv", n_sites=self.sizes["n_sites"], seed=key
            )

    def argv(self, workdir, key, out):
        return ["fit", "--config", str(workdir / "config.json"),
                "--data", str(workdir / f"counts-{key}.csv"), "--out", str(out), "--quiet"]

    def outcome(self, workdir, key, out, rc, error):
        problems = checks.check_exit(rc, error)
        if problems:
            return 1, 1, problems
        report = json.loads((out / "report.json").read_text())
        reference = json.loads(REFERENCE.read_text())["datasets"][str(key)]
        start = start_objective(workdir / "config.json", workdir / f"counts-{key}.csv")
        problems = checks.check_estimate(report, start, reference)
        converged = report.get("estimation", {}).get("optimizer_converged", False)
        return 1, 0 if converged else 1, problems


def start_objective(config_path: Path, data_path: Path) -> float:
    """The Laplace surrogate at the CLI's start point for estimation."""
    import numpy as np
    from glmmfp import dataio, families
    from glmmfp.covariance import MaternParams
    from glmmfp.estimate import SpatialData, approx_loglik

    cfg = dataio.load_config(config_path)
    data = dataio.load_dataset(data_path, cfg)
    X = dataio.build_design(data, cfg)
    kernel = dataio.make_kernel(cfg, data.trials)
    eta0, _ = families.initial_eta(kernel, data.y)
    beta0 = np.linalg.lstsq(X, eta0, rcond=None)[0]
    return approx_loglik(
        SpatialData(y=data.y, X=X, coords=data.coords, kernel=kernel),
        beta0, MaternParams(0.5, 1.0),
    )


class VerifyBattery(Workload):
    name = "verify-battery"
    why = ("glmmfp verify per battery seed: 100 identity instances, 26 adjudications with "
           "order-doubling Gauss-Hermite, r<=2; no covariance or spatial work")
    sizes = {"identity_instances": 100, "order": 64, "instances": 26}
    nominal_op_s = 0.32

    def config(self):
        return {"verify": {k: self.sizes[k] for k in ("identity_instances", "order")}}

    def argv(self, workdir, key, out):
        return ["verify", "--config", str(workdir / "config.json"), "--out", str(out),
                "--seed", str(key), "--quiet"]

    def outcome(self, workdir, key, out, rc, error):
        problems = checks.check_exit(rc, error)
        if problems:
            return 1, 1, problems
        return 1, 0, checks.check_verify(json.loads((out / "verdicts.json").read_text()))


WORKLOADS = {w.name: w for w in (SimulateN400(), EstimateN100(), VerifyBattery())}
