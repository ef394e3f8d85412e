"""One fresh benchmark process: set up, run its commands, check their outputs.

Usage: ``python3 bench/child.py PLAN.json`` where PLAN.json (written by
``run.py``) holds the workload name, the command keys, the work
directory, whether to trace, and the path of the result file to write.
Set-up ends when the package is imported and the inputs are written;
its CPU time counts from the start of this process, and the parent
measures its wall time from before it started this interpreter.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import speed
import tracing
from workloads import WORKLOADS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def cpu_seconds() -> float:
    """CPU time of this process, all threads.  Linux leaves out the time a
    virtual machine's host takes the core away (steal), which wall time counts."""
    return time.process_time()


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


def run_command(cli, argv) -> dict:
    """Run one CLI command in this process and time it."""
    cpu0, start = cpu_seconds(), time.perf_counter()
    rc, error = None, None
    try:
        rc = cli.main(argv)
    except Exception as exc:  # noqa: BLE001 - a raising command is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    return {"rc": rc, "error": error,
            "wall_s": time.perf_counter() - start, "cpu_s": cpu_seconds() - cpu0}


def main(plan_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    import glmmfp.cli

    workload = WORKLOADS[plan["workload"]]
    workdir = Path(plan["workdir"])
    workload.prepare(workdir, plan["keys"])
    ready, ready_cpu = time.monotonic(), cpu_seconds()
    # the machine's speed just after set-up
    setup_kernel_s = statistics.median(speed.kernel_cpu_s(speed.SETUP_KERNEL) for _ in range(3))

    tracer = tracing.Tracer()
    # A traced plan runs each command untraced and traced in this one process,
    # alternating which goes first, so that the overhead is measured side by side.
    passes = ((False, True), (True, False)) if plan["trace"] else ((False,),)
    ops = []
    kernel = speed.kernel_cpu_s(workload.kernel)
    for index, key in enumerate(plan["keys"]):
        for traced in passes[index % len(passes)]:
            out = workdir / f"{plan['tag']}-{index}{'-traced' if traced else ''}"
            patches = tracing.install_glmmfp(tracer) if traced else []
            try:
                op = run_command(glmmfp.cli, workload.argv(workdir, key, out))
            finally:
                tracing.uninstall(patches)
            # the machine's speed around this command: the kernel before and after it
            before, kernel = kernel, speed.kernel_cpu_s(workload.kernel)
            ops.append({**op, "key": key, "out": str(out), "traced": traced,
                        "kernel_s": (before + kernel) / 2})

    # Checks run untimed and untraced, after every command.
    for op in ops:
        op["attempted"], op["failed"], op["problems"] = workload.outcome(
            workdir, op["key"], Path(op["out"]), op["rc"], op["error"]
        )
    if plan["repeat"] and ops:
        first = Path(ops[0]["out"])
        again = workdir / f"{plan['tag']}-repeat"
        op = run_command(glmmfp.cli, workload.argv(workdir, ops[0]["key"], again))
        attempted, failed, problems = workload.outcome(
            workdir, ops[0]["key"], again, op["rc"], op["error"]
        )
        if not problems:
            problems = checks.check_repeat(read_dir(first), read_dir(again))
        ops.append({"key": ops[0]["key"], "repeat": True, "attempted": attempted,
                    "failed": failed, "problems": problems})

    result = {
        "ready": ready,
        "ready_cpu": ready_cpu,
        "setup_kernel_s": setup_kernel_s,
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
        "spans": tracer.spans if plan["trace"] else None,
    }
    Path(plan["result"]).write_text(json.dumps(result))


def read_dir(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


if __name__ == "__main__":
    main(sys.argv[1])
