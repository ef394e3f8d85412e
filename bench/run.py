"""Run one workload of the glmmfp benchmark and print its metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload simulate-n400 --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics: ``command_s`` (median CPU
seconds of one CLI command at the reference machine speed of ``speed.py``),
``setup_s`` (CPU seconds from interpreter start until the package is
imported and the inputs are written, at the reference speed, median of the
run's processes) and ``peak_rss_mb`` (the largest process).  Wall and raw
CPU times are printed beside them.  ``--trace 1`` runs a quarter as
many commands, each untraced and traced, and two of them at the default
BLAS thread count, and prints the per-layer metrics of
``layers.PER_LAYER``.  Failed operations and failed output checks are
printed by name; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Commands run in fresh ``python3 bench/child.py`` processes with the
BLAS pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import speed
import tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEADLINE_S = 170.0         # the whole run, so it ends within 180 s
PINNED_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def supported_percentile(n: int):
    """Highest percentile with at least ten of ``n`` samples beyond it, or None."""
    best = None
    for p in PERCENTILES:
        if round(n * (100 - p), 6) >= 1000:  # n (100 - p)/100 >= 10, exact for p = 99.9
            best = p
    return best


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile of ``values``."""
    ordered = sorted(values)
    rank = p / 100 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def failed_fraction(ops) -> float:
    """Failed operations over attempted operations."""
    attempted = sum(op["attempted"] for op in ops)
    return sum(op["failed"] for op in ops) / attempted if attempted else 0.0


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown (not a git checkout)"
    return "unknown"


class Runner:
    """Starts the child processes of one run and collects their results."""

    def __init__(self, workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S

    def spawn(self, tag, keys, *, trace=False, pinned=True, repeat=False) -> dict:
        plan = {
            "workload": self.workload.name, "keys": keys, "workdir": str(self.workdir),
            "tag": tag, "trace": trace, "repeat": repeat,
            "result": str(self.workdir / f"{tag}.result.json"),
        }
        plan_path = self.workdir / f"{tag}.plan.json"
        plan_path.write_text(json.dumps(plan))
        env = dict(os.environ)
        for var in BLAS_VARS:
            if pinned:
                env[var] = str(PINNED_THREADS)
            else:
                env.pop(var, None)
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(plan_path)],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - started),
            )
            reason = None if proc.returncode == 0 else (
                f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"
            )
        except subprocess.TimeoutExpired:
            reason = "timed out"
        if reason is None:
            result = json.loads(Path(plan["result"]).read_text())
            result["setup_s"] = result["ready"] - started
            return result
        print(f"benchmark process {tag} failed: {reason}", file=sys.stderr)
        ops = []
        for key in keys:
            attempted, failed, problems = self.workload.outcome(
                self.workdir, key, None, None, f"benchmark process {reason}"
            )
            ops.append({"key": key, "attempted": attempted, "failed": failed,
                        "problems": problems})
        return {"ops": ops, "setup_s": None, "peak_rss_mb": None, "env": None, "spans": None}


def times(result, key="wall_s", traced=False) -> list:
    return [op[key] for op in result["ops"]
            if key in op and op.get("traced", False) == traced]


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def timing_line(name, values, what) -> str:
    p = supported_percentile(len(values))
    tail = (f"p{p:g} {percentile(values, p):.4f} s is the highest percentile with "
            f">= 10 samples beyond it" if p else "no percentile has >= 10 samples beyond it")
    return f"{name:15s} {statistics.median(values):.4f} s    median of {len(values)} {what}; {tail}"


def at_reference_speed(seconds, parts, kernel_s) -> float:
    """CPU ``seconds`` measured while the reference kernel of ``parts`` took
    ``kernel_s``, scaled to a machine where it takes its reference time."""
    return seconds * speed.reference_s(parts) / kernel_s


def run_untraced(runner, keys):
    w = runner.workload
    chunks = [keys[i::w.processes] for i in range(w.processes)]
    results = [
        runner.spawn(f"p{i}", chunk, repeat=w.repeat_check and i == 0)
        for i, chunk in enumerate(chunks) if chunk
    ]
    ops = [op for r in results for op in r["ops"] if "cpu_s" in op]
    command = [at_reference_speed(op["cpu_s"], w.kernel, op["kernel_s"]) for op in ops]
    done = [r for r in results if r["setup_s"] is not None]
    setup = [at_reference_speed(r["ready_cpu"], speed.SETUP_KERNEL, r["setup_kernel_s"])
             for r in done]
    rss = [r["peak_rss_mb"] for r in done]
    lines = []
    metrics = {}
    if command:
        metrics["command_s"] = metric(statistics.median(command), "s")
        lines.append(timing_line("command_s", command, "commands, CPU at reference speed"))
        lines.append(timing_line("cpu_s", [op["cpu_s"] for op in ops], "commands (informational)"))
        lines.append(timing_line("wall_s", [op["wall_s"] for op in ops],
                                 "commands (informational)"))
        lines.append(timing_line("kernel_s", [op["kernel_s"] for op in ops],
                                 f"reference kernels ({'+'.join(w.kernel)}, "
                                 f"reference {speed.reference_s(w.kernel):g} s)"))
    if setup:
        metrics["setup_s"] = metric(statistics.median(setup), "s")
        lines.append(f"setup_s         {metrics['setup_s']['value']:.4f} s    "
                     f"median of {len(setup)} process starts, CPU at reference speed")
        lines.append(f"setup wall      {statistics.median(r['setup_s'] for r in done):.4f} s    "
                     f"median of the same (informational)")
    if rss:
        metrics["peak_rss_mb"] = metric(max(rss), "MB")
        lines.append(f"peak_rss_mb     {metrics['peak_rss_mb']['value']:.1f} MB   "
                     f"largest of {len(rss)} processes")
    return results, metrics, lines


def run_traced(runner, keys):
    w = runner.workload
    both = runner.spawn("traced", keys, trace=True, repeat=w.repeat_check)
    default = runner.spawn("default", keys[:2], pinned=False)
    results = [both, default]
    plain, traced = times(both), times(both, traced=True)
    if both["spans"] is None or not plain or not traced or not times(default):
        return results, {}, ["traced run incomplete: no per-layer metrics"]
    plain_s, traced_s = statistics.median(plain), statistics.median(traced)
    default_s = statistics.median(times(default))
    values = layers.derive(both["spans"])
    values.update({
        "proc.wall_s": plain_s,
        "proc.cpu_s": statistics.median(
            op["cpu_s"] for op in both["ops"] if "cpu_s" in op and not op["traced"]
        ),
        "proc.blas_threads": PINNED_THREADS,
        "proc.default_threads_wall_s": default_s,
        "proc.thread_gap": default_s / statistics.median(plain[:2]),
        "trace.wall_s": traced_s,
        "trace.overhead_s": traced_s - plain_s,
        # the spans' self times sum to the traced time they cover
        "trace.attributed_frac": sum(tracing.self_times(both["spans"])) / sum(traced),
    })
    lines = []
    metrics = {}
    for name, unit, _, moves in layers.PER_LAYER:
        metrics[name] = metric(values[name], unit)
        lines.append(f"{name:36s} {values[name]:<14.6g} {unit:9s} moves: {moves}")
    lines.append(f"traced {len(keys)} commands; untraced median wall_s {plain_s:.4f} s, "
                 f"traced {traced_s:.4f} s, overhead {traced_s - plain_s:+.4f} s; "
                 f"default BLAS threads on {len(times(default))} of them")
    return results, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "glmmfp" / "__init__.py").is_file():
        print(f"error: no glmmfp package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    count = workload.op_count(args.seconds)
    keys = workload.keys(args.seed, max(2, count // 4) if args.trace else count)
    # compile once, so that no process's set-up pays for writing bytecode
    compileall.compile_dir(ROOT / "src" / "glmmfp", quiet=1)
    workdir = ROOT / ".bench_run" / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, workdir)
        run = run_traced if args.trace else run_untraced
        results, metrics, lines = run(runner, keys)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it

    ops = [op for r in results for op in r["ops"]]
    problems = [p for op in ops for p in op["problems"]]
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    env = next((r["env"] for r in results if r["env"]), {})
    print(f"{workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: "
          f"closed loop, one caller, {len(keys)} commands, sizes {json.dumps(workload.sizes)}")
    print("env " + " ".join(f"{k}={v}" for k, v in {**env, "commit": git_commit()}.items()))
    for line in lines:
        print(line)
    print(f"failed_frac     {failed_fraction(ops):.4g}      {failed}/{attempted} operations")
    print(f"check_failures  {len(problems)}")
    for problem in problems:
        print(f"  check failed: {problem}")
    print(json.dumps({
        "correct": not problems and len(metrics) > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
