"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared virtual machine the same command's CPU time drifts by a fifth
or more within a minute, as neighbours load the host's cores, caches and
memory.  Each child process runs its workload's kernel before every command
and after the last; a command's time is then reported as its CPU seconds
times ``reference_s(parts) / kernel CPU seconds``: the seconds it would take
on a machine where each part of the kernel takes ``PART_S``.  The kernel is
benchmark code and never changes with the program, so a faster program
still reads faster.

A kernel is made of parts, each resembling one kind of work in the
workloads; each workload picks the parts whose speed tracks its own.
"""

from __future__ import annotations

import time

# Each part's CPU seconds, about, on a 2-vCPU Xeon VM with one BLAS thread.
PART_S = 0.015
# Set-up (interpreter start and imports) is scaled by this kernel: measured in
# fresh processes, its speed tracked set-up's more closely than the other parts'.
SETUP_KERNEL = ("dense",)

_inputs = None


def _make_inputs() -> dict:
    import numpy as np

    rng = np.random.default_rng(20240915)
    a = rng.standard_normal((300, 300))
    small = rng.standard_normal((12, 12))
    return {
        "spd": a @ a.T + 300 * np.eye(300),
        "a": a,
        "small": small @ small.T + 12 * np.eye(12),
        "rhs": rng.standard_normal(12),
        "grid": np.linspace(-6.0, 6.0, 60_000),
    }


def _dense(x) -> None:
    """Large Cholesky factorizations and matrix products (BLAS/LAPACK)."""
    import scipy.linalg

    for _ in range(8):
        scipy.linalg.cho_factor(x["spd"], lower=True)
        x["a"] @ x["a"]


def _small(x) -> None:
    """Many 12x12 factorizations, solves and log-determinants."""
    import numpy as np
    import scipy.linalg

    for _ in range(400):
        c = scipy.linalg.cho_factor(x["small"], lower=True)
        scipy.linalg.cho_solve(c, x["rhs"])
        np.linalg.slogdet(x["small"])


def _vector(x) -> None:
    """Element-wise transcendental functions over a long vector."""
    import numpy as np

    g = x["grid"]
    for _ in range(18):
        np.exp(-0.5 * g * g + np.log1p(np.exp(g))).sum()


def _python(x) -> None:
    """Interpreter work: integer arithmetic and dictionary updates."""
    d = {}
    for i in range(90_000):
        d[i % 97] = d.get(i % 97, 0) + i * 3 // 7


PARTS = {"dense": _dense, "small": _small, "vector": _vector, "python": _python}


def reference_s(parts) -> float:
    return PART_S * len(parts)


def kernel_cpu_s(parts) -> float:
    """CPU seconds of one pass of the named reference parts."""
    global _inputs
    if _inputs is None:
        _inputs = _make_inputs()
    start = time.process_time()
    for part in parts:
        PARTS[part](_inputs)
    return time.process_time() - start
