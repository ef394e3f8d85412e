"""In-memory spans around the package's public functions.

A span is ``[id, parent_id, name, start, end, error, attrs]`` with times
from ``time.perf_counter``.  Spans are kept in a list while the
operations run and written out once at the end, so tracing costs one
list append and two clock reads per call.

The wrappers are installed from the benchmark's own files by rebinding
names: every namespace that imported a function (``from .fixed_point
import fit_posterior`` binds it separately in ``spatial``, ``estimate``,
``oracle`` and ``cli``) gets the wrapper, and ``uninstall`` puts the
originals back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import defaultdict

ID, PARENT, NAME, START, END, ERROR, ATTRS = range(7)

# Modules of the package, one layer each, in the order of ROADMAP's layers.
LAYERS = (
    "covariance", "families", "fixed_point", "spatial", "simulate",
    "estimate", "oracle", "dataio", "cli", "metrics",
)

# Every dense factorization the package calls, as (module, attribute).
FACTORIZATIONS = (
    ("scipy.linalg", "cho_factor"),
    ("numpy.linalg", "cholesky"),
    ("numpy.linalg", "inv"),
    ("numpy.linalg", "slogdet"),
    ("numpy.linalg", "solve"),
)

# dataio.fmt runs once per number written; a span would cost more than the call.
NOT_TRACED = {"dataio.fmt"}


class Tracer:
    """Records spans for wrapped calls made on one thread."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn, attrs=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``attrs(args, kwargs, result)``, when given, runs after the span
        has ended and stores a dict of counts on it.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, name, clock(), None, False, None]
            spans.append(span)
            stack.append(span[ID])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        return traced


def _fit_attrs(args, kwargs, report):
    return {"iterations": report.iterations, "converged": bool(report.converged)}


def _quadrature_attrs(signature):
    def attrs(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        order, r = bound.arguments["order"], bound.arguments["problem"].r
        # the full-order grid plus the half-order grid of the error estimate
        return {"nodes": order**r + max(order // 2, 4) ** r}

    return attrs


def targets() -> list:
    """(span name, owning module, attribute, attrs) for everything traced."""
    out = []
    for layer in LAYERS:
        module = sys.modules[f"glmmfp.{layer}"]
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                attr.startswith("_")
                or not inspect.isfunction(obj)
                or obj.__module__ != module.__name__
                or name in NOT_TRACED
            ):
                continue
            attrs = None
            if name == "fixed_point.fit_posterior":
                attrs = _fit_attrs
            elif name == "oracle.moments_quadrature":
                attrs = _quadrature_attrs(inspect.signature(obj))
            out.append((name, module, attr, attrs))
    for module_name, attr in FACTORIZATIONS:
        out.append((f"linalg.{attr}", sys.modules[module_name], attr, None))
    return out


def install(tracer: Tracer, target_list, namespaces) -> list:
    """Rebind each target in its module and in every namespace bound to it.

    Returns the patches for ``uninstall``.
    """
    patches = []
    for name, owner, attr, attrs in target_list:
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, attrs)
        for namespace in (owner, *namespaces):
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapped)
                    patches.append((namespace, key, original))
    return patches


def uninstall(patches) -> None:
    for namespace, key, original in reversed(patches):
        setattr(namespace, key, original)


def install_glmmfp(tracer: Tracer) -> list:
    """Trace the package's public functions and its factorizations."""
    import glmmfp.cli  # noqa: F401 - imports every layer

    namespaces = [
        m for n, m in list(sys.modules.items())
        if (n == "glmmfp" or n.startswith("glmmfp.")) and isinstance(m, types.ModuleType)
    ]
    return install(tracer, targets(), namespaces)


def covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START]) - covered(children[span[ID]], span[START], span[END])
        for span in spans
    ]
