"""The quadrature oracle at r = 3 and r = 4, against importance sampling.

The tensor grid has ``order**r`` nodes, so at these dimensions the node
budget, not the order cap, sets how far the quadrature can go.
"""

import time
import tracemalloc

import numpy as np
import pytest

from glmmfp.families import poisson_kernel
from glmmfp.fixed_point import GlmmProblem
from glmmfp.oracle import (
    QUADRATURE_BUDGET,
    CapabilityError,
    adjudicate_exactness,
    moments_importance,
    moments_quadrature,
)


def poisson_instance(r, n=6, seed=0):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, r))
    A = rng.standard_normal((r, r))
    D = 0.3 * (A @ A.T) / r + 0.3 * np.eye(r)
    gamma = np.linalg.cholesky(D) @ rng.standard_normal(r)
    y = rng.poisson(np.exp(0.5 + Z @ gamma)).astype(float)
    return GlmmProblem(y=y, X=np.ones((n, 1)), Z=Z, D=D, beta=np.array([0.5]),
                       kernel=poisson_kernel())


@pytest.mark.parametrize(
    "r, order, seed", [(3, 32, 0), (3, 64, 1), (4, 16, 0), (4, 16, 2)]
)
def test_quadrature_agrees_with_importance_sampling(r, order, seed):
    problem = poisson_instance(r, seed=seed)
    quad = moments_quadrature(problem, order=order)
    est = moments_importance(problem, samples=40_000, seed=seed)
    assert quad.mean.shape == (r,) and quad.cov.shape == (r, r)
    assert np.max(np.abs(quad.mean - est.mean)) <= 4.0 * est.error_estimate
    assert np.max(np.abs(quad.cov - est.cov)) <= 0.03 * np.max(np.abs(quad.cov))
    assert quad.log_marginal == pytest.approx(est.log_marginal, abs=0.02)


@pytest.mark.parametrize("seed", range(6))
def test_r4_adjudication_refutes_at_order_16(seed):
    # order 32 is over the node budget at r = 4, so order 16 must resolve
    # the mode-mean gap (0.06-0.12 here) on its own
    problem = poisson_instance(4, seed=seed)
    assert 32**4 * (problem.n + problem.r) > QUADRATURE_BUDGET
    report = adjudicate_exactness(problem, order=16)
    assert report.oracle.order_or_samples == 16
    assert report.oracle.error_estimate <= 5e-5
    assert report.verdict == "REFUTED"


@pytest.mark.parametrize("call", [moments_quadrature, adjudicate_exactness])
def test_over_budget_raises_before_allocating(call):
    problem = poisson_instance(4)
    assert 64**4 * (problem.n + problem.r) > QUADRATURE_BUDGET
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(CapabilityError, match=f"needs {64**4} nodes"):
            call(problem, order=64)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 1_000_000


def test_importance_over_budget_raises_before_drawing():
    problem = poisson_instance(4)
    samples = QUADRATURE_BUDGET // (problem.n + problem.r) + 1
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(CapabilityError, match=f"{samples} samples x 10 values"):
            moments_importance(problem, samples=samples)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 1_000_000


def test_r3_adjudication_stops_at_the_last_order_in_budget():
    problem = poisson_instance(3)
    assert 64**3 * (problem.n + problem.r) <= QUADRATURE_BUDGET
    assert 128**3 * (problem.n + problem.r) > QUADRATURE_BUDGET
    # a target no error estimate meets, so only the budget stops the doubling
    report = adjudicate_exactness(problem, order=32, error_target=0.0)
    assert report.oracle.order_or_samples == 64
    assert report.verdict in {"CONFIRMED", "REFUTED", "INCONCLUSIVE"}
    assert report.oracle.error_estimate > 0.0
