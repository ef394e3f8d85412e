"""The quadrature oracle at r = 3 and r = 4, against elliptical slice sampling
and, for its log marginal, the exact Gaussian-kernel marginal.

The tensor grid has ``order**r`` nodes, so at these dimensions the node
budget, not the order cap, sets how far the quadrature can go.
"""

import time
import tracemalloc

import numpy as np
import pytest

from glmmfp import oracle
from glmmfp.families import gaussian_kernel, poisson_kernel
from glmmfp.fixed_point import GlmmProblem, fit_posterior, laplace_marginal
from glmmfp.oracle import (
    QUADRATURE_BUDGET,
    CapabilityError,
    adjudicate_exactness,
    moments_quadrature,
    moments_slice,
)


def poisson_instance(r, n=6, seed=0, kernel=poisson_kernel()):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, r))
    A = rng.standard_normal((r, r))
    D = 0.3 * (A @ A.T) / r + 0.3 * np.eye(r)
    gamma = np.linalg.cholesky(D) @ rng.standard_normal(r)
    y = rng.poisson(np.exp(0.5 + Z @ gamma)).astype(float)
    return GlmmProblem(y=y, X=np.ones((n, 1)), Z=Z, D=D, beta=np.array([0.5]),
                       kernel=kernel)


@pytest.mark.parametrize(
    "r, order, seed", [(3, 32, 0), (3, 64, 1), (4, 16, 0), (4, 16, 2)]
)
def test_quadrature_agrees_with_slice_sampling(r, order, seed):
    problem = poisson_instance(r, seed=seed)
    quad = moments_quadrature(problem, order=order)
    est = moments_slice(problem, steps=1_000, seed=seed)
    assert quad.mean.shape == (r,) and quad.cov.shape == (r, r)
    assert np.max(np.abs(quad.mean - est.mean)) <= 4.0 * est.error_estimate
    assert np.max(np.abs(quad.cov - est.cov)) <= 0.1 * np.max(np.abs(quad.cov))


@pytest.mark.parametrize("r, order", [(3, 32), (4, 16)])
def test_quadrature_log_marginal_is_the_gaussian_marginal(r, order):
    # the Gaussian kernel's Laplace marginal is its exact marginal likelihood
    problem = poisson_instance(r, kernel=gaussian_kernel(1.0))
    quad = moments_quadrature(problem, order=order)
    exact = laplace_marginal(fit_posterior(problem))
    assert quad.log_marginal == pytest.approx(exact, rel=1e-12)


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


def test_slice_over_budget_raises_before_drawing():
    # one effect and enough observations that the chains' predictors pass the budget
    n = QUADRATURE_BUDGET // oracle.SLICE_CHAINS
    problem = GlmmProblem(y=np.ones(n), X=np.ones((n, 1)), Z=np.ones((n, 1)), D=np.eye(1),
                          beta=np.zeros(1), kernel=poisson_kernel())
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(CapabilityError, match=f"{oracle.SLICE_CHAINS} chains x {n + 1}"):
            moments_slice(problem, steps=1_000)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 1_000_000


def test_r3_adjudication_stops_at_the_last_order_in_budget(monkeypatch):
    problem = poisson_instance(3)
    assert 64**3 * (problem.n + problem.r) <= QUADRATURE_BUDGET
    assert 128**3 * (problem.n + problem.r) > QUADRATURE_BUDGET
    # a target no error estimate meets, so only the budget stops the doubling
    monkeypatch.setattr(oracle, "ERROR_TARGET", 0.0)
    report = adjudicate_exactness(problem, order=32)
    assert report.oracle.order_or_samples == 64
    assert report.verdict in {"CONFIRMED", "REFUTED", "INCONCLUSIVE"}
    assert report.oracle.error_estimate > 0.0
