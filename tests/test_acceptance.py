"""End-to-end acceptance suite.

Each test prints an explicit PASS line with the measured quantity so the
run log doubles as a verification record.  Criterion 4 (the exactness
adjudication) asserts only that the battery completes with a trustworthy
oracle and reports the gaps; the verdict distribution itself is printed
and recorded in the README, whichever way it falls.
"""

import json
import time

import numpy as np
import pytest

from glmmfp import cli
from glmmfp.covariance import MaternParams, matern
from glmmfp.families import binomial_kernel, gaussian_kernel, poisson_kernel
from glmmfp.fixed_point import GlmmProblem, fit_posterior
from glmmfp.metrics import deviance_gof
from glmmfp.oracle import fixed_point_residual, identity_gaps, random_identity_stack
from glmmfp.simulate import SimConfig, run_scenarios


def _random_count_problem(rng, family, n_max=50, r_max=10):
    n = int(rng.integers(3, n_max + 1))
    r = int(rng.integers(1, r_max + 1))
    p = int(rng.integers(1, 3))
    X = rng.standard_normal((n, p))
    Z = rng.standard_normal((n, r))
    A = rng.standard_normal((r, r))
    D = 0.4 * (A @ A.T) / r + 0.3 * np.eye(r)
    beta = rng.uniform(-0.4, 0.8, size=p)
    gamma = np.linalg.cholesky(D) @ rng.standard_normal(r)
    eta = X @ beta + Z @ gamma
    if family == "poisson":
        kernel = poisson_kernel()
        y = rng.poisson(np.exp(np.clip(eta, -20, 5))).astype(float)
    else:
        m = rng.integers(1, 9, size=n)
        kernel = binomial_kernel(m)
        y = rng.binomial(m.astype(int), 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return GlmmProblem(y=y, X=X, Z=Z, D=D, beta=beta, kernel=kernel)


def test_criterion_1_factorization_identity_suite():
    """100 randomized instances of the Gaussian factorization identity."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    gaps = identity_gaps(random_identity_stack(rng, 100))
    elapsed = time.perf_counter() - start
    worst = max(gaps)
    assert worst <= 1e-8, f"identity gap {worst:.3e} exceeds 1e-8"
    assert elapsed < 5.0, f"identity suite took {elapsed:.1f} s (limit 5 s)"
    print(
        f"\nACCEPTANCE 1 factorization identity: PASS "
        f"(100 instances, max gap {worst:.3e}, {elapsed:.2f} s)"
    )


def test_criterion_2_fixed_point_certificate():
    """Converged xi satisfies its defining equation on 100 count models."""
    start = time.perf_counter()
    rng = np.random.default_rng(2025)
    worst = 0.0
    for family in ("poisson", "binomial"):
        for _ in range(50):
            problem = _random_count_problem(rng, family)
            report = fit_posterior(problem)
            assert report.converged, f"solver failed on a {family} instance"
            defect = fixed_point_residual(problem, report.xi)
            worst = max(worst, defect)
            assert defect <= 1e-9, f"{family} certificate defect {defect:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"certificate suite took {elapsed:.1f} s (limit 30 s)"
    print(
        f"\nACCEPTANCE 2 mode certificate: PASS "
        f"(100 instances, max defect {worst:.3e}, {elapsed:.2f} s)"
    )


def test_criterion_3_gaussian_conjugacy():
    """Gaussian kernel reproduces the closed-form posterior in one step."""
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 15))
        r = int(rng.integers(1, 6))
        X = rng.standard_normal((n, 1))
        Z = rng.standard_normal((n, r))
        A = rng.standard_normal((r, r))
        D = 0.5 * (A @ A.T) + 0.4 * np.eye(r)
        beta = np.array([rng.normal()])
        s2 = float(rng.uniform(0.5, 2.0))
        y = X @ beta + Z @ (
            np.linalg.cholesky(D) @ rng.standard_normal(r)
        ) + np.sqrt(s2) * rng.standard_normal(n)
        problem = GlmmProblem(
            y=y, X=X, Z=Z, D=D, beta=beta, kernel=gaussian_kernel(s2)
        )
        report = fit_posterior(problem)
        assert report.converged and report.iterations == 1, (
            "conjugate case must converge in exactly one iteration"
        )
        R = Z @ D @ Z.T + s2 * np.eye(n)
        resid = y - X @ beta
        xi = D @ Z.T @ np.linalg.solve(R, resid)
        Xi = D - D @ Z.T @ np.linalg.solve(R, Z @ D)
        gap = max(
            np.max(np.abs(report.xi - xi)),
            np.max(np.abs(report.Xi - 0.5 * (Xi + Xi.T))),
        )
        worst = max(worst, gap)
        assert gap <= 1e-10, f"conjugate gap {gap:.3e} exceeds 1e-10"
    print(
        f"\nACCEPTANCE 3 gaussian conjugacy: PASS "
        f"(20 instances, 1 iteration each, max gap {worst:.3e})"
    )


def test_criterion_4_exactness_adjudication(tmp_path):
    """cmd_verify battery: oracle-checked verdict for every instance."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"verify": {"identity_instances": 100}}))
    out = tmp_path / "out"
    code = cli.main(
        ["verify", "--config", str(config), "--out", str(out), "--quiet"]
    )
    assert code == cli.EXIT_OK
    payload = json.loads((out / "verdicts.json").read_text())
    battery = payload["battery"]
    count_family = [b for b in battery if b["family"] in ("poisson", "binomial")]
    assert len(count_family) >= 20, "need at least 20 count-family instances"
    worst_oracle = max(b["oracle_error"] for b in battery)
    assert worst_oracle <= 1e-8, (
        f"oracle order-doubling error {worst_oracle:.3e} exceeds 1e-8"
    )
    for b in battery:
        assert np.isfinite(b["mean_gap"]) and np.isfinite(b["cov_gap"])
        assert b["verdict"] in {"CONFIRMED", "REFUTED", "INCONCLUSIVE"}
        assert b["r"] <= 2
    verdicts = {}
    for b in battery:
        verdicts[b["verdict"]] = verdicts.get(b["verdict"], 0) + 1
    worst_gap = max(max(b["mean_gap"], b["cov_gap"]) for b in count_family)
    confirmed_exact = worst_gap <= 1e-6
    print(
        f"\nACCEPTANCE 4 exactness adjudication: PASS "
        f"({len(battery)} instances, oracle error <= {worst_oracle:.3e}, "
        f"verdicts {verdicts}, worst count-family gap {worst_gap:.3e}; "
        f"exactness-everywhere prediction "
        f"{'HOLDS' if confirmed_exact else 'DOES NOT HOLD'} on this battery)"
    )


def test_criterion_5_simulation_reference_rows():
    """Desk-scale Monte Carlo: oracle and true-parameter rows."""
    start = time.perf_counter()
    config = SimConfig(
        n=400,
        n_star=400,
        beta=(8.0, 0.0),
        omega=MaternParams(0.5, 1.0, 0.5),
        replications=100,
        seed=0,
        scenarios=("oracle", "sic_true"),
    )
    result = run_scenarios(config)
    elapsed = time.perf_counter() - start
    oracle = result.aggregates["oracle"]
    sic = result.aggregates["sic_true"]
    assert oracle["rl2"] == 0.0, "oracle observed-site loss must be exactly zero"
    assert 0.45 <= oracle["rl2_star"] <= 0.56, (
        f"oracle RL2* {oracle['rl2_star']:.3f} outside [0.45, 0.56]"
    )
    assert sic["rl2"] <= 0.01, f"sic_true RL2 {sic['rl2']:.4f} exceeds 0.01"
    diff = abs(sic["rl2_star"] - oracle["rl2_star"])
    assert diff <= 0.02, f"RL2* difference {diff:.4f} exceeds 0.02"
    assert result.failures == {"oracle": 0, "sic_true": 0}
    print(
        f"\nACCEPTANCE 5 simulation: PASS "
        f"(oracle RL2*={oracle['rl2_star']:.3f}, sic_true RL2={sic['rl2']:.5f}, "
        f"RL2* diff={diff:.5f}, {elapsed:.0f} s for 100 replications)"
    )


def test_criterion_6_matern_correctness():
    """Closed-form and Bessel paths against independent references."""
    mpmath = pytest.importorskip("mpmath")

    p = MaternParams(0.5, 1.7, 0.5)
    d = np.linspace(0.0, 20.0, 401)
    gap_exp = float(np.max(np.abs(matern(p, d) - np.exp(-1.7 * d))))
    assert gap_exp <= 1e-14, f"exponential-form gap {gap_exp:.3e}"

    worst_rel = 0.0
    for nu in (0.8, 1.5, 3.2):
        for dist in (0.1, 1.0, 5.0):
            with mpmath.workdps(40):
                a = mpmath.mpf(1.0) * dist
                ref = float(
                    a ** nu / (2 ** (nu - 1) * mpmath.gamma(nu))
                    * mpmath.besselk(nu, a)
                )
            got = matern(MaternParams(0.5, 1.0, nu), dist)
            rel = abs(got - ref) / abs(ref)
            worst_rel = max(worst_rel, rel)
            assert rel <= 1e-8, f"nu={nu}, d={dist}: relative error {rel:.3e}"
    print(
        f"\nACCEPTANCE 6 matern correctness: PASS "
        f"(exponential gap {gap_exp:.3e}, worst Bessel rel error {worst_rel:.3e})"
    )


def test_criterion_7_deviance_statistic(tmp_path):
    """Deviance reference values plus the noiseless validation pipeline."""
    y = np.array([2.0, 1.0, 5.0])
    assert abs(deviance_gof(y, y.copy())) <= 1e-12
    expected = 2.0 * (2.0 * np.log(2.0) - 1.0)
    assert abs(deviance_gof(np.array([2.0]), np.array([1.0])) - expected) <= 1e-12
    assert abs(deviance_gof(np.array([0.0]), np.array([1.0])) - 2.0) <= 1e-12

    rng = np.random.default_rng(77)
    coords = rng.uniform(0, 5, size=(30, 2))
    lines = ["y,x_coord,y_coord"]
    for cx, cy in coords:
        lines.append(f"4.0,{cx},{cy}")
    data = tmp_path / "data.csv"
    data.write_text("\n".join(lines) + "\n")
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "family": "gaussian",
                "gaussian_variance": 1.0,
                "beta": [4.0],
                "matern": {"omega1": 0.5, "omega2": 1.0},
                "validate": {
                    "splits": 5, "n_train": 20, "n_test": 8,
                    "tiers": ["intercept"],
                },
            }
        )
    )
    out = tmp_path / "out"
    code = cli.main(
        ["validate", "--config", str(config), "--data", str(data),
         "--out", str(out), "--quiet"]
    )
    assert code == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    mean_g2 = summary["tiers"]["intercept"]["mean_g2"]
    assert abs(mean_g2) <= 1e-6, f"noiseless mean G2 {mean_g2:.3e} exceeds 1e-6"
    print(
        f"\nACCEPTANCE 7 deviance statistic: PASS "
        f"(reference values to 1e-12, noiseless mean G2 = {mean_g2:.3e})"
    )


def test_criterion_8_determinism(tmp_path):
    """cmd_simulate and cmd_verify are byte-identical under fixed seeds."""
    sim_config = tmp_path / "sim.json"
    sim_config.write_text(
        json.dumps(
            {
                "simulate": {
                    "n": 60, "n_star": 40, "beta": [2.0, 0.0], "side": 8.0,
                    "omega": {"omega1": 0.5, "omega2": 1.0},
                    "replications": 3, "seed": 1,
                    "scenarios": ["oracle", "sic_true"],
                }
            }
        )
    )
    ver_config = tmp_path / "ver.json"
    ver_config.write_text(json.dumps({"verify": {"identity_instances": 30}}))

    sim_blobs, ver_blobs = [], []
    for tag in ("a", "b"):
        sim_out = tmp_path / f"sim_{tag}"
        assert cli.main(
            ["simulate", "--config", str(sim_config), "--out", str(sim_out),
             "--quiet"]
        ) == cli.EXIT_OK
        sim_blobs.append(
            (sim_out / "table.csv").read_bytes()
            + (sim_out / "audit.json").read_bytes()
        )
        ver_out = tmp_path / f"ver_{tag}"
        assert cli.main(
            ["verify", "--config", str(ver_config), "--out", str(ver_out),
             "--seed", "9", "--quiet"]
        ) == cli.EXIT_OK
        ver_blobs.append((ver_out / "verdicts.json").read_bytes())
    assert sim_blobs[0] == sim_blobs[1], "cmd_simulate output is not deterministic"
    assert ver_blobs[0] == ver_blobs[1], "cmd_verify output is not deterministic"
    print(
        "\nACCEPTANCE 8 determinism: PASS "
        "(simulate and verify outputs byte-identical across reruns)"
    )
