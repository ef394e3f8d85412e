"""What the benchmark under ``bench/`` reads of the package, checked in tier-1.

Tier-1 collects only ``tests/``, and the benchmark's own tests never run a
workload's output check, so a renamed name that ``bench/`` imports (say
``estimate.SpatialData`` or ``estimate.approx_loglik``) would otherwise
surface only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from glmmfp import cli

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def test_spatial_data_is_one_class():
    # bench/workloads.py imports the container from estimate
    import glmmfp.estimate
    import glmmfp.spatial

    assert glmmfp.estimate.SpatialData is glmmfp.spatial.SpatialData


def test_tracer_lists_the_identity_suite_in_oracle(monkeypatch):
    # bench/layers.py times the identity suite by these span names
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    names = {name for name, *_ in tracing.targets()}
    suite = {"identity_gaps", "random_identity_stack",
             "joint_logdensity_direct", "joint_logdensity_factored"}
    assert {f"oracle.{name}" for name in suite} <= names
    assert not any("identity" in name for name in names if name.startswith("fixed_point."))


@pytest.mark.parametrize("key", [0, 7])
def test_start_objective_is_that_of_initial_beta(tmp_path, monkeypatch, key):
    # bench/workloads.py rebuilds estimate.initial_beta, the fit's start; the
    # objective there must stay that of the CLI's sites bit for bit
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import WORKLOADS, start_objective

    from glmmfp import dataio, estimate
    from glmmfp.covariance import MaternParams

    workload = WORKLOADS["estimate-n100"]
    workload.prepare(tmp_path, [key])
    config, data = tmp_path / "config.json", tmp_path / f"counts-{key}.csv"
    cfg = dataio.load_config(config)
    sites = cli._sites(cfg, dataio.load_dataset(data, cfg))
    expected = estimate.approx_loglik(sites, estimate.initial_beta(sites), MaternParams(0.5, 1.0))
    assert start_objective(config, data) == expected


def test_workload_configs_load(tmp_path, monkeypatch):
    # a config key that the package stops accepting fails here, not in a
    # benchmark run: each workload's config.json loads as its command loads it
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import WORKLOADS

    from glmmfp import dataio
    from glmmfp.simulate import SimConfig

    for name, workload in WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        workload.prepare(workdir, [])
        cfg = dataio.load_config(workdir / "config.json")
        if name == "simulate-n400":
            config = SimConfig(**{"seed": cfg.seed, **cfg.simulate})
            sizes = workload.sizes
            assert (config.n, config.n_star, config.replications, config.scenarios) == (
                sizes["n"], sizes["n_star"], sizes["replications"], tuple(sizes["scenarios"])
            )


def test_bench_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(BENCH / "tests")],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def test_estimate_workload_command_passes_its_checks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import WORKLOADS

    workload = WORKLOADS["estimate-n100"]
    key = 7
    workload.prepare(tmp_path, [key])
    out = tmp_path / "out"
    rc = cli.main(workload.argv(tmp_path, key, out))
    assert workload.outcome(tmp_path, key, out, rc, None) == (1, 0, [])


@pytest.mark.parametrize("key", range(5))
def test_verify_workload_command_passes_its_checks(tmp_path, monkeypatch, key):
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import WORKLOADS

    workload = WORKLOADS["verify-battery"]
    workload.prepare(tmp_path, [key])
    out = tmp_path / "out"
    rc = cli.main(workload.argv(tmp_path, key, out))
    assert workload.outcome(tmp_path, key, out, rc, None) == (1, 0, [])


def test_tracer_sees_every_factorization_of_the_seam(monkeypatch):
    # bench/tracing.py counts linalg.cho_factor by wrapping the binding in
    # glmmfp._lapack; each potrf of the prior and of the solver must show
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    from glmmfp import covariance, fixed_point, simulate

    seam = []
    for module, label in ((covariance, "prior"), (fixed_point, "solver")):
        potrf = module.potrf
        monkeypatch.setattr(
            module, "potrf", lambda a, _f=potrf, _l=label: seam.append(_l) or _f(a)
        )
    tracer = tracing.Tracer()
    patches = tracing.install_glmmfp(tracer)
    try:
        simulate.run_scenarios(simulate.SimConfig(n=40, n_star=30, replications=1))
    finally:
        tracing.uninstall(patches)
    spans = tracer.spans

    def inside(span, name):
        while span[tracing.PARENT] is not None:
            span = spans[span[tracing.PARENT]]
            if span[tracing.NAME] == name:
                return True
        return False

    [fit] = [s for s in spans if s[tracing.NAME] == "fixed_point.fit_posterior"]
    factors = [s for s in spans if s[tracing.NAME] == "linalg.cho_factor"]
    assert seam == ["prior"] + ["solver"] * (fit[tracing.ATTRS]["iterations"] + 1)
    assert len(factors) == len(seam)
    assert sum(inside(s, "fixed_point.fit_posterior") for s in factors) == seam.count("solver")
    assert sum(inside(s, "covariance.build_blocked") for s in factors) == 1
