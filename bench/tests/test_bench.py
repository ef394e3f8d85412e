"""Tests of the benchmark's own code.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import REFERENCE, WORKLOADS  # noqa: E402


def span(i, parent, name, start, end, error=False, attrs=None):
    return [i, parent, name, start, end, error, attrs]


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------


def test_self_time_of_nested_spans():
    spans = [
        span(0, None, "a", 0.0, 10.0),
        span(1, 0, "b", 1.0, 4.0),
        span(2, 1, "c", 2.0, 3.0),
        span(3, 0, "d", 5.0, 6.0),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        span(0, None, "a", 0.0, 10.0),
        span(1, 0, "b", 1.0, 5.0),
        span(2, 0, "c", 3.0, 7.0),      # overlaps b by 2
        span(3, 0, "d", 4.0, 4.5),      # inside both
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0)


def test_self_time_clips_children_to_the_parent():
    spans = [span(0, None, "a", 2.0, 6.0), span(1, 0, "b", 1.0, 3.0), span(2, 0, "c", 5.0, 9.0)]
    assert tracing.self_times(spans)[0] == pytest.approx(2.0)


def test_covered_merges_intervals():
    assert tracing.covered([(3, 4), (0, 2), (1, 3)], 0, 10) == pytest.approx(4.0)
    assert tracing.covered([], 0, 10) == 0.0


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def test_wrap_records_parents_errors_and_attrs():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("x")

    inner = tracer.wrap("m.inner", lambda x: x + 1, attrs=lambda a, k, r: {"result": r})
    failing = tracer.wrap("m.boom", boom)

    def body():
        inner(1)
        with pytest.raises(ValueError):
            failing()
        return 7

    outer = tracer.wrap("m.outer", body)
    assert outer() == 7
    names = [(s[tracing.NAME], s[tracing.PARENT], s[tracing.ERROR]) for s in tracer.spans]
    assert names == [("m.outer", None, False), ("m.inner", 0, False), ("m.boom", 0, True)]
    assert tracer.spans[1][tracing.ATTRS] == {"result": 2}
    assert all(s[tracing.END] >= s[tracing.START] for s in tracer.spans)


def test_install_rebinds_every_namespace_and_uninstall_restores():
    owner = types.ModuleType("owner")

    def fn():
        return 3

    owner.fn = fn
    importer = types.ModuleType("importer")
    importer.fn_alias = fn
    unrelated = types.ModuleType("unrelated")
    unrelated.other = len
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, [("owner.fn", owner, "fn", None)], [importer, unrelated])
    assert owner.fn is not fn and importer.fn_alias is not fn
    assert owner.fn() == 3 and importer.fn_alias() == 3
    assert len(tracer.spans) == 2
    tracing.uninstall(patches)
    assert owner.fn is fn and importer.fn_alias is fn and unrelated.other is len


def test_install_glmmfp_traces_every_binding_of_fit_posterior():
    import glmmfp.cli
    import glmmfp.estimate
    import glmmfp.fixed_point
    import glmmfp.oracle
    import glmmfp.spatial

    original = glmmfp.fixed_point.fit_posterior
    patches = tracing.install_glmmfp(tracing.Tracer())
    try:
        for module in (glmmfp.fixed_point, glmmfp.spatial, glmmfp.estimate,
                       glmmfp.oracle, glmmfp.cli):
            assert module.fit_posterior is not original
            assert module.fit_posterior.__wrapped__ is original
        assert glmmfp.spatial.cho_factor.__wrapped__ is not None
    finally:
        tracing.uninstall(patches)
    assert glmmfp.spatial.fit_posterior is original


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def test_derive_counts_from_spans():
    spans = [
        span(0, None, "cli.main", 0.0, 100.0),
        span(1, 0, "spatial.fit_predict", 1.0, 20.0),
        span(2, 1, "fixed_point.fit_posterior", 2.0, 12.0, attrs={"iterations": 3, "converged": True}),
        span(3, 2, "linalg.cho_factor", 3.0, 4.0),
        span(4, 2, "linalg.cho_factor", 5.0, 6.0),
        span(5, 1, "linalg.cho_factor", 13.0, 14.0),
        span(6, 0, "covariance.build_blocked", 21.0, 30.0),
        span(7, 6, "linalg.cholesky", 22.0, 23.0, error=True),
        span(8, 6, "linalg.cholesky", 24.0, 25.0),
        span(9, 0, "oracle.adjudicate_exactness", 31.0, 50.0),
        span(10, 9, "fixed_point.fit_posterior", 32.0, 33.0, attrs={"iterations": 1, "converged": False}),
        span(11, 9, "oracle.moments_quadrature", 34.0, 40.0, attrs={"nodes": 4096 + 1024}),
        span(12, 9, "oracle.moments_quadrature", 41.0, 49.0, attrs={"nodes": 128**2 + 64**2}),
    ]
    got = layers.derive(spans)
    assert got["linalg.cho_factor.calls"] == 3
    assert got["linalg.factorizations_per_fit"] == pytest.approx(1.0)   # 2 factorizations, 2 fits
    assert got["fixed_point.iterations_per_fit"] == pytest.approx(2.0)
    assert got["fixed_point.nonconverged"] == 1
    assert got["covariance.jitter_escalations"] == 1
    assert got["oracle.order_escalations"] == 1
    assert got["oracle.quadrature_nodes"] == 4096 + 1024 + 128**2 + 64**2
    assert got["spatial.fit_predict.self_s"] == pytest.approx(19.0 - 10.0)
    assert got["fixed_point.iterate_s"] == pytest.approx((10.0 - 2.0 + 1.0) / 4)
    assert sum(tracing.self_times(spans)) == pytest.approx(100.0)


# ---------------------------------------------------------------------------
# run statistics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, p", [(1, None), (19, None), (20, 50), (39, 50), (40, 75),
                                  (100, 90), (200, 95), (1000, 99), (10_000, 99.9)])
def test_percentile_rule_needs_ten_samples_beyond(n, p):
    assert run.supported_percentile(n) == p


def test_percentile_interpolates():
    assert run.percentile([4, 1, 3, 2], 50) == pytest.approx(2.5)
    assert run.percentile([1, 2, 3, 4, 5], 75) == pytest.approx(4.0)


def test_reference_speed_scales_by_the_kernel():
    parts = ("dense", "small")
    ref = speed.reference_s(parts)
    assert ref == pytest.approx(2 * speed.PART_S)
    # a machine running the kernel at half speed halves the reported time
    assert run.at_reference_speed(1.0, parts, 2 * ref) == pytest.approx(0.5)
    assert run.at_reference_speed(0.3, parts, ref) == pytest.approx(0.3)


def test_kernel_parts_run_and_take_time():
    for workload in WORKLOADS.values():
        assert set(workload.kernel) <= set(speed.PARTS)
    assert speed.kernel_cpu_s(speed.SETUP_KERNEL) > 0.0


def test_failed_fraction_counts_operations_not_commands():
    ops = [
        {"attempted": 5, "failed": 0},
        {"attempted": 5, "failed": 2},     # two failed replications in one command
        {"attempted": 5, "failed": 5},     # a command that raised
    ]
    assert run.failed_fraction(ops) == pytest.approx(7 / 15)
    assert run.failed_fraction([]) == 0.0


# ---------------------------------------------------------------------------
# output checks, each failing on a doctored output
# ---------------------------------------------------------------------------

GOOD_TABLE = (
    "scenario,rl2,rl2_star,rmse_beta0,rmse_beta1,rmse_omega1,rmse_omega2\n"
    "oracle,0,0.51,0,0,0,0\n"
    "sic_true,0.00055,0.5103,0,0,0,0\n"
)
GOOD_AUDIT = {"failures": {"oracle": 0, "sic_true": 0}, "records": []}


def test_simulate_check_passes_on_good_output():
    assert checks.check_simulate(GOOD_TABLE, GOOD_AUDIT) == []


@pytest.mark.parametrize("doctor, fragment", [
    (lambda t, a: (t.replace("oracle,0,", "oracle,0.1,"), a), "oracle rl2"),
    (lambda t, a: (t.replace("sic_true,0.00055", "sic_true,0.02"), a), "sic_true rl2"),
    (lambda t, a: (t.replace("0.5103", "0.6"), a), "rl2_star gap"),
    (lambda t, a: (t, {**a, "failures": {"oracle": 0, "sic_true": 1}}), "failed replications"),
    (lambda t, a: ("\n".join(t.splitlines()[:2]) + "\n", a), "lacks scenario"),
])
def test_simulate_check_fails_on_doctored_output(doctor, fragment):
    table, audit = doctor(GOOD_TABLE, GOOD_AUDIT)
    problems = checks.check_simulate(table, audit)
    assert len(problems) == 1 and fragment in problems[0]


def test_repeat_check():
    files = {"table.csv": b"a", "audit.json": b"b"}
    assert checks.check_repeat(files, dict(files)) == []
    assert checks.check_repeat(files, {**files, "audit.json": b"c"}) == [
        "audit.json differs between two runs on one seed"
    ]


def test_exit_check():
    assert checks.check_exit(0, None) == []
    assert checks.check_exit(3, None) == ["exit code 3"]
    assert checks.check_exit(None, "ValueError: x") == ["command raised ValueError: x"]


GOOD_REPORT = {"converged": True, "estimation": {
    "optimizer_converged": True, "objective": -500.0,
    "beta_hat": [4.5], "omega_hat": [0.4, 2.0, 0.5],
}}
REF = {"beta_hat": [4.5], "omega_hat": [0.4, 2.0]}


def doctored(**est):
    return {**GOOD_REPORT, "estimation": {**GOOD_REPORT["estimation"], **est}}


def test_estimate_check_passes_within_tolerance():
    near = doctored(beta_hat=[4.5 + 1e-5], omega_hat=[0.4 - 1e-5, 2.0, 0.5])
    assert checks.check_estimate(near, -510.0, REF) == []
    assert checks.check_estimate(GOOD_REPORT, -500.0, REF) == []


@pytest.mark.parametrize("report, start, fragment", [
    (doctored(optimizer_converged=False), -510.0, "did not converge"),
    (GOOD_REPORT, -499.0, "below the start point"),
    (doctored(beta_hat=[4.6]), -510.0, "beta_hat"),
    (doctored(omega_hat=[0.4, 2.01, 0.5]), -510.0, "omega_hat"),
    ({"converged": True}, -510.0, "no estimation record"),
])
def test_estimate_check_fails_on_doctored_output(report, start, fragment):
    problems = checks.check_estimate(report, start, REF)
    assert len(problems) == 1 and fragment in problems[0]


def verdicts(*battery, max_gap=1e-12):
    return {"identity": {"instances": 100, "max_gap": max_gap}, "battery": [
        {"family": f, "mean_gap": g, "cov_gap": g, "verdict": v} for f, g, v in battery
    ]}


def test_verify_check_passes_on_good_output():
    good = verdicts(("poisson", 0.1, "REFUTED"), ("binomial", 3e-8, "CONFIRMED"),
                    ("gaussian", 1e-13, "CONFIRMED"))
    assert checks.check_verify(good) == []


@pytest.mark.parametrize("output, fragment", [
    (verdicts(("poisson", 0.1, "REFUTED"), max_gap=2e-8), "identity max_gap"),
    (verdicts(("poisson", 0.1, "CONFIRMED")), "not REFUTED"),
    (verdicts(("binomial", 0.1, "INCONCLUSIVE")), "not REFUTED"),
    (verdicts(("binomial", 3e-8, "REFUTED")), "not CONFIRMED"),
    (verdicts(("gaussian", 1e-13, "REFUTED")), "not CONFIRMED"),
])
def test_verify_check_fails_on_doctored_output(output, fragment):
    problems = checks.check_verify(output)
    assert len(problems) == 1 and fragment in problems[0]


# ---------------------------------------------------------------------------
# workloads against the real CLI
# ---------------------------------------------------------------------------


def run_command(workload, tmp_path, key):
    import glmmfp.cli

    workload.prepare(tmp_path, [key])
    out = tmp_path / "out"
    rc = glmmfp.cli.main(workload.argv(tmp_path, key, out))
    return workload.outcome(tmp_path, key, out, rc, None)


def test_verify_command_passes_its_checks(tmp_path):
    assert run_command(WORKLOADS["verify-battery"], tmp_path, 230) == (1, 0, [])


def test_simulate_command_passes_its_checks(tmp_path):
    reps = WORKLOADS["simulate-n400"].sizes["replications"]
    assert run_command(WORKLOADS["simulate-n400"], tmp_path, 7) == (reps, 0, [])


def test_keys_repeat_per_seed_and_stay_in_the_estimate_pool():
    for workload in WORKLOADS.values():
        assert workload.keys(3, 10) == workload.keys(3, 10)
        assert workload.keys(3, 10) != workload.keys(4, 10)
    pool = WORKLOADS["estimate-n100"].sizes["pool"]
    keys = WORKLOADS["estimate-n100"].keys(5, 2 * pool)
    assert sorted(keys[:pool]) == list(range(pool))
    assert {str(k) for k in range(pool)} <= set(json.loads(REFERENCE.read_text())["datasets"])


def test_benchmark_json_matches_the_tables():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, _ in layers.PER_LAYER
    ]
    assert {m["name"] for m in spec["end_to_end"]} == {"command_s", "setup_s", "peak_rss_mb"}
