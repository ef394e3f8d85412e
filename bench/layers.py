"""Per-layer metrics from a traced run's spans.

``PER_LAYER`` lists each metric with its unit, which direction is better,
and the end-to-end metric and workload it should move.  BENCHMARK.json's
``per_layer`` list is this table without the last column.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import tracing
from tracing import ATTRS, END, ERROR, ID, NAME, PARENT, START, self_times

SIM, EST, VER = "simulate-n400", "estimate-n100", "verify-battery"
GUARD = "none: a guard, under 2% of command_s on every workload"

PER_LAYER = (
    ("covariance.build_blocked.calls", "count", "lower", f"command_s on {SIM}, {EST}"),
    ("covariance.build_blocked.self_s", "s", "lower", f"command_s on {SIM}, {EST}"),
    ("covariance.matern.self_s", "s", "lower", f"command_s on {SIM}, {EST}"),
    ("covariance.jitter_escalations", "count", "lower", f"command_s on {SIM}, {EST}"),
    ("linalg.cho_factor.calls", "count", "lower", f"command_s on {SIM}, then {EST}"),
    ("linalg.cholesky.calls", "count", "lower", f"command_s on {SIM}, then {EST}"),
    ("linalg.factor.self_s", "s", "lower", f"command_s on {SIM}, then {EST}"),
    ("linalg.factorizations_per_fit", "count/fit", "lower", f"command_s on {SIM}, then {EST}"),
    ("fixed_point.fit_posterior.calls", "count", "lower", f"command_s on {SIM}, {EST}"),
    ("fixed_point.fit_posterior.self_s", "s", "lower", f"command_s on {SIM}, {EST}"),
    ("fixed_point.iterations_per_fit", "count/fit", "lower", f"command_s on {SIM}, {EST}"),
    ("fixed_point.iterate_s", "s/iter", "lower", f"command_s on {SIM}, {EST}"),
    ("fixed_point.nonconverged", "count", "lower", f"command_s on {SIM}, {EST}"),
    ("fixed_point.identity_gap.self_s", "s", "lower", f"command_s on {VER}"),
    ("families.working_response.calls", "count", "lower", f"command_s on {EST}"),
    ("families.mean_and_weight.calls", "count", "lower", f"command_s on {EST}"),
    ("families.self_s", "s", "lower", f"command_s on {EST}"),
    ("spatial.fit_predict.calls", "count", "lower", f"command_s on {SIM} only"),
    ("spatial.fit_predict.self_s", "s", "lower", f"command_s on {SIM} only"),
    ("spatial.conditional_mean.self_s", "s", "lower", f"command_s on {SIM} only"),
    ("simulate.generate_dataset.self_s", "s", "lower", f"command_s on {SIM}"),
    ("simulate.replication_s", "s", "lower", f"command_s on {SIM}"),
    ("estimate.approx_loglik.calls", "count", "lower", f"command_s on {EST}"),
    ("estimate.approx_loglik.self_s", "s", "lower", f"command_s on {EST}"),
    ("estimate.eval_s", "s", "lower", f"command_s on {EST}"),
    ("oracle.adjudicate_exactness.calls", "count", "lower", f"command_s, peak_rss_mb on {VER}"),
    ("oracle.moments_quadrature.calls", "count", "lower", f"command_s, peak_rss_mb on {VER}"),
    ("oracle.moments_quadrature.self_s", "s", "lower", f"command_s, peak_rss_mb on {VER}"),
    ("oracle.quadrature_nodes", "count", "lower", f"command_s, peak_rss_mb on {VER}"),
    ("oracle.order_escalations", "count", "lower", f"command_s, peak_rss_mb on {VER}"),
    ("dataio.load_dataset.self_s", "s", "lower", GUARD),
    ("dataio.writers.self_s", "s", "lower", GUARD),
    ("cli.main.self_s", "s", "lower", GUARD),
    ("metrics.self_s", "s", "lower", GUARD),
    ("proc.wall_s", "s", "lower", "none: median wall time of one untraced command"),
    ("proc.cpu_s", "s", "lower", "none: beside proc.wall_s, tells less work from more cores"),
    ("proc.blas_threads", "count", "lower", "none: the pinned BLAS thread count"),
    ("proc.default_threads_wall_s", "s", "lower", "none: informational, wall_s at the default BLAS threads"),
    ("proc.thread_gap", "ratio", "lower", "none: informational, default-thread over pinned wall_s"),
    ("trace.wall_s", "s", "lower", "none: median wall_s with tracing on"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced median wall_s"),
    ("trace.attributed_frac", "ratio", "higher", "none: share of traced wall_s that spans account for"),
)

FACTORIZATIONS = {f"linalg.{attr}" for _, attr in tracing.FACTORIZATIONS}
IDENTITY_SUITE = {
    "fixed_point.random_identity_instance",
    "fixed_point.identity_gap",
    "fixed_point.joint_logdensity_direct",
    "fixed_point.joint_logdensity_factored",
}


def derive(spans) -> dict:
    """Counts and self times of the traced layers (no ``proc.``/``trace.`` entries)."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[NAME]].append(span)

    def calls(name):
        return len(by_name[name])

    def self_s(names):
        return sum(own[s[ID]] for name in names for s in by_name[name])

    def ancestors(span):
        while span[PARENT] is not None:
            span = spans[span[PARENT]]
            yield span

    def starting(*prefixes):
        return [n for n in by_name if n.startswith(prefixes)]

    fits = by_name["fixed_point.fit_posterior"]
    iterations = sum(s[ATTRS]["iterations"] for s in fits if s[ATTRS])
    factor_spans = [s for name in FACTORIZATIONS for s in by_name[name]]
    in_fit = sum(
        any(a[NAME] == "fixed_point.fit_posterior" for a in ancestors(s)) for s in factor_spans
    )
    # fit_predict's own work: its duration minus its fit_posterior child
    fit_predict_s = 0.0
    for span in by_name["spatial.fit_predict"]:
        fit_predict_s += span[END] - span[START]
    for span in fits:
        if span[PARENT] is not None and spans[span[PARENT]][NAME] == "spatial.fit_predict":
            fit_predict_s -= span[END] - span[START]
    # intervals between successive dataset draws within one simulate command
    starts = defaultdict(list)
    for span in by_name["simulate.generate_dataset"]:
        starts[span[PARENT]].append(span[START])
    gaps = [b - a for run in starts.values() for a, b in zip(sorted(run), sorted(run)[1:])]
    adjudications = by_name["oracle.adjudicate_exactness"]
    quadratures = by_name["oracle.moments_quadrature"]
    per_adjudication = defaultdict(int)
    for span in quadratures:
        if span[PARENT] is not None and spans[span[PARENT]][NAME] == "oracle.adjudicate_exactness":
            per_adjudication[span[PARENT]] += 1
    evals = [s[END] - s[START] for s in by_name["estimate.approx_loglik"]]

    return {
        "covariance.build_blocked.calls": calls("covariance.build_blocked"),
        "covariance.build_blocked.self_s": self_s(["covariance.build_blocked"]),
        "covariance.matern.self_s": self_s(["covariance.matern"]),
        "covariance.jitter_escalations": sum(
            1 for s in by_name["linalg.cholesky"]
            if s[ERROR] and s[PARENT] is not None
            and spans[s[PARENT]][NAME] == "covariance.build_blocked"
        ),
        "linalg.cho_factor.calls": calls("linalg.cho_factor"),
        "linalg.cholesky.calls": calls("linalg.cholesky"),
        "linalg.factor.self_s": self_s(FACTORIZATIONS),
        "linalg.factorizations_per_fit": in_fit / len(fits) if fits else 0.0,
        "fixed_point.fit_posterior.calls": len(fits),
        "fixed_point.fit_posterior.self_s": self_s(["fixed_point.fit_posterior"]),
        "fixed_point.iterations_per_fit": iterations / len(fits) if fits else 0.0,
        "fixed_point.iterate_s": (
            self_s(["fixed_point.fit_posterior"]) / iterations if iterations else 0.0
        ),
        "fixed_point.nonconverged": sum(
            1 for s in fits if s[ATTRS] and not s[ATTRS]["converged"]
        ),
        "fixed_point.identity_gap.self_s": self_s(IDENTITY_SUITE),
        "families.working_response.calls": calls("families.working_response"),
        "families.mean_and_weight.calls": calls("families.mean_and_weight"),
        "families.self_s": self_s(starting("families.")),
        "spatial.fit_predict.calls": calls("spatial.fit_predict"),
        "spatial.fit_predict.self_s": fit_predict_s,
        "spatial.conditional_mean.self_s": self_s(["spatial.conditional_mean"]),
        "simulate.generate_dataset.self_s": self_s(["simulate.generate_dataset"]),
        "simulate.replication_s": statistics.median(gaps) if gaps else 0.0,
        "estimate.approx_loglik.calls": len(evals),
        "estimate.approx_loglik.self_s": self_s(["estimate.approx_loglik"]),
        "estimate.eval_s": statistics.median(evals) if evals else 0.0,
        "oracle.adjudicate_exactness.calls": len(adjudications),
        "oracle.moments_quadrature.calls": len(quadratures),
        "oracle.moments_quadrature.self_s": self_s(["oracle.moments_quadrature"]),
        "oracle.quadrature_nodes": sum(s[ATTRS]["nodes"] for s in quadratures if s[ATTRS]),
        "oracle.order_escalations": sum(n - 1 for n in per_adjudication.values()),
        "dataio.load_dataset.self_s": self_s(["dataio.load_dataset"]),
        "dataio.writers.self_s": self_s(starting("dataio.write_", "simulate.write_")),
        "cli.main.self_s": self_s(["cli.main"]),
        "metrics.self_s": self_s(starting("metrics.")),
    }
