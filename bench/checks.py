"""Output checks behind ``check_failures``.

Each check takes a command's parsed outputs and returns the list of what
is wrong with them (empty when they are right).  The checks compare with
tolerances and independent references, never with the bytes this commit
writes, so a solver change that moves iterates at the 1e-10 level passes.
"""

from __future__ import annotations

import csv
import io

SIC_RL2_MAX = 0.01            # sic_true relative loss at the observed sites
RL2_STAR_GAP_MAX = 0.02       # |rl2_star(sic_true) - rl2_star(oracle)|; 3e-4 to 1.2e-3 measured
IDENTITY_GAP_MAX = 1e-8
# The adjudicator's confirmation floor: a count-family instance whose mode
# and mean agree this closely is rightly CONFIRMED (battery seed 230 has a
# binomial instance with a gap of 3e-8), so only larger gaps must be REFUTED.
CONFIRM_FLOOR = 1e-6
ESTIMATE_RTOL = 1e-4          # on max(1, |reference|); a tol of 1e-12 moved them by 1.1e-6


def check_exit(rc, error) -> list:
    if error is not None:
        return [f"command raised {error}"]
    if rc != 0:
        return [f"exit code {rc}"]
    return []


def check_simulate(table_csv: str, audit: dict) -> list:
    """Acceptance-5 quantities of one ``simulate`` command (oracle, sic_true)."""
    rows = {row["scenario"]: row for row in csv.DictReader(io.StringIO(table_csv))}
    missing = {"oracle", "sic_true"} - rows.keys()
    if missing:
        return [f"table.csv lacks scenario rows {sorted(missing)}"]
    problems = []
    if float(rows["oracle"]["rl2"]) != 0.0:
        problems.append(f"oracle rl2 is {rows['oracle']['rl2']}, not 0")
    sic_rl2 = float(rows["sic_true"]["rl2"])
    if not sic_rl2 <= SIC_RL2_MAX:
        problems.append(f"sic_true rl2 {sic_rl2:.3g} > {SIC_RL2_MAX}")
    gap = abs(float(rows["sic_true"]["rl2_star"]) - float(rows["oracle"]["rl2_star"]))
    if not gap <= RL2_STAR_GAP_MAX:
        problems.append(f"rl2_star gap {gap:.3g} > {RL2_STAR_GAP_MAX}")
    failed = sum(audit["failures"].values())
    if failed:
        problems.append(f"{failed} failed replications")
    return problems


def check_repeat(first: dict, second: dict) -> list:
    """Two runs of one command on one seed wrote the same bytes."""
    return [f"{name} differs between two runs on one seed"
            for name in sorted(first) if first[name] != second.get(name)]


def check_estimate(report: dict, start_objective: float, reference: dict) -> list:
    """One ``fit`` with ``beta`` and ``matern`` estimated."""
    est = report.get("estimation")
    if est is None:
        return ["report.json has no estimation record"]
    problems = []
    if not est["optimizer_converged"]:
        problems.append("optimizer did not converge")
    if not est["objective"] >= start_objective - 1e-9 * max(1.0, abs(start_objective)):
        problems.append(
            f"surrogate at the estimate {est['objective']!r} is below "
            f"the start point's {start_objective!r}"
        )
    for key, got, want in (
        ("beta_hat", est["beta_hat"], reference["beta_hat"]),
        ("omega_hat", est["omega_hat"][:2], reference["omega_hat"]),
    ):
        for g, w in zip(got, want):
            if not abs(g - w) <= ESTIMATE_RTOL * max(1.0, abs(w)):
                problems.append(f"{key} {got} is not within {ESTIMATE_RTOL} of {want}")
                break
    return problems


def check_verify(verdicts: dict) -> list:
    """Identity suite and exactness verdicts of one ``verify`` command."""
    problems = []
    gap = verdicts["identity"]["max_gap"]
    if not gap <= IDENTITY_GAP_MAX:
        problems.append(f"identity max_gap {gap:.3g} > {IDENTITY_GAP_MAX}")
    for i, inst in enumerate(verdicts["battery"]):
        if inst["family"] == "gaussian":
            want = "CONFIRMED"
        elif max(inst["mean_gap"], inst["cov_gap"]) <= CONFIRM_FLOOR:
            want = "CONFIRMED"
        else:
            want = "REFUTED"
        if inst["verdict"] != want:
            problems.append(f"instance {i} ({inst['family']}) is {inst['verdict']}, not {want}")
    return problems
