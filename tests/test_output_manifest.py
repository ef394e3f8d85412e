"""Every subcommand's output bytes against the committed manifest.

``record_manifest.py`` runs ``fit``, ``predict`` and ``validate`` with fixed
and estimated parameters, a binomial and a Gaussian ``fit``, ``simulate``
with all three scenarios and ``verify`` at two seeds, in one process at one
BLAS thread, and hashes every file that they read and write.  A change that
moves bytes on purpose re-records ``output_manifest.json`` with it and lists
the moved files; one that moves them by accident fails here.  The manifest
also pins ``verify``'s verdict and ``oracle_order`` for each adjudication on
battery seeds 0-39, which a fresh in-process run must repeat.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORD = HERE / "record_manifest.py"
MANIFEST = HERE / "output_manifest.json"


def differences(want: dict, got: dict) -> list:
    """The keys of two ``{name: value}`` maps whose values differ, a missing one
    included."""
    return sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))


def test_output_bytes_match_the_manifest(tmp_path):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    path, kept = tmp_path / "manifest.json", tmp_path / "kept"
    proc = subprocess.run(
        [sys.executable, str(RECORD), str(path), "--keep", str(kept)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got, want = json.loads(path.read_text()), json.loads(MANIFEST.read_text())
    # --keep leaves every hashed file in place, so a moved one can be read
    assert got["files"] == {
        name: hashlib.sha256((kept / name).read_bytes()).hexdigest() for name in got["files"]
    }
    # the bytes are those of one set of versions; on another, this test fails
    # rather than skips, so that no environment passes it unchecked
    assert got["environment"] == want["environment"], (
        f"{MANIFEST.name} was recorded with {want['environment']}, but this "
        f"environment has {got['environment']}"
    )
    codes = differences(want["exit_codes"], got["exit_codes"])
    assert not codes, "exit codes differ: " + ", ".join(
        f"{k} {want['exit_codes'].get(k)} -> {got['exit_codes'].get(k)}" for k in codes
    )
    files = differences(want["files"], got["files"])
    assert not files, f"output bytes differ from {MANIFEST.name} in: {', '.join(files)}"


def test_battery_verdicts_match_the_manifest(tmp_path):
    import record_manifest

    want = json.loads(MANIFEST.read_text())["battery_verdicts"]
    got = record_manifest.battery_verdicts(tmp_path)
    assert got.keys() == want.keys()
    moved = [
        f"seed {seed}, instance {i}: {a} -> {b}"
        for seed in want
        for i, (a, b) in enumerate(
            itertools.zip_longest(want[seed].split(", "), got[seed].split(", "))
        )
        if a != b
    ]
    assert not moved, "verify verdicts differ from the manifest: " + "; ".join(moved)


def test_keep_refuses_a_directory_that_is_not_empty(tmp_path):
    (tmp_path / "stale.csv").write_text("y\n")
    proc = subprocess.run(
        [sys.executable, str(RECORD), str(tmp_path / "manifest.json"), "--keep", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2 and "is not empty" in proc.stderr
    assert not (tmp_path / "manifest.json").exists()


def test_compare_names_each_moved_file_and_its_largest_moves(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root, gap, rl2 in ((a, 0.5, "0.25"), (b, 0.5 + 1e-12, "0.2500000001")):
        (root / "run").mkdir(parents=True)
        (root / "run" / "verdicts.json").write_text(json.dumps(
            {"battery": [{"gap": 2.0, "verdict": "REFUTED"}, {"gap": gap, "verdict": "REFUTED"}]}
        ))
        (root / "run" / "table.csv").write_text(f"scenario,rl2\noracle,0\nsic,{rl2}\n")
        (root / "Xi.csv").write_text("1,2\n2,5\n")
    (b / "extra.csv").write_text("1\n")
    proc = subprocess.run(
        [sys.executable, str(RECORD), "--compare", str(a), str(b)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == f"extra.csv: only in {b}"
    assert lines[1] == "run/table.csv: largest move abs 1e-10, rel 4e-10"
    assert lines[2] == "  rl2: abs 1e-10, rel 4e-10"
    assert lines[3].startswith("run/verdicts.json: largest move abs 1e-12, rel 2e-12")
    assert lines[4].startswith("  battery[].gap: abs 1e-12")
    assert len(lines) == 5  # Xi.csv is byte-identical
    # the manifest is left alone: compare runs nothing
    assert not any(tmp_path.glob("*.json"))


def test_compare_names_each_key_only_one_side_has(tmp_path):
    # a record that gains and loses keys: each is named as a JSON path, and the
    # keys both sides share still report their moves
    a, b = tmp_path / "a", tmp_path / "b"
    for root, record in (
        (a, {"rl2": 0.5, "stop": "gradient"}),
        (b, {"rl2": 0.5 + 1e-12, "fits": 5, "beta_hat": [1.0, 2.0]}),
    ):
        root.mkdir()
        (root / "audit.json").write_text(json.dumps({"records": [{"sic": record}] * 2}))
        (root / "table.csv").write_text("rl2\n0.25\n" + ("" if root == a else "0.5\n"))
    proc = subprocess.run(
        [sys.executable, str(RECORD), "--compare", str(a), str(b)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "audit.json: largest move abs 1e-12, rel 2e-12",
        "  records[].sic.rl2: abs 1e-12, rel 2e-12",
        f"  records[].sic.stop: only in {a}",
        f"  records[].sic.fits: only in {b}",
        f"  records[].sic.beta_hat[]: only in {b}",
        "table.csv: largest move abs 0, rel 0",
        "  rl2: 1 values against 2",
    ]
