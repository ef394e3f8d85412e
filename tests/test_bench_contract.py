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
