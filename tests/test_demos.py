"""Each narrative demo, and README's library tour, runs against the current package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = str(tmp_path)  # demo 05 works in a mkdtemp directory
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]


def test_readme_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    exec(compile(tour, "README.md", "exec"), namespace)
    report = namespace["report"]
    assert report.converged and report.xi.shape == (15,)
    prediction = namespace["prediction"]
    assert prediction.xi_star.shape == prediction.y_hat_star.shape == (4,)
    # the joint prior's leading block is the observed prior: the same mode
    assert np.array_equal(prediction.report.xi, report.xi)
