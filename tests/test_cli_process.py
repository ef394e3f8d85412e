"""The command line run as its own process: ``python -m glmmfp`` and the
scipy submodules each subcommand imports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from glmmfp import dataio

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("scipy.optimize", "scipy.spatial", "scipy.special")


def run(module, *argv, importtime=False):
    return python(*(["-X", "importtime"] if importtime else []), "-m", module, *argv)


def python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def imported(stderr: str) -> set:
    """Modules named in ``-X importtime``'s report, one per import."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


def loaded(package: str, modules: set) -> bool:
    # scipy's lazy submodule loader can import a package without a line of its own
    return any(m == package or m.startswith(package + ".") for m in modules)


def write_config(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("module", ["glmmfp", "glmmfp.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    config = write_config(tmp_path, {"verify": {"identity_instances": 5, "order": 16}})
    out = tmp_path / "out"
    proc = run(module, "verify", "--config", config, "--out", str(out),
               "--seed", "5", "--quiet")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads((out / "verdicts.json").read_text())
    assert payload["seed"] == 5


class TestImportWeight:
    """Each subcommand imports only the scipy submodules it runs."""

    def command(self, tmp_path, name):
        data = tmp_path / "counts.csv"
        dataio.write_synthetic_counts(data, n_sites=25, seed=1)
        test = tmp_path / "test.csv"
        test.write_text("x_coord,y_coord\n0.5,1.5\n2.0,0.25\n")
        fixed = {"family": "poisson", "beta": [4.5],
                 "matern": {"omega1": 0.5, "omega2": 1.5}}
        estimated = {"family": "poisson", "beta": "estimate", "matern": "estimate"}
        simulate = {"simulate": {"n": 20, "n_star": 10, "replications": 1,
                                 "scenarios": ["oracle", "sic_true"]}}
        verify = {"verify": {"identity_instances": 5, "order": 16}}
        config, argv = {
            "verify": (verify, ["verify", "--seed", "5"]),
            "simulate": (simulate, ["simulate", "--seed", "3"]),
            "fit-fixed": (fixed, ["fit", "--data", str(data)]),
            "fit-estimated": (estimated, ["fit", "--data", str(data)]),
            "predict": (fixed, ["predict", "--data", str(data), "--test", str(test)]),
        }[name]
        return [*argv, "--config", write_config(tmp_path, config),
                "--out", str(tmp_path / "out"), "--quiet"]

    @pytest.mark.parametrize("name, expected", [
        ("verify", set()),
        # the site distances are numpy's, so no spatial command loads scipy.spatial
        ("simulate", set()),
        ("fit-fixed", set()),
        ("fit-estimated", set()),
        ("predict", set()),
    ])
    def test_deferred_submodules(self, tmp_path, name, expected):
        proc = run("glmmfp", *self.command(tmp_path, name), importtime=True)
        assert proc.returncode == 0, proc.stderr
        modules = imported(proc.stderr)
        assert "glmmfp.cli" in modules
        assert {m for m in DEFERRED if loaded(m, modules)} == expected

    def test_bare_import(self):
        # the benchmark's tracer binds scipy.linalg right after this import
        proc = python("-X", "importtime", "-c", "import glmmfp.cli")
        assert proc.returncode == 0, proc.stderr
        modules = imported(proc.stderr)
        assert loaded("scipy.linalg", modules)
        assert not any(loaded(m, modules) for m in DEFERRED)
