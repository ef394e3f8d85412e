"""Record the reference estimates that ``estimate-n100``'s checks compare with.

Usage (from the repository root)::

    python3 bench/record_reference.py

Fits every dataset of the workload's pool through the CLI, with one BLAS
thread, and writes ``bench/estimate_reference.json``.  Rerun it only when
the estimator's answer is meant to change; the checks allow
``checks.ESTIMATE_RTOL`` around these values.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import glmmfp.cli  # noqa: E402

from workloads import REFERENCE, WORKLOADS  # noqa: E402


def main() -> None:
    workload = WORKLOADS["estimate-n100"]
    keys = list(range(workload.sizes["pool"]))
    datasets = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        workload.prepare(workdir, keys)
        for key in keys:
            out = workdir / f"out-{key}"
            if glmmfp.cli.main(workload.argv(workdir, key, out)) != 0:
                raise SystemExit(f"fit failed on dataset {key}")
            est = json.loads((out / "report.json").read_text())["estimation"]
            datasets[str(key)] = {"beta_hat": est["beta_hat"], "omega_hat": est["omega_hat"][:2]}
            print(key, datasets[str(key)], flush=True)
    payload = {
        "about": "glmmfp fit estimates (beta, omega1, omega2) on write_synthetic_counts "
                 f"datasets, n_sites={workload.sizes['n_sites']}, keyed by dataset seed",
        "datasets": datasets,
    }
    REFERENCE.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
