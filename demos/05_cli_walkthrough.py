"""Drive the command-line interface end to end from Python.

Generates a synthetic count dataset, writes a JSON run configuration,
then invokes the ``fit``, ``predict``, and ``verify`` subcommands the
same way a shell user would (``glmmfp fit --config ... --data ...``).
Everything happens inside a temporary directory.
"""

import json
import tempfile
from pathlib import Path

from glmmfp.cli import main
from glmmfp.dataio import write_synthetic_counts

workdir = Path(tempfile.mkdtemp(prefix="glmmfp_demo_"))
print(f"working in {workdir}\n")

# --- dataset and configuration -----------------------------------------
data = workdir / "counts.csv"
write_synthetic_counts(data, n_sites=60, seed=3)
print(f"wrote {data.name}: {len(data.read_text().splitlines()) - 1} sites")

config = workdir / "config.json"
config.write_text(
    json.dumps(
        {
            "family": "poisson",
            "beta": "estimate",
            "matern": {"omega1": 0.5, "omega2": 1.5},
            "seed": 0,
        },
        indent=2,
    )
)

# --- fit ---------------------------------------------------------------
fit_out = workdir / "fit"
code = main(["fit", "--config", str(config), "--data", str(data),
             "--out", str(fit_out), "--quiet"])
print(f"\nglmmfp fit -> exit {code}")
report = json.loads((fit_out / "report.json").read_text())
print(f"  converged in {report['iterations']} iterations"
      f" ({report['step_halvings']} step halvings)")
print(f"  estimated beta: {report['estimation']['beta_hat']}")

# --- predict at fresh sites --------------------------------------------
test = workdir / "new_sites.csv"
test.write_text(
    "x_coord,y_coord\n0.10,0.10\n0.50,0.40\n0.90,0.70\n"
)
pred_out = workdir / "pred"
code = main(["predict", "--config", str(config), "--data", str(data),
             "--test", str(test), "--out", str(pred_out), "--quiet"])
print(f"\nglmmfp predict -> exit {code}")
print((pred_out / "predictions.csv").read_text().strip())

# --- verify the numerical core -----------------------------------------
ver_out = workdir / "verify"
code = main(["verify", "--config", str(config), "--out", str(ver_out),
             "--quiet"])
print(f"\nglmmfp verify -> exit {code}")
verdicts = json.loads((ver_out / "verdicts.json").read_text())
print(f"  identity suite max gap: {verdicts['identity']['max_gap']:.3e}")
counts = {}
for inst in verdicts["battery"]:
    counts[inst["verdict"]] = counts.get(inst["verdict"], 0) + 1
print(f"  adjudication verdicts:  {counts}")
