"""Run a fixed set of glmmfp commands and record the sha256 of every file they
write, with each command's exit code and the versions that computed them.

    python tests/record_manifest.py [PATH] [--keep DIR]
    python tests/record_manifest.py --compare DIR_A DIR_B

writes the manifest to PATH, by default ``tests/output_manifest.json``, the
one that ``tests/test_output_manifest.py`` compares a fresh run with.  Beside
the digests it records ``verify``'s verdict and ``oracle_order`` for each
adjudication on battery seeds 0-39, one line per seed.  A change that moves
output bytes on purpose re-records it and lists each moved file.  The
commands run in one process at one BLAS thread, since the thread count
changes the bytes; the inputs are made here and hashed too.  They run in a
temporary directory, or with ``--keep`` in DIR, new or empty, which keeps
every file they read and write: run it on two commits, and the values of
each moved file can be compared, not only its digest.  ``--compare`` does
that for two such directories: it prints each file that differs, with the
largest absolute and relative move of its numbers, overall and per key (a
JSON path, list positions written ``[]``, or a CSV column), and each key
that only one side has, and runs nothing.
"""

import os

# before numpy loads: the bytes are defined at one BLAS thread (run as a
# script; a test that imports the module leaves its process's settings alone)
if __name__ == "__main__":
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from glmmfp import cli, dataio  # noqa: E402

MANIFEST = HERE / "output_manifest.json"

FIXED = {"beta": [4.5], "matern": {"omega1": 0.5, "omega2": 1.5}}
ESTIMATED = {"beta": "estimate", "matern": "estimate"}
VALIDATE = {"splits": 3, "n_train": 40, "n_test": 15}
SIMULATE = {"n": 60, "n_star": 40, "replications": 3,
            "scenarios": ["oracle", "sic_true", "sic_estimated"]}

# name: (config, argv after the subcommand's --config and --out)
COMMANDS = {
    "fit-fixed": ({"family": "poisson", **FIXED}, ["fit", "--data", "train.csv"]),
    "fit-estimated": ({"family": "poisson", **ESTIMATED}, ["fit", "--data", "train.csv"]),
    "predict-fixed": (
        {"family": "poisson", **FIXED},
        ["predict", "--data", "train.csv", "--test", "test.csv"],
    ),
    "predict-estimated": (
        {"family": "poisson", **ESTIMATED},
        ["predict", "--data", "train.csv", "--test", "test.csv"],
    ),
    "validate-fixed": (
        {"family": "poisson", **FIXED, "validate": {**VALIDATE, "tiers": ["intercept"]}},
        ["validate", "--data", "train.csv", "--seed", "5"],
    ),
    "validate-estimated": (
        {"family": "poisson", **ESTIMATED, "validate": VALIDATE},
        ["validate", "--data", "train.csv", "--seed", "5"],
    ),
    "fit-binomial": (
        {"family": "binomial", "beta": [0.3], "matern": {"omega1": 0.4, "omega2": 0.8}},
        ["fit", "--data", "binomial.csv"],
    ),
    "fit-gaussian": (
        {"family": "gaussian", "gaussian_variance": 0.25, "beta": [1.0],
         "matern": {"omega1": 0.3, "omega2": 2.0, "omega3": 1.5}},
        ["fit", "--data", "gaussian.csv"],
    ),
    "simulate": ({"simulate": SIMULATE}, ["simulate", "--seed", "11"]),
    "verify-0": ({}, ["verify", "--seed", "0"]),
    "verify-1": ({}, ["verify", "--seed", "1"]),
}


# the battery seeds on which the manifest pins verify's verdicts and oracle orders
VERDICT_SEEDS = range(40)


def battery_verdicts(root: Path) -> dict:
    """``{seed: "verdict oracle_order, ..."}``: ``verify`` at each of ``VERDICT_SEEDS``,
    with the default config, run in ``root``; one pair per adjudication, in order."""
    config = root / "verify.json"
    config.write_text("{}")
    verdicts = {}
    for seed in VERDICT_SEEDS:
        out = root / f"verify-{seed}"
        cli.main(["verify", "--config", str(config), "--out", str(out), "--seed", str(seed),
                  "--quiet"])
        battery = json.loads((out / "verdicts.json").read_text())["battery"]
        verdicts[str(seed)] = ", ".join(f"{i['verdict']} {i['oracle_order']}" for i in battery)
    return verdicts


def environment() -> dict:
    """The versions that the bytes depend on, numpy's and scipy's OpenBLAS both."""
    def openblas(module):
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": {"numpy": openblas(np), "scipy": openblas(scipy)},
    }


def write_inputs(root: Path):
    """The datasets: synthetic counts, and binomial and Gaussian responses
    drawn here from numpy alone."""
    dataio.write_synthetic_counts(root / "train.csv", n_sites=60, seed=1)
    dataio.write_synthetic_counts(root / "test.csv", n_sites=15, seed=2)
    rng = np.random.default_rng(7)
    coords = rng.uniform(0.0, 1.0, size=(40, 2))
    trend = np.sin(3.0 * coords[:, 0]) + np.cos(2.0 * coords[:, 1])
    m = rng.integers(1, 9, size=40)
    y = rng.binomial(m, 1.0 / (1.0 + np.exp(-trend)))
    dataio.write_csv(root / "binomial.csv", ("y", "m", "x_coord", "y_coord"),
                     zip(y, m, *coords.T))
    y = 1.0 + trend + 0.5 * rng.standard_normal(40)
    dataio.write_csv(root / "gaussian.csv", ("y", "x_coord", "y_coord"), zip(y, *coords.T))


def run(root: Path) -> dict:
    """Run every command under ``root`` and hash every file there."""
    write_inputs(root)
    exit_codes = {}
    cwd = os.getcwd()
    os.chdir(root)  # the commands name their files relative to it
    try:
        for name, (config, argv) in COMMANDS.items():
            Path(f"{name}.json").write_text(json.dumps(config))
            argv = [argv[0], "--config", f"{name}.json", "--out", name, "--quiet", *argv[1:]]
            exit_codes[name] = cli.main(argv)
    finally:
        os.chdir(cwd)
    files = {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }
    with tempfile.TemporaryDirectory() as tmp:
        verdicts = battery_verdicts(Path(tmp))
    return {"environment": environment(), "exit_codes": exit_codes, "files": files,
            "battery_verdicts": verdicts}


def _number(value):
    """A CSV cell as a float when it reads as one, else the text."""
    try:
        return float(value)
    except ValueError:
        return value


def _leaves(value, key=""):
    """``(key, value)`` for each leaf of parsed JSON, list positions written ``[]``."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, f"{key}.{k}" if key else k)
    elif isinstance(value, list):
        for v in value:
            yield from _leaves(v, key + "[]")
    else:
        yield key, value


def keyed_values(path: Path) -> list:
    """``(key, value)`` pairs of a JSON file's leaves or a CSV file's cells.

    A CSV whose first row is not all numbers is keyed by that header row;
    one without a header has the one key ``values``.
    """
    if path.suffix == ".json":
        return list(_leaves(json.loads(path.read_text())))
    rows = [[_number(cell) for cell in row] for row in csv.reader(path.read_text().splitlines())]
    if rows and any(isinstance(cell, str) for cell in rows[0]):
        header, rows = rows[0], rows[1:]
        return [(key, cell) for row in rows for key, cell in zip(header, row)]
    return [("values", cell) for row in rows for cell in row]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _by_key(pairs: list) -> dict:
    """``{key: [value, ...]}`` of ``(key, value)`` pairs, keys in first-seen order."""
    values = {}
    for key, value in pairs:
        values.setdefault(key, []).append(value)
    return values


def moves(a: list, b: list, sides=("a", "b")) -> dict:
    """``{key: move}`` from ``a`` to ``b``, for each key whose values differ.

    A move is ``(largest absolute move, largest relative move)`` of the
    key's values, paired in order, or a string: "only in" the side of
    ``sides`` that has the key, a count of values on each side where they
    differ, or "not a number" where the values differ other than as numbers.
    """
    values_a, values_b = _by_key(a), _by_key(b)
    out = {}
    for key in {**values_a, **values_b}:
        if key not in values_b or key not in values_a:
            out[key] = f"only in {sides[key in values_b]}"
            continue
        xs, ys = values_a[key], values_b[key]
        if len(xs) != len(ys):
            out[key] = f"{len(xs)} values against {len(ys)}"
            continue
        for x, y in zip(xs, ys):
            numbers = _is_number(x) and _is_number(y)
            if x == y or (numbers and math.isnan(x) and math.isnan(y)):
                continue
            if not numbers or isinstance(out.get(key), str):
                out[key] = "not a number"
                continue
            step = abs(y - x)
            rel = step / abs(x) if x else math.inf
            worst = out.get(key, (0.0, 0.0))
            out[key] = (max(worst[0], step), max(worst[1], rel))
    return out


def compare(dir_a: Path, dir_b: Path) -> list:
    """One report line per file that differs between two ``--keep`` directories."""
    def files(root):
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    names_a, names_b = files(dir_a), files(dir_b)
    lines = [f"{name}: only in {dir_a if name in names_a else dir_b}"
             for name in sorted(names_a ^ names_b)]
    for name in sorted(names_a & names_b):
        a, b = dir_a / name, dir_b / name
        if a.read_bytes() == b.read_bytes():
            continue
        moved = moves(keyed_values(a), keyed_values(b), (dir_a, dir_b))
        numeric = [m for m in moved.values() if not isinstance(m, str)]
        head = f"{name}: largest move abs {max((m[0] for m in numeric), default=0.0):.3g}"
        head += f", rel {max((m[1] for m in numeric), default=0.0):.3g}"
        lines.append(head)
        for key, m in moved.items():
            lines.append(f"  {key}: " + (m if isinstance(m, str)
                                         else f"abs {m[0]:.3g}, rel {m[1]:.3g}"))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("path", nargs="?", default=MANIFEST, help="the manifest to write")
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="run in DIR, new or empty, and keep every file there")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="print the files that differ between two --keep "
                             "directories, and how far their numbers moved; run nothing")
    args = parser.parse_args(argv)
    if args.compare is not None:
        lines = compare(*args.compare)
        print("\n".join(lines) if lines else "no file differs")
        return
    if args.keep is None:
        with tempfile.TemporaryDirectory() as tmp:
            manifest = run(Path(tmp))
    else:
        root = args.keep.resolve()
        root.mkdir(parents=True, exist_ok=True)
        if any(root.iterdir()):
            parser.error(f"--keep {args.keep} is not empty")
        manifest = run(root)
    Path(args.path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
