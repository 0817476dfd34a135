"""One digest over the artifacts of a fixed, seeded set of CLI runs.

Writes a seeded 1000-row, 6-column table to a temporary directory, runs
`copula`, `dist`, `cluster`, `query`, `tfdc` and `power` on it through
`coptrans.cli.main`, and prints the number of artifact files and one
sha256 over all of them but `run-meta.json`, which holds a timestamp.
Two source trees that print the same digest wrote the same bytes.

`coptrans` is imported from the PYTHONPATH the script runs with, so the
same script digests any checkout:

    PYTHONPATH=src python3 tools/cli_digest.py
    PYTHONPATH=/path/to/other/checkout/src python3 tools/cli_digest.py

Transport values depend on numpy's CPU dispatch, so only digests taken on
one machine compare. Exits 1 if a run exits nonzero.
"""

from __future__ import annotations

import csv
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from coptrans import cli


def write_table(path: Path):
    """Noisy sin, cos, tanh, square, cube and abs of three latent normals."""
    rng = np.random.default_rng(7)
    z = rng.normal(size=(1000, 3))
    cols = [np.sin(2.0 * z[:, 0]), np.cos(2.0 * z[:, 1]), np.tanh(z[:, 2]),
            z[:, 0] ** 2, z[:, 1] ** 3, np.abs(z[:, 2])]
    data = np.column_stack(cols) + 0.3 * rng.normal(size=(1000, len(cols)))
    with path.open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["sin", "cos", "tanh", "square", "cube", "abs"])
        w.writerows([repr(float(v)) for v in row] for row in data)


def runs(table: Path, work: Path) -> dict[str, list[str]]:
    """Each run's output directory name and its argv without --out."""
    cop = work / "copula"
    data = ["--input", str(table)]
    tfdc = ["tfdc", *data, "--m", "10",
            "--targets", str(cop / "pair_0001.cop"), str(cop / "pair_0007.cop"),
            "--forgets", str(cop / "pair_0004.cop")]
    return {
        "copula": ["copula", *data, "--m", "10"],
        "dist-m12": ["dist", *data, "--m", "12"],
        "dist-m24": ["dist", *data, "--m", "24"],
        "cluster-m10": ["cluster", *data, "--m", "10", "--k", "3", "--seed", "5"],
        "cluster-m8": ["cluster", *data, "--m", "8", "--k", "4", "--seed", "1"],
        "query": ["query", *data, "--m", "10", "--target", str(cop / "pair_0003.cop")],
        "tfdc": tfdc,
        "tfdc-debias": [*tfdc, "--debias"],
        "power": ["power", "--patterns", "circle,sin4pi", "--noise-levels", "0.5,1",
                  "--coefficients", "tfdc,dcor", "--n-sims", "10", "--m", "12",
                  "--t-ref", "20000", "--seed", "3"],
    }


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="cli-digest-") as tmp:
        work = Path(tmp)
        table = work / "table.csv"
        write_table(table)
        for name, argv in runs(table, work).items():
            code = cli.main([*argv, "--out", str(work / name)])
            if code != 0:
                print(f"{name}: exit {code}", file=sys.stderr)
                return 1
        h, count = hashlib.sha256(), 0
        for path in sorted(work.rglob("*")):
            if path.is_file() and path != table and path.name != "run-meta.json":
                h.update(path.relative_to(work).as_posix().encode() + b"\0")
                h.update(path.read_bytes())
                count += 1
    print(f"{count} files sha256 {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
