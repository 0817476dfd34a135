"""File formats: CSV ingestion, the .cop histogram format, PGM heatmaps.

Writers are deterministic byte for byte: floats are serialized with repr
(shortest round-trip form) and files are written to a ".partial" path then
atomically renamed, so failures never leave partial artifacts behind.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .copula import CopulaHistogram, ObservationTable
from .errors import InvalidData, IoError, ParseError

__all__ = [
    "load_csv",
    "read_cop",
    "write_cop",
    "write_csv_atomic",
    "write_heatmap",
    "write_run_manifest",
]


def _atomic_write_text(path, text: str):
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    try:
        partial.write_text(text, encoding="utf-8")
        os.replace(partial, path)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def load_csv(path) -> ObservationTable:
    """Read a numeric CSV with a header row of variable names.

    Every data cell must parse as a finite number; offending rows are
    rejected with their 1-based line number.
    """
    path = Path(path)
    if not path.exists():
        raise ParseError(f"no such file: {path}", path=str(path))
    rows: list[list[float]] = []
    names: list[str] | None = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row:
                continue
            if names is None:
                names = [cell.strip() for cell in row]
                if any(not n for n in names):
                    raise ParseError("empty column name in header", path=str(path), line=lineno)
                continue
            if len(row) != len(names):
                raise ParseError(
                    f"line {lineno}: expected {len(names)} cells, got {len(row)}",
                    path=str(path), line=lineno,
                )
            try:
                values = [float(cell) for cell in row]
            except ValueError:
                raise ParseError(
                    f"line {lineno}: non-numeric cell", path=str(path), line=lineno
                ) from None
            if not all(math.isfinite(v) for v in values):
                raise ParseError(
                    f"line {lineno}: non-finite value", path=str(path), line=lineno
                )
            rows.append(values)
    if names is None:
        raise ParseError("empty file", path=str(path), line=None)
    if len(rows) < 2:
        raise ParseError(f"need at least 2 data rows, got {len(rows)}", path=str(path))
    return ObservationTable(names=tuple(names), data=np.asarray(rows))


def write_cop(c: CopulaHistogram, path):
    """Write a histogram: first line m, then m rows of m masses."""
    lines = [str(c.m)]
    for row in c.mass:
        lines.append(" ".join(repr(float(v)) for v in row))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def read_cop(path) -> CopulaHistogram:
    """Parse a .cop file; rejects negatives and total mass outside 1 +/- 1e-6."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"no such file: {path}", path=str(path))
    text = path.read_text(encoding="utf-8").strip().splitlines()
    if not text:
        raise ParseError("empty .cop file", path=str(path), line=1)
    try:
        m = int(text[0].strip())
    except ValueError:
        raise ParseError("first line must be the grid resolution m",
                         path=str(path), line=1) from None
    if m < 2 or len(text) != m + 1:
        raise ParseError(
            f"expected {m} mass rows after the header, got {len(text) - 1}",
            path=str(path), line=1,
        )
    grid = np.empty((m, m))
    for i, line in enumerate(text[1:], start=2):
        cells = line.split()
        if len(cells) != m:
            raise ParseError(f"line {i}: expected {m} masses, got {len(cells)}",
                             path=str(path), line=i)
        try:
            grid[i - 2] = [float(c) for c in cells]
        except ValueError:
            raise ParseError(f"line {i}: non-numeric mass", path=str(path), line=i) from None
    if not np.all(np.isfinite(grid)):
        raise ParseError("non-finite mass", path=str(path))
    if grid.min() < 0.0:
        raise ParseError(f"negative mass {grid.min()}", path=str(path))
    total = grid.sum()
    if abs(total - 1.0) > 1e-6:
        raise ParseError(f"total mass {total} outside 1 +/- 1e-6", path=str(path))
    return CopulaHistogram(grid / total)


def write_heatmap(c: CopulaHistogram, path):
    """Grayscale text PGM (P2): zero mass maps to white, the max cell to black.

    The first copula axis (u_x) runs horizontally to the right, the second
    vertically upward, so the comonotone grid renders as the bottom-left to
    top-right diagonal.
    """
    peak = c.mass.max()
    scaled = c.mass / peak
    # image row 0 is the top: the largest u_y bin
    pixels = 255 - np.floor(scaled.T[::-1, :] * 255.0 + 0.5).astype(int)
    lines = ["P2", f"{c.m} {c.m}", "255"]
    lines.extend(" ".join(str(v) for v in row) for row in pixels)
    _atomic_write_text(path, "\n".join(lines) + "\n")


def write_csv_atomic(path, header: list[str], rows):
    """Deterministic CSV writer; floats serialized via repr, cells holding
    commas, quotes or line breaks quoted as `load_csv` reads them."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write_text(path, buf.getvalue())


def write_run_manifest(out_dir, command: str, params: dict, extra: dict | None = None):
    """Record every parameter of a run, plus a timestamp, as run-meta.json."""
    payload = {
        "command": command,
        "parameters": params,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    if extra:
        payload.update(extra)
    _atomic_write_text(Path(out_dir) / "run-meta.json",
                       json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")
