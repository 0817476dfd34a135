"""The benchmark's workloads: seeded inputs, the timed body, output checks.

Every workload draws the inputs of repetition `rep` from the generator
seeded with (seed, rep), so one seed always gives the same inputs. The timed
body runs the program the way its CLI does; the checks and the exact
references run outside the timed part.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from coptrans import cli, formats, power
from coptrans.copula import CopulaHistogram, empirical_copula_from_data
from coptrans.transport import GroundCost, exact_ot, sinkhorn_values_batch

# A returned distance is the cost of a feasible plan, so it may undercut the
# exact optimum only by float rounding in either computation.
CHECK_RTOL = 1e-7


@dataclass
class Tally:
    """Operations attempted and failed in one run, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


class Cache:
    """Exact references and artifact digests of one (workload, seed, source).

    Lives in one JSON file, so a rerun of a seed skips the exact solves and
    compares its artifacts byte for byte with the earlier run's.
    """

    def __init__(self, path: Path):
        self.path = path
        self.data = {"refs": {}, "digests": {}}
        if path.exists():
            self.data = json.loads(path.read_text())

    def ref(self, kind: str, a: CopulaHistogram, b: CopulaHistogram, compute) -> float:
        key = hashlib.sha256(kind.encode() + a.mass.tobytes() + b.mass.tobytes()).hexdigest()
        refs = self.data["refs"]
        if key not in refs:
            refs[key] = float(compute())
        return refs[key]

    def same_digest(self, rep: int, digest: str) -> bool:
        """True unless an earlier run of this seed wrote other bytes for `rep`."""
        return self.data["digests"].setdefault(str(rep), digest) == digest

    def save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        partial = self.path.with_name(self.path.name + ".partial")
        partial.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(partial, self.path)


def artifact_digest(out: Path) -> str:
    """sha256 over every artifact but run-meta.json, which holds a timestamp."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name != "run-meta.json":
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def gap_exact(tally: Tally, pairs, what: str) -> float:
    """Check each (distance, exact optimum) pair; return the mean excess.

    The excess is in the cost's own units, not relative: the exact optimum
    of a member and its own cluster's centroid can be zero or nearly so, and
    ratios over such optima swing widely from one input to the next.
    """
    for d, e in pairs:
        tally.check(d >= e * (1 - CHECK_RTOL), f"{what} {d!r} undercuts the exact optimum {e!r}")
    return sum(d - e for d, e in pairs) / len(pairs) if pairs else float("nan")


def exact_from_counts(a: CopulaHistogram, b: CopulaHistogram, n_points: int) -> float:
    """Exact transport optimum between two empirical copulas of n_points each.

    Each cell holds a whole number of points, so the optimum is an
    assignment between the points' cell centres (Birkhoff). It equals the
    `exact_ot` LP optimum (the smoke run checks this) and takes about 0.2 s
    for 1000 points, where the LP over the support cells at m=24 takes
    tens of seconds.
    """
    m = a.m
    counts_a = np.rint(a.mass.ravel() * n_points).astype(np.int64)
    counts_b = np.rint(b.mass.ravel() * n_points).astype(np.int64)
    if counts_a.sum() != n_points or counts_b.sum() != n_points:
        raise ValueError("histograms are not empirical copulas of n_points points")
    pa, qa = np.divmod(np.repeat(np.arange(m * m), counts_a), m)
    pb, qb = np.divmod(np.repeat(np.arange(m * m), counts_b), m)
    cost = ((pa[:, None] - pb[None, :]) ** 2 + (qa[:, None] - qb[None, :]) ** 2).astype(float)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / (n_points * m * m))


def latent_table(n_vars: int, n_rows: int, noise: float, rng) -> tuple[list[str], np.ndarray]:
    """Linear, quadratic and sine columns of one latent variable, then pure noise.

    Each curve gets Gaussian noise of `noise` times its range.
    """
    z = rng.uniform(size=n_rows)
    curves = (("lin", z), ("quad", 4.0 * (z - 0.5) ** 2), ("sin", np.sin(2.0 * np.pi * z)))
    names, cols = [], []
    for j in range(n_vars):
        eps = rng.standard_normal(n_rows)
        if j % 4 == 3:
            names.append(f"noise{j}")
            cols.append(eps)
        else:
            tag, curve = curves[j % 4]
            names.append(f"{tag}{j}")
            cols.append(curve + noise * np.ptp(curve) * eps)
    return names, np.column_stack(cols)


def _pair_copulas(path: Path, m: int) -> list[CopulaHistogram]:
    table = formats.load_csv(path)
    return [
        empirical_copula_from_data(table.column(i), table.column(j), m)
        for i in range(table.N) for j in range(i + 1, table.N)
    ]


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _span(tracer, name: str):
    return tracer.span(name, site="bench") if tracer is not None else nullcontext()


class TableWorkload:
    """A CLI command over a seeded latent-variable table, one fresh table per repetition.

    `checked_reps` is how many leading repetitions have their outputs
    compared with exact optima.
    """

    name = command = ""
    n_vars = m = checked_reps = 0
    n_rows, noise = 2000, 0.2
    cycle = 1  # repetitions before the inputs' kind repeats

    def __init__(self, smoke: bool):
        if smoke:
            self.m, self.n_rows = 5, 300

    def setup(self, seed: int):
        self.seed = seed

    def prepare(self, rep: int, work: Path):
        rng = np.random.default_rng([self.seed, rep])
        names, data = latent_table(self.n_vars, self.n_rows, self.noise, rng)
        path = work / f"input-{rep}.csv"
        formats.write_csv_atomic(path, names, data.tolist())
        return path, int(rng.integers(2**31))

    def argv(self, inp, out: Path) -> list[str]:
        return [self.command, "--input", str(inp[0]), "--m", str(self.m), "--out", str(out)]

    def run(self, inp, out: Path, tally: Tally, tracer):
        """One CLI invocation, counted as one operation; a nonzero exit fails it."""
        tally.check(cli.main(self.argv(inp, out)) == 0, f"coptrans {self.command} exited nonzero")


class Dist(TableWorkload):
    """`coptrans dist` at m=24 over the 3 pair copulas of a 3-variable table."""

    name, command, n_vars, m, checked_reps = "dist-m24", "dist", 3, 24, 8
    n_rows, noise = 1000, 0.3

    @staticmethod
    def _matrix(out: Path) -> np.ndarray:
        return np.array([[float(v) for v in row[1:]]
                         for row in _read_rows(out / "distance-matrix.csv")])

    def check(self, inp, out: Path, tally: Tally):
        d = self._matrix(out)
        n = self.n_vars * (self.n_vars - 1) // 2
        tally.check(d.shape == (n, n) and bool(np.all(np.isfinite(d)))
                    and np.array_equal(d, d.T),
                    "distance matrix is not finite and bitwise symmetric")

    def accuracy(self, runs, cache: Cache, tally: Tally) -> dict:
        pairs = []
        for inp, out in runs:
            d = self._matrix(out)
            hists = _pair_copulas(inp[0], self.m)
            for i in range(len(hists)):
                for j in range(i + 1, len(hists)):
                    exact = cache.ref("counts", hists[i], hists[j],
                                      lambda: exact_from_counts(hists[i], hists[j], self.n_rows))
                    pairs.append((d[i, j], exact))
        return {"gap_exact": gap_exact(tally, pairs, "distance")}


class Cluster(TableWorkload):
    """`coptrans cluster --k 3` at m=10 over the 10 pair copulas of a 5-variable table."""

    name, command, n_vars, m, k, checked_reps = "cluster-m10", "cluster", 5, 10, 3, 5

    def argv(self, inp, out: Path) -> list[str]:
        return super().argv(inp, out) + ["--k", str(self.k), "--seed", str(inp[1])]

    @staticmethod
    def _assignment(out: Path):
        return [(int(row[2]), float(row[3])) for row in _read_rows(out / "assignment.csv")]

    def check(self, inp, out: Path, tally: Tally):
        rows = self._assignment(out)
        n = self.n_vars * (self.n_vars - 1) // 2
        tally.check(
            len(rows) == n and all(0 <= c < self.k and np.isfinite(d) for c, d in rows)
            and all((out / f"centroid_{c}.cop").exists() for c in range(self.k)),
            "assignment.csv names an invalid cluster or distance")

    def accuracy(self, runs, cache: Cache, tally: Tally) -> dict:
        cost = GroundCost(self.m)
        pairs = []
        for inp, out in runs:
            hists = _pair_copulas(inp[0], self.m)
            centroids = [formats.read_cop(out / f"centroid_{c}.cop") for c in range(self.k)]
            for h, (c, d) in zip(hists, self._assignment(out)):
                pairs.append((d, cache.ref("lp", h, centroids[c],
                                           lambda: exact_ot(h, centroids[c], cost)[0])))
        return {"gap_exact": gap_exact(tally, pairs, "distance_to_centroid")}


class Power:
    """What `coptrans power` does for one (pattern, noise) cell per repetition.

    Set-up builds the TFDC targets, as cmd_power does before its loop. Every
    coefficient goes in wrapped, so a raised evaluation counts as a failure
    before `estimate_power` turns it into -inf.
    """

    name = "power-m12"
    cells = (("circle", 1.0), ("sin4pi", 0.5))
    cycle = len(cells)
    coefficients = ("tfdc", "dcor", "rdc")
    checked_reps = 2
    fully_checked = 3  # leading TFDC evaluations checked against all 9 exact distances

    def __init__(self, smoke: bool):
        self.m, self.t_ref, self.sample_size, self.n_sims = (
            (5, 5000, 60, 10) if smoke else (12, 100_000, 200, 10))
        self.samples = {}

    def setup(self, seed: int):
        self.seed = seed
        self.spec = power.tfdc_power_targets(m=self.m, T_ref=self.t_ref, seed=seed)

    def prepare(self, rep: int, work: Path):
        pattern, noise = self.cells[rep % len(self.cells)]
        return rep, pattern, noise, int(np.random.default_rng([self.seed, rep]).integers(2**31))

    def _counted(self, name: str, rep: int, tally: Tally, tracer):
        if name == "tfdc":
            func, layer = power.make_tfdc_coefficient(self.spec), "dependence.tfdc"
        else:
            func, layer = power.COEFFICIENTS[name], "dependence.baseline"
        samples = None  # record a checked repetition's evaluations on its first run only
        if rep < self.checked_reps and rep not in self.samples:
            samples = self.samples[rep] = []

        def coefficient(x, y):
            tally.attempted += 1
            try:
                with _span(tracer, layer):
                    value = func(x, y)
            except Exception as exc:
                tally.failed += 1
                tally.notes.append(f"{name} raised {exc!r}")
                raise
            if name == "tfdc":
                tally.check(0.0 <= value <= 1.0, f"TFDC value {value} outside [0, 1]")
                if samples is not None:
                    samples.append((x.copy(), y.copy(), value))
            return value

        coefficient.__name__ = name
        return coefficient

    def run(self, inp, out: Path, tally: Tally, tracer):
        rep, pattern, noise, seed = inp
        rows = []
        for name in self.coefficients:
            coefficient = self._counted(name, rep, tally, tracer)
            with _span(tracer, "power.estimate"):
                res = power.estimate_power(pattern, noise, coefficient, n_sims=self.n_sims,
                                           sample_size=self.sample_size, seed=seed)
            rows.append((res.pattern, res.noise_level, res.coefficient, res.power,
                         res.n_sims, res.sample_size, res.seed))
        out.mkdir(parents=True, exist_ok=True)
        formats.write_csv_atomic(out / "power.csv",
                                 ["pattern", "noise", "coefficient", "power",
                                  "n_sims", "sample_size", "seed"], rows)

    def check(self, inp, out: Path, tally: Tally):
        rows = _read_rows(out / "power.csv")
        tally.check(len(rows) == len(self.coefficients)
                    and all(0.0 <= float(row[3]) <= 1.0 for row in rows),
                    "power.csv is incomplete or holds a power outside [0, 1]")

    def accuracy(self, runs, cache: Cache, tally: Tally) -> dict:
        """Gap of the distances behind TFDC, and TFDC's own error, against exact LPs.

        Every TFDC evaluation of the checked repetitions contributes two of
        its 9 distances, taking the references in turn. The first few also
        get all 9: TFDC rebuilt from them must equal the timed run's value
        bit for bit (the batch is the one `tfdc` solves), and TFDC from the
        exact distances gives `tfdc_abs_err`.
        """
        spec = self.spec
        refs = (*spec.forgets, *spec.targets)
        n_forget = len(spec.forgets)

        def score(d):
            d_forget, d_target = float(min(d[:n_forget])), float(min(d[n_forget:]))
            return d_forget / (d_forget + d_target)

        def exact(ref, cop):
            return cache.ref("lp", ref, cop, lambda: exact_ot(ref, cop, spec.cost)[0])

        evaluations = [e for inp, _ in runs for e in self.samples.get(inp[0], [])]
        pairs, errors = [], []
        for i, (x, y, value) in enumerate(evaluations):
            cop = empirical_copula_from_data(x, y, self.m)
            turns = [(2 * i) % len(refs), (2 * i + 1) % len(refs)]
            if i < self.fully_checked:
                solver = sinkhorn_values_batch(refs, [cop] * len(refs), spec.cost, spec.cfg)
                tally.check(score(solver) == value, "TFDC value does not reproduce")
                errors.append(abs(value - score([exact(ref, cop) for ref in refs])))
                d = [solver[t] for t in turns]
            else:
                d = sinkhorn_values_batch([refs[t] for t in turns], [cop, cop],
                                          spec.cost, spec.cfg)
            pairs.extend((d_t, exact(refs[t], cop)) for d_t, t in zip(d, turns))
        return {"gap_exact": gap_exact(tally, pairs, "TFDC distance"),
                "tfdc_abs_err": max(errors, default=float("nan"))}


WORKLOADS = {w.name: w for w in (Dist, Cluster, Power)}


def check_exact_from_counts(tally: Tally):
    """The assignment reference matches the `exact_ot` LP on small grids."""
    _, data = latent_table(3, 300, 0.2, np.random.default_rng(0))
    for m in (4, 6):
        a = empirical_copula_from_data(data[:, 0], data[:, 1], m)
        b = empirical_copula_from_data(data[:, 0], data[:, 2], m)
        lp = exact_ot(a, b, GroundCost(m))[0]
        tally.check(abs(exact_from_counts(a, b, 300) - lp) <= 1e-9 * lp,
                    f"assignment and LP optima differ at m={m}")
