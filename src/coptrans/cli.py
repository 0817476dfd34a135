"""Subcommand CLI tying the pipeline together.

Commands: copula, dist, cluster, tfdc, query, synth, power. `main` does what
every command shares: it reads `--input` for a table command, creates
`--out`, runs the command and writes a run-meta.json manifest recording all
parameters, plus any extra fields the command returns. When a command fails
or raises, an `--out` that `main` made and that is still empty is removed.
Exit codes: 0 success, 2 parse/config error, 3 convergence failure, 4 I/O
error.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
# centroid_report is imported only because perfbench/tracer.py patches this name.
from .clustering import centroid_report, cluster_copulas
from .copula import empirical_copula_from_data
from .dependence import TFDCSpec, tfdc
from .errors import ConvergenceFailure, CoptransError, InvalidData, InvalidParameter, IoError
from .formats import (
    load_csv,
    read_cop,
    write_cop,
    write_csv_atomic,
    write_heatmap,
    write_run_manifest,
)
from .power import (COEFFICIENTS, estimate_power, make_tfdc_coefficient, registry_coefficient,
                    tfdc_power_targets)
from .synth import POWER_PATTERNS, check_power_pattern, generate
from .transport import (
    GroundCost,
    SinkhornConfig,
    default_lambda,
    pairwise_distance_matrix,
    sinkhorn_values_batch,
)


def _add_m_flag(p: argparse.ArgumentParser):
    p.add_argument("--m", type=int, default=20, help="grid resolution (default 20)")


def _add_transport_flags(p: argparse.ArgumentParser):
    _add_m_flag(p)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="entropic sharpness (default 10*m^2)")
    p.add_argument("--tol", type=float, default=1e-4,
                   help="marginal violation tolerance (default 1e-4)")
    p.add_argument("--max-iter", type=int, default=10000,
                   help="iteration cap (default 10000)")


def _sinkhorn_config(args) -> SinkhornConfig:
    lam = args.lam if args.lam is not None else default_lambda(args.m)
    return SinkhornConfig(lam=lam, max_iter=args.max_iter, tol=args.tol)


def _pair_copulas(table, m, first=1):
    """(labels, copulas) of every column pair (i, j) with j >= i + first, in
    np.triu_indices order; a label is (i, j, name_i, name_j).

    first=1 pairs distinct columns; first=0 also pairs each column with itself.
    """
    labels = [
        (i, j, table.names[i], table.names[j])
        for i in range(table.N)
        for j in range(i + first, table.N)
    ]
    if not labels:
        raise InvalidData(f"need at least 2 columns to pair, got {table.N}")
    return labels, [
        empirical_copula_from_data(table.column(i), table.column(j), m)
        for i, j, _, _ in labels
    ]


@contextmanager
def _naming_failures(labels, copulas_of):
    """Print the variable pairs of the copulas a ConvergenceFailure names.

    `copulas_of` maps one entry of `.pair` to the indices into `labels` of
    the copulas it involves (None for a reference). The first five names
    and the count go to stderr, and the failure propagates.
    """
    try:
        yield
    except ConvergenceFailure as exc:
        failing = sorted({i for p in exc.pair or () for i in copulas_of(p)} - {None})
        if failing:
            names = [f"{labels[i][2]}|{labels[i][3]}" for i in failing[:5]]
            more = ", ..." if len(failing) > 5 else ""
            print(f"failing pairs ({len(failing)}): {', '.join(names)}{more}", file=sys.stderr)
        raise


def cmd_copula(args, table, out):
    labels, hists = _pair_copulas(table, args.m)
    rows = []
    for pair_id, ((i, j, ni, nj), cop) in enumerate(zip(labels, hists)):
        fname = f"pair_{pair_id:04d}.cop"
        write_cop(cop, out / fname)
        rows.append((pair_id, i, j, ni, nj, fname))
    write_csv_atomic(out / "pairs.csv",
                     ["pair_id", "i", "j", "name_i", "name_j", "file"], rows)


def cmd_dist(args, table, out):
    labels, hists = _pair_copulas(table, args.m)
    # `.pair` holds (i, j) pairs of copula indices
    with _naming_failures(labels, lambda p: p):
        matrix = pairwise_distance_matrix(hists, GroundCost(args.m), _sinkhorn_config(args))
    tags = [f"{ni}|{nj}" for _, _, ni, nj in labels]
    rows = [[tags[r]] + [float(v) for v in matrix[r]] for r in range(len(tags))]
    write_csv_atomic(out / "distance-matrix.csv", ["pair"] + tags, rows)


def cmd_cluster(args, table, out):
    labels, hists = _pair_copulas(table, args.m)
    # `.pair` holds (member, centroid) pairs when a distance solve failed
    with _naming_failures(labels, lambda p: p[:1]):
        model = cluster_copulas(hists, args.k, GroundCost(args.m), _sinkhorn_config(args),
                                seed=args.seed, max_rounds=args.max_rounds)
    for cid, centroid in enumerate(model.centroids):
        write_cop(centroid, out / f"centroid_{cid}.cop")
        write_heatmap(centroid, out / f"centroid_{cid}.pgm")
    rows = [
        (labels[idx][2], labels[idx][3], int(cid), float(model.distances[idx, cid]))
        for idx, cid in enumerate(model.assignment)
    ]
    write_csv_atomic(out / "assignment.csv",
                     ["pair_i", "pair_j", "cluster", "distance_to_centroid"], rows)
    return {"objective_trace": list(model.objective_trace)}


def _load_cop_set(paths, m):
    hists = []
    for p in paths:
        h = read_cop(p)
        if h.m != m:
            raise InvalidData(f"{p}: resolution {h.m} does not match --m {m}")
        hists.append(h)
    return tuple(hists)


def cmd_tfdc(args, table, out):
    spec = TFDCSpec(
        targets=_load_cop_set(args.targets, args.m),
        forgets=_load_cop_set(args.forgets, args.m),
        cost=GroundCost(args.m),
        cfg=_sinkhorn_config(args),
        debias=args.debias,
    )
    labels, copulas = _pair_copulas(table, args.m, first=0)
    n = table.N
    iu, ju = np.triu_indices(n)
    matrix = np.zeros((n, n))
    # `.pair` holds (copula, reference) pairs
    with _naming_failures(labels, lambda p: p[:1]):
        matrix[iu, ju] = matrix[ju, iu] = tfdc(copulas, spec)
    rows = [[table.names[i]] + [float(v) for v in matrix[i]] for i in range(n)]
    write_csv_atomic(out / "tfdc-matrix.csv", ["variable"] + list(table.names), rows)


def cmd_query(args, table, out):
    (target,) = _load_cop_set([args.target], args.m)
    labels, hists = _pair_copulas(table, args.m)
    # `.pair` holds copula indices
    with _naming_failures(labels, lambda p: (p,)):
        values = sinkhorn_values_batch(hists, [target] * len(hists), GroundCost(args.m),
                                       _sinkhorn_config(args))
    order = np.argsort(values, kind="stable")
    rows = [
        (rank, labels[idx][2], labels[idx][3], float(values[idx]))
        for rank, idx in enumerate(order)
    ]
    write_csv_atomic(out / "ranking.csv",
                     ["rank", "pair_i", "pair_j", "distance"], rows)


def cmd_synth(args, table, out):
    x, y = generate(args.kind, args.T, args.seed, a=args.a, offset=args.offset,
                    pattern=args.pattern, noise_level=args.noise_level, rho=args.rho)
    write_csv_atomic(out / "data.csv", ["x", "y"],
                     [(float(a), float(b)) for a, b in zip(x, y)])


def cmd_power(args, table, out):
    patterns = args.patterns.split(",")
    try:
        noise_levels = [float(v) for v in args.noise_levels.split(",")]
    except ValueError as exc:  # float's message names the bad entry
        raise InvalidParameter(f"--noise-levels: {exc}") from None
    coefficients = args.coefficients.split(",")
    # check every input before the first cell, which can take minutes
    for pattern in patterns:
        for noise in noise_levels:
            check_power_pattern(pattern, noise)
    for name in coefficients:
        if name != "tfdc":
            registry_coefficient(name)
    tfdc_coefficient = None
    if "tfdc" in coefficients:
        tfdc_coefficient = make_tfdc_coefficient(tfdc_power_targets(
            m=args.m, T_ref=args.t_ref, seed=args.seed, debias=args.debias))
    rows = []
    for pattern in patterns:
        for noise in noise_levels:
            for name in coefficients:
                coeff = tfdc_coefficient if name == "tfdc" else name
                res = estimate_power(pattern, noise, coeff,
                                     n_sims=args.n_sims, sample_size=args.sample_size,
                                     seed=args.seed)
                rows.append((res.pattern, res.noise_level, res.coefficient, res.power,
                             res.n_sims, res.sample_size, res.seed))
    write_csv_atomic(out / "power.csv",
                     ["pattern", "noise", "coefficient", "power",
                      "n_sims", "sample_size", "seed"], rows)
    return {"rejection_level": 0.05, "null_protocol": "permutation"}


def _seed(text: str) -> int:
    """The --seed type: numpy's generators take only a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _command(sub, name, func, help, table=True):
    """Add subcommand `name` with `--out`, `--input` if it reads a table, and `func`."""
    p = sub.add_parser(name, help=help)
    if table:
        p.add_argument("--input", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coptrans",
        description="Explore and measure pairwise dependence with copulas "
                    "and optimal transport.",
    )
    parser.add_argument("--version", action="version", version=f"coptrans {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "copula", cmd_copula, "write empirical copula .cop files for all pairs")
    _add_m_flag(p)

    p = _command(sub, "dist", cmd_dist, "pairwise transport distance matrix over pair copulas")
    _add_transport_flags(p)

    p = _command(sub, "cluster", cmd_cluster,
                 "k-means over pair copulas with barycenter centroids")
    _add_transport_flags(p)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--max-rounds", type=int, default=100)

    p = _command(sub, "tfdc", cmd_tfdc,
                 "target/forget coefficient matrix for all variable pairs")
    _add_transport_flags(p)
    p.add_argument("--targets", type=Path, nargs="+", required=True,
                   help=".cop files of target copulas")
    p.add_argument("--forgets", type=Path, nargs="+", required=True,
                   help=".cop files of forget copulas")
    p.add_argument("--debias", action="store_true")

    p = _command(sub, "query", cmd_query, "rank pairs by distance to a target copula")
    _add_transport_flags(p)
    p.add_argument("--target", type=Path, required=True, help="target .cop file")

    p = _command(sub, "synth", cmd_synth, "generate a synthetic (x, y) dataset", table=False)
    p.add_argument("--kind", required=True,
                   choices=["discontinuity", "noisy_parabola", "power_pattern",
                            "gaussian_pair"])
    p.add_argument("--T", type=int, default=5000)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--a", type=float, default=0.5)
    p.add_argument("--offset", type=float, default=0.0)
    p.add_argument("--pattern", default="linear", choices=list(POWER_PATTERNS))
    p.add_argument("--noise-level", type=float, default=0.0)
    p.add_argument("--rho", type=float, default=0.0)

    p = _command(sub, "power", cmd_power, "power benchmark against the permutation null",
                 table=False)
    p.add_argument("--patterns", default=",".join(POWER_PATTERNS))
    p.add_argument("--noise-levels", default="0,0.5,1,1.5,2,2.5,3")
    p.add_argument("--coefficients",
                   default=",".join(sorted(COEFFICIENTS)) + ",tfdc")
    p.add_argument("--n-sims", type=int, default=100)
    p.add_argument("--sample-size", type=int, default=200)
    p.add_argument("--seed", type=_seed, required=True)
    _add_m_flag(p)
    p.add_argument("--t-ref", type=int, default=100_000)
    p.add_argument("--debias", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the directories that creating --out would make, innermost first
    missing = []
    for d in (args.out, *args.out.parents):
        if d.exists():
            break
        missing.append(d)
    code = None
    try:
        code = _run(args)
    finally:
        if code != 0:
            # a failed or interrupted command leaves no empty directory of its own
            # making; rmdir removes only an empty directory, never a file it wrote
            for d in missing:
                try:
                    d.rmdir()
                except OSError:
                    break
    return code


def _run(args) -> int:
    """Run the parsed command; returns the exit code."""
    try:
        # the table is read before --out exists, so a bad --input leaves no directory
        table = load_csv(args.input) if hasattr(args, "input") else None
        args.out.mkdir(parents=True, exist_ok=True)
        extra = args.func(args, table, args.out)
        params = {key: value for key, value in vars(args).items() if key != "func"}
        write_run_manifest(args.out, args.command, params, extra=extra)
    except ConvergenceFailure as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    except (IoError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except CoptransError as exc:  # parse and config errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
