"""Subcommand CLI tying the pipeline together.

Commands: copula, dist, cluster, tfdc, query, synth, power. Every run writes
its artifacts plus a run-meta.json manifest recording all parameters. Exit
codes: 0 success, 2 parse/config error, 3 convergence failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
# centroid_report is imported only because perfbench/tracer.py patches this name.
from .clustering import centroid_report, cluster_copulas
from .copula import empirical_copula_from_data
from .dependence import TFDCSpec, tfdc
from .errors import ConvergenceFailure, CoptransError, InvalidData, IoError
from .formats import (
    load_csv,
    read_cop,
    write_cop,
    write_csv_atomic,
    write_heatmap,
    write_run_manifest,
)
from .power import COEFFICIENTS, estimate_power, make_tfdc_coefficient, tfdc_power_targets
from .synth import POWER_PATTERNS, ScenarioSpec, generate
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


def _add_out_flag(p: argparse.ArgumentParser):
    p.add_argument("--out", type=Path, required=True, help="output directory")


def _sinkhorn_config(args) -> SinkhornConfig:
    lam = args.lam if args.lam is not None else default_lambda(args.m)
    return SinkhornConfig(lam=lam, max_iter=args.max_iter, tol=args.tol)


def _pair_labels(table):
    return [
        (i, j, table.names[i], table.names[j])
        for i in range(table.N)
        for j in range(i + 1, table.N)
    ]


def _pair_copulas(table, m):
    return [
        empirical_copula_from_data(table.column(i), table.column(j), m)
        for i, j, _, _ in _pair_labels(table)
    ]


def _manifest_params(args):
    return {key: str(value) if isinstance(value, Path) else value
            for key, value in sorted(vars(args).items()) if key != "func"}


def _prepare_out(args) -> Path:
    args.out.mkdir(parents=True, exist_ok=True)
    return args.out


def cmd_copula(args) -> None:
    table = load_csv(args.input)
    out = _prepare_out(args)
    labels = _pair_labels(table)
    rows = []
    for pair_id, ((i, j, ni, nj), cop) in enumerate(
        zip(labels, _pair_copulas(table, args.m))
    ):
        fname = f"pair_{pair_id:04d}.cop"
        write_cop(cop, out / fname)
        rows.append((pair_id, i, j, ni, nj, fname))
    write_csv_atomic(out / "pairs.csv",
                     ["pair_id", "i", "j", "name_i", "name_j", "file"], rows)
    write_run_manifest(out, "copula", _manifest_params(args))


def cmd_dist(args) -> None:
    table = load_csv(args.input)
    out = _prepare_out(args)
    labels = _pair_labels(table)
    hists = _pair_copulas(table, args.m)
    matrix = pairwise_distance_matrix(hists, GroundCost(args.m), _sinkhorn_config(args))
    tags = [f"{ni}|{nj}" for _, _, ni, nj in labels]
    rows = [[tags[r]] + [float(v) for v in matrix[r]] for r in range(len(tags))]
    write_csv_atomic(out / "distance-matrix.csv", ["pair"] + tags, rows)
    write_run_manifest(out, "dist", _manifest_params(args))


def cmd_cluster(args) -> None:
    table = load_csv(args.input)
    out = _prepare_out(args)
    labels = _pair_labels(table)
    hists = _pair_copulas(table, args.m)
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
    write_run_manifest(out, "cluster", _manifest_params(args),
                       extra={"objective_trace": list(model.objective_trace)})


def _load_cop_set(paths, m):
    hists = []
    for p in paths:
        h = read_cop(p)
        if h.m != m:
            raise InvalidData(f"{p}: resolution {h.m} does not match --m {m}")
        hists.append(h)
    return tuple(hists)


def cmd_tfdc(args) -> None:
    table = load_csv(args.input)
    out = _prepare_out(args)
    spec = TFDCSpec(
        targets=_load_cop_set(args.targets, args.m),
        forgets=_load_cop_set(args.forgets, args.m),
        cost=GroundCost(args.m),
        cfg=_sinkhorn_config(args),
        debias=args.debias,
    )
    n = table.N
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            cop = empirical_copula_from_data(table.column(i), table.column(j), args.m)
            matrix[i, j] = matrix[j, i] = tfdc(cop, spec)
    rows = [[table.names[i]] + [float(v) for v in matrix[i]] for i in range(n)]
    write_csv_atomic(out / "tfdc-matrix.csv", ["variable"] + list(table.names), rows)
    write_run_manifest(out, "tfdc", _manifest_params(args))


def cmd_query(args) -> None:
    table = load_csv(args.input)
    out = _prepare_out(args)
    target = read_cop(args.target)
    if target.m != args.m:
        raise InvalidData(f"target resolution {target.m} does not match --m {args.m}")
    labels = _pair_labels(table)
    hists = _pair_copulas(table, args.m)
    values = sinkhorn_values_batch(hists, [target] * len(hists), GroundCost(args.m),
                                   _sinkhorn_config(args))
    order = np.argsort(values, kind="stable")
    rows = [
        (rank, labels[idx][2], labels[idx][3], float(values[idx]))
        for rank, idx in enumerate(order)
    ]
    write_csv_atomic(out / "ranking.csv",
                     ["rank", "pair_i", "pair_j", "distance"], rows)
    write_run_manifest(out, "query", _manifest_params(args))


def cmd_synth(args) -> None:
    out = _prepare_out(args)
    spec = ScenarioSpec(
        kind=args.kind, T=args.T, seed=args.seed, a=args.a, offset=args.offset,
        pattern=args.pattern, noise_level=args.noise_level, rho=args.rho,
    )
    x, y = generate(spec)
    write_csv_atomic(out / "data.csv", ["x", "y"],
                     [(float(a), float(b)) for a, b in zip(x, y)])
    write_run_manifest(out, "synth", _manifest_params(args))


def cmd_power(args) -> None:
    out = _prepare_out(args)
    patterns = args.patterns.split(",")
    noise_levels = [float(v) for v in args.noise_levels.split(",")]
    coefficients = args.coefficients.split(",")
    spec = None
    if "tfdc" in coefficients:
        spec = tfdc_power_targets(m=args.m, T_ref=args.t_ref, seed=args.seed,
                                  debias=args.debias)
    rows = []
    for pattern in patterns:
        for noise in noise_levels:
            for name in coefficients:
                coeff = make_tfdc_coefficient(spec) if name == "tfdc" else name
                res = estimate_power(pattern, noise, coeff,
                                     n_sims=args.n_sims, sample_size=args.sample_size,
                                     seed=args.seed)
                rows.append((res.pattern, res.noise_level, res.coefficient, res.power,
                             res.n_sims, res.sample_size, res.seed))
    write_csv_atomic(out / "power.csv",
                     ["pattern", "noise", "coefficient", "power",
                      "n_sims", "sample_size", "seed"], rows)
    write_run_manifest(out, "power", _manifest_params(args),
                       extra={"rejection_level": 0.05, "null_protocol": "permutation"})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coptrans",
        description="Explore and measure pairwise dependence with copulas "
                    "and optimal transport.",
    )
    parser.add_argument("--version", action="version", version=f"coptrans {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("copula", help="write empirical copula .cop files for all pairs")
    p.add_argument("--input", type=Path, required=True)
    _add_m_flag(p)
    _add_out_flag(p)
    p.set_defaults(func=cmd_copula)

    p = sub.add_parser("dist", help="pairwise transport distance matrix over pair copulas")
    p.add_argument("--input", type=Path, required=True)
    _add_transport_flags(p)
    _add_out_flag(p)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("cluster", help="k-means over pair copulas with barycenter centroids")
    p.add_argument("--input", type=Path, required=True)
    _add_transport_flags(p)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-rounds", type=int, default=100)
    _add_out_flag(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("tfdc", help="target/forget coefficient matrix for all variable pairs")
    p.add_argument("--input", type=Path, required=True)
    _add_transport_flags(p)
    p.add_argument("--targets", type=Path, nargs="+", required=True,
                   help=".cop files of target copulas")
    p.add_argument("--forgets", type=Path, nargs="+", required=True,
                   help=".cop files of forget copulas")
    p.add_argument("--debias", action="store_true")
    _add_out_flag(p)
    p.set_defaults(func=cmd_tfdc)

    p = sub.add_parser("query", help="rank pairs by distance to a target copula")
    p.add_argument("--input", type=Path, required=True)
    _add_transport_flags(p)
    p.add_argument("--target", type=Path, required=True, help="target .cop file")
    _add_out_flag(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("synth", help="generate a synthetic (x, y) dataset")
    p.add_argument("--kind", required=True,
                   choices=["discontinuity", "noisy_parabola", "power_pattern",
                            "gaussian_pair"])
    p.add_argument("--T", type=int, default=5000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--a", type=float, default=0.5)
    p.add_argument("--offset", type=float, default=0.0)
    p.add_argument("--pattern", default="linear", choices=list(POWER_PATTERNS))
    p.add_argument("--noise-level", type=float, default=0.0)
    p.add_argument("--rho", type=float, default=0.0)
    _add_out_flag(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("power", help="power benchmark against the permutation null")
    p.add_argument("--patterns", default=",".join(POWER_PATTERNS))
    p.add_argument("--noise-levels", default="0,0.5,1,1.5,2,2.5,3")
    p.add_argument("--coefficients",
                   default=",".join(sorted(COEFFICIENTS)) + ",tfdc")
    p.add_argument("--n-sims", type=int, default=100)
    p.add_argument("--sample-size", type=int, default=200)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--m", type=int, default=20)
    p.add_argument("--t-ref", type=int, default=100_000)
    p.add_argument("--debias", action="store_true")
    _add_out_flag(p)
    p.set_defaults(func=cmd_power)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
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
