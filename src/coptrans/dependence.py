"""Dependence coefficients: the target/forget coefficient and baselines.

The target/forget coefficient (tfdc) scores a copula by where it sits
between its nearest "forget" copula (score 0) and its nearest "target"
copula (score 1) under transport distance. The baselines (pearson, spearman,
distance correlation, randomized dependence coefficient) exist for the power
benchmark and for sanity checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from .copula import CopulaHistogram, rank_transform
from .errors import AmbiguousSpec, ConvergenceFailure, DegenerateColumn, InvalidData
from .transport import (
    GroundCost,
    SinkhornConfig,
    sinkhorn_values_batch,
    sinkhorn_values_screened,
)

__all__ = [
    "TFDCSpec",
    "distance_correlation",
    "pearson",
    "rdc",
    "spearman",
    "tfdc",
]


@dataclass(frozen=True)
class TFDCSpec:
    """Targets, forgets and the distance configuration for the coefficient.

    With debias, the first `tfdc` call that solves its batch keeps the
    references' self-distances, forgets then targets, in `ref_self`; they
    depend only on the spec, so later calls do not solve them again.
    """

    targets: tuple[CopulaHistogram, ...]
    forgets: tuple[CopulaHistogram, ...]
    cost: GroundCost
    cfg: SinkhornConfig
    debias: bool = False
    ref_self: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        targets = tuple(self.targets)
        forgets = tuple(self.forgets)
        if not targets or not forgets:
            raise InvalidData("target and forget sets must both be non-empty")
        m = self.cost.m
        for h in (*targets, *forgets):
            if h.m != m:
                raise InvalidData(
                    f"histogram resolution {h.m} does not match ground cost ({m})"
                )
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "forgets", forgets)


def tfdc(copulas, spec: TFDCSpec) -> np.ndarray:
    """Target/forget dependence coefficient in [0, 1] of each copula in a list.

    min_l d(F_l, c) / (min_l d(F_l, c) + min_k d(c, T_k)); exactly 0 when c
    is bit-equal to a forget copula and exactly 1 when bit-equal to a target.
    These boundary cases, and AmbiguousSpec, are settled for every copula
    before any transport solve, so the identities hold despite the entropic
    self-distance bias. The other copulas x references are solved as one
    `sinkhorn_values_screened` call, whose values never depend on batch
    mates. The score reads only two minima per copula, so each copula's
    forget distances form one group and its target distances another: a
    distance that cannot be its group's minimum gets no rounding-deficit
    closure, and each minimum keeps the bits of a fully closed batch.
    With spec.debias each distance is d(x, c) - (d(x, x) + d(c, c)) / 2,
    clipped at 0. Those minima are over shifted values, so every deficit
    is closed: the batch is one `sinkhorn_values_batch` call. Each copula's
    self-distance is solved once per call and each reference's once per
    spec (see TFDCSpec); values are pure functions of their pair, so where
    they were solved changes no bit.

    A ConvergenceFailure names (copula index, reference index) pairs in
    `.pair`, references counted over the forgets, then the targets; a
    self-distance has None on its missing side.
    """
    copulas = list(copulas)
    scores = np.full(len(copulas), np.nan)
    for i, c in enumerate(copulas):
        in_targets = any(c.same_bits(t) for t in spec.targets)
        in_forgets = any(c.same_bits(f) for f in spec.forgets)
        if in_targets and in_forgets:
            raise AmbiguousSpec("copula belongs to both the target and the forget set")
        if in_targets or in_forgets:
            scores[i] = 1.0 if in_targets else 0.0
    todo = np.flatnonzero(np.isnan(scores)).tolist()
    if not todo:
        return scores

    refs = [*spec.forgets, *spec.targets]
    n, k = len(todo), len(refs)
    # each batch position as (copula index, reference index): every copula
    # against every reference, then the self-distances debiasing still needs
    where = [(i, r) for i in todo for r in range(k)]
    if spec.debias:
        where += [(None, r) for r in range(k) if spec.ref_self is None]
        where += [(i, None) for i in todo]
    rs = [copulas[i] if r is None else refs[r] for i, r in where]
    cs = [refs[r] if i is None else copulas[i] for i, r in where]
    try:
        if spec.debias:  # every problem is its own group: nothing is screened out
            vals = sinkhorn_values_batch(rs, cs, spec.cost, spec.cfg)
        else:  # groups (copula, forget side) and (copula, target side)
            groups = [2 * i + (r >= len(spec.forgets)) for i, r in where]
            vals = sinkhorn_values_screened(rs, cs, spec.cost, spec.cfg, groups=groups)
    except ConvergenceFailure as exc:
        exc.pair = tuple(where[b] for b in exc.pair)
        raise
    d = vals[:n * k].reshape(n, k)
    if spec.debias:
        if spec.ref_self is None:
            ref_self = vals[n * k:n * k + k].copy()
            ref_self.setflags(write=False)
            object.__setattr__(spec, "ref_self", ref_self)
        d = np.maximum(d - 0.5 * (spec.ref_self + vals[-n:, None]), 0.0)
    d_forget = d[:, :len(spec.forgets)].min(axis=1)
    d_target = d[:, len(spec.forgets):].min(axis=1)

    denom = d_forget + d_target
    if np.any(denom <= 0.0):
        raise AmbiguousSpec("copula is at distance zero from both sets")
    scores[todo] = d_forget / denom
    return scores


def _finite_pair(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise InvalidData(f"expected equal-length vectors, got {x.shape} and {y.shape}")
    if x.size < 2:
        raise InvalidData("need at least 2 observations")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InvalidData("inputs contain non-finite values")
    return x, y


def pearson(x, y) -> float:
    """Product-moment correlation."""
    x, y = _finite_pair(x, y)
    sx = x.std()
    sy = y.std()
    if sx == 0.0 or sy == 0.0:
        raise DegenerateColumn("constant input has no correlation")
    r = float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))
    return min(1.0, max(-1.0, r))


def spearman(x, y) -> float:
    """Rank correlation: pearson on average-tie normalized ranks."""
    x, y = _finite_pair(x, y)
    return pearson(rank_transform(x).u, rank_transform(y).u)


def distance_correlation(x, y) -> float:
    """Distance correlation (V-statistic form, O(T^2) memory).

    Zero characterizes independence only in the population limit; on samples
    it is strictly positive, so tests assert null-simulation bounds instead.
    """
    x, y = _finite_pair(x, y)
    if x.size < 4:
        raise InvalidData("distance correlation needs at least 4 observations")
    if x.min() == x.max() or y.min() == y.max():
        raise DegenerateColumn("constant input")
    a = np.abs(x[:, None] - x[None, :])
    b = np.abs(y[:, None] - y[None, :])
    a = a - a.mean(axis=0) - a.mean(axis=1)[:, None] + a.mean()
    b = b - b.mean(axis=0) - b.mean(axis=1)[:, None] + b.mean()
    dcov2 = (a * b).mean()
    dvar_x = (a * a).mean()
    dvar_y = (b * b).mean()
    denom = np.sqrt(dvar_x * dvar_y)
    if denom <= 0.0:
        raise DegenerateColumn("degenerate distance variance")
    return float(np.sqrt(max(dcov2, 0.0) / denom))


def rdc(x, y, k: int = 20, s: float = 1.0 / 6.0, seed: int = 0) -> float:
    """Randomized dependence coefficient.

    Largest canonical correlation between k random sine/cosine features of
    the rank-transformed inputs. Both variables share one seeded projection
    matrix, so identical inputs give identical feature sets and swapping the
    arguments changes the value only at float rounding level. Deterministic
    given the seed.
    """
    x, y = _finite_pair(x, y)
    if x.size <= k:
        raise InvalidData(f"need more than k={k} observations, got {x.size}")
    w = np.random.default_rng(seed).standard_normal((2, k))

    def features(v):
        u = np.column_stack([rank_transform(v).u, np.ones(v.size)])
        proj = (s / 2.0) * u @ w
        return np.column_stack([np.cos(proj), np.sin(proj)])

    return _largest_canonical_correlation(features(x), features(y))


def _largest_canonical_correlation(fx: np.ndarray, fy: np.ndarray) -> float:
    fx = fx - fx.mean(axis=0)
    fy = fy - fy.mean(axis=0)
    qx, rx, _ = linalg.qr(fx, mode="economic", pivoting=True)
    qy, ry, _ = linalg.qr(fy, mode="economic", pivoting=True)

    def effective_rank(r):
        d = np.abs(np.diag(r))
        if d.size == 0 or d[0] == 0.0:
            return 0
        return int(np.sum(d > d[0] * max(fx.shape) * np.finfo(float).eps))

    kx, ky = effective_rank(rx), effective_rank(ry)
    if kx == 0 or ky == 0:
        return 0.0
    sv = linalg.svd(qx[:, :kx].T @ qy[:, :ky], compute_uv=False)
    return float(min(1.0, max(0.0, sv[0])))
