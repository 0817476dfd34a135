"""K-means over copula histograms with transport distances.

Assignment uses dual-Sinkhorn values, centroid updates use fixed-support
Wasserstein barycenters, and initialization is k-means++ seeded through a
single RNG so runs are reproducible. Only the values that can be a member's
nearest are solved; a certified lower bound rules the others out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .copula import CopulaHistogram
from .errors import ConvergenceFailure, InvalidData, InvalidParameter
from .transport import (
    GroundCost,
    SinkhornConfig,
    diagonal_lower_bound,
    sinkhorn_values_batch,
    wasserstein_barycenter,
)

__all__ = ["ClusterModel", "centroid_report", "cluster_copulas"]


@dataclass(frozen=True)
class ClusterModel:
    """Result of clustering: centroids, assignments and the objective trace.

    `distances[i, j]` is the dual-Sinkhorn value of member i against the
    returned centroid j, bit for bit what `sinkhorn_values_batch` gives for
    that pair, so callers never re-solve it, or +inf where a lower bound
    proved that centroid j is not member i's nearest (see `cluster_copulas`).
    `assignment` is always `distances.argmin(axis=1)`, so every assigned
    entry is finite.
    """

    centroids: tuple[CopulaHistogram, ...]
    assignment: np.ndarray          # histogram index -> cluster id
    distances: np.ndarray           # (n, k) member -> returned centroid values, +inf if skipped
    objective_trace: tuple[float, ...]


_MARGIN = 1e-9  # relative; float rounding in a value or a bound never decides a skip


def _nearest_distances(hists, centroids, cols, cost, cfg, near=None) -> np.ndarray:
    """(n, len(cols)) values of every member against centroids[cols], +inf where skipped.

    Solves only the entries that can be their member's minimum. An entry is
    skipped when its `diagonal_lower_bound` exceeds a value v already known
    for its member by more than the relative margin: its value is then at
    least its exact optimum, hence at least the bound, hence above v, so the
    member's minimum and its argmin keep their bits. v is `near`, the
    member's minimum over the other columns, when given. Otherwise the
    member's lowest-bound entry here is solved first, in one batch, and v is
    its value. A ConvergenceFailure names (member, centroid index) pairs.
    """
    bound = diagonal_lower_bound(hists, [centroids[c] for c in cols], cost)
    d = np.full(bound.shape, np.inf)

    def solve(rows, idx):
        if rows.size == 0:
            return
        try:
            d[rows, idx] = sinkhorn_values_batch([hists[i] for i in rows],
                                                 [centroids[cols[j]] for j in idx], cost, cfg)
        except ConvergenceFailure as exc:
            exc.pair = tuple((int(rows[b]), int(cols[idx[b]])) for b in exc.pair)
            raise

    if near is None:
        rows, first = np.arange(len(hists)), bound.argmin(axis=1)
        solve(rows, first)
        near = d[rows, first]
    solve(*np.nonzero(np.isinf(d) & (bound <= near[:, None] * (1.0 + _MARGIN))))
    return d


def cluster_copulas(hists, k: int, cost: GroundCost, cfg: SinkhornConfig,
                    seed: int, max_rounds: int = 100) -> ClusterModel:
    """Lloyd-style k-means with k-means++ init over transport geometry.

    Alternates nearest-centroid assignment (ties to the lowest cluster id)
    with uniform-weight barycenter updates until an assignment repeats that
    of an earlier round, or max_rounds assignments have been made. Because
    both the distances and the barycenter are entropic approximations, an
    update step can raise the recorded objective by up to the entropic
    evaluation gap (roughly the kernel blur cost); exact-transport Lloyd
    descent holds only up to that gap, so the rounds can cycle. Each round
    is a pure function of the assignment before it, so when round r repeats
    the assignment of round s, rounds s + 1 .. r would repeat forever. The
    model is then that of the cycle's round with the lowest objective, ties
    to the earliest; when r = s + 1 that is round r, a fixed point. Every
    exit ends on an assignment step, and `objective_trace` holds every
    round's objective.

    k may not exceed the number of distinct histograms, by value, since equal
    histograms always share a cluster. After each assignment the lowest
    empty cluster is re-seeded with the histogram farthest from its current
    centroid and every cluster is checked again, at most k re-seeds per
    round; a cluster still empty after them raises ConvergenceFailure.
    Deterministic given the seed.

    Only each member's nearest centroid is read, so the k-means++ columns,
    the re-seeds and the rounds solve only the entries whose certified
    lower bound (`diagonal_lower_bound`) is within a relative 1e-9 of a
    value known for their member; every other entry of `distances` is +inf
    and strictly above its row's minimum. The margin keeps float rounding
    from deciding a skip: the bound can equal the exact optimum, as it does
    when either histogram is a point mass. The result is bit for bit that of
    solving every entry. A ConvergenceFailure from a distance solve names
    the failing (member, centroid) pairs in `.pair`.
    """
    hists = list(hists)
    n = len(hists)
    # + 0.0 turns -0.0 into 0.0 and changes no other bit, so equal values key alike
    distinct = len({(h.mass + 0.0).tobytes() for h in hists})
    if not 1 <= k <= distinct:
        raise InvalidData(
            f"need 1 <= k <= {distinct}, the number of distinct histograms "
            f"among {n}, got k={k}")
    if max_rounds < 1:
        raise InvalidParameter(f"max_rounds must be >= 1, got {max_rounds}")
    rng = np.random.default_rng(seed)

    # k-means++ style: seed with an arbitrary member, then draw proportionally
    # to distance from the chosen set. Each pick adds one distance column.
    centroids = [hists[int(rng.integers(n))]]
    d = _nearest_distances(hists, centroids, [0], cost, cfg)
    while len(centroids) < k:
        near = d.min(axis=1)
        total = near.sum()
        if total <= 0.0:
            centroids.append(hists[int(rng.integers(n))])
        else:
            centroids.append(hists[int(rng.choice(n, p=near / total))])
        d = np.column_stack(
            [d, _nearest_distances(hists, centroids, [len(centroids) - 1], cost, cfg, near)])

    # `d` always holds the distances to the current centroids: the rounds
    # solve it after each barycenter update.
    first_round = {}    # assignment bytes -> round that made it
    rounds = []         # (centroids, assignment, d) after each assignment step
    trace: list[float] = []
    for r in range(max_rounds):
        assignment = d.argmin(axis=1)
        for reseeds in range(k + 1):
            empty = np.flatnonzero(np.bincount(assignment, minlength=k) == 0)
            if empty.size == 0:
                break
            if reseeds == k:
                raise ConvergenceFailure(
                    f"clusters {empty.tolist()} still empty after {k} re-seeds")
            # re-seed the lowest empty cluster with the worst-served histogram;
            # that can empty a cluster that was full, so all are checked again.
            # No member's minimum sits in an empty column, so the row minima
            # screen the new one.
            cid = int(empty[0])
            worst = int(np.argmax(d[np.arange(n), assignment]))
            centroids[cid] = hists[worst]
            d[:, cid] = _nearest_distances(hists, centroids, [cid], cost, cfg, d.min(axis=1))[:, 0]
            assignment = d.argmin(axis=1)
        trace.append(float(d[np.arange(n), assignment].sum()))
        rounds.append((tuple(centroids), assignment, d))
        start = first_round.setdefault(assignment.tobytes(), r)
        if start < r or r == max_rounds - 1:
            break
        centroids = [
            wasserstein_barycenter(
                [h for h, a in zip(hists, assignment) if a == cid],
                np.full(int((assignment == cid).sum()), 1.0 / (assignment == cid).sum()),
                cost,
                cfg,
            )
            for cid in range(k)
        ]
        d = _nearest_distances(hists, centroids, range(k), cost, cfg)
    best = min(range(min(start + 1, r), r + 1), key=trace.__getitem__)
    centroids, assignment, d = rounds[best]
    return ClusterModel(
        centroids=centroids,
        assignment=assignment,
        distances=d,
        objective_trace=tuple(trace),
    )


def centroid_report(model: ClusterModel, hists, cost: GroundCost, cfg: SinkhornConfig):
    """Per-cluster summary: (cluster id, size, centroid, medoid member index).

    `hists`, `cost` and `cfg` are the inputs the model was clustered from. The
    medoid is the member minimizing the summed transport distance to the other
    members of its cluster; exact ties go to the lower index.
    """
    if len(hists) != len(model.assignment):
        raise InvalidData(f"got {len(hists)} histograms for a model of {len(model.assignment)}")
    report = []
    for cid in range(len(model.centroids)):
        idx = np.flatnonzero(model.assignment == cid)
        if len(idx) == 1:
            medoid = int(idx[0])
        else:
            iu, ju = np.triu_indices(len(idx), 1)
            vals = sinkhorn_values_batch([hists[idx[i]] for i in iu],
                                         [hists[idx[j]] for j in ju], cost, cfg)
            within = np.zeros((len(idx), len(idx)))
            within[iu, ju] = within[ju, iu] = vals
            medoid = int(idx[int(np.argmin(within.sum(axis=1)))])
        report.append((cid, len(idx), model.centroids[cid], medoid))
    return report
