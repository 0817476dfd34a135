"""K-means over copula histograms with transport distances.

Assignment uses dual-Sinkhorn values, centroid updates use fixed-support
Wasserstein barycenters, and initialization is k-means++ seeded through a
single RNG so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .copula import CopulaHistogram
from .errors import ConvergenceFailure, InvalidData, InvalidParameter
from .transport import (
    GroundCost,
    SinkhornConfig,
    sinkhorn_values_batch,
    wasserstein_barycenter,
)

__all__ = ["ClusterModel", "centroid_report", "cluster_copulas"]


@dataclass(frozen=True)
class ClusterModel:
    """Result of clustering: centroids, assignments and the objective trace.

    `distances[i, j]` is the dual-Sinkhorn value of member i against the
    returned centroid j, bit for bit what `sinkhorn_values_batch` gives for
    that pair, so callers never re-solve it. Keeps references to the
    clustered histograms and the distance configuration so reports can be
    computed from the model alone.
    """

    k: int
    centroids: tuple[CopulaHistogram, ...]
    assignment: np.ndarray          # histogram index -> cluster id
    distances: np.ndarray           # (n, k) member -> returned centroid values
    objective_trace: tuple[float, ...]
    seed: int
    members: tuple[CopulaHistogram, ...] = field(repr=False, default=())
    cost: GroundCost | None = field(repr=False, default=None)
    cfg: SinkhornConfig | None = field(repr=False, default=None)


def _distances_to_centroids(hists, centroids, cost, cfg) -> np.ndarray:
    """n-by-k matrix of dual-Sinkhorn values."""
    n, k = len(hists), len(centroids)
    rs = [h for h in hists for _ in range(k)]
    return sinkhorn_values_batch(rs, list(centroids) * n, cost, cfg).reshape(n, k)


def cluster_copulas(hists, k: int, cost: GroundCost, cfg: SinkhornConfig,
                    seed: int, max_rounds: int = 100) -> ClusterModel:
    """Lloyd-style k-means with k-means++ init over transport geometry.

    Alternates nearest-centroid assignment (ties to the lowest cluster id)
    with uniform-weight barycenter updates until the assignment is stable or
    max_rounds is hit. Because both the distances and the barycenter are
    entropic approximations, an update step can raise the recorded objective
    by up to the entropic evaluation gap (roughly the kernel blur cost);
    exact-transport Lloyd descent holds only up to that gap.

    k may not exceed the number of bitwise-distinct histograms, since equal
    histograms always share a cluster. After each assignment the lowest
    empty cluster is re-seeded with the histogram farthest from its current
    centroid and every cluster is checked again, at most k re-seeds per
    round; a cluster still empty after them raises ConvergenceFailure.
    Deterministic given the seed.
    """
    hists = list(hists)
    n = len(hists)
    distinct = len({h.mass.tobytes() for h in hists})
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
    d = _distances_to_centroids(hists, centroids, cost, cfg)
    while len(centroids) < k:
        near = d.min(axis=1)
        total = near.sum()
        if total <= 0.0:
            centroids.append(hists[int(rng.integers(n))])
        else:
            centroids.append(hists[int(rng.choice(n, p=near / total))])
        d = np.column_stack([d, _distances_to_centroids(hists, centroids[-1:], cost, cfg)])

    # `d` always holds the distances to the current centroids: the rounds
    # solve it after each barycenter update, so it is valid on every exit.
    assignment = np.full(n, -1, dtype=int)
    trace: list[float] = []
    for _ in range(max_rounds):
        new_assignment = d.argmin(axis=1)
        for reseeds in range(k + 1):
            empty = np.flatnonzero(np.bincount(new_assignment, minlength=k) == 0)
            if empty.size == 0:
                break
            if reseeds == k:
                raise ConvergenceFailure(
                    f"clusters {empty.tolist()} still empty after {k} re-seeds")
            # re-seed the lowest empty cluster with the worst-served histogram;
            # that can empty a cluster that was full, so all are checked again
            cid = int(empty[0])
            worst = int(np.argmax(d[np.arange(n), new_assignment]))
            centroids[cid] = hists[worst]
            d[:, cid] = _distances_to_centroids(hists, [centroids[cid]], cost, cfg)[:, 0]
            new_assignment = d.argmin(axis=1)
        trace.append(float(d[np.arange(n), new_assignment].sum()))
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        centroids = [
            wasserstein_barycenter(
                [h for h, a in zip(hists, assignment) if a == cid],
                np.full(int((assignment == cid).sum()), 1.0 / (assignment == cid).sum()),
                cost,
                cfg,
            )
            for cid in range(k)
        ]
        d = _distances_to_centroids(hists, centroids, cost, cfg)
    return ClusterModel(
        k=k,
        centroids=tuple(centroids),
        assignment=assignment,
        distances=d,
        objective_trace=tuple(trace),
        seed=seed,
        members=tuple(hists),
        cost=cost,
        cfg=cfg,
    )


def centroid_report(model: ClusterModel):
    """Per-cluster summary: (cluster id, size, centroid, medoid member index).

    The medoid is the member minimizing the summed transport distance to the
    other members of its cluster; exact ties go to the lower index.
    """
    if model.cost is None or model.cfg is None or not model.members:
        raise InvalidData("model lacks member histograms or distance configuration")
    report = []
    for cid in range(model.k):
        idx = np.flatnonzero(model.assignment == cid)
        if len(idx) == 1:
            medoid = int(idx[0])
        else:
            iu, ju = np.triu_indices(len(idx), 1)
            vals = sinkhorn_values_batch([model.members[idx[i]] for i in iu],
                                         [model.members[idx[j]] for j in ju],
                                         model.cost, model.cfg)
            within = np.zeros((len(idx), len(idx)))
            within[iu, ju] = within[ju, iu] = vals
            medoid = int(idx[int(np.argmin(within.sum(axis=1)))])
        report.append((cid, len(idx), model.centroids[cid], medoid))
    return report
