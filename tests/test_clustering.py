import numpy as np
import pytest

from coptrans import (
    ConvergenceFailure,
    CopulaHistogram,
    GroundCost,
    InvalidData,
    InvalidParameter,
    SinkhornConfig,
    centroid_report,
    cluster_copulas,
    default_lambda,
    empirical_copula_from_data,
    reference_copula,
    wasserstein_barycenter,
)
from coptrans import clustering
from coptrans.transport import sinkhorn_values_batch
from conftest import random_sample_copula

M_GRID = 8


def monotone_family(rng, n, sign, noise=0.1, T=400):
    out = []
    for _ in range(n):
        x = rng.uniform(size=T)
        out.append(empirical_copula_from_data(x, sign * x + noise * rng.standard_normal(T), M_GRID))
    return out


def near_point_mass(m, i, j):
    mass = np.full((m, m), 1e-3)
    mass[i, j] += 1.0
    return CopulaHistogram(mass / mass.sum())


@pytest.fixture
def mw_hists(rng):
    return monotone_family(rng, 3, +1.0) + monotone_family(rng, 3, -1.0)


@pytest.fixture
def cost_cfg():
    return GroundCost(M_GRID), SinkhornConfig(lam=default_lambda(M_GRID))


def brute_force_partition(hists, cost, cfg):
    """Minimize the k=2 objective by enumerating all bipartitions."""
    cache = {}

    def bary(subset):
        if subset not in cache:
            members = [hists[i] for i in subset]
            w = np.full(len(members), 1.0 / len(members))
            cache[subset] = wasserstein_barycenter(members, w, cost, cfg)
        return cache[subset]

    def objective(parts):
        total = 0.0
        for subset in parts:
            b = bary(subset)
            total += float(sinkhorn_values_batch(
                [hists[i] for i in subset], [b] * len(subset), cost, cfg).sum())
        return total

    n = len(hists)
    best = None
    for bits in range(1, 2 ** n - 1):
        left = tuple(i for i in range(n) if (bits >> i) & 1)
        right = tuple(i for i in range(n) if not (bits >> i) & 1)
        if left[0] != 0:
            continue  # each bipartition once
        obj = objective((left, right))
        if best is None or obj < best[0]:
            best = (obj, frozenset((frozenset(left), frozenset(right))))
    return best


class TestClusterCopulas:
    def test_recovers_brute_force_partition(self, mw_hists, cost_cfg):
        cost, cfg = cost_cfg
        model = cluster_copulas(mw_hists, 2, cost, cfg, seed=3)
        found = frozenset((
            frozenset(np.flatnonzero(model.assignment == 0).tolist()),
            frozenset(np.flatnonzero(model.assignment == 1).tolist()),
        ))
        best_obj, best_parts = brute_force_partition(mw_hists, cost, cfg)
        assert found == best_parts
        assert model.objective_trace[-1] <= best_obj + 1e-9

    def test_k_equals_one_is_global_barycenter(self, mw_hists, cost_cfg):
        cost, cfg = cost_cfg
        model = cluster_copulas(mw_hists[:4], 1, cost, cfg, seed=0)
        expected = wasserstein_barycenter(mw_hists[:4], np.full(4, 0.25), cost, cfg)
        assert np.abs(model.centroids[0].mass - expected.mass).max() < 1e-9

    def test_k_equals_n_singletons(self, rng, cost_cfg):
        cost, cfg = cost_cfg
        hists = monotone_family(rng, 2, +1.0) + monotone_family(rng, 2, -1.0)
        model = cluster_copulas(hists, 4, cost, cfg, seed=1)
        assert sorted(model.assignment.tolist()) == [0, 1, 2, 3]
        # objective is the sum of near-zero self-ish distances
        assert model.objective_trace[-1] < 4 * 0.01

    def test_objective_trace_non_increasing(self, mw_hists):
        # Entropic Lloyd descent needs a balanced sharpness: softer kernels
        # blur the barycenter (update loses to member centroids), much
        # sharper ones make the fixed-point barycenter iteration creep and
        # stop early. At 20*m^2 the descent is clean to float accuracy.
        cost = GroundCost(M_GRID)
        cfg = SinkhornConfig(lam=20.0 * M_GRID * M_GRID)
        for seed in (3, 7, 11):
            trace = cluster_copulas(mw_hists, 2, cost, cfg, seed=seed).objective_trace
            for prev, nxt in zip(trace, trace[1:]):
                assert nxt <= prev + 1e-7

    def test_deterministic_given_seed(self, mw_hists, cost_cfg):
        cost, cfg = cost_cfg
        a = cluster_copulas(mw_hists, 2, cost, cfg, seed=11)
        b = cluster_copulas(mw_hists, 2, cost, cfg, seed=11)
        assert np.array_equal(a.assignment, b.assignment)
        for ca, cb in zip(a.centroids, b.centroids):
            assert ca.same_bits(cb)
        assert a.objective_trace == b.objective_trace

    def test_permutation_objective_equality(self, mw_hists, cost_cfg):
        cost, cfg = cost_cfg
        base = cluster_copulas(mw_hists, 2, cost, cfg, seed=5).objective_trace[-1]
        rng = np.random.default_rng(0)
        for _ in range(5):
            perm = rng.permutation(6)
            permuted = [mw_hists[p] for p in perm]
            obj = cluster_copulas(permuted, 2, cost, cfg, seed=5).objective_trace[-1]
            assert abs(obj - base) < 1e-6

    def test_distances_are_batch_values_to_returned_centroids(self, mw_hists, cost_cfg):
        cost, cfg = cost_cfg
        # converged (2 rounds), and cut at the cap on the first assignment
        for max_rounds in (100, 1):
            model = cluster_copulas(mw_hists, 2, cost, cfg, seed=3, max_rounds=max_rounds)
            full = np.array([[sinkhorn_values_batch([h], [c], cost, cfg)[0]
                              for c in model.centroids] for h in mw_hists])
            solved = np.isfinite(model.distances)
            assert np.array_equal(model.distances[solved], full[solved])
            # an entry is skipped only when it is not its member's nearest
            above = full > full.min(axis=1, keepdims=True)
            assert np.all(above[~solved]) and not solved.all()

    def test_assignment_is_argmin_of_distances_on_every_exit(self, mw_hists, cost_cfg):
        cost, cfg = cost_cfg
        for k, seed in ((2, 3), (2, 11), (3, 0)):
            for max_rounds in (1, 2, 3, 100):
                model = cluster_copulas(mw_hists, k, cost, cfg, seed=seed,
                                        max_rounds=max_rounds)
                assert np.array_equal(model.assignment, model.distances.argmin(axis=1))
                assert len(model.objective_trace) <= max_rounds

    def test_cycle_ends_on_its_lowest_objective_round(self):
        # Round 2 repeats round 0's assignment, so rounds 1 and 2 would
        # alternate forever; the loop used to run them to max_rounds.
        rng = np.random.default_rng(138)
        hists = [random_sample_copula(rng, 6, T=40) for _ in range(16)]
        cost, cfg = GroundCost(6), SinkhornConfig(lam=default_lambda(6))
        model = cluster_copulas(hists, 5, cost, cfg, seed=138, max_rounds=10)
        trace = model.objective_trace
        assert len(trace) == 3 and trace[2] < trace[1]
        assert np.array_equal(model.assignment, model.distances.argmin(axis=1))
        # the model is round 2's, the cycle's lowest
        values = sinkhorn_values_batch(
            hists, [model.centroids[c] for c in model.assignment], cost, cfg)
        assert values.sum() == trace[2]

    @pytest.mark.parametrize("k, seed", [(2, 3), (2, 11), (3, 0)])
    def test_screen_changes_no_bit(self, mw_hists, cost_cfg, monkeypatch, k, seed):
        # with a zero bound nothing is skipped: every entry is solved
        cost, cfg = cost_cfg
        screened = cluster_copulas(mw_hists, k, cost, cfg, seed=seed)
        monkeypatch.setattr(clustering, "diagonal_lower_bound",
                            lambda rs, cs, cost: np.zeros((len(rs), len(cs))))
        full = cluster_copulas(mw_hists, k, cost, cfg, seed=seed)
        assert np.isfinite(full.distances).all()
        assert np.array_equal(screened.assignment, full.assignment)
        for a, b in zip(screened.centroids, full.centroids, strict=True):
            assert a.same_bits(b)
        assert screened.objective_trace == full.objective_trace
        solved = np.isfinite(screened.distances)
        assert np.array_equal(screened.distances[solved], full.distances[solved])

    def test_screen_sends_fewer_problems(self, mw_hists, cost_cfg, monkeypatch):
        cost, cfg = cost_cfg
        sent = []

        def counting(rs, cs, cost, cfg):
            sent.append(len(rs))
            return sinkhorn_values_batch(rs, cs, cost, cfg)

        monkeypatch.setattr(clustering, "sinkhorn_values_batch", counting)
        cluster_copulas(mw_hists, 3, cost, cfg, seed=0)
        screened = sum(sent)
        sent.clear()
        monkeypatch.setattr(clustering, "diagonal_lower_bound",
                            lambda rs, cs, cost: np.zeros((len(rs), len(cs))))
        cluster_copulas(mw_hists, 3, cost, cfg, seed=0)
        assert screened < sum(sent)

    def test_failures_name_member_and_centroid(self, mw_hists):
        m = M_GRID
        cfg = SinkhornConfig(lam=default_lambda(m), max_iter=5, tol=1e-9)
        with pytest.raises(ConvergenceFailure) as err:
            cluster_copulas(mw_hists, 2, GroundCost(m), cfg, seed=0)
        # the first k-means++ column solves every member against centroid 0
        assert err.value.pair == tuple((i, 0) for i in range(len(mw_hists)))

    def test_k_validation(self, mw_hists, cost_cfg):
        cost, cfg = cost_cfg
        with pytest.raises(InvalidData):
            cluster_copulas(mw_hists, 7, cost, cfg, seed=0)

    def test_max_rounds_validation(self, mw_hists, cost_cfg):
        # zero rounds used to return every assignment as -1
        cost, cfg = cost_cfg
        with pytest.raises(InvalidParameter):
            cluster_copulas(mw_hists, 2, cost, cfg, seed=0, max_rounds=0)

    def test_k_above_distinct_histograms_rejected(self, mw_hists, cost_cfg):
        # equal histograms always share a cluster, so the third would stay empty
        cost, cfg = cost_cfg
        h, g = mw_hists[0], mw_hists[3]
        with pytest.raises(InvalidData, match="k <= 2, the number of distinct histograms"):
            cluster_copulas([h, h, g], 3, cost, cfg, seed=0)

    def test_signed_zero_does_not_make_a_histogram_distinct(self):
        # -0.0 and 0.0 are equal masses, so these two histograms share a
        # cluster; counted by their bytes they made k=2 look possible
        m = 4
        h = reference_copula("frechet_upper", m)
        mass = h.mass.copy()
        mass[0, 1] = -0.0
        g = CopulaHistogram(mass)
        assert np.signbit(g.mass[0, 1]) and g.same_bits(h)
        with pytest.raises(InvalidData, match="k <= 1, the number of distinct histograms"):
            cluster_copulas([h, g], 2, GroundCost(m), SinkhornConfig(lam=default_lambda(m)),
                            seed=0)

    def test_reseed_rechecks_every_cluster(self, monkeypatch):
        # These barycenters land far from their members, so a later re-seed
        # empties a cluster that was full when it was checked.
        m = 6
        hists = [near_point_mass(m, i, j) for i, j in ((0, 0), (0, 1), (1, 0), (5, 5), (5, 4))]
        moved = {id(hists[3]): near_point_mass(m, 2, 2),
                 id(hists[4]): near_point_mass(m, 0, 5)}
        real = clustering.wasserstein_barycenter

        def barycenter(members, weights, cost, cfg):
            if len(members) == 1 and id(members[0]) in moved:
                return moved[id(members[0])]
            return real(members, weights, cost, cfg)

        monkeypatch.setattr(clustering, "wasserstein_barycenter", barycenter)
        model = cluster_copulas(hists, 3, GroundCost(m), SinkhornConfig(lam=default_lambda(m)),
                                seed=2, max_rounds=3)
        assert np.bincount(model.assignment, minlength=3).min() >= 1

    def test_reseeds_end_when_a_cluster_stays_empty(self, mw_hists, cost_cfg, monkeypatch):
        # all-zero distances send every histogram to cluster 0 whatever the re-seed
        def zero_distances(hists, centroids, cols, cost, cfg, near=None):
            return np.zeros((len(hists), len(cols)))

        monkeypatch.setattr(clustering, "_nearest_distances", zero_distances)
        cost, cfg = cost_cfg
        with pytest.raises(ConvergenceFailure, match="still empty after 2 re-seeds"):
            cluster_copulas(mw_hists, 2, cost, cfg, seed=0)


class TestCentroidReport:
    def test_sizes_and_singleton_medoid(self, mw_hists, cost_cfg):
        cost, cfg = cost_cfg
        model = cluster_copulas(mw_hists, 2, cost, cfg, seed=3)
        report = centroid_report(model, mw_hists, cost, cfg)
        assert sum(size for _, size, _, _ in report) == len(mw_hists)
        for cid, size, centroid, medoid in report:
            assert model.assignment[medoid] == cid
        with pytest.raises(InvalidData, match="histograms for a model of"):
            centroid_report(model, mw_hists[1:], cost, cfg)

    def test_medoid_tie_breaks_to_lower_index(self, rng, cost_cfg):
        cost, cfg = cost_cfg
        x = rng.uniform(size=400)
        h = empirical_copula_from_data(x, x + 0.05 * rng.standard_normal(400), M_GRID)
        other = monotone_family(rng, 1, -1.0)[0]
        model = cluster_copulas([h, h, other], 2, cost, cfg, seed=2)
        report = centroid_report(model, [h, h, other], cost, cfg)
        twin_cluster = model.assignment[0]
        for cid, size, _, medoid in report:
            if cid == twin_cluster and size == 2:
                assert medoid == 0

    def test_mw_medoids_are_members_of_their_families(self, mw_hists, cost_cfg):
        cost, cfg = cost_cfg
        model = cluster_copulas(mw_hists, 2, cost, cfg, seed=3)
        for cid, size, _, medoid in report_sorted(centroid_report(model, mw_hists, cost, cfg)):
            members = set(np.flatnonzero(model.assignment == cid).tolist())
            assert medoid in members


def report_sorted(report):
    return sorted(report, key=lambda row: row[0])
