"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is pinned
here; nothing defers to later calibration. The suite is seeded end to end.
The library solves closure LPs on as many threads as the process has CPUs,
but each result is a pure function of its own inputs, so results do not
depend on scheduling or thread counts; criterion 9 checks that.
"""

import itertools
import os
import subprocess
import sys
import time

import numpy as np

from conftest import dense_cost
from coptrans import (
    CopulaHistogram,
    GroundCost,
    SinkhornConfig,
    TFDCSpec,
    cluster_copulas,
    default_lambda,
    empirical_copula_from_data,
    estimate_power,
    exact_ot,
    gen_discontinuity,
    gen_noisy_parabola,
    make_tfdc_coefficient,
    reference_copula,
    sinkhorn_distance,
    spearman,
    spearman_from_copula,
    tfdc,
    tfdc_power_targets,
    wasserstein_barycenter,
)
from coptrans.transport import sinkhorn_values_batch


def report(number: int, text: str):
    print(f"\n[PASS] criterion {number}: {text}")


def fail_report(number: int, text: str):
    print(f"\n[FAIL] criterion {number}: {text}")


class Criterion:
    """Context manager printing one pass/fail line per criterion."""

    def __init__(self, number, text):
        self.number = number
        self.text = text

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        if exc_type is None:
            report(self.number, f"{self.text} ({elapsed:.1f}s)")
        else:
            fail_report(self.number, f"{self.text} ({elapsed:.1f}s)")
        return False


def test_criterion_1_tfdc_monotone_reproduction():
    """Shared-driver sweep: TFDC rises monotonically from ~0 to 1."""
    with Criterion(1, "TFDC monotone in the shared-driver experiment"):
        t0 = time.time()
        m, T = 20, 5000
        upper = reference_copula("frechet_upper", m)
        indep = reference_copula("independence", m)
        spec = TFDCSpec(targets=(upper,), forgets=(indep,), cost=GroundCost(m),
                        cfg=SinkhornConfig(lam=default_lambda(m)))
        grid = np.round(np.arange(0.0, 1.0001, 0.05), 2)
        tfdc_curve, spearman_curve = [], []
        for a in grid:
            x, y = gen_discontinuity(float(a), T, seed=42)
            tfdc_curve.append(tfdc([empirical_copula_from_data(x, y, m)], spec)[0])
            spearman_curve.append(spearman(x, y))
        steps = np.diff(tfdc_curve)
        # recorded, not asserted: the spearman curve and its sign at a=0.75
        s075 = spearman_curve[list(grid).index(0.75)]
        print("\n  a:        " + " ".join(f"{a:5.2f}" for a in grid))
        print("  tfdc:     " + " ".join(f"{v:5.3f}" for v in tfdc_curve))
        print("  spearman: " + " ".join(f"{v:5.2f}" for v in spearman_curve))
        print(f"  spearman at a=0.75 is {s075:+.3f} "
              f"({'negative' if s075 < 0 else 'non-negative'}; recorded only)")
        assert steps.min() >= -0.02, f"step decrease {steps.min():.4f} beyond -0.02"
        assert tfdc_curve[0] <= 0.15
        assert tfdc_curve[-1] >= 0.9
        assert time.time() - t0 <= 120.0


def test_criterion_2_boundary_identities():
    """TFDC is exactly 0 on forget members and exactly 1 on target members."""
    with Criterion(2, "exact 0/1 boundary identities over 20 random specs"):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            m = int(rng.integers(4, 13))
            cost = GroundCost(m)
            cfg = SinkhornConfig(lam=default_lambda(m))

            def rand_hist():
                g = rng.gamma(0.7, size=(m, m)) + 1e-12
                return CopulaHistogram(g / g.sum())

            targets = tuple(rand_hist() for _ in range(int(rng.integers(1, 4))))
            forgets = tuple(rand_hist() for _ in range(int(rng.integers(1, 4))))
            spec = TFDCSpec(targets=targets, forgets=forgets, cost=cost, cfg=cfg,
                            debias=bool(rng.integers(2)))
            for member in forgets:
                assert tfdc([member], spec)[0] == 0.0
            for member in targets:
                assert tfdc([member], spec)[0] == 1.0


def test_criterion_3_sinkhorn_vs_exact_oracle():
    """Entropic values shadow the LP oracle and decrease along the lam sweep."""
    with Criterion(3, "dual-Sinkhorn within 2% of the exact LP at lam=500*m^2, "
                      "sweep monotone"):
        t0 = time.time()
        m = 8
        cost = GroundCost(m)
        rng = np.random.default_rng(20240810)

        def sample_copula():
            T = 16
            x = rng.uniform(size=T)
            kind = rng.integers(3)
            if kind == 0:
                y = rng.uniform(size=T)
            elif kind == 1:
                y = x + 0.3 * rng.standard_normal(T)
            else:
                y = -x + 0.3 * rng.standard_normal(T)
            return empirical_copula_from_data(x, y, m)

        for _ in range(20):
            a, b = sample_copula(), sample_copula()
            exact_value, _ = exact_ot(a, b, cost)
            values = []
            for mult in (1, 10, 100, 500):
                cfg = SinkhornConfig(lam=mult * m * m, tol=2e-4, max_iter=20000)
                values.append(sinkhorn_distance(a, b, cost, cfg)[0])
            for hi, lo in zip(values[:-1], values[1:]):
                assert lo <= hi + 1e-6, f"sweep not monotone: {values}"
            rel = abs(values[-1] - exact_value) / exact_value
            assert rel <= 0.02, f"relative error {rel:.3%} at lam=500*m^2"
        assert time.time() - t0 <= 60.0


def test_criterion_4_exact_ot_metric_property():
    """With the Euclidean ground metric, the exact optimum is a distance."""
    with Criterion(4, "triangle inequality for exact transport with metric cost"):
        m = 6
        rng = np.random.default_rng(46)
        cost_metric = np.sqrt(dense_cost(m))
        hists = []
        for _ in range(8):
            g = rng.gamma(0.6, size=(m, m)) + 1e-12
            hists.append(CopulaHistogram(g / g.sum()))
        d = np.zeros((8, 8))
        for i in range(8):
            for j in range(i + 1, 8):
                d[i, j], _ = exact_ot(hists[i], hists[j], cost_metric)
                d[j, i] = d[i, j]
        for i, j, k in itertools.permutations(range(8), 3):
            assert d[i, k] <= d[i, j] + d[j, k] + 1e-9


def test_criterion_5_barycenter_beats_euclidean_average():
    """The transport barycenter keeps the parabola pattern; averaging smears it."""
    with Criterion(5, "barycenter concentrates >= 1.5x more mass on the clean "
                      "parabola tube than the cellwise average"):
        t0 = time.time()
        m, T = 20, 5000
        offsets = (-0.10, -0.03, 0.03, 0.10)
        hists = [
            empirical_copula_from_data(*gen_noisy_parabola(off, T, seed=100 + i), m)
            for i, off in enumerate(offsets)
        ]
        bary = wasserstein_barycenter(
            hists, np.full(4, 0.25), GroundCost(m),
            SinkhornConfig(lam=10.0 * m * m, tol=1e-6, max_iter=20000),
        )
        euclid = np.mean([h.mass for h in hists], axis=0)

        # 1-cell tube around the rasterized clean curve v = 2 |u - 1/2|
        centers = (np.arange(m) + 0.5) / m
        q_star = np.clip(
            np.ceil(2.0 * np.abs(centers - 0.5) * m - 1e-9).astype(int) - 1, 0, m - 1
        )
        tube = np.zeros((m, m), dtype=bool)
        for p in range(m):
            for dq in (-1, 0, 1):
                if 0 <= q_star[p] + dq < m:
                    tube[p, q_star[p] + dq] = True

        bary_mass = float(bary.mass[tube].sum())
        euclid_mass = float(euclid[tube].sum())
        print(f"\n  tube mass: barycenter {bary_mass:.3f} vs average {euclid_mass:.3f}")
        assert bary_mass >= 1.5 * euclid_mass
        assert time.time() - t0 <= 120.0


def test_criterion_6_clustering_matches_brute_force():
    """k=2 over 3 near-comonotone and 3 near-countermonotone copulas."""
    with Criterion(6, "k-means partition equals the brute-force optimum"):
        t0 = time.time()
        m = 8
        cost = GroundCost(m)
        cfg = SinkhornConfig(lam=default_lambda(m))
        rng = np.random.default_rng(99)
        hists = []
        for sign in (1.0, -1.0):
            for _ in range(3):
                x = rng.uniform(size=400)
                hists.append(
                    empirical_copula_from_data(x, sign * x + 0.1 * rng.standard_normal(400), m)
                )

        model = cluster_copulas(hists, 2, cost, cfg, seed=3)
        found = frozenset((
            frozenset(np.flatnonzero(model.assignment == 0).tolist()),
            frozenset(np.flatnonzero(model.assignment == 1).tolist()),
        ))

        cache = {}

        def barycenter_of(subset):
            if subset not in cache:
                members = [hists[i] for i in subset]
                cache[subset] = wasserstein_barycenter(
                    members, np.full(len(members), 1.0 / len(members)), cost, cfg
                )
            return cache[subset]

        def objective(parts):
            return sum(
                float(sinkhorn_values_batch(
                    [hists[i] for i in subset], [barycenter_of(subset)] * len(subset),
                    cost, cfg).sum())
                for subset in parts
            )

        best = None
        for bits in range(1, 2 ** 6 - 1):
            left = tuple(i for i in range(6) if (bits >> i) & 1)
            right = tuple(i for i in range(6) if not (bits >> i) & 1)
            if left[0] != 0:
                continue
            obj = objective((left, right))
            if best is None or obj < best[0]:
                best = (obj, frozenset((frozenset(left), frozenset(right))))
        assert found == best[1], f"kmeans {found} vs brute force {best[1]}"
        assert time.time() - t0 <= 60.0


def test_criterion_7_spearman_consistency():
    """Copula-quadrature Spearman tracks the rank-based one."""
    with Criterion(7, "|spearman via copula - spearman| <= 0.05 on 10 datasets"):
        worst = 0.0
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            x = rng.standard_normal(1000)
            flavor = seed % 3
            if flavor == 0:
                y = 0.8 * x + 0.6 * rng.standard_normal(1000)
            elif flavor == 1:
                y = rng.standard_normal(1000)
            else:
                y = np.sin(2 * np.pi * (x - x.min()) / (np.ptp(x) + 1e-12)) \
                    + 0.3 * rng.standard_normal(1000)
            via_copula = spearman_from_copula(empirical_copula_from_data(x, y, 32))
            worst = max(worst, abs(via_copula - spearman(x, y)))
        print(f"\n  worst disagreement: {worst:.4f}")
        assert worst <= 0.05


def test_criterion_8_power_harness():
    """Desk-scale power study: perfect detection at zero noise, calibrated
    size, and the targeted coefficient dominating dCor where it should."""
    n_sims, sample_size = 100, 200
    spec = tfdc_power_targets(m=12, T_ref=100_000, seed=0)
    tfdc_coeff = make_tfdc_coefficient(spec)
    coefficients = ["pearson", "spearman", "dcor", "rdc", tfdc_coeff]

    with Criterion(8, "power harness: (a) noise-0 power, (b) size calibration, "
                      "(c) targeted coefficient >= dCor"):
        for coeff in coefficients:
            res = estimate_power("linear", 0.0, coeff, n_sims=n_sims,
                                 sample_size=sample_size, seed=8)
            print(f"\n  (a) {res.coefficient}: power {res.power:.2f} at noise 0")
            assert res.power >= 0.95, f"{res.coefficient} power {res.power}"

        for coeff in coefficients:
            res = estimate_power("linear", 1.0, coeff, n_sims=n_sims,
                                 sample_size=sample_size, seed=9, null_vs_null=True)
            print(f"  (b) {res.coefficient}: size {res.power:.3f}")
            assert abs(res.power - 0.05) <= 0.05, f"{res.coefficient} size {res.power}"

        # circle sits at noise 0.25: at 1.0 no coefficient detects it at n=200
        # (dCor, RDC, Spearman all read the 5% null rate), so (c) would compare noise.
        for pattern, noise in (("circle", 0.25), ("sin16pi", 1.0)):
            res_t = estimate_power(pattern, noise, tfdc_coeff, n_sims=n_sims,
                                   sample_size=sample_size, seed=10)
            res_d = estimate_power(pattern, noise, "dcor", n_sims=n_sims,
                                   sample_size=sample_size, seed=10)
            print(f"  (c) {pattern}@{noise}: tfdc {res_t.power:.2f} vs dcor {res_d.power:.2f}")
            assert res_t.power >= res_d.power


def _one_cpu():
    """Pin the calling process to one of its CPUs (run in the child only)."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _run_cli(args, env_threads, one_cpu=False):
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = env_threads
    env["OPENBLAS_NUM_THREADS"] = env_threads
    proc = subprocess.run(
        [sys.executable, "-m", "coptrans.cli", *args],
        capture_output=True, text=True, env=env,
        preexec_fn=_one_cpu if one_cpu else None,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_9_cli_determinism(tmp_path):
    """Stochastic commands rerun byte-identically, whatever the thread count."""
    with Criterion(9, "byte-identical CSV artifacts across reruns and thread counts"):
        data = tmp_path / "data.csv"
        rng = np.random.default_rng(33)
        x = rng.uniform(size=200)
        rows = ["a,b,c"] + [
            f"{u},{v},{w}" for u, v, w in
            zip(x, x + 0.1 * rng.standard_normal(200), rng.uniform(size=200))
        ]
        data.write_text("\n".join(rows) + "\n")

        artifacts = {}
        for run, threads in (("r1", "1"), ("r2", "4")):
            base = tmp_path / run
            _run_cli(["synth", "--kind", "power_pattern", "--pattern", "circle",
                      "--noise-level", "0.5", "--T", "300", "--seed", "7",
                      "--out", str(base / "synth")], threads)
            _run_cli(["cluster", "--input", str(data), "--m", "8", "--k", "2",
                      "--seed", "5", "--out", str(base / "cluster")], threads)
            # distances come from BLAS matmuls, whose thread count must not move a bit
            _run_cli(["dist", "--input", str(data), "--m", "24",
                      "--out", str(base / "dist")], threads)
            _run_cli(["power", "--patterns", "quadratic", "--noise-levels", "0,1",
                      "--coefficients", "spearman,rdc", "--n-sims", "20",
                      "--sample-size", "60", "--seed", "11",
                      "--out", str(base / "power")], threads)
            artifacts[run] = {
                "synth": (base / "synth" / "data.csv").read_bytes(),
                "cluster": (base / "cluster" / "assignment.csv").read_bytes(),
                "dist": (base / "dist" / "distance-matrix.csv").read_bytes(),
                "power": (base / "power" / "power.csv").read_bytes(),
            }
        assert artifacts["r1"] == artifacts["r2"]
        # with one usable CPU the closure LPs all run on the calling thread
        if sys.platform.startswith("linux"):
            one = tmp_path / "r3" / "cluster"
            _run_cli(["cluster", "--input", str(data), "--m", "8", "--k", "2",
                      "--seed", "5", "--out", str(one)], "1", one_cpu=True)
            for f in (tmp_path / "r1" / "cluster").iterdir():
                if f.name != "run-meta.json":
                    assert (one / f.name).read_bytes() == f.read_bytes(), f.name
