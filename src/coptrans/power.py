"""Statistical power estimation for dependence coefficients.

Protocol: for each replicate, draw an alternative dataset from the requested
pattern and a null dataset by permuting y (independence with the same
margins). The rejection threshold is the empirical 95th percentile of the
coefficient over the null replicates; power is the fraction of alternative
replicates whose coefficient exceeds it. Per-replicate RNG streams derive
from (seed, replicate index), so results do not depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .copula import CopulaHistogram, empirical_copula_from_data, reference_copula
from .dependence import TFDCSpec, distance_correlation, pearson, rdc, spearman, tfdc
from .errors import CoptransError, InvalidParameter
from .synth import POWER_PATTERNS, gen_power_pattern, pattern_extrema
from .transport import GroundCost, SinkhornConfig, default_lambda

__all__ = [
    "COEFFICIENTS",
    "PowerResult",
    "estimate_power",
    "make_tfdc_coefficient",
    "power_target_copulas",
    "tfdc_power_targets",
]

REJECTION_LEVEL = 0.05

# Signed coefficients enter through their absolute value: the alternative of
# interest is "dependent", not "positively correlated".
COEFFICIENTS: dict[str, Callable[[np.ndarray, np.ndarray], float]] = {
    "pearson": lambda x, y: abs(pearson(x, y)),
    "spearman": lambda x, y: abs(spearman(x, y)),
    "dcor": distance_correlation,
    "rdc": lambda x, y: rdc(x, y, seed=7),
}


def registry_coefficient(name: str) -> Callable[[np.ndarray, np.ndarray], float]:
    """COEFFICIENTS[name]; InvalidParameter names the choices for an unknown name."""
    if name not in COEFFICIENTS:
        raise InvalidParameter(f"unknown coefficient {name!r}; choose from {sorted(COEFFICIENTS)}")
    return COEFFICIENTS[name]


@dataclass(frozen=True)
class PowerResult:
    pattern: str
    noise_level: float
    coefficient: str
    power: float
    n_sims: int
    sample_size: int
    threshold: float
    seed: int


def power_target_copulas(m: int = 20, T_ref: int = 100_000,
                         seed: int = 0) -> dict[str, CopulaHistogram]:
    """The targets of `tfdc_power_targets`, keyed by pattern name.

    Each target is the empirical copula of T_ref clean samples of one pattern;
    the reference sample is large enough that two independent draws agree to
    within a couple of percent in total variation.
    """
    targets: dict[str, CopulaHistogram] = {}
    for i, pattern in enumerate(POWER_PATTERNS):
        if m < 2 * pattern_extrema(pattern):
            continue
        x, y = gen_power_pattern(pattern, 0.0, T_ref, seed * len(POWER_PATTERNS) + i)
        target = empirical_copula_from_data(x, y, m)
        if not any(target.same_bits(t) for t in targets.values()):
            targets[pattern] = target
    return targets


def tfdc_power_targets(m: int = 20, T_ref: int = 100_000, seed: int = 0,
                       debias: bool = False) -> TFDCSpec:
    """Target set = the noise-free pattern copulas the m-grid resolves,
    forget set = independence.

    A pattern is a target when m >= 2 * its interior extrema (at least four
    bins per period), and only once per distinct copula: `fourth_root` is a
    strictly increasing transform of `linear`, so their copulas are
    bit-identical. On a coarser grid a fast oscillation aliases to
    near-independence. The `sin16pi` target (16 extrema) lies 0.0004 / 0.0040
    / 0.0063 / 0.0049 from the independence copula at m = 8 / 12 / 20 / 24,
    while a permuted 200-point sample lies about 0.004-0.008 from it at
    m = 12. That target would be the nearest one for every null and noisy
    sample and hold TFDC near 0.47 for all of them. At m = 32 it lies 0.0171
    away, about as far as `sin4pi` (0.0195), and is kept. At m = 12 the set is
    linear, quadratic, cubic, sin4pi, circle and step.
    """
    targets = tuple(power_target_copulas(m, T_ref, seed).values())
    forget = reference_copula("independence", m)
    # Detection-grade solver settings: a loose marginal target and a modest
    # iteration cap keep the many replicate evaluations fast. They cost
    # accuracy: against solves at tol=1e-9, values at these settings moved
    # TFDC by up to 0.061.
    return TFDCSpec(
        targets=targets,
        forgets=(forget,),
        cost=GroundCost(m),
        cfg=SinkhornConfig(lam=default_lambda(m), tol=5e-4, max_iter=3000),
        debias=debias,
    )


def make_tfdc_coefficient(spec: TFDCSpec) -> Callable[[np.ndarray, np.ndarray], float]:
    """Wrap a TFDCSpec as an (x, y) -> value coefficient for the harness."""
    m = spec.cost.m

    def coefficient(x, y):
        return float(tfdc([empirical_copula_from_data(x, y, m)], spec)[0])

    coefficient.__name__ = "tfdc"
    return coefficient


def estimate_power(pattern: str, noise_level: float, coefficient, n_sims: int,
                   sample_size: int, seed: int, *,
                   null_vs_null: bool = False) -> PowerResult:
    """Estimate rejection power at the 5% level against the permutation null.

    `coefficient` is a registry name or an (x, y) -> float callable. A
    coefficient that raises a CoptransError on a replicate (a degenerate
    column, a failed solve) counts as a non-rejection (the replicate stays in
    the denominator); such failures on null replicates push that replicate to
    the bottom of the null distribution. When every replicate fails,
    InvalidParameter names the first error. Any other exception is a bug and
    propagates. With null_vs_null=True the alternative data are permuted
    too, which calibrates the size of the test.
    """
    if n_sims < 10:
        raise InvalidParameter(f"need n_sims >= 10, got {n_sims}")
    if sample_size < 2:
        raise InvalidParameter(f"need sample_size >= 2, got {sample_size}")
    if isinstance(coefficient, str):
        name, func = coefficient, registry_coefficient(coefficient)
    else:
        name, func = getattr(coefficient, "__name__", "custom"), coefficient

    failures: list[str] = []

    def safe(x, y):
        try:
            return float(func(x, y))
        except CoptransError as exc:
            failures.append(str(exc))
            return -np.inf

    null_stats = np.empty(n_sims)
    alt_stats = np.empty(n_sims)
    for rep in range(n_sims):
        rng = np.random.default_rng([seed, rep])
        x, y = gen_power_pattern(pattern, noise_level, sample_size, int(rng.integers(2**63)))
        null_stats[rep] = safe(x, rng.permutation(y))
        alt_stats[rep] = safe(x, rng.permutation(y) if null_vs_null else y)

    if len(failures) == 2 * n_sims:
        raise InvalidParameter(f"coefficient {name!r} gave no value at sample_size="
                               f"{sample_size}; first error: {failures[0]}")
    threshold = float(np.quantile(null_stats, 1.0 - REJECTION_LEVEL, method="higher"))
    power = float(np.mean(alt_stats > threshold))
    return PowerResult(
        pattern=pattern,
        noise_level=noise_level,
        coefficient=name,
        power=power,
        n_sims=n_sims,
        sample_size=sample_size,
        threshold=threshold,
        seed=seed,
    )
