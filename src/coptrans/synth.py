"""Seeded synthetic data generators for the dependence experiments.

Every generator is a pure function of its parameters and seed: fixed draw
order, numpy Generator streams, bit-identical output on repeat calls.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter

__all__ = [
    "POWER_PATTERNS",
    "gen_discontinuity",
    "gen_gaussian_pair",
    "gen_noisy_parabola",
    "gen_power_pattern",
    "generate",
    "pattern_extrema",
]

POWER_PATTERNS = (
    "linear",
    "quadratic",
    "cubic",
    "sin4pi",
    "sin16pi",
    "fourth_root",
    "circle",
    "step",
)


def generate(kind: str, T: int, seed: int, *, a: float = 0.5, offset: float = 0.0,
             pattern: str = "linear", noise_level: float = 0.0,
             rho: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Draw T samples of one scenario kind; each kind reads only its own parameters.

    "discontinuity" reads a, "noisy_parabola" offset, "power_pattern" pattern
    and noise_level, and "gaussian_pair" rho (see the gen_* functions). Every
    kind needs T >= 2 and a finite, nonnegative noise_level.
    """
    if T < 2:
        raise InvalidParameter(f"need T >= 2, got {T}")
    if not 0 <= noise_level < np.inf:
        raise InvalidParameter(f"noise_level must be finite and >= 0, got {noise_level}")
    if kind == "discontinuity":
        return gen_discontinuity(a, T, seed)
    if kind == "noisy_parabola":
        return gen_noisy_parabola(offset, T, seed)
    if kind == "power_pattern":
        return gen_power_pattern(pattern, noise_level, T, seed)
    if kind == "gaussian_pair":
        return gen_gaussian_pair(rho, T, seed)
    raise InvalidParameter(f"unknown scenario kind {kind!r}")


def gen_discontinuity(a: float, T: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Shared-driver pair with a tunable deterministic stretch.

    Z is uniform on [0, 1]; X equals Z below a and independent uniform noise
    above; Y equals Z below a + 0.25 and independent uniform noise above, so
    X = Y on a fraction a of the sample.
    """
    if not 0.0 <= a <= 1.0:
        raise InvalidParameter(f"a must lie in [0, 1], got {a}")
    rng = np.random.default_rng(seed)
    z = rng.uniform(size=T)
    eps_x = rng.uniform(size=T)
    eps_y = rng.uniform(size=T)
    x = np.where(z < a, z, eps_x)
    y = np.where(z < a + 0.25, z, eps_y)
    return x, y


def gen_noisy_parabola(offset: float, T: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Parabola pair: X uniform on [0, 1], Y = (X - 1/2 + offset)^2.

    The vertex sits inside the sample range, so the pair is counter-monotonic
    on one side and co-monotonic on the other; distinct offsets produce
    horizontally shifted copies of the same V-shaped copula pattern.
    """
    # a non-finite offset would make every y non-finite
    if not np.isfinite(offset):
        raise InvalidParameter(f"offset must be finite, got {offset}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=T)
    y = (x - 0.5 + offset) ** 2
    return x, y


def _pattern_curve(pattern: str, x: np.ndarray) -> np.ndarray:
    if pattern == "linear":
        return x
    if pattern == "quadratic":
        return 4.0 * (x - 0.5) ** 2
    if pattern == "cubic":
        t = x - 1.0 / 3.0
        return 128.0 * t**3 - 48.0 * t**2 - 12.0 * t
    if pattern == "sin4pi":
        return np.sin(4.0 * np.pi * x)
    if pattern == "sin16pi":
        return np.sin(16.0 * np.pi * x)
    if pattern == "fourth_root":
        return x**0.25
    if pattern == "step":
        return (x > 0.5).astype(float)
    raise InvalidParameter(f"unknown power pattern {pattern!r}; choose from {POWER_PATTERNS}")


def _pattern_range(pattern: str) -> float:
    if pattern == "circle":
        return 2.0
    grid = np.linspace(0.0, 1.0, 10001)
    curve = _pattern_curve(pattern, grid)
    return float(curve.max() - curve.min())


def pattern_extrema(pattern: str) -> int:
    """Number of interior extrema of the clean pattern curve on (0, 1).

    Each circle branch turns once. Flat stretches (the step) are not extrema.
    """
    if pattern == "circle":
        return 1
    slope = np.sign(np.diff(_pattern_curve(pattern, np.linspace(0.0, 1.0, 10001))))
    slope = slope[slope != 0]
    return int(np.count_nonzero(slope[1:] != slope[:-1]))


def gen_power_pattern(pattern: str, noise_level: float, T: int,
                      seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One of the eight benchmark associations with scaled Gaussian noise.

    Draw order is fixed (x, then the circle branch sign, then noise) so that
    outputs are bit-identical for a given seed. Noise is
    noise_level * (y range of the clean pattern) * N(0, 1).
    """
    check_power_pattern(pattern, noise_level)
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=T)
    if pattern == "circle":
        sign = 2.0 * rng.integers(0, 2, size=T) - 1.0
        y = sign * np.sqrt(np.clip(1.0 - (2.0 * x - 1.0) ** 2, 0.0, None))
    else:
        y = _pattern_curve(pattern, x)
    if noise_level > 0:
        y = y + noise_level * _pattern_range(pattern) * rng.standard_normal(T)
    return x, y


def check_power_pattern(pattern: str, noise_level: float):
    """Raise InvalidParameter unless `gen_power_pattern` takes (pattern, noise_level)."""
    if pattern not in POWER_PATTERNS:
        raise InvalidParameter(f"unknown power pattern {pattern!r}; choose from {POWER_PATTERNS}")
    # a NaN level would skip the noise and return clean data
    if not 0 <= noise_level < np.inf:
        raise InvalidParameter(f"noise_level must be finite and >= 0, got {noise_level}")


def gen_gaussian_pair(rho: float, T: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Bivariate normal pair with unit variances and correlation rho."""
    if not -1.0 <= rho <= 1.0:
        raise InvalidParameter(f"rho must lie in [-1, 1], got {rho}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((T, 2))
    x = z[:, 0]
    y = rho * z[:, 0] + np.sqrt(1.0 - rho * rho) * z[:, 1]
    return x, y
