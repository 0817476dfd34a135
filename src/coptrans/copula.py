"""Empirical copula histograms and reference/target copula construction.

Everything here is a pure function on immutable inputs: observation columns
come in, normalized-rank columns and m-by-m probability grids on the unit
square come out. Grids are row-major with row index = u_x bin and column
index = u_y bin, both ascending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special
from scipy.stats import rankdata

from .errors import (
    ConvergenceFailure,
    DegenerateColumn,
    InfeasibleProjection,
    InvalidData,
    InvalidParameter,
)

MASS_TOL = 1e-9

__all__ = [
    "CopulaHistogram",
    "ObservationTable",
    "RankColumn",
    "TargetBuilderSpec",
    "empirical_copula",
    "empirical_copula_from_data",
    "normal_inverse_cdf",
    "project_uniform_margins",
    "rank_transform",
    "reference_copula",
    "spearman_from_copula",
]


def _as_finite_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidData(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < 2:
        raise InvalidData(f"{name} needs at least 2 observations, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise InvalidData(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class ObservationTable:
    """N named variables observed T times; rows are samples, columns variables."""

    names: tuple[str, ...]
    data: np.ndarray  # shape (T, N)

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise InvalidData(f"data must be a T x N matrix, got shape {data.shape}")
        T, N = data.shape
        if T < 2 or N < 1:
            raise InvalidData(f"need T >= 2 and N >= 1, got T={T}, N={N}")
        if len(self.names) != N:
            raise InvalidData(f"{len(self.names)} names for {N} columns")
        if not np.all(np.isfinite(data)):
            raise InvalidData("data contains non-finite values")
        for j in range(N):
            if data[:, j].min() == data[:, j].max():
                raise DegenerateColumn(
                    f"column {self.names[j]!r} is constant; rank transform degenerates"
                )
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "names", tuple(str(n) for n in self.names))

    @property
    def T(self) -> int:
        return self.data.shape[0]

    @property
    def N(self) -> int:
        return self.data.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.data[:, j]


@dataclass(frozen=True)
class RankColumn:
    """Normalized ranks u[t] = rank(x[t]) / T, values in (0, 1]."""

    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.ndim != 1 or u.size < 2:
            raise InvalidData("rank column must be a vector of length >= 2")
        if u.min() <= 0.0 or u.max() > 1.0:
            raise InvalidData("normalized ranks must lie in (0, 1]")
        u.setflags(write=False)
        object.__setattr__(self, "u", u)

    def __len__(self) -> int:
        return self.u.size


@dataclass(frozen=True)
class CopulaHistogram:
    """m-by-m nonnegative grid of probability mass on the unit square."""

    mass: np.ndarray

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=float)
        if mass.ndim != 2 or mass.shape[0] != mass.shape[1] or mass.shape[0] < 2:
            raise InvalidData(f"mass must be an m x m grid with m >= 2, got {mass.shape}")
        if not np.all(np.isfinite(mass)):
            raise InvalidData("mass contains non-finite values")
        if mass.min() < 0.0:
            raise InvalidData(f"negative cell mass {mass.min()}")
        total = mass.sum()
        if abs(total - 1.0) > MASS_TOL:
            raise InvalidData(f"total mass {total} differs from 1 beyond {MASS_TOL}")
        mass.setflags(write=False)
        object.__setattr__(self, "mass", mass)

    @property
    def m(self) -> int:
        return self.mass.shape[0]

    def same_bits(self, other: "CopulaHistogram") -> bool:
        return self.mass.shape == other.mass.shape and np.array_equal(self.mass, other.mass)


@dataclass(frozen=True)
class TargetBuilderSpec:
    """Recipe for a reference copula grid.

    kind: one of "frechet_upper", "frechet_lower", "independence",
    "gaussian" (needs rho in (-1, 1)) or "patch" (needs patches, a list of
    ((u_min, u_max, v_min, v_max), weight) entries painted on `base`,
    defaulting to the independence grid).
    """

    kind: str
    m: int
    rho: float = 0.0
    patches: tuple = ()
    base: CopulaHistogram | None = None

    _KINDS = ("frechet_upper", "frechet_lower", "independence", "gaussian", "patch")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise InvalidParameter(f"unknown copula kind {self.kind!r}; choose from {self._KINDS}")
        if self.m < 2:
            raise InvalidParameter(f"grid resolution m must be >= 2, got {self.m}")
        if self.kind == "gaussian" and not -1.0 < self.rho < 1.0:
            raise InvalidParameter(f"gaussian rho must lie in (-1, 1), got {self.rho}")
        if self.kind == "patch":
            if not self.patches:
                raise InvalidParameter("patch spec needs at least one rectangle")
            weights = []
            for rect, w in self.patches:
                u0, u1, v0, v1 = rect
                if not (0.0 <= u0 < u1 <= 1.0 and 0.0 <= v0 < v1 <= 1.0):
                    raise InvalidParameter(f"rectangle {rect} is not inside the unit square")
                if w < 0:
                    raise InvalidParameter(f"patch weight {w} is negative")
                weights.append(w)
            if max(weights) <= 0:
                raise InvalidParameter("at least one patch weight must be positive")
            if self.base is not None and self.base.m != self.m:
                raise InvalidParameter("patch base resolution differs from spec resolution")


def rank_transform(column) -> RankColumn:
    """Normalized rank transform: u[t] = rank(x[t]) / T, average ranks on ties."""
    arr = _as_finite_vector(column, "column")
    if arr.min() == arr.max():
        raise DegenerateColumn("constant column has no rank structure")
    return RankColumn(rankdata(arr, method="average") / arr.size)


def _bin_indices(u: np.ndarray, m: int) -> np.ndarray:
    # Half-open bins (p/m, (p+1)/m]: index = ceil(u*m) - 1. Ranks live on a
    # 1/(2T) grid, so a 1e-9 slack absorbs float rounding at bin boundaries
    # without ever crossing a genuine interior point.
    idx = np.ceil(u * m - 1e-9).astype(np.int64) - 1
    return np.clip(idx, 0, m - 1)


def empirical_copula(x: RankColumn, y: RankColumn, m: int) -> CopulaHistogram:
    """Bin two rank columns into an m-by-m copula histogram (mass 1/T per point)."""
    if len(x) != len(y):
        raise InvalidData(f"rank columns differ in length: {len(x)} vs {len(y)}")
    T = len(x)
    if not 2 <= m <= T:
        raise InvalidData(f"need 2 <= m <= T, got m={m}, T={T}")
    counts = np.zeros((m, m))
    np.add.at(counts, (_bin_indices(x.u, m), _bin_indices(y.u, m)), 1.0)
    return CopulaHistogram(counts / T)


def empirical_copula_from_data(x, y, m: int) -> CopulaHistogram:
    """Rank-transform two raw columns and bin them in one step."""
    return empirical_copula(rank_transform(x), rank_transform(y), m)


def normal_inverse_cdf(p) -> np.ndarray:
    """Standard normal quantile function: scipy.special.ndtri with a domain
    check, since (0, 1) excludes the infinite quantiles at 0 and 1."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise InvalidParameter("normal_inverse_cdf requires p strictly inside (0, 1)")
    return special.ndtri(p)


def project_uniform_margins(raw, tol: float = 1e-9, max_iter: int = 10000) -> CopulaHistogram:
    """Iterative proportional fitting toward uniform margins (each = 1/m).

    Alternates row and column rescaling until the worst marginal violation is
    below tol. The fixed point preserves the cross-ratios of the input grid.
    """
    grid = np.asarray(raw, dtype=float).copy()
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
        raise InvalidData(f"expected a square grid, got shape {grid.shape}")
    if not np.all(np.isfinite(grid)) or grid.min() < 0.0:
        raise InvalidData("grid must be finite and nonnegative")
    m = grid.shape[0]
    if np.any(grid.sum(axis=1) <= 0.0) or np.any(grid.sum(axis=0) <= 0.0):
        raise InfeasibleProjection("a row or column has no mass; margins cannot be fit")

    target = 1.0 / m
    residual = _margin_residual(grid, target)
    if residual < tol:
        return CopulaHistogram(grid / grid.sum())
    for _ in range(max_iter):
        grid *= target / grid.sum(axis=1, keepdims=True)
        grid *= target / grid.sum(axis=0, keepdims=True)
        residual = _margin_residual(grid, target)
        if residual < tol:
            return CopulaHistogram(grid / grid.sum())
    raise ConvergenceFailure(
        f"margin projection residual {residual:.3e} after {max_iter} iterations",
        residual=residual,
    )


def _margin_residual(grid: np.ndarray, target: float) -> float:
    return max(
        np.abs(grid.sum(axis=1) - target).max(),
        np.abs(grid.sum(axis=0) - target).max(),
    )


def _gaussian_density_grid(rho: float, m: int) -> np.ndarray:
    centers = (np.arange(m) + 0.5) / m
    z = normal_inverse_cdf(centers)
    zi = z[:, None]
    zj = z[None, :]
    one_minus = 1.0 - rho * rho
    log_density = (
        -0.5 * (zi * zi + zj * zj - 2.0 * rho * zi * zj) / one_minus
        - 0.5 * math.log(one_minus)
        + 0.5 * (zi * zi + zj * zj)
    )
    density = np.exp(log_density - log_density.max())
    return density / density.sum()


def _paint_patches(spec: TargetBuilderSpec) -> np.ndarray:
    m = spec.m
    base = spec.base.mass if spec.base is not None else np.full((m, m), 1.0 / (m * m))
    grid = base.copy()
    edges = np.arange(m + 1) / m
    for (u0, u1, v0, v1), w in spec.patches:
        if w == 0.0:
            continue
        # Cell gets weight proportional to its overlap area with the rectangle;
        # each rectangle contributes total extra mass w.
        ov_u = np.clip(np.minimum(edges[1:], u1) - np.maximum(edges[:-1], u0), 0.0, None)
        ov_v = np.clip(np.minimum(edges[1:], v1) - np.maximum(edges[:-1], v0), 0.0, None)
        grid += w * np.outer(ov_u, ov_v) / ((u1 - u0) * (v1 - v0))
    return grid


def reference_copula(spec: TargetBuilderSpec) -> CopulaHistogram:
    """Build a reference copula grid from a TargetBuilderSpec.

    frechet_upper/lower put mass 1/m on the diagonal/anti-diagonal,
    independence is the flat grid, gaussian evaluates the analytic copula
    density at cell centers and restores uniform margins by IPF, and patch
    paints weighted rectangles on a base grid before the same projection.
    """
    m = spec.m
    if spec.kind == "independence":
        return CopulaHistogram(np.full((m, m), 1.0 / (m * m)))
    if spec.kind == "frechet_upper":
        grid = np.zeros((m, m))
        np.fill_diagonal(grid, 1.0 / m)
        return CopulaHistogram(grid)
    if spec.kind == "frechet_lower":
        grid = np.zeros((m, m))
        grid[np.arange(m), m - 1 - np.arange(m)] = 1.0 / m
        return CopulaHistogram(grid)
    if spec.kind == "gaussian":
        return project_uniform_margins(_gaussian_density_grid(spec.rho, m), tol=1e-12)
    return project_uniform_margins(_paint_patches(spec), tol=1e-12)


def spearman_from_copula(c: CopulaHistogram) -> float:
    """Spearman rho by cell-center quadrature: 12 * sum(mass * u * v) - 3."""
    centers = (np.arange(c.m) + 0.5) / c.m
    return float(12.0 * centers @ c.mass @ centers - 3.0)
