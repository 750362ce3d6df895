"""Periodic geometry: grids on the torus, hat-function bases, von Mises densities.

The spatial domain is the interval [lower, upper) with its end points
identified.  All translations and distances are computed modulo the period
K = upper - lower, so every operator built on top of this module is
automatically periodic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

HALF_WIDTH = math.pi  # the standard torus is [-HALF_WIDTH, HALF_WIDTH)
# below half the spacing of floats at the largest one: an edge this small
# added to any finite value rounds to a finite value, so no wrap onto the
# torus overflows
_EDGE_MAX = 1e290


@dataclass(frozen=True)
class TorusGrid:
    """Uniform cyclic mesh x_i = lower + i*h, i = 0..n-1, with index n wrapping to 0.

    Attributes:
        lower, upper: domain edges; upper is identified with lower.
        n: number of cells (= number of distinct nodes).
    """

    lower: float
    upper: float
    n: int

    def __post_init__(self):
        if self.n < 4:
            raise ValueError(f"need at least 4 grid cells, got {self.n}")
        if not (abs(self.lower) <= _EDGE_MAX and abs(self.upper) <= _EDGE_MAX
                and self.h > 0.0):
            raise ValueError(f"domain [{self.lower}, {self.upper}) must be "
                             f"non-empty, with finite edges within "
                             f"+-{_EDGE_MAX:g}")

    @property
    def length(self) -> float:
        return self.upper - self.lower

    @property
    def h(self) -> float:
        return self.length / self.n

    @property
    def points(self) -> np.ndarray:
        return self.lower + self.h * np.arange(self.n)

    @property
    def translation_nodes(self) -> np.ndarray:
        """Torus representatives of the cell shifts k*h, k = 0..n-1.

        A translation by translation_nodes[k] moves grid values by exactly k
        cells.  Whenever lower is an integer multiple of h (every symmetric
        domain with even n) these are the grid points themselves, reordered.
        """
        return project_to_torus(self.h * np.arange(self.n), self)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time mesh t_m = m*dt on [0, t_final]."""

    t_final: float
    n_steps: int

    def __post_init__(self):
        if not 0.0 < self.t_final < math.inf:
            raise ValueError("t_final must be finite and > 0")
        if self.n_steps < 2:
            raise ValueError("need at least 2 time steps")

    @property
    def dt(self) -> float:
        return self.t_final / self.n_steps


@dataclass(frozen=True)
class ModelCoefficients:
    """Fixed drift/diffusion pair of the process.

    The flux-form solver works with the advection B = -drift and the
    diffusion coefficient C = sigma2 / 2; C must be strictly positive.
    """

    drift: float
    sigma2: float

    def __post_init__(self):
        if not math.isfinite(self.drift):
            raise ValueError("drift must be finite")
        if not 0.0 < self.diff < math.inf:
            raise ValueError("sigma2 must be finite and > 0 for the solver")

    @property
    def adv(self) -> float:
        return -self.drift

    @property
    def diff(self) -> float:
        return self.sigma2 / 2.0


def project_to_torus(y, grid: TorusGrid):
    """Wrap real values onto [lower, upper) by the modulus homomorphism.

    project_to_torus(y + K) == project_to_torus(y) for the period K; the
    map restricted to sums of grid values is a group homomorphism.
    """
    k = grid.length
    r = np.mod(np.asarray(y, dtype=float) - grid.lower, k)
    # mod(...) == K, or a sum lower + r that rounds up, would land on
    # `upper`, which is `lower` on the torus
    r = np.where(r >= k, r - k, r)
    out = grid.lower + r
    out = np.where(out >= grid.upper, grid.lower, out)
    return float(out) if np.isscalar(y) else out


@dataclass(frozen=True)
class SplineBasis:
    """Triangular (hat) functions on the torus.

    Each hat rises linearly from 0 at center - delta to 1 at its center and
    back to 0 at center + delta, evaluated with periodic wrap.  `samples`
    holds the hats at the grid's translation nodes, which is the quadrature
    table used by the jump operator and the rate gradient.
    """

    centers: np.ndarray
    delta: float
    grid: TorusGrid
    samples: np.ndarray = field(repr=False)

    @property
    def n_theta(self) -> int:
        return len(self.centers)

    def evaluate(self, x) -> np.ndarray:
        """Hat values at arbitrary points; shape (n_theta, len(x))."""
        return _hat_values(np.atleast_1d(np.asarray(x, dtype=float)),
                           self.centers, self.delta, self.grid)


def _hat_values(x: np.ndarray, centers: np.ndarray, delta: float,
                grid: TorusGrid) -> np.ndarray:
    k = grid.length
    d = np.abs(np.mod(x[None, :] - centers[:, None] + k / 2.0, k) - k / 2.0)
    # d / delta overflows only far outside a hat, where its value is 0
    with np.errstate(over="ignore"):
        return np.maximum(0.0, 1.0 - d / delta)


def make_basis(centers, grid: TorusGrid, delta: float | None = None) -> SplineBasis:
    """Build the hat basis for equally spaced centers.

    The half-support width equals the center spacing; a single center needs
    `delta` passed explicitly.  Non-uniform spacing is rejected because one
    common width enters every hat formula.
    """
    centers = np.atleast_1d(np.asarray(centers, dtype=float))
    if centers.size == 0:
        raise ValueError("need at least one center")
    if centers.size > 1:
        gaps = np.diff(centers)
        if np.any(gaps <= 0):
            raise ValueError("centers must be strictly increasing")
        if not np.allclose(gaps, gaps[0], rtol=1e-9, atol=1e-12 * grid.length):
            raise ValueError(f"centers must be equally spaced, got gaps {gaps}")
        spacing = float(gaps[0])
        if delta is not None and not np.isclose(delta, spacing, rtol=1e-9):
            raise ValueError("delta must equal the center spacing")
        delta = spacing
    elif delta is None:
        raise ValueError("a single-hat basis needs delta; give >= 2 centers")
    delta = float(delta)
    if not 0.0 < delta <= grid.length / 2.0:
        raise ValueError("delta must lie in (0, K/2]")

    samples = _hat_values(grid.translation_nodes, centers, delta, grid)
    dead = np.flatnonzero(~np.any(samples > 0.0, axis=1))
    if dead.size:
        raise ValueError(f"{dead.size} of {centers.size} hats cover no grid "
                         f"node (half-width {delta:.4g}, grid step "
                         f"{grid.h:.4g}); use fewer hats or a finer grid")
    return SplineBasis(centers=centers, delta=delta, grid=grid, samples=samples)


def band_centers(n_theta: int, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
    """n_theta equally spaced interior centers of (lo, hi), spacing (hi-lo)/(n_theta+1)."""
    if n_theta < 1:
        raise ValueError("n_theta must be >= 1")
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"band ({lo}, {hi}) must be finite and non-empty")
    spacing = (hi - lo) / (n_theta + 1)
    if not spacing < math.inf:
        raise ValueError(f"band ({lo}, {hi}) is too wide for float64")
    return lo + spacing * np.arange(1, n_theta + 1)


def tiling_centers(n_theta: int, grid: TorusGrid) -> np.ndarray:
    """n_theta centers tiling the whole torus, starting at the lower edge."""
    if n_theta < 2:
        raise ValueError("a full tiling needs n_theta >= 2")
    return grid.lower + (grid.length / n_theta) * np.arange(n_theta)


def von_mises_density(grid: TorusGrid, mu: float, kappa: float) -> np.ndarray:
    """Sharply peaked periodic bump centered at mu, normalized so h*sum == 1.

    Evaluates exp(kappa*(cos(2*pi*(x - mu - lower)/K - pi) - 1)) on the grid,
    with mu first projected onto the torus, and renormalizes numerically;
    subtracting the peak value inside the exponential keeps kappa of
    several hundred overflow-free, a kappa whose exponent overflows gives
    its limit exp(-inf) = 0, and the discrete normalization removes the
    Bessel-function constant entirely.
    """
    if not math.isfinite(mu):
        raise ValueError("von Mises center mu must be finite")
    if not 0.0 < kappa < math.inf:
        raise ValueError("von Mises kappa must be finite and > 0")
    x = grid.points
    mu = project_to_torus(mu, grid)
    ang = 2.0 * np.pi * (x - mu - grid.lower) / grid.length - np.pi
    with np.errstate(over="ignore"):
        f = np.exp(kappa * (np.cos(ang) - 1.0))
    mass = grid.h * f.sum()
    if not mass > 0.0:
        raise ValueError(f"kappa = {kappa} is too sharp for the grid: "
                         "the density underflows to 0 at every node")
    return f / mass
