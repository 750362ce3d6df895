"""Monte Carlo generators of terminal samples.

Terminal values are sampled directly (jump count + jump sizes + Gaussian
part for the finite-activity case; terminal gamma laws for the
bi-directional gamma case), then projected onto the torus and snapped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .samples import SampleSet
from .torus import SplineBasis, TorusGrid, project_to_torus

# rng.poisson refuses a mean above numpy's POISSON_LAM_MAX.  The jump total
# of n paths is Poisson with n times the mean, so a bound on that product
# also keeps the total, summed in int64, from wrapping.
_INT64_MAX = float(np.iinfo(np.int64).max)
_POISSON_MEAN_MAX = _INT64_MAX - 10.0 * math.sqrt(_INT64_MAX)


@dataclass(frozen=True)
class SimulationSpec:
    """What to simulate: jump model, fixed drift/diffusion, horizon, count, seed."""

    kind: str                       # "compound_poisson" | "bigamma"
    rates: tuple = ()               # hat-mixture jump rates (compound_poisson)
    gamma_shape: float = 0.5        # bigamma shape A
    gamma_rate: float = 1.0         # bigamma rate (1/scale)
    drift: float = 0.0
    sigma2: float = 0.02
    t_final: float = 1.0
    n_samples: int = 100_000
    seed: int = 0
    # starting position: exactly init_center, or a von Mises draw around it
    # (matching the solver's initial density) when a concentration is given
    init_center: float = 0.0
    init_concentration: float | None = None

    def __post_init__(self):
        if self.kind not in ("compound_poisson", "bigamma"):
            raise ValueError(f"unknown simulation kind {self.kind!r}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0 < self.t_final < math.inf:
            raise ValueError("t_final must be finite and > 0")
        if not math.isfinite(self.drift):
            raise ValueError("drift must be finite")
        if not 0 <= self.sigma2 < math.inf:
            raise ValueError("sigma2 must be finite and >= 0")
        if not math.isfinite(self.init_center):
            raise ValueError("init_center must be finite")
        if not (0 < self.gamma_shape < math.inf
                and 0 < self.gamma_rate < math.inf):
            raise ValueError("gamma shape and rate must be finite and positive")
        if not all(0 <= r < math.inf for r in self.rates):
            raise ValueError("rates must be finite and nonnegative")
        if self.kind == "compound_poisson" and len(self.rates) == 0:
            raise ValueError("compound_poisson needs a rates vector")
        if (self.init_concentration is not None
                and not 0 < self.init_concentration < math.inf):
            raise ValueError("init_concentration must be finite and positive")


def _initial_positions(spec: SimulationSpec, grid: TorusGrid,
                       rng: np.random.Generator) -> np.ndarray | float:
    """Starting values of the paths, on the real line before projection.

    They start from init_center's point on the torus: a far representative
    would round every draw and jump added to it away."""
    center = project_to_torus(spec.init_center, grid.lower, grid.upper)
    if spec.init_concentration is None:
        return center
    # rng.vonmises lives on [-pi, pi); rescale its period to the torus length
    draw = rng.vonmises(0.0, spec.init_concentration, size=spec.n_samples)
    draw *= grid.length / (2.0 * math.pi)
    draw += center
    return draw


def _diffusion_part(spec: SimulationSpec,
                    rng: np.random.Generator) -> np.ndarray:
    """drift * t + sqrt(sigma2 * t) * Z for standard normal Z."""
    t = spec.t_final
    gauss = rng.standard_normal(spec.n_samples)
    gauss *= math.sqrt(spec.sigma2 * t)
    gauss += spec.drift * t
    return gauss


def sample_compound_poisson(spec: SimulationSpec, basis: SplineBasis,
                            grid: TorusGrid) -> SampleSet:
    """Hat-mixture compound Poisson plus Brownian part, projected to the torus.

    The total intensity is sum_j rates_j * delta (exact hat integrals); each
    jump picks hat j with probability rates_j / sum(rates) and draws a
    symmetric triangular size on [center_j - delta, center_j + delta] as the
    sum of two uniforms, which is exact and branch-free.
    """
    if spec.kind != "compound_poisson":
        raise ValueError("spec.kind must be 'compound_poisson'")
    rates = np.asarray(spec.rates, dtype=float)
    if rates.shape != (basis.n_theta,):
        raise ValueError("rates length must match the basis size")
    rng = np.random.default_rng(spec.seed)
    n = spec.n_samples

    mean = basis.delta * rates.sum() * spec.t_final
    expected = (f"the paths expect {mean * n:.3g} jumps in all (delta * "
                f"sum(rates) * t_final * n_samples)")
    if not mean * n <= _POISSON_MEAN_MAX:
        raise ValueError(f"{expected}, more than the "
                         f"{_POISSON_MEAN_MAX:.3g} that can be drawn")
    if mean > 0:
        # one entry per jump: numpy refuses a total beyond memory
        try:
            jump_sum = _jump_sums(rng, mean, rates, basis, n)
        except (MemoryError, ValueError) as exc:
            raise ValueError(f"{expected}, too many to hold in memory: "
                             f"{exc}") from None
    else:
        jump_sum = np.zeros(n)
    jump_sum += _diffusion_part(spec, rng)
    jump_sum += _initial_positions(spec, grid, rng)
    return _terminal_set(jump_sum, grid)


def _jump_sums(rng: np.random.Generator, mean: float, rates: np.ndarray,
               basis: SplineBasis, n: int) -> np.ndarray:
    """The sum of each of n paths' jumps: a Poisson(mean) count of sizes,
    each from hat j with probability rates_j / sum(rates), as
    center_j + delta * (U1 + U2 - 1).  The arrays of one entry per jump die
    with this call."""
    counts = rng.poisson(mean, size=n)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(n)
    component = rng.choice(basis.n_theta, size=total, p=rates / rates.sum())
    sizes = rng.random(total)
    sizes += rng.random(total)
    sizes -= 1.0
    sizes *= basis.delta
    sizes += basis.centers[component]
    del component
    owner = np.repeat(np.arange(n), counts)
    return np.bincount(owner, weights=sizes, minlength=n)


def sample_bigamma(spec: SimulationSpec, grid: TorusGrid) -> SampleSet:
    """Difference of two independent gamma subordinators at the horizon,
    plus the Brownian part, projected to the torus."""
    if spec.kind != "bigamma":
        raise ValueError("spec.kind must be 'bigamma'")
    rng = np.random.default_rng(spec.seed)
    n = spec.n_samples
    shape = spec.gamma_shape * spec.t_final
    scale = 1.0 / spec.gamma_rate

    terminal = rng.gamma(shape, scale, size=n)
    terminal -= rng.gamma(shape, scale, size=n)
    terminal += _diffusion_part(spec, rng)
    terminal += _initial_positions(spec, grid, rng)
    return _terminal_set(terminal, grid)


def _terminal_set(terminal: np.ndarray, grid: TorusGrid) -> SampleSet:
    """The samples of the real-line terminal values, which must be finite:
    a scale derived from finite settings (1/gamma_rate, drift * t_final, a
    sum of draws) can still overflow."""
    if not np.isfinite(terminal).all():
        raise ValueError("simulated terminal values overflow to inf or nan")
    return SampleSet.from_values(
        project_to_torus(terminal, grid.lower, grid.upper), grid)
