"""Mapping raw return series onto the torus, with drift/diffusion attribution."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .torus import HALF_WIDTH, project_to_torus


@dataclass(frozen=True)
class PreprocessSpec:
    """Band of raw values mapped onto the torus [-pi, pi).

    Values outside [band_lo, band_hi] are either wrapped around (default)
    or discarded; diffusion_fraction of the empirical variance is assigned
    to the fixed diffusion coefficient.
    """

    band_lo: float = -0.03
    band_hi: float = 0.03
    diffusion_fraction: float = 0.25
    outside: str = "wrap"

    def __post_init__(self):
        if not (math.isfinite(self.band_lo) and math.isfinite(self.band_hi)):
            raise ConfigError("band edges must be finite")
        if not self.band_lo < self.band_hi:
            raise ConfigError("band_lo must be below band_hi")
        # torus_diffusion multiplies by the squared stretch
        if not 0.0 < self.scale * self.scale < math.inf:
            raise ConfigError(
                f"band [{self.band_lo!r}, {self.band_hi!r}] maps onto the "
                "torus by a stretch whose square is 0 or overflows")
        if not 0.0 < self.diffusion_fraction <= 1.0:
            raise ConfigError("diffusion_fraction must lie in (0, 1]")
        if self.outside not in ("wrap", "discard"):
            raise ConfigError("outside must be 'wrap' or 'discard'")

    @property
    def scale(self) -> float:
        """Stretch factor carrying the band onto the full torus width."""
        return 2.0 * HALF_WIDTH / (self.band_hi - self.band_lo)

    @property
    def center(self) -> float:
        return 0.5 * (self.band_lo + self.band_hi)


def torus_drift(raw_drift: float, spec: PreprocessSpec) -> float:
    """Drift rescaled to the torus: raw mean times the band-to-torus stretch.

    The map x = scale * (y - center) is affine, so its constant shift
    -scale * center moves the starting point, not the drift; spec.center
    therefore does not enter.
    """
    return raw_drift * spec.scale


def torus_diffusion(raw_variance: float, spec: PreprocessSpec) -> float:
    """Diffusion coefficient sigma^2 on the torus.

    The attributed share of the empirical variance, stretched by the
    squared band-to-torus factor.
    """
    return spec.diffusion_fraction * raw_variance * spec.scale**2


@dataclass(frozen=True)
class PreprocessResult:
    values: np.ndarray          # on [-pi, pi)
    drift: float                # torus drift for the model
    diffusion: float            # torus sigma^2 for the model
    raw_mean: float
    raw_variance: float
    n_wrapped: int
    n_discarded: int


def preprocess_financial(raw_values, spec: PreprocessSpec) -> PreprocessResult:
    """Rescale raw returns to the torus and derive the fixed model coefficients.

    The drift and variance are estimated from the full raw series (before
    any wrapping or discarding), matching how the attribution rule is
    stated; the returned values are ready for grid snapping.
    """
    y = np.asarray(raw_values, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ConfigError("need a non-empty 1-d array of raw values")
    with np.errstate(over="ignore", invalid="ignore"):
        raw_mean = float(y.mean())
        raw_var = float(y.var())
        x = (y - spec.center) * spec.scale
    if raw_var <= 0.0:
        raise ConfigError("zero-variance input; nothing to calibrate")
    drift = torus_drift(raw_mean, spec)
    diffusion = torus_diffusion(raw_var, spec)
    overflowed = [name for name, ok in (
        ("torus_drift", math.isfinite(drift)),
        ("torus_sigma2", math.isfinite(diffusion)),
        ("torus values", bool(np.isfinite(x).all()))) if not ok]
    if overflowed:
        raise ConfigError("the raw values are too large for float64: the "
                          + ", ".join(overflowed) + " overflow")

    outside = (x < -HALF_WIDTH) | (x >= HALF_WIDTH)
    n_outside = int(outside.sum())
    if spec.outside == "discard":
        x = x[~outside]
        n_wrapped, n_discarded = 0, n_outside
        if x.size == 0:
            raise ConfigError("all values fell outside the band")
    else:
        x = project_to_torus(x, -HALF_WIDTH, HALF_WIDTH)
        n_wrapped, n_discarded = n_outside, 0

    return PreprocessResult(
        values=x,
        drift=drift,
        diffusion=diffusion,
        raw_mean=raw_mean,
        raw_variance=raw_var,
        n_wrapped=n_wrapped,
        n_discarded=n_discarded,
    )
