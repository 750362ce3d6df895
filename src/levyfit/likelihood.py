"""Floored log-likelihood objective and the information-criterion score."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .samples import SampleSet

DEFAULT_FLOOR = 1e-12


@dataclass(frozen=True)
class ObjectiveValue:
    """Normalized log-likelihood with its floor bookkeeping.

    value = mean over samples of log(max(eps, f at the sample's cell));
    floored_count is the number of samples whose cell density sat at or
    below the floor.
    """

    value: float
    floored_count: int


def evaluate_objective(f_terminal: np.ndarray, samples: SampleSet,
                       eps: float = DEFAULT_FLOOR) -> ObjectiveValue:
    f = np.asarray(f_terminal, dtype=float)
    counts = samples.cell_counts
    if f.shape != counts.shape:
        raise ValueError("terminal density and cell counts disagree in shape")
    n = len(samples)
    log_f = np.log(np.maximum(f, eps))
    value = float(counts @ log_f) / n
    floored = int(counts[f <= eps].sum())
    return ObjectiveValue(value=value, floored_count=floored)


def aic_score(j_star: float, n_samples: int, n_theta: int,
              penalty: str = "log") -> float:
    """Model-selection score L*J - log(n_theta); larger is better.

    penalty="classic" switches to the per-parameter form L*J - n_theta.
    """
    if n_theta < 1:
        raise ValueError("n_theta must be >= 1")
    if penalty == "log":
        return n_samples * j_star - math.log(n_theta)
    if penalty == "classic":
        return n_samples * j_star - n_theta
    raise ValueError(f"unknown penalty {penalty!r}")
