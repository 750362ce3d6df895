"""Fourier-space solver for circulant systems, given by their symbol.

A circulant matrix, such as a constant-coefficient cyclic tridiagonal one,
is diagonalized by the discrete Fourier basis: mode k of the product is
mode k of the operand times the symbol, so a solve is one rfft, one
division by the symbol and one irfft.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError


class CyclicSolver:
    """Solves (n x n circulant) @ x = rhs for the matrix whose eigenvalues
    on the rfft modes are `symbol`, checked for singularity here."""

    def __init__(self, symbol: np.ndarray, n: int):
        if n < 3:
            raise ValueError("cyclic tridiagonal systems need n >= 3")
        self.n = n
        self.symbol = symbol
        size = np.abs(symbol)
        if not np.all(np.isfinite(size)) or \
                size.min() <= np.finfo(float).eps * size.max():
            raise SolverError("singular cyclic tridiagonal system")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return np.fft.irfft(np.fft.rfft(rhs) / self.symbol, n=self.n)
