"""Fourier-space solver for constant-coefficient cyclic tridiagonal systems.

The periodic flux operators all produce matrices with a constant
sub-diagonal, diagonal and super-diagonal plus the two wrap-around corner
entries (row 0 couples to column n-1 with the sub-diagonal value, row n-1
to column 0 with the super-diagonal value).  Such a matrix is circulant:
the discrete Fourier basis diagonalizes it, and mode k of the product is
mode k of the operand times the symbol
    diag + sub*e^{-i theta_k} + sup*e^{i theta_k},   theta_k = 2*pi*k/n,
so a solve is one rfft, one division by the symbol and one irfft.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError


class CyclicSolver:
    """Solves (cyclic tridiagonal) @ x = rhs for fixed scalar bands.

    `symbol` holds the matrix's eigenvalues on the rfft modes; it is
    computed once at construction and checked for singularity there.
    """

    def __init__(self, sub: float, diag: float, sup: float, n: int):
        if n < 3:
            raise ValueError("cyclic tridiagonal systems need n >= 3")
        self.n = n
        theta = 2.0 * np.pi * np.arange(n // 2 + 1) / n
        self.symbol = (float(diag) + float(sub) * np.exp(-1j * theta)
                       + float(sup) * np.exp(1j * theta))
        size = np.abs(self.symbol)
        if not np.all(np.isfinite(size)) or \
                size.min() <= np.finfo(float).eps * size.max():
            raise SolverError("singular cyclic tridiagonal system")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return np.fft.irfft(np.fft.rfft(rhs) / self.symbol, n=self.n)
