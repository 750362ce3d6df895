import numpy as np
import pytest

from levyfit.cyclic import CyclicSolver
from levyfit.errors import SolverError


def band_solver(sub, diag, sup, n):
    """The solver of the cyclic tridiagonal matrix with these bands: its
    symbol on rfft mode k is diag + sub*e^{-i theta_k} + sup*e^{i theta_k}."""
    theta = 2.0 * np.pi * np.arange(n // 2 + 1) / n
    return CyclicSolver(diag + sub * np.exp(-1j * theta)
                        + sup * np.exp(1j * theta), n)


def dense(sub, diag, sup, n):
    m = np.zeros((n, n))
    for i in range(n):
        m[i, i] = diag
        m[i, (i - 1) % n] = sub
        m[i, (i + 1) % n] = sup
    return m


@pytest.mark.parametrize("n", [3, 4, 7, 64, 129])
def test_matches_dense_solve(n, rng):
    sub, sup = rng.uniform(-1, 0, 2)
    diag = 3.0 + abs(sub) + abs(sup)      # diagonally dominant
    rhs = rng.normal(size=n)
    solver = band_solver(sub, diag, sup, n)
    x = solver.solve(rhs)
    x_dense = np.linalg.solve(dense(sub, diag, sup, n), rhs)
    assert np.allclose(x, x_dense, rtol=1e-12, atol=1e-14)


def test_matvec_roundtrip(rng):
    n = 40
    solver = band_solver(-0.3, 2.1, -0.7, n)
    x = rng.normal(size=n)
    assert np.allclose(solver.solve(dense(-0.3, 2.1, -0.7, n) @ x), x,
                       rtol=1e-12)


def test_rejects_tiny_systems():
    with pytest.raises(ValueError):
        band_solver(-1.0, 3.0, -1.0, 2)


@pytest.mark.parametrize("n", [3, 8, 9])
def test_rejects_singular_systems(n):
    # the periodic second difference annihilates constants (symbol 0 at k=0)
    with pytest.raises(SolverError):
        band_solver(-1.0, 2.0, -1.0, n)
