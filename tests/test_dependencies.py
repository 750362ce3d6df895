import os
import subprocess
import sys
import textwrap
from pathlib import Path

import levyfit

SCIPY_FREE_MARCH = textwrap.dedent("""
    import sys
    sys.modules["scipy"] = None         # any scipy import now fails
    import numpy as np
    import levyfit as lf
    import levyfit.cli

    grid = lf.TorusGrid(-np.pi, np.pi, 32)
    basis = lf.make_basis(lf.band_centers(3), grid)
    setup = lf.CalibrationSetup(
        grid=grid, time_grid=lf.TimeGrid(0.2, 10),
        coeffs=lf.ModelCoefficients(0.1, 0.05), basis=basis,
        f0=lf.von_mises_density(grid, 0.0, 20.0))
    rates = [0.5, 0.2, 0.1]
    assert np.isfinite(lf.solve_forward(setup, rates).terminal).all()
    assert lf.forward.march_diagnostics(setup, rates)["mass_drift"] < 1e-10
""")


def test_package_runs_without_scipy():
    """scipy is a test-only dependency: importing the package and marching
    a density must not need it."""
    src = str(Path(levyfit.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE_MARCH],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
