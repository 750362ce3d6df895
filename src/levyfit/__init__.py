"""Nonparametric calibration of Levy jump measures from terminal samples.

The probability density of the process is evolved by a conservative,
positivity-preserving periodic finite-difference scheme; the spline-
discretized jump measure is fitted by maximizing the sample log-likelihood
with a conjugate gradient loop on its exact gradient, and the basis size is
picked by an information criterion.
"""

from .adjoint import AdjointHistory, solve_adjoint, terminal_condition
from .config import RunConfig, load_config
from .errors import (ConfigError, IngestError, LevyfitError, LineSearchError,
                     SolverError, StabilityError)
from .forward import (CCOperator, DensityHistory, JumpKernel, StabilityBounds,
                      adjoint_jump_operator, apply_jump_operator, bdf2_step,
                      euler_step, solve_forward, stability_bounds)
from .likelihood import ObjectiveValue, aic_score, evaluate_objective
from .optimizer import (CalibrationSetup, FitReport, OptimizerParams,
                        SweepResult, aic_sweep, armijo_linesearch, calibrate,
                        dai_yuan_beta, reduced_gradient)
from .preprocess import (PreprocessResult, PreprocessSpec, preprocess_financial,
                         torus_diffusion, torus_drift)
from .samples import SampleSet, ingest_samples, snap_index, write_samples_csv
from .simulate import SimulationSpec, sample_bigamma, sample_compound_poisson
from .torus import (ModelCoefficients, SplineBasis, TimeGrid, TorusGrid,
                    band_centers, make_basis, project_to_torus, tiling_centers,
                    von_mises_density)

__version__ = "0.1.0"
