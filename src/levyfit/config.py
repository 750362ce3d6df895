"""Flat key=value run configuration, with defaults for the standard experiments.

A config file is plain text, one `key = value` per line, '#' comments and
blank lines ignored.  Command-line overrides use the same key=value form.
List-valued keys take comma-separated entries.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from .errors import ConfigError
from .likelihood import DEFAULT_FLOOR, aic_score
from .optimizer import CalibrationSetup, OptimizerParams
from .simulate import SimulationSpec
from .torus import (HALF_WIDTH, ModelCoefficients, SplineBasis, TimeGrid,
                    TorusGrid, band_centers, make_basis, tiling_centers,
                    von_mises_density)


@dataclass
class RunConfig:
    # spatial / temporal discretization
    domain_lower: float = -HALF_WIDTH
    domain_upper: float = HALF_WIDTH
    n_space: int = 420
    t_final: float = 1.0
    n_time: int = 250

    # fixed model coefficients
    drift: float = 0.0
    sigma2: float = 0.02

    # initial density (von Mises bump)
    init_center: float = 0.0
    init_concentration: float = 400.0

    # basis sweep: one fit per entry of n_theta_list
    n_theta_list: tuple = (3, 4, 5, 6, 7)
    centers_mode: str = "band"        # "band" (inside (band_lo, band_hi)) or "full"
    centers_lo: float = -1.0
    centers_hi: float = 1.0

    # optimizer
    grad_tol: float = 1e-5
    max_iters: int = 500

    # objective / scheme details
    objective_floor: float = DEFAULT_FLOOR
    boot_substeps: int = 10
    bdf2_xi: float = 2.0
    force_dt: bool = False
    aic_penalty: str = "log"         # log(n) penalty, or "classic" (n)

    # data source: exactly one of samples_csv / sim_kind
    samples_csv: str = ""
    sim_kind: str = ""                # "compound_poisson" | "bigamma"
    sim_rates: tuple = (3.0, 2.0, 1.0, 0.5, 0.25)
    sim_gamma_shape: float = 0.5
    sim_gamma_rate: float = 1.0
    sample_count: int = 100_000

    # reporting
    hist_bins: int = 40
    seed: int = 0
    out_dir: str = "out"

    def optimizer_params(self) -> OptimizerParams:
        return OptimizerParams(tol=self.grad_tol, max_iters=self.max_iters)

    def calibration_setups(self) -> list[CalibrationSetup]:
        """Check the fit rules no constructor owns, then build the fit
        problems, one per entry of n_theta_list; a ValueError of the
        objects they are built from becomes a ConfigError.  The simulation
        is checked where it is built, by experiment.simulate_samples."""
        if not self.n_theta_list:
            raise ConfigError("n_theta_list must not be empty")
        if self.hist_bins < 1:
            raise ConfigError("hist_bins must be >= 1")
        try:
            self.optimizer_params()
            aic_score(0.0, 1, 1, self.aic_penalty)  # checks the penalty name
            setups = [calibration_setup(self, n) for n in self.n_theta_list]
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return setups


def build_grid(config: RunConfig) -> TorusGrid:
    return TorusGrid(config.domain_lower, config.domain_upper, config.n_space)


def build_basis(n_theta: int, config: RunConfig, grid: TorusGrid) -> SplineBasis:
    if config.centers_mode == "band":
        centers = band_centers(n_theta, config.centers_lo, config.centers_hi)
    elif config.centers_mode == "full":
        centers = tiling_centers(n_theta, grid)
    else:
        raise ValueError("centers_mode must be 'band' or 'full'")
    return make_basis(centers, grid)


def calibration_setup(config: RunConfig, n_theta: int) -> CalibrationSetup:
    """The problem the config poses for a fit with n_theta hats."""
    grid = build_grid(config)
    return CalibrationSetup(
        grid=grid, time_grid=TimeGrid(config.t_final, config.n_time),
        coeffs=ModelCoefficients(config.drift, config.sigma2),
        basis=build_basis(n_theta, config, grid),
        f0=von_mises_density(grid, config.init_center,
                             config.init_concentration),
        eps=config.objective_floor, boot_substeps=config.boot_substeps,
        xi=config.bdf2_xi, force=config.force_dt)


def simulation_spec(config: RunConfig) -> SimulationSpec:
    """The simulator settings of a config; paths start from the config's
    von Mises initial density, the one the solver assumes."""
    return SimulationSpec(kind=config.sim_kind, rates=config.sim_rates,
                          gamma_shape=config.sim_gamma_shape,
                          gamma_rate=config.sim_gamma_rate,
                          drift=config.drift, sigma2=config.sigma2,
                          t_final=config.t_final, n_samples=config.sample_count,
                          seed=config.seed, init_center=config.init_center,
                          init_concentration=config.init_concentration)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, text: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    kind = _FIELD_TYPES[key]
    text = text.strip()
    try:
        if kind == "bool":
            if text.lower() in ("true", "1", "yes"):
                return True
            if text.lower() in ("false", "0", "no"):
                return False
            raise ValueError(text)
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "tuple":
            if not text:
                return ()
            items = [t.strip() for t in text.split(",") if t.strip()]
            if key == "n_theta_list":
                return tuple(int(t) for t in items)
            return tuple(float(t) for t in items)
        return text
    except ValueError:
        raise ConfigError(f"bad value {text!r} for key {key!r}") from None


def parse_assignments(lines, source: str = "<config>") -> dict:
    out = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{source}: line {lineno} is not 'key = value'")
        key, value = text.split("=", 1)
        out[key.strip()] = _coerce(key.strip(), value)
    return out


def load_config(path=None, overrides=()) -> RunConfig:
    """Defaults, then file assignments, then key=value overrides, each
    value only parsed as its key's type.  The command that runs the config
    checks it, by building what it runs."""
    values = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            values.update(parse_assignments(fh, source=str(path)))
    values.update(parse_assignments(list(overrides), source="<override>"))
    return RunConfig(**values)


def config_from_dict(data: dict) -> RunConfig:
    """Rebuild a config from a report echo (lists arrive as JSON arrays)."""
    values = {}
    for key, val in data.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = tuple(val) if _FIELD_TYPES[key] == "tuple" else val
    return RunConfig(**values)


def config_to_dict(config: RunConfig) -> dict:
    out = asdict(config)
    for key, val in out.items():
        if isinstance(val, tuple):
            out[key] = list(val)
    return out
