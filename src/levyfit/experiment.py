"""Batch experiment driver: data acquisition, sweep, report and CSV artifacts."""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, build_basis, build_grid, config_to_dict
from .errors import ConfigError
from .optimizer import SweepResult, aic_sweep
from .samples import SampleSet, ingest_samples
from .simulate import (SimulationSpec, sample_bigamma,
                       sample_compound_poisson)
from .torus import TorusGrid, project_to_torus


@dataclass
class ExperimentResult:
    sweep: SweepResult
    report: dict
    paths: dict


def simulate_samples(config: RunConfig) -> SampleSet:
    """The config's simulation: its SimulationSpec, its grid and, for
    compound Poisson, the hat basis the jumps follow, then the draw.  Paths
    start from the config's von Mises initial density, the one the solver
    assumes.  A setting any of them refuses, or whose draws cannot be made
    or overflow, is a ConfigError; the samplers refuse an overflow
    themselves, so numpy's warning of it is not shown."""
    try:
        spec = SimulationSpec(
            kind=config.sim_kind, rates=config.sim_rates,
            gamma_shape=config.sim_gamma_shape,
            gamma_rate=config.sim_gamma_rate, drift=config.drift,
            sigma2=config.sigma2, t_final=config.t_final,
            n_samples=config.sample_count, seed=config.seed,
            init_center=config.init_center,
            init_concentration=config.init_concentration)
        grid = build_grid(config)
        basis = (build_basis(len(spec.rates), config, grid)
                 if spec.kind == "compound_poisson" else None)
        with np.errstate(over="ignore", invalid="ignore"):
            if basis is None:
                return sample_bigamma(spec, grid)
            return sample_compound_poisson(spec, basis, grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def acquire_samples(config: RunConfig, grid: TorusGrid) -> SampleSet:
    """Simulate per the config, or ingest a CSV of torus values and wrap
    it onto `grid`."""
    if config.sim_kind and config.samples_csv:
        raise ConfigError("give either sim_kind or samples_csv, not both")
    if config.sim_kind:
        return simulate_samples(config)
    if config.samples_csv:
        return SampleSet.from_values(
            project_to_torus(ingest_samples(config.samples_csv), grid.lower,
                             grid.upper), grid)
    raise ConfigError("no data source: set sim_kind or samples_csv")


def run_experiment(config: RunConfig, out_dir=None) -> ExperimentResult:
    """Fit every basis size in the sweep and write the report artifacts.

    Artifacts: report.json (full sweep + config echo), density.csv (grid
    and fitted terminal density of the selected fit), histogram.csv
    (empirical density histogram), aic.csv (score curve).
    """
    setups = config.calibration_setups()
    out_dir = str(out_dir if out_dir is not None else config.out_dir)
    grid = setups[0].grid
    samples = acquire_samples(config, grid)
    # before the sweep, so that a bin count too large to allocate or an
    # output path that cannot be a directory fails first
    heights, edges = empirical_histogram(samples, config.hist_bins)
    created = _make_dirs(out_dir)
    try:
        sweep = aic_sweep(setups, samples, config.optimizer_params(),
                          penalty=config.aic_penalty)
    except BaseException:
        # a failed sweep removes the directories this call made, no other
        for path in created:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise
    reports = sweep.reports
    selected = next(r for r in reports if r.n_theta == sweep.selected_n_theta)

    report = {
        "config": config_to_dict(config),
        "seed": config.seed,
        "selected_n_theta": sweep.selected_n_theta,
        "fits": [_fit_entry(r) for r in reports],
        "errors": sweep.errors,
    }

    paths = {
        "report": os.path.join(out_dir, "report.json"),
        "density": os.path.join(out_dir, "density.csv"),
        "histogram": os.path.join(out_dir, "histogram.csv"),
        "aic": os.path.join(out_dir, "aic.csv"),
    }
    with open(paths["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_csv(paths["density"], "x,density", grid.points, selected.terminal)
    _write_csv(paths["histogram"], "bin_center,height",
               0.5 * (edges[:-1] + edges[1:]), heights)
    _write_csv(paths["aic"], "n_theta,j_eps,aic", [r.n_theta for r in reports],
               [r.j_star for r in reports], [r.aic for r in reports])
    return ExperimentResult(sweep=sweep, report=report, paths=paths)


def _make_dirs(path: str) -> list[str]:
    """os.makedirs(path), returning the directories it made, deepest first."""
    created = []
    head = os.path.abspath(path)
    while not os.path.lexists(head):
        created.append(head)
        head = os.path.dirname(head)
    os.makedirs(path, exist_ok=True)
    return created


def _fit_entry(report) -> dict:
    return {
        "n_theta": report.n_theta,
        "alpha_star": [float(a) for a in report.alpha_star],
        "j_eps": report.j_star,
        "aic": report.aic,
        "iterations": report.iterations,
        "converged": report.converged,
        "diagnostics": report.diagnostics,
    }


def empirical_histogram(samples: SampleSet, bins: int):
    """Density-normalized histogram over the full torus width."""
    heights, edges = np.histogram(
        samples.values, bins=bins,
        range=(samples.grid.lower, samples.grid.upper), density=True)
    return heights, edges


def _write_csv(path, header: str, *columns) -> None:
    """One row per index of the columns, each value written as its repr."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in zip(*(np.asarray(c).tolist() for c in columns)):
            fh.write(",".join(map(repr, row)) + "\n")
