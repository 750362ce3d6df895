"""Batch experiment driver: data acquisition, sweep, report and CSV artifacts."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .config import (RunConfig, build_basis, build_grid, calibration_setup,
                     config_to_dict, simulation_spec)
from .errors import ConfigError
from .optimizer import SweepResult, aic_sweep
from .samples import SampleSet, ingest_samples
from .simulate import SimulationSpec, sample_bigamma, sample_compound_poisson
from .torus import TorusGrid, project_to_torus


@dataclass
class ExperimentResult:
    sweep: SweepResult
    report: dict
    samples: SampleSet
    paths: dict


def simulate_samples(spec: SimulationSpec, config: RunConfig,
                     grid: TorusGrid) -> SampleSet:
    """Draw the samples of `spec`; compound Poisson jumps follow the hat
    basis the config's centers give for len(spec.rates) hats."""
    if spec.kind == "compound_poisson":
        basis = build_basis(len(spec.rates), config, grid)
        return sample_compound_poisson(spec, basis, grid)
    return sample_bigamma(spec, grid)


def acquire_samples(config: RunConfig, grid: TorusGrid) -> SampleSet:
    """Simulate per the config, or ingest and wrap a CSV of torus values."""
    if config.sim_kind and config.samples_csv:
        raise ConfigError("give either sim_kind or samples_csv, not both")
    if config.sim_kind:
        return simulate_samples(simulation_spec(config), config, grid)
    if config.samples_csv:
        raw = ingest_samples(config.samples_csv)
        return SampleSet.from_values(project_to_torus(raw, grid), grid, raw=raw)
    raise ConfigError("no data source: set sim_kind or samples_csv")


def run_experiment(config: RunConfig, out_dir=None, quiet: bool = True) -> ExperimentResult:
    """Fit every basis size in the sweep and write the report artifacts.

    Artifacts: report.json (full sweep + config echo), density.csv (grid
    and fitted terminal density of the selected fit), histogram.csv
    (empirical density histogram), aic.csv (score curve).
    """
    config.validate()
    out_dir = str(out_dir if out_dir is not None else config.out_dir)
    grid = build_grid(config)
    samples = acquire_samples(config, grid)
    # before the sweep, so that a bin count too large to allocate fails first
    histogram = empirical_histogram(samples, config.hist_bins)
    setups = [calibration_setup(config, n) for n in config.n_theta_list]
    sweep = aic_sweep(setups, samples, config.optimizer_params(),
                      penalty=config.aic_penalty)
    if not quiet:
        for rep in sweep.reports:
            print(f"n_theta={rep.n_theta}: J={rep.j_star:.6f} "
                  f"aic={rep.aic:.3f} iters={rep.iterations} "
                  f"converged={rep.converged}")

    selected = next(r for r in sweep.reports
                    if r.n_theta == sweep.selected_n_theta)

    report = {
        "config": config_to_dict(config),
        "seed": config.seed,
        "selected_n_theta": sweep.selected_n_theta,
        "fits": [_fit_entry(r) for r in sweep.reports],
        "errors": sweep.errors,
    }

    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "report": os.path.join(out_dir, "report.json"),
        "density": os.path.join(out_dir, "density.csv"),
        "histogram": os.path.join(out_dir, "histogram.csv"),
        "aic": os.path.join(out_dir, "aic.csv"),
    }
    with open(paths["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_density_csv(paths["density"], grid, selected.terminal)
    _write_histogram_csv(paths["histogram"], *histogram)
    _write_aic_csv(paths["aic"], sweep)
    return ExperimentResult(sweep=sweep, report=report, samples=samples,
                            paths=paths)


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


def _write_density_csv(path, grid, terminal) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,density\n")
        for x, f in zip(grid.points, terminal):
            fh.write(f"{float(x)!r},{float(f)!r}\n")


def _write_histogram_csv(path, heights, edges) -> None:
    centers = 0.5 * (edges[:-1] + edges[1:])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin_center,height\n")
        for c, v in zip(centers, heights):
            fh.write(f"{float(c)!r},{float(v)!r}\n")


def _write_aic_csv(path, sweep: SweepResult) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n_theta,j_eps,aic\n")
        for rep in sweep.reports:
            fh.write(f"{rep.n_theta},{rep.j_star!r},{rep.aic!r}\n")
