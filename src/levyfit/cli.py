"""Command line entry points.

Exit codes: 0 success, 1 usage/config/data error (a setting too large to
allocate and a path that cannot be read or written included), 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import load_config
from .errors import ConfigError, IngestError, LevyfitError
from .experiment import run_experiment, simulate_samples
from .preprocess import PreprocessSpec, preprocess_financial
from .samples import ingest_samples, write_samples_csv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyfit",
        description="Nonparametric jump-measure calibration from terminal samples")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the configured fit / sweep")
    run.add_argument("config", nargs="?", default=None,
                     help="key=value config file (defaults used if omitted)")
    run.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="override a config key")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--verbose", action="store_true")

    sim = sub.add_parser("simulate", help="generate a terminal-sample CSV")
    sim.add_argument("config", nargs="?", default=None)
    sim.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE")
    sim.add_argument("--out", required=True, help="output CSV path")

    pre = sub.add_parser("preprocess",
                         help="map raw return data onto the torus")
    pre.add_argument("input", help="raw values CSV (one per line)")
    pre.add_argument("--out", required=True, help="output CSV path")
    pre.add_argument("--band-lo", type=float, default=PreprocessSpec.band_lo)
    pre.add_argument("--band-hi", type=float, default=PreprocessSpec.band_hi)
    pre.add_argument("--fraction", type=float,
                     default=PreprocessSpec.diffusion_fraction,
                     help="share of empirical variance given to the diffusion")
    pre.add_argument("--outside", choices=("wrap", "discard"),
                     default=PreprocessSpec.outside)
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config, args.overrides)
    result = run_experiment(config, out_dir=args.out)
    if args.verbose:
        for rep in result.sweep.reports:
            print(f"n_theta={rep.n_theta}: J={rep.j_star:.6f} "
                  f"aic={rep.aic:.3f} iters={rep.iterations} "
                  f"converged={rep.converged}")
    print(f"selected n_theta = {result.sweep.selected_n_theta}; "
          f"report at {result.paths['report']}")
    return 0


def _cmd_simulate(args) -> int:
    config = load_config(args.config, args.overrides)
    if not config.sim_kind:
        raise ConfigError("simulate needs sim_kind in the config")
    sample_set = simulate_samples(config)
    if config.sim_kind == "compound_poisson":
        meta = {"kind": config.sim_kind,
                "rates": ",".join(map(str, config.sim_rates))}
    else:
        meta = {"kind": config.sim_kind,
                "gamma_shape": config.sim_gamma_shape,
                "gamma_rate": config.sim_gamma_rate}
    meta.update({"seed": config.seed, "t_final": config.t_final,
                 "drift": config.drift, "sigma2": config.sigma2,
                 "init_center": config.init_center,
                 "init_concentration": config.init_concentration})
    write_samples_csv(args.out, sample_set.values, metadata=meta)
    print(f"wrote {len(sample_set)} samples to {args.out}")
    return 0


def _cmd_preprocess(args) -> int:
    raw = ingest_samples(args.input)
    spec = PreprocessSpec(band_lo=args.band_lo, band_hi=args.band_hi,
                          diffusion_fraction=args.fraction,
                          outside=args.outside)
    result = preprocess_financial(raw, spec)
    write_samples_csv(args.out, result.values, metadata={
        "source": args.input,
        "torus_drift": result.drift,
        "torus_sigma2": result.diffusion,
        "raw_mean": result.raw_mean,
        "raw_variance": result.raw_variance,
        "n_wrapped": result.n_wrapped,
        "n_discarded": result.n_discarded,
    })
    print(json.dumps({
        "n_values": int(len(result.values)),
        "torus_drift": result.drift,
        "torus_sigma2": result.diffusion,
        "n_wrapped": result.n_wrapped,
        "n_discarded": result.n_discarded,
    }, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_preprocess(args)
    except (ConfigError, IngestError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LevyfitError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
