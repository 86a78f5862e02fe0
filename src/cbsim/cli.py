"""Command line entry point.

    sim <experiment> [--config FILE] [--seed U64] [--trials INT]
        [--algo LIST] [--init {cm|zf|mslnr}] [--refs INT]
        [--gamma-db LIST] [--workers INT] [--out PATH] [--no-timestamp]
        [--dump-prefix PREFIX]

Experiments: convergence, snr_sweep, ref_sweep, cdf, feedback. Flags override
config-file values which override the built-in defaults. Exit code 0 on
success, nonzero on any error.
"""
from __future__ import annotations

import argparse
import sys

from .config import network_config_from_values, parse_config_file, parse_value
from .errors import CbsimError
from .experiments import EXPERIMENT_KINDS, run_experiment, spec_from_values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sim",
        description="Coordinated multicell beamforming Monte-Carlo experiments")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int, help="master seed (default 0)")
        p.add_argument("--trials", type=int, help="Monte-Carlo trials (default 100)")
        p.add_argument("--algo", help="comma separated algorithm list")
        p.add_argument("--init", help="solver starting point (default mslnr)")
        p.add_argument("--refs", type=int, help="reference users for cb_refim (default 1)")
        p.add_argument("--gamma-db", help="comma separated transmit SNR list in dB")
        p.add_argument("--workers", type=int, help="trial worker processes (default 1)")
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the generated-at comment line (byte-stable output)")
        p.add_argument("--dump-prefix",
                       help="debug: write <prefix>_topology.csv/_channels.csv and "
                            "_trace_<algo>_<gamma>[_r<refs>].csv for trial 0")
    return parser


def parse_config(kind: str, path: str | None = None, overrides: dict | None = None):
    """Config file + overrides -> (NetworkConfig, ExperimentSpec)."""
    values = parse_config_file(path) if path else {}
    spec = spec_from_values(kind, values, overrides)
    config = network_config_from_values(values, gamma_db=spec.gamma_db[0])
    return config, spec


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {
        "seed": args.seed,
        "trials": args.trials,
        "init": args.init,
        "refs": args.refs,
        "workers": args.workers,
        "out": args.out,
        "timestamp": False if args.no_timestamp else None,
        "dump_prefix": args.dump_prefix,
    }
    try:
        for key, text in (("algos", args.algo), ("gamma_db", args.gamma_db)):
            if text is not None:
                overrides[key] = parse_value(key, text)
        config, spec = parse_config(args.experiment, args.config, overrides)
        run_experiment(config, spec)
    except (CbsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
