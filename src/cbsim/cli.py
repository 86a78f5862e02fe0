"""Command line entry point: ``sim <experiment> [--config FILE] [flags]``.

Experiments: convergence, snr_sweep, ref_sweep, cdf, feedback. Each flag is
an ExperimentSpec setting (``sim <experiment> --help`` lists them with their
defaults), and its text is parsed as a config-file line is. Flags override
config-file values which override the built-in defaults. ``sim feedback``
rejects the flags its table does not read and a --gamma-db list of more
than one entry; config-file keys stay accepted. On success it
prints one line, ``<kind>: <n> trials -> <out>``, with the count of trials
excluded after errors if any, and exits with 0; on any error it exits
nonzero.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .config import network_config_from_values, parse_config_file, parse_setting
from .errors import CbsimError, ConfigurationError
from .experiments import EXPERIMENT_KINDS, ExperimentSpec, run_counted, spec_from_values

#: The ExperimentSpec fields that have a flag.
FLAG_FIELDS = [f for f in fields(ExperimentSpec) if f.metadata.get("flag")]
#: The flagged settings the feedback table does not read (of gamma_db, one entry).
FEEDBACK_UNREAD = ("workers", "algos", "init", "dump_prefix")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sim",
        description="Coordinated multicell beamforming Monte-Carlo experiments")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", help="key=value config file")
        for f in FLAG_FIELDS:
            flag, text, default = f.metadata["flag"], f.metadata["help"], f.default
            if isinstance(default, bool):       # a switch that turns the default off
                p.add_argument(flag, dest=f.name, action="store_const",
                               const=str(not default), help=text)
                continue
            if default is not None:
                shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
                text += f" (default {shown})"
            p.add_argument(flag, dest=f.name, help=text)
    return parser


def parse_config(kind: str, path: str | None = None, overrides: dict | None = None):
    """Config file + overrides -> (NetworkConfig, ExperimentSpec)."""
    values = parse_config_file(path) if path else {}
    spec = spec_from_values(kind, values, overrides)
    config = network_config_from_values(values, gamma_db=spec.gamma_db[0])
    return config, spec


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {f.name: parse_setting(f, getattr(args, f.name)) for f in FLAG_FIELDS
                     if getattr(args, f.name) is not None}
        for f in FLAG_FIELDS if args.experiment == "feedback" else ():
            flag = f.metadata["flag"]
            if f.name in FEEDBACK_UNREAD and f.name in overrides:
                raise ConfigurationError(f"feedback does not read {flag}")
            if f.name == "gamma_db" and len(overrides.get(f.name, ())) > 1:
                raise ConfigurationError(f"feedback reads one {flag} entry, not a list")
        config, spec = parse_config(args.experiment, args.config, overrides)
        _, used, excluded = run_counted(config, spec)
    except (CbsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    note = f" ({excluded} trials excluded after errors)" if excluded else ""
    print(f"{spec.kind}: {used} trials -> {spec.out}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
