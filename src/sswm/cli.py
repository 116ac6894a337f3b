"""Command-line front end: scenario runs, parameter sweeps, the acceptance
suite, and preset discovery.

Exit codes: 0 success, 2 configuration error, 3 compute error.
"""
from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from .errors import ConfigError, SswmError
from .scenarios import (SWEEPABLE, builtin_scenario_names, check_names, load_scenario,
                        parse_sweep_values, run_scenario, run_sweep)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3

#: Each oracle flag (its argparse dest) and the config key whose line it replaces.
_ORACLE_FLAGS = {"grid_n": "oracle.n_points", "extent": "oracle.extent",
                 "force_phi_unity": "oracle.force_phi_unity", "ideal_rect": "oracle.ideal_rect"}


class _Parser(argparse.ArgumentParser):
    """argparse, but a flag left without its value is a ConfigError.

    argparse reads a value that starts with '-' and is not a plain negative
    number as the next option, so `--extent -5gamma31` leaves --extent
    without a value; the message says to write it as `--extent=-5gamma31`.
    """

    def error(self, message: str):
        missing = re.fullmatch(r"argument (\S+): expected one argument", message)
        if missing:
            flag = missing.group(1)
            raise ConfigError(f"{flag}: expected one value; write a value that starts "
                              f"with '-' as {flag}=VALUE")
        super().error(message)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scenario", required=True,
                     help="built-in scenario name or path to a config file")
    sub.add_argument("--out", default=None, help="output directory "
                     "(default: $SSWM_OUT_DIR or ./sswm_out)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    # the oracle flags keep their text: parse_config reads it as a config line
    sub.add_argument("--ideal-rect", action="store_const", const="true",
                     help="drop the EIT loss term of the detuning function")
    sub.add_argument("--force-phi-unity", action="store_const", const="true",
                     help="replace the detuning function by 1")
    sub.add_argument("--grid-n", default=None,
                     help="spectral samples per axis (power of two, 256 to 16384)")
    sub.add_argument("--extent", default=None,
                     help="spectral half width, e.g. '64gamma31' or 'auto'")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="sswm",
        description="Six-wave-mixing triphoton simulator: spectra, wavepackets, "
                    "coincidence rates, and the acceptance suite.")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario and export its outputs")
    _add_common(sim)

    swp = sub.add_parser("sweep", help="re-run a scenario over one parameter")
    _add_common(swp)
    swp.add_argument("--param", required=True, choices=SWEEPABLE)
    swp.add_argument("--values", required=True,
                     help="comma-separated values; a frequency needs the gamma31 "
                          "suffix (e.g. '2gamma31,4gamma31,8gamma31' or '37,74,111')")

    acc = sub.add_parser("acceptance", help="run the acceptance criteria suite")
    acc.add_argument("--criteria", default=None,
                     help="'list' prints criterion ids without running; or a "
                          "comma-separated id subset to run")
    acc.add_argument("--out", default=None)

    sub.add_parser("list-scenarios", help="print the built-in scenario names")
    return ap


def _out_dir(arg) -> Path:
    """--out, else $SSWM_OUT_DIR, else ./sswm_out; ConfigError, before any
    work, if it is empty, if it or a parent exists and is not a directory,
    cannot be looked up, or holds a name longer than its file system allows."""
    source = "--out" if arg is not None else "SSWM_OUT_DIR"
    path = os.environ.get(source, "sswm_out") if arg is None else arg
    if not path:
        raise ConfigError(f"{source}: expected a directory, got an empty name")
    check_names(Path(path), [], source)
    return Path(path)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for dest, value in vars(args).items():
            if isinstance(value, list):  # argparse reads '--flag=--' as an empty list
                raise ConfigError(f"--{dest.replace('_', '-')}: expected one value, got '--'")
        if args.command == "list-scenarios":
            for name in builtin_scenario_names():
                print(name)
            return EXIT_OK
        if args.command == "acceptance":
            from .acceptance import list_criteria, report_lines, run_acceptance

            if args.criteria == "list":
                for cid, desc in list_criteria():
                    print(f"{cid}: {desc}")
                return EXIT_OK
            subset = (None if args.criteria is None
                      else [c.strip() for c in args.criteria.split(",")])
            results = run_acceptance(_out_dir(args.out), subset=subset)
            for line in report_lines(results):
                print(line)
            return EXIT_OK if all(r.passed for r in results) else EXIT_COMPUTE
        out = _out_dir(args.out)
        overrides = {key: (getattr(args, dest), "--" + dest.replace("_", "-"))
                     for dest, key in _ORACLE_FLAGS.items() if getattr(args, dest) is not None}
        sc = load_scenario(args.scenario, overrides)
        if args.command == "simulate":
            paths, lines = run_scenario(sc, out, fmt=args.format)
            lines += [f"wrote {p}" for p in paths]
        else:  # sweep
            values = parse_sweep_values(args.values, args.param, sc)
            _, lines = run_sweep(sc, args.param, values, out, fmt=args.format)
        for line in lines:
            print(line)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SswmError as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except ArithmeticError as exc:  # inputs so large or small that float arithmetic fails
        print(f"compute error: out of floating-point range: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    raise SystemExit(main())
