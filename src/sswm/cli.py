"""Command-line front end: scenario runs, parameter sweeps, the acceptance
suite, and preset discovery.

Exit codes: 0 success, 2 configuration error, 3 compute error.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, SswmError, ValidationError
from .scenarios import (SWEEPABLE, _parse_number, builtin_scenario_names,
                        load_scenario, run_scenario, run_sweep)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3


def _apply_overrides(sc, args):
    okw = {}
    if args.grid_n is not None:
        okw["n_points"] = args.grid_n
    if args.extent is not None:
        okw["extent"] = (None if args.extent.strip().lower() == "auto"
                         else _parse_number(args.extent, "--extent", None,
                                            sc.params.gamma31_si, frequency=True))
    if args.force_phi_unity:
        okw["force_phi_unity"] = True
    if args.ideal_rect:
        okw["ideal_rect"] = True
    if okw:
        try:
            sc = replace(sc, oracle=replace(sc.oracle, **okw))
        except ValidationError as exc:
            raise ConfigError(f"oracle override: {exc}") from exc
    return sc


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scenario", required=True,
                     help="built-in scenario name or path to a config file")
    sub.add_argument("--out", default=None, help="output directory "
                     "(default: $SSWM_OUT_DIR or ./sswm_out)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--ideal-rect", action="store_true",
                     help="drop the EIT loss term of the detuning function")
    sub.add_argument("--force-phi-unity", action="store_true",
                     help="replace the detuning function by 1")
    sub.add_argument("--grid-n", type=int, default=None,
                     help="spectral samples per axis (power of two)")
    sub.add_argument("--extent", default=None,
                     help="spectral half width, e.g. '64gamma31' or 'auto'")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
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
                     help="comma-separated values, gamma31 units allowed "
                          "(e.g. '2gamma31,4gamma31,8gamma31' or '37,74,111')")

    acc = sub.add_parser("acceptance", help="run the acceptance criteria suite")
    acc.add_argument("--criteria", default=None,
                     help="'list' prints criterion ids without running; or a "
                          "comma-separated id subset to run")
    acc.add_argument("--out", default=None)

    sub.add_parser("list-scenarios", help="print the built-in scenario names")
    return ap


def _out_dir(arg) -> Path:
    if arg:
        return Path(arg)
    return Path(os.environ.get("SSWM_OUT_DIR", "sswm_out"))


def _parse_sweep_values(text: str, sc) -> list[float]:
    # '<x>gamma31' is x gamma31 units; a plain number is taken as it stands
    # (gamma31 units for a frequency), unlike a plain number in a config file
    return [_parse_number(piece, "--values", None, sc.params.gamma31_si,
                          frequency=piece.strip().endswith("gamma31"))
            for piece in text.split(",") if piece.strip()]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-scenarios":
            for name in builtin_scenario_names():
                print(name)
            return EXIT_OK
        if args.command == "acceptance":
            from .acceptance import list_criteria, run_acceptance

            if args.criteria == "list":
                for cid, desc in list_criteria():
                    print(f"{cid}: {desc}")
                return EXIT_OK
            subset = (None if args.criteria is None
                      else [c.strip() for c in args.criteria.split(",")])
            results = run_acceptance(subset=subset,
                                     out_dir=_out_dir(args.out))
            return EXIT_OK if all(r.passed for r in results) else EXIT_COMPUTE
        sc = load_scenario(args.scenario)
        sc = _apply_overrides(sc, args)
        if args.command == "simulate":
            paths = run_scenario(sc, _out_dir(args.out), fmt=args.format)
            for p in paths:
                print(f"wrote {p}")
            return EXIT_OK
        if args.command == "sweep":
            values = _parse_sweep_values(args.values, sc)
            run_sweep(sc, args.param, values, _out_dir(args.out), fmt=args.format)
            return EXIT_OK
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SswmError as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    raise SystemExit(main())
