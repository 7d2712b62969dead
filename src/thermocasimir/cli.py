"""Command-line entry point.

Verbs: run <config> [--out-dir ...] [--d-list ...], verify <config>, zeta3.
Exit codes: 0 ok, 2 config or I/O error, 3 solver error, 4 certification failure.
"""
from __future__ import annotations

import argparse
import json
import sys

from .config import load_config, optional_block
from .errors import ConfigError, ParameterError, SolverError
from .force import zeta3_quadrature, zeta3_series_oracle
from .pipeline import run_pipeline, verify_suite, write_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CERTIFICATION = 4


def _load(args):
    """load_config on the config file with the command-line overrides merged in."""
    with open(args.config) as fh:
        raw = json.load(fh)
    if isinstance(raw, dict):       # load_config rejects anything else
        if args.seed is not None:
            raw["seed"] = args.seed
        if getattr(args, "out_dir", None) is not None:     # run only
            raw["output"] = {**optional_block(raw, "output"), "dir": args.out_dir}
        if args.tol_overrides:
            try:
                overrides = json.loads(args.tol_overrides)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"--tol-overrides is not valid JSON: {exc}") from exc
            if not isinstance(overrides, dict):
                raise ConfigError("--tol-overrides must be a JSON object")
            raw["numerics"] = {**optional_block(raw, "numerics"), **overrides}
        if getattr(args, "d_list", None) is not None:     # run only
            raw["sweep"] = {**optional_block(raw, "sweep"), "d_values": args.d_list}
    return load_config(raw)


def _cmd_run(args) -> int:
    config = _load(args)
    report = run_pipeline(config)
    path = write_report(report, config.out_dir)
    ok = report["report"]["certified_all"]
    tag = "certified" if ok else "NOT CERTIFIED"
    for row in report["report"]["results"]:
        print(f"d = {row['d']:10.4g}   f = {row['f_assembled']:+.6e}   "
              f"f_universal = {row['f_leading']:+.6e}   [{tag}]")
    print(f"report written to {path}")
    return EXIT_OK if ok else EXIT_CERTIFICATION


def _cmd_verify(args) -> int:
    config = _load(args)
    table = verify_suite(config)
    width = max(len(c["name"]) for c in table["checks"])
    for c in table["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{c['name']:<{width}}  {status:<5}  value={c['value']}  "
              f"tol={c['tolerance']}")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(table, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK if table["all_passed"] else EXIT_CERTIFICATION


def _cmd_zeta3(_args) -> int:
    quad_val = zeta3_quadrature()
    series_val = zeta3_series_oracle()
    print(f"quadrature  : {quad_val:.15f}")
    print(f"series      : {series_val:.15f}")
    print(f"|difference|: {abs(quad_val - series_val):.3e}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="thermocasimir",
        description="Thermal Casimir force between conducting slabs from the "
                    "microscopic loop representation.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="path to the JSON run configuration")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol-overrides", default=None,
                       help='JSON object merged into numerics, e.g. '
                            '\'{"residual_tolerance": 1e-3}\'')

    p_run = sub.add_parser("run", help="full pipeline for the configured sweep")
    common(p_run)
    p_run.add_argument("--out-dir", default=None)
    p_run.add_argument("--d-list", nargs="*", type=float, default=None,
                       help="override the sweep separations")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="run every invariant check")
    common(p_verify)
    p_verify.add_argument("--json-out", default=None,
                          help="also write the verdict table as JSON")
    p_verify.set_defaults(func=_cmd_verify)

    p_zeta = sub.add_parser("zeta3", help="print the force-amplitude quadrature "
                                          "and its series oracle")
    p_zeta.set_defaults(func=_cmd_zeta3)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParameterError, OSError, UnicodeDecodeError,
            json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
