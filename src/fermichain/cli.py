"""Command-line entry point: run configs, build figure data, run the gate."""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from . import acceptance, scenarios


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermichain",
        description="Noised bipartite chain: transport, entropy, and exchange "
                    "statistics with CSV output.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the scenario described by a JSON config")
    p_run.add_argument("config", help="path to a JSON config file")
    p_fig = sub.add_parser("figure", help="build the data files for a named scenario")
    p_fig.add_argument("scenario_id", help="one of: %s" % ", ".join(scenarios.SCENARIOS))
    for p in (p_run, p_fig):
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       dest="overrides",
                       help="override a config field, e.g. out_dir=DIR or tol=1e-8 "
                            "(value parsed as JSON when possible); repeatable")

    p_acc = sub.add_parser("accept", help="run the acceptance gate")
    p_acc.add_argument("--only", choices=[c.cid for c in acceptance.CRITERIA],
                       metavar="CRITERION",
                       help="run a single criterion, e.g. c3")
    p_acc.add_argument("--out", metavar="DIR",
                       help="also write acceptance.csv into DIR")
    return parser


def _parse_set_pairs(pairs) -> dict:
    out = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise scenarios.ConfigError(
                "--set needs KEY=VALUE, got '%s'" % pair)
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw  # bare strings like fd need no quoting
    return out


def _run_and_write(data: dict, overrides) -> int:
    data.update(_parse_set_pairs(overrides))
    cfg = scenarios.parse_config(data)
    result = scenarios.run_scenario(cfg)
    paths = scenarios.write_result(result, cfg.out_dir, cfg.sig_digits)
    for path in paths:
        print("wrote %s" % path)
    for report in result.reports:
        print(report.line())
    return 0


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print("warning: %s" % message, file=sys.stderr)


def main(argv=None) -> int:
    """Exit 0 on success, 1 on a failed run or gate, 2 on bad input; a warning
    is one "warning: ..." line on stderr."""
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            if args.command == "run":
                return _run_and_write(scenarios.read_config(args.config), args.overrides)
            if args.command == "figure":
                return _run_and_write({"scenario": args.scenario_id}, args.overrides)
            failures = acceptance.run_acceptance(only=args.only, out_dir=args.out)
            return 1 if failures else 0
        except (OSError, scenarios.ConfigError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        except (ValueError, RuntimeError, Warning) as exc:  # a Warning: one made an error
            print("error: %s" % exc, file=sys.stderr)
            return 1


if __name__ == "__main__":
    raise SystemExit(main())
