"""Command line front end.

    safefilt list [--filter MODULE]
    safefilt run-builtin ID [--dt DT] [--T T] [--seed N] [--paths N]
                            [--out-dir DIR]
    safefilt run CONFIG [same flags]

Exit status: 0 when every check row of the run holds, 1 when one
fails (an escaped loop's certificate is NaN, so its row fails), 2 for
unusable input (unknown id, malformed config, a dt, T, path count or
seed that SimConfig rejects, a T/dt that no record holds among them),
reported as "config error: ...". Reports are printed as "key = value"
lines (report_text) and written to the output directory next to any
trajectory CSVs, only once the run has returned: a refused or raising
run writes nothing.
"""

import argparse
import sys

from .scenarios import (BUILTINS, FILTER_MODULES, ConfigError, report_text,
                        run_builtin, run_config)


def _add_run_flags(p):
    p.add_argument("--dt", type=float, default=None,
                   help="integration step override")
    p.add_argument("--T", type=float, default=None,
                   help="horizon override")
    p.add_argument("--seed", type=int, default=None,
                   help="noise seed override")
    p.add_argument("--paths", type=int, default=None,
                   help="sample path count override")
    p.add_argument("--out-dir", default=".",
                   help="directory for CSV and report files")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="safefilt",
        description="safety filter scenarios and certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list built-in scenarios")
    p_list.add_argument("--filter", default=None, metavar="MODULE",
                        help="only scenarios exercising this module (%s)"
                        % ", ".join(FILTER_MODULES))

    p_rb = sub.add_parser("run-builtin", help="run a built-in scenario")
    p_rb.add_argument("id", help="scenario id from `safefilt list`")
    _add_run_flags(p_rb)

    p_run = sub.add_parser("run", help="run a flat key=value config file")
    p_run.add_argument("config", help="path to the config file")
    _add_run_flags(p_run)
    return parser


def _overrides(args):
    return {"dt": args.dt, "T": args.T, "seed": args.seed,
            "paths": args.paths}


def main(argv=None):
    args = build_parser().parse_args(argv)

    if args.command == "list":
        if args.filter is not None and args.filter not in FILTER_MODULES:
            print("unknown module %r (choose from: %s)"
                  % (args.filter, ", ".join(FILTER_MODULES)),
                  file=sys.stderr)
            return 2
        for name, b in BUILTINS.items():
            if args.filter is not None and b.module != args.filter:
                continue
            print("%-18s %-13s %s" % (name, b.module, b.summary))
        return 0

    try:
        if args.command == "run-builtin":
            result = run_builtin(args.id, _overrides(args), args.out_dir)
        else:
            result = run_config(args.config, _overrides(args), args.out_dir)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    print(report_text(result.report), end="")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
