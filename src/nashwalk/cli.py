"""Command-line interface.

Subcommands: figure1 (walk-length quantile table), theorem (absorption trend
across dimensions), pne-stats (PNE count moments), percolation (coupling
audit), walk (raw walk records), analyze (sink decomposition), generate
(medium files).  Exit codes: 0 success, 2 invalid arguments (including
--threads below 1, a NASHWALK_THREADS value that is set but not an integer of
at least 1, and a NaN or negative --time-budget), 3 wall-clock budget
exceeded.

Every subcommand's flags and help live in one table, ``_COMMANDS``, which
one builder turns into a parser.  A run whose first argument names a
subcommand builds only that subcommand's parser (argparse builds each
subparser in full, so a run would otherwise pay for all seven); any other
run (no argument, ``-h``, an option or an unknown word first) builds the
full parser.  Both give the same help, usage and error text for the same
arguments.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys

from .errors import NashwalkError, TimeBudgetExceeded
from .experiments import (
    SCHEMA_VERSION,
    WALK_CSV_COLUMNS,
    WALK_SCHEMA_VERSION,
    QuantileRow,
    TrendRow,
    absorption_trend,
    percolation_audit,
    pne_count_stats,
    records_to_jsonl,
    report_to_json,
    rows_to_csv,
    walk_fields,
    walk_length_quantiles,
)
from .medium import MODE_EXHAUSTIVE, MODE_LAZY, Medium, MediumParams, build_medium
from .parallel import check_deadline, keep_freed_pages, resolve_workers, time_budget
from .sinks import sink_components
from .walkers import WalkConfig, parse_policy, run_trials


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser: every subcommand, or only `command`'s.  A parser of
    one subcommand gives that subcommand's help and errors as the full one
    does; its usage names every subcommand, as the full parser's does."""
    parser = argparse.ArgumentParser(
        prog="nashwalk",
        description="best-response and random walks on randomly oriented cubes",
    )
    # a one-subcommand parser's usage would name that subcommand alone; the
    # full parser keeps argparse's own choices, which its errors also print
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        _, help_text, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments + _COMMON:
            p.add_argument(flag, **options)
    return parser


@contextlib.contextmanager
def _file_errors(path: str):
    """Report an unreadable or unwritable --in/--out path as a usage error."""
    try:
        yield
    except OSError as exc:
        raise NashwalkError(f"{path}: {exc.strerror or exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with _file_errors(out), open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _check_common(args) -> None:
    """Reject --threads, NASHWALK_THREADS and --time-budget values that would
    be ignored: a worker count below 1 or not an integer, and a NaN or
    negative budget (never exceeded)."""
    if args.threads is not None and args.threads < 1:
        raise NashwalkError(f"--threads must be at least 1, got {args.threads}")
    resolve_workers()  # a malformed NASHWALK_THREADS fails every subcommand
    budget = args.time_budget
    if budget is not None and not budget >= 0.0:
        raise NashwalkError(f"--time-budget must be a number >= 0, got {budget}")


def _emit_json(payload: dict, out: str | None) -> None:
    """Write a JSON report; the one place its schema_version is added."""
    _emit(report_to_json(dict(payload, schema_version=SCHEMA_VERSION)), out)


def _emit_rows(args, row_type: type, rows: list, echo: dict) -> int:
    """Write a report's rows as --format asks: csv with the row dataclass's
    fields as columns, or json with the echo."""
    if args.format == "json":
        _emit_json(dict(echo, rows=[dataclasses.asdict(r) for r in rows]), args.out)
    else:
        columns = tuple(f.name for f in dataclasses.fields(row_type))
        _emit(rows_to_csv(columns, rows, echo), args.out)
    return 0


def _cmd_figure1(args) -> int:
    policies = args.policy or ["brd", "srw"]
    rows = walk_length_quantiles(
        args.n, args.alpha, args.trials, policies, args.seed,
        max_steps=args.max_steps, n_workers=args.threads,
    )
    echo = {
        "command": "figure1", "n": args.n, "alphas": args.alpha,
        "trials": args.trials, "policies": policies, "seed": args.seed,
    }
    return _emit_rows(args, QuantileRow, rows, echo)


def _cmd_theorem(args) -> int:
    rows = absorption_trend(
        args.n, args.alpha, args.policy, args.trials, args.seed,
        max_steps=args.max_steps, n_workers=args.threads,
    )
    echo = {
        "command": "theorem", "n_list": args.n, "alpha": args.alpha,
        "policy": args.policy, "trials": args.trials, "seed": args.seed,
    }
    return _emit_rows(args, TrendRow, rows, echo)


def _cmd_pne_stats(args) -> int:
    report = pne_count_stats(
        args.n, args.alpha, args.trials, args.seed, n_workers=args.threads
    )
    payload = dict(dataclasses.asdict(report), command="pne-stats", seed=args.seed)
    _emit_json(payload, args.out)
    return 0


def _cmd_percolation(args) -> int:
    report = percolation_audit(
        args.n, args.alpha, args.trials, args.seed, n_workers=args.threads
    )
    _emit_json(dict(report, command="percolation"), args.out)
    return 0


def _cmd_walk(args) -> int:
    params = MediumParams(args.n, args.alpha, args.seed, args.mode)
    config = WalkConfig(walk_seed=args.seed, max_steps=args.max_steps)
    records = run_trials(
        params, parse_policy(args.policy), config, args.trials, n_workers=args.threads
    )
    echo = {
        "command": "walk", "n": args.n, "alpha": args.alpha, "seed": args.seed,
        "policy": args.policy, "trials": args.trials, "mode": args.mode,
    }
    if args.format == "jsonl":
        _emit(records_to_jsonl(records), args.out)
    else:
        _emit(rows_to_csv(WALK_CSV_COLUMNS, records, echo, WALK_SCHEMA_VERSION,
                          walk_fields(WALK_CSV_COLUMNS)), args.out)
    return 0


def _cmd_analyze(args) -> int:
    if args.infile:
        with _file_errors(args.infile), open(args.infile, "rb") as fh:
            data = fh.read()
        medium = Medium.load_bytes(data)
    elif args.n is None or args.alpha is None:
        raise NashwalkError("analyze needs --n and --alpha unless --in is given")
    else:
        medium = build_medium(args.n, args.alpha, args.seed)
    text = sink_components(medium).to_json() + "\n"
    check_deadline()
    _emit(text, args.out)
    return 0


def _cmd_generate(args) -> int:
    medium = build_medium(args.n, args.alpha, args.seed, args.mode)
    if args.mode == MODE_LAZY:
        check_deadline()
        _emit(json.dumps(medium.header(), sort_keys=True) + "\n", args.out)
        return 0
    if args.out is None:
        raise NashwalkError("generate --mode exhaustive requires --out FILE")
    blob = medium.dump_bytes()
    check_deadline()
    with _file_errors(args.out), open(args.out, "wb") as fh:
        fh.write(blob)
    return 0


# (flag, add_argument options) of each subcommand, in help order; every
# subcommand takes the _COMMON flags last
_N = ("--n", dict(type=int, required=True))
_ALPHA = ("--alpha", dict(type=float, required=True))
_TRIALS = ("--trials", dict(type=int, required=True))
_MAX_STEPS = ("--max-steps", dict(type=int, default=None))
_MODE = ("--mode", dict(choices=(MODE_EXHAUSTIVE, MODE_LAZY), default=MODE_EXHAUSTIVE))
_CSV_JSON = ("--format", dict(choices=("csv", "json"), default="csv"))
_COMMON = (
    ("--seed", dict(type=int, default=0, help="base seed (default 0)")),
    ("--out", dict(type=str, default=None, help="output path (default stdout)")),
    ("--threads", dict(type=int, default=None,
                       help="worker processes (default NASHWALK_THREADS or 1)")),
    ("--time-budget", dict(type=float, default=None, metavar="SECONDS",
                           help="abort with exit code 3 if exceeded")),
)

# name: (handler, help, arguments), in the order the full parser lists them
_COMMANDS = {
    "figure1": (_cmd_figure1, "walk-length quantiles per (policy, alpha)", (
        _N, ("--alpha", dict(type=float, action="append", required=True)), _TRIALS,
        ("--policy", dict(action="append", default=None,
                          help="brd, srw or lambda:<v>; repeatable (default brd and srw)")),
        _MAX_STEPS, _CSV_JSON,
    )),
    "theorem": (_cmd_theorem, "absorption-before-trap trend across n", (
        ("--n", dict(type=int, action="append", required=True)), _ALPHA,
        ("--policy", dict(default="brd")), _TRIALS, _MAX_STEPS, _CSV_JSON,
    )),
    "pne-stats": (_cmd_pne_stats, "PNE count moments over fresh media",
                  (_N, _ALPHA, _TRIALS)),
    "percolation": (_cmd_percolation, "coupling identity and marginals audit",
                    (_N, _ALPHA, _TRIALS)),
    "walk": (_cmd_walk, "raw walk records", (
        _N, _ALPHA, ("--trials", dict(type=int, default=1)), ("--policy", dict(default="brd")),
        _MAX_STEPS, _MODE, ("--format", dict(choices=("csv", "jsonl"), default="csv")),
    )),
    "analyze": (_cmd_analyze, "sink decomposition of one medium", (
        ("--n", dict(type=int, default=None, help="required unless --in is given")),
        ("--alpha", dict(type=float, default=None, help="required unless --in is given")),
        ("--in", dict(dest="infile", type=str, default=None,
                      help="read a dumped medium instead of building one")),
    )),
    "generate": (_cmd_generate, "build a medium and write it out", (_N, _ALPHA, _MODE)),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a run that names its subcommand first builds that subcommand's parser
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    keep_freed_pages()
    try:
        _check_common(args)
        with time_budget(args.time_budget):
            return _COMMANDS[args.command][0](args)
    except TimeBudgetExceeded as exc:
        print(f"nashwalk: {exc}", file=sys.stderr)
        return 3
    except (NashwalkError, ValueError) as exc:
        print(f"nashwalk: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
