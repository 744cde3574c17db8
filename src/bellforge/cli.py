"""Command-line front end: golden-case verification, recipe builds, tables.

Exit status is nonzero when any golden comparison fails, so `bellforge
verify --all` can gate CI directly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .bell import BellRecipe
from .cases import RunConfig, build_report, case_names, emit_table, run_cases
from .pauli import QubitCapError


def _at_least(low: int):
    """An argparse type: an integer of at least ``low`` (0 or more)."""
    def parse(text: str) -> int:
        if text.isdecimal() and int(text) >= low:
            return int(text)
        raise argparse.ArgumentTypeError(f"must be an integer of at least {low}, got {text!r}")
    return parse


def _shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_at_least(0), default=RunConfig.seed,
                        help="master RNG seed (a non-negative integer)")
    parser.add_argument("--cap-qubits", type=_at_least(1), default=RunConfig.cap_qubits,
                        help="qubit cap of dense renders and matrix-free bounds "
                             "(at least 1)")


def _config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(seed=args.seed, cap_qubits=args.cap_qubits)


def _cap_exceeded(exc: QubitCapError, args: argparse.Namespace) -> int:
    print(f"qubit cap exceeded: {exc} (--cap-qubits {args.cap_qubits})",
          file=sys.stderr)
    return 2


def _write(text: str, out: str | None) -> int:
    """Write ``text`` to the file ``out`` (stdout without one); 2 if it cannot be written."""
    if not out:
        sys.stdout.write(text)
        return 0
    try:
        Path(out).write_text(text)
    except OSError as exc:
        print(f"cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    names = case_names() if args.all else list(dict.fromkeys(args.case or []))
    if not names:
        print("nothing to verify: pass --case NAME (repeatable) or --all",
              file=sys.stderr)
        return 2
    unknown = [n for n in names if n not in case_names()]
    if unknown:
        print(f"unknown case(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(case_names())}", file=sys.stderr)
        return 2
    try:
        results = run_cases(names, _config(args))
    except QubitCapError as exc:
        return _cap_exceeded(exc, args)
    failed = 0
    for r in results:
        for c in r.checks:
            mark = "PASS" if c.ok else "FAIL"
            print(f"{mark}  {r.name} :: {c.name} = {c.value:.12g}  [{c.target}]")
            failed += 0 if c.ok else 1
        for note in r.notes:
            print(f"      note: {note}")
    print(f"{len(results)} case(s), "
          f"{sum(len(r.checks) for r in results)} check(s), {failed} failure(s)")
    if args.json and _write(emit_table(results, "json"), args.json):
        return 2
    return 1 if failed else 0


def cmd_table(args: argparse.Namespace) -> int:
    try:
        results = run_cases(case_names(), _config(args))
    except QubitCapError as exc:
        return _cap_exceeded(exc, args)
    return _write(emit_table(results, args.format), args.out) or \
        (0 if all(r.passed for r in results) else 1)


def cmd_build(args: argparse.Namespace) -> int:
    try:
        recipe = BellRecipe.from_dict(json.loads(Path(args.config).read_text()),
                                      args.cap_qubits)
    except OSError as exc:
        print(f"cannot read {args.config}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except QubitCapError as exc:
        return _cap_exceeded(exc, args)
    except (ValueError, KeyError) as exc:
        print(f"recipe error in {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        report = build_report(recipe, _config(args), args.seesaw)
    except QubitCapError as exc:
        return _cap_exceeded(exc, args)
    except ValueError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 2
    for key, value in report.items():
        if isinstance(value, float) and not math.isfinite(value):
            print(f"pipeline error: {key} is {value}, not a finite number", file=sys.stderr)
            return 2
    return _write(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bellforge",
        description="Synthesize Bell inequalities from stabilizer logical "
                    "qubits and certify their classical and quantum bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run golden cases and compare")
    p_verify.add_argument("--case", action="append",
                          help="case name (repeatable); see `bellforge list`")
    p_verify.add_argument("--all", action="store_true", help="run every case")
    p_verify.add_argument("--json", help="also write results as JSON to a file")
    _shared_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="emit the full case table")
    p_table.add_argument("--format", choices=("md", "csv", "json"), default="md")
    p_table.add_argument("--out", help="output file (default stdout)")
    _shared_flags(p_table)
    p_table.set_defaults(func=cmd_table)

    p_build = sub.add_parser("build", help="run a recipe JSON through the pipeline")
    p_build.add_argument("--config", required=True, help="recipe JSON file")
    p_build.add_argument("--out", help="report JSON file (default stdout)")
    p_build.add_argument("--seesaw", action="store_true",
                         help="also run the see-saw heuristic")
    _shared_flags(p_build)
    p_build.set_defaults(func=cmd_build)

    p_list = sub.add_parser("list", help="list known case names")
    p_list.set_defaults(func=lambda a: (print("\n".join(case_names())), 0)[1])

    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early (`bellforge list | head -1`); point stdout at
        # devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
