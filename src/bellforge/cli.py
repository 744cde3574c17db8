"""Command-line front end: golden-case verification, recipe builds, tables.

Exit status is nonzero when any golden comparison fails, so `bellforge
verify --all` can gate CI directly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bell import BellRecipe, build_logical, complementary_decompose, symbolize, \
    symbolize_decomposed
from .bounds import BOUND_ATOL, classical_bounds, dichotomic_term_bound, \
    quantum_lower_bound, seesaw_optimize, sos_pairing_search
from .cases import RunConfig, case_names, emit_table, run_case, run_cases
from .pauli import QubitCapError


def _shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7, help="master RNG seed")
    parser.add_argument("--cap-qubits", type=int, default=12,
                        help="dense-rendering qubit cap")
    parser.add_argument("--samples", type=int, default=10000,
                        help="Monte-Carlo sample count for sweep cases")


def _config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(seed=args.seed, cap_qubits=args.cap_qubits, samples=args.samples)


def _cap_exceeded(exc: QubitCapError, args: argparse.Namespace) -> int:
    print(f"qubit cap exceeded: {exc} (--cap-qubits {args.cap_qubits})",
          file=sys.stderr)
    return 2


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_verify(args: argparse.Namespace) -> int:
    names = case_names() if args.all else list(args.case or [])
    if not names:
        print("nothing to verify: pass --case NAME (repeatable) or --all",
              file=sys.stderr)
        return 2
    unknown = [n for n in names if n not in case_names() and ":" not in n]
    if unknown:
        print(f"unknown case(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(case_names())}", file=sys.stderr)
        return 2
    try:
        results = run_cases(names, _config(args))
    except KeyError as exc:
        print(f"bad case name: {exc.args[0]}", file=sys.stderr)
        return 2
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
    if args.json:
        _write(json.dumps([r.to_dict() for r in results], indent=2,
                          sort_keys=True) + "\n", args.json)
    return 1 if failed else 0


def cmd_table(args: argparse.Namespace) -> int:
    try:
        results = run_cases(case_names(), _config(args))
    except QubitCapError as exc:
        return _cap_exceeded(exc, args)
    _write(emit_table(results, args.format), args.out)
    return 0 if all(r.passed for r in results) else 1


def cmd_build(args: argparse.Namespace) -> int:
    try:
        recipe = BellRecipe.from_dict(json.loads(Path(args.config).read_text()))
    except (ValueError, KeyError) as exc:
        print(f"recipe error in {args.config}: {exc}", file=sys.stderr)
        return 2
    ops = recipe.logical_ops()
    logical_form = build_logical(recipe, ops)

    kind = recipe.decomposition.get("kind", "none")
    pipeline_residual = 0.0
    sos_status = "not-attempted"
    rough_bound = recipe.beta_q
    try:
        if kind == "complementary":
            dec = complementary_decompose(logical_form, recipe.decomposition["pivot"])
            expr, _ = symbolize_decomposed(dec)
            operator = dec.to_pauli_sum()
            pipeline_residual = float(np.max(np.abs(
                operator.to_dense(args.cap_qubits)
                - logical_form.to_dense(args.cap_qubits))))
            terms = dec.term_operators()
            if len(terms) <= 8:
                cert, rep = sos_pairing_search(terms, recipe.beta_q)
                sos_status = "verified" if cert else "failed"
        elif kind == "chained":
            from .bell import chained_construction
            if recipe.basis.name != "bell":
                print("chained decomposition is defined on the two-qubit "
                      "Bell-state basis", file=sys.stderr)
                return 2
            ch = chained_construction(int(recipe.decomposition["n"]))
            expr, operator = ch.expression, ch.operator
            rough_bound = ch.quantum_bound
            pipeline_residual = float(np.max(np.abs(
                operator.to_dense(args.cap_qubits)
                - (ch.quantum_bound * ops.z).to_dense(args.cap_qubits))))
        elif kind == "none":
            operator = logical_form
            expr, _ = symbolize(operator, recipe.symbols)
        else:
            print(f"unknown decomposition kind {kind!r}", file=sys.stderr)
            return 2
    except QubitCapError as exc:
        return _cap_exceeded(exc, args)
    except ValueError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 2

    cb = classical_bounds(expr)
    try:
        q, _ = quantum_lower_bound(operator, args.cap_qubits)
        seesaw = seesaw_optimize(expr, restarts=8, seed=args.seed,
                                 cap=args.cap_qubits) if args.seesaw else None
    except QubitCapError as exc:
        return _cap_exceeded(exc, args)
    report = {
        "expression": str(expr),
        "classical_min": cb.minimum,
        "classical_max": cb.maximum,
        "quantum_lower": q,
        "rough_bound": rough_bound,
        "dichotomic_bound": dichotomic_term_bound(expr),
        "pipeline_residual": pipeline_residual,
        "sos_status": sos_status,
        "violation": bool(q > cb.maximum + BOUND_ATOL),
    }
    if seesaw is not None:
        report["seesaw_value"] = seesaw.value
    _write(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bellforge",
        description="Synthesize Bell inequalities from stabilizer logical "
                    "qubits and certify their classical and quantum bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run golden cases and compare")
    p_verify.add_argument("--case", action="append",
                          help="case name (repeatable); see --list")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
