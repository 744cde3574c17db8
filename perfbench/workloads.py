"""The benchmark's workloads: what one pass runs and how each op is checked.

An op is one case, one family member or one see-saw call. Each op's ``call``
looks up the library function through its module at call time, so a tracer
that has patched the module sees it. ``check`` returns the ways the result
misses its reference; an empty list means the op is correct.

Constructing a workload is its set-up: it imports the library (done by
importing this module) and builds the inputs every pass reuses.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from bellforge import bell, bounds, cases, logical, recursive, stabilizer
from bellforge.pauli import PauliTerm

REFERENCE_TABLE = Path(__file__).resolve().parent / "reference" / "catalog-seed7.json"
DEFAULT_SEED = cases.RunConfig().seed
ROOT2 = math.sqrt(2.0)
ROOT3 = math.sqrt(3.0)


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]


def pass_seeds(seed: int):
    """Seeds of the timed passes of a run: derived from the workload seed."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(31)


def _case_op(name: str, config: cases.RunConfig) -> Op:
    def check(result) -> list[str]:
        return [f"{name}: check {c.name!r} got {c.value!r}, wants {c.target}"
                for c in result.checks if not c.ok]

    return Op(name, lambda: cases.run_case(name, config), check)


class Catalog:
    """``run_case`` over the whole catalog, as ``bellforge verify --all`` runs it.

    It touches every layer; about half its time is see-saw and a quarter
    family enumeration, the rest many small cases where per-call overhead of
    a kernel shows.
    """

    name = "catalog"

    def __init__(self):
        self.names = cases.case_names()
        self.reference = REFERENCE_TABLE.read_text()

    def warmup(self) -> list[Op]:
        """The reference gate: the table at the default seed must match byte for byte."""
        def table():
            config = cases.RunConfig()
            return [cases.run_case(n, config) for n in self.names]

        def check(results) -> list[str]:
            problems = [f"{r.name}: check {c.name!r} failed"
                        for r in results for c in r.checks if not c.ok]
            if cases.emit_table(results, "json") != self.reference:
                problems.append(f"table at seed {DEFAULT_SEED} differs from "
                                f"{REFERENCE_TABLE.name}")
            return problems

        return [Op(f"table@seed{DEFAULT_SEED}", table, check)]

    def ops(self, seed: int) -> list[Op]:
        config = cases.RunConfig(seed=seed)
        return [_case_op(n, config) for n in self.names]


def _family_op(family: str, n: int) -> Op:
    """Certify one recursive-family member through the public library path."""
    def call():
        level = recursive.build_level(n)
        build = recursive.mermin_case if family == "mermin" else recursive.svetlichny_case
        case = build(n, level)
        cb = bounds.classical_bounds(case.expression)
        q, _ = bounds.quantum_lower_bound(case.operator)
        return cb.maximum, q, bounds.dichotomic_term_bound(case.expression)

    if family == "mermin":
        classical, quantum = 2.0 ** (n // 2), 2.0 ** (n - 1)
    else:
        classical, quantum = 2.0 ** ((n + 1) // 2), 2.0 ** (n - 1) * ROOT2
    name = f"{family}:{n}"

    def check(result) -> list[str]:
        cmax, q, upper = result
        problems = []
        if cmax != classical:
            problems.append(f"{name}: classical max {cmax!r}, wants {classical!r}")
        if abs(q - quantum) > 1e-9 * quantum:
            problems.append(f"{name}: quantum lower bound {q!r}, wants {quantum!r}")
        if q > upper + 1e-9:
            problems.append(f"{name}: quantum lower bound {q!r} above term bound {upper!r}")
        return problems

    return Op(name, call, check)


class Family:
    """``mermin:n`` and ``svetlichny:n`` for n = 7, 8, 9: few, large calls.

    Classical enumeration and dense rendering dominate and there is no
    see-saw. n = 9 is past the catalog's cap, so exponential growth shows;
    n = 10 is left out because ``svetlichny:10`` alone takes about a minute.
    The seed only orders the members within a pass.
    """

    name = "family"
    members = [(f, n) for n in (7, 8, 9) for f in ("mermin", "svetlichny")]

    def warmup(self) -> list[Op]:
        # the largest member, so the first timed pass does not pay for
        # first-time allocation of its 4 MB matrices
        return [_family_op("mermin", 9)]

    def ops(self, seed: int) -> list[Op]:
        order = list(self.members)
        random.Random(seed).shuffle(order)
        return [_family_op(f, n) for f, n in order]


def _seesaw_op(name, expr, restarts: int, quantum: float, seed: int) -> Op:
    upper = bounds.dichotomic_term_bound(expr)

    def check(result) -> list[str]:
        problems = []
        if result.value < quantum - 1e-6:
            problems.append(f"{name}: see-saw value {result.value!r} below {quantum!r}")
        if result.value > upper + 1e-9:
            problems.append(f"{name}: see-saw value {result.value!r} above term "
                            f"bound {upper!r}")
        return problems

    return Op(name, lambda: bounds.seesaw_optimize(expr, restarts=restarts, seed=seed),
              check)


class Seesaw:
    """``seesaw_optimize`` alone, on the catalog's three see-saw expressions.

    Many tiny 32x32 renders and eigensolves, no vertex enumeration and no
    large matrices: a large-n kernel gain should leave it unchanged, and a
    per-call overhead regression shows here.
    """

    name = "seesaw"

    def __init__(self):
        group = stabilizer.graph_state_generators(stabilizer.GraphSpec.loop(5))
        ops = logical.logical_paulis_symbolic(group, PauliTerm.from_string("ZZZZZ"))
        letters = {"Z": "A", "X": "B", "Y": "C"}
        svet, _ = bell.symbolize(16.0 * (ops.z + ops.x), letters)
        hyper, _ = bell.symbolize(16.0 * (ops.z + ops.x + ops.y), letters)
        pair = logical.logical_paulis_numeric(stabilizer.bell_basis())
        dec = bell.complementary_decompose((2 * ROOT2) * pair.z, pivot=1)
        chsh, _ = bell.symbolize_decomposed(dec, letter_order={0: ["X", "Z"]})
        # (name, expression, restarts, known quantum value)
        self.items = [("l5-svetlichny", svet, 6, 16 * ROOT2),
                      ("l5-hyper", hyper, 6, 16 * ROOT3),
                      ("chsh", chsh, 8, 2 * ROOT2)]

    def warmup(self) -> list[Op]:
        name, expr, restarts, quantum = self.items[-1]
        return [_seesaw_op(name, expr, restarts, quantum, DEFAULT_SEED)]

    def ops(self, seed: int) -> list[Op]:
        config = cases.RunConfig(seed=seed)
        return [_seesaw_op(name, expr, restarts, quantum, config.case_seed(name))
                for name, expr, restarts, quantum in self.items]


WORKLOADS = {w.name: w for w in (Catalog, Family, Seesaw)}
