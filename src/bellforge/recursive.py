"""Recursive multi-qubit construction by linear expansion of one qubit.

The expansion replaces a chosen physical qubit of an operator by its logical
image under a rule, itself a logical qubit (``LogicalPaulis``): X/Y/Z become
the rule's logical operators, and I its code-space projector. Iterating on the
last qubit with the Bell-basis rule ``bell_logical_paulis()`` grows the
n-qubit family behind the Mermin and Svetlichny inequalities. The same
substitution on states (|0> and |1> become the rule's kets) gives each level's
code basis; the operators alone carry every bound, so no level builds one.

Every level is a logical qubit too: ``build_level(n)`` returns level n of one
shared chain, built once per process, in which level k+1 is level k expanded
at its last qubit (``expand_code``), all four operators alike. Levels are
frozen.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .bell import BellExpression, symbolize
from .bounds import classical_bounds
from .logical import LogicalPaulis, bell_logical_paulis
from .pauli import PauliSum

MAX_LEVEL = 10


def expand_operator(op: PauliSum, k: int, rule: LogicalPaulis) -> PauliSum:
    """Replace qubit k's Pauli factor in every term by its logical image."""
    n = op.n
    if not 0 <= k < n:
        raise ValueError(f"qubit {k} outside range 0..{n - 1}")
    images = {"I": rule.ident, "X": rule.x, "Y": rule.y, "Z": rule.z}
    w = rule.n
    new_n = n + w - 1
    low = (1 << k) - 1                  # bits below k
    acc: dict[tuple[int, int], float] = {}
    for term, coeff in op.items():
        x_lo, z_lo = term.x_mask & low, term.z_mask & low
        x_hi, z_hi = term.x_mask >> (k + 1), term.z_mask >> (k + 1)
        for block, bc in images[term.letter(k)].items():
            x = x_lo | (block.x_mask << k) | (x_hi << (k + w))
            z = z_lo | (block.z_mask << k) | (z_hi << (k + w))
            acc[(x, z)] = acc.get((x, z), 0.0) + coeff * bc
    return PauliSum(new_n, acc)


def expand_code(code: LogicalPaulis, k: int, rule: LogicalPaulis) -> LogicalPaulis:
    """The logical qubit ``code`` with its qubit k replaced by the rule's image:
    all four operators expanded alike."""
    return LogicalPaulis(
        z=expand_operator(code.z, k, rule),
        x=expand_operator(code.x, k, rule),
        y=expand_operator(code.y, k, rule),
        ident=expand_operator(code.ident, k, rule),
    )


def build_level(n: int) -> LogicalPaulis:
    """Iterated expansion of the last qubit, from a single physical qubit.

    Every call for the same n returns the same shared level.
    """
    if not 1 <= n <= MAX_LEVEL:
        raise ValueError(f"level must be within 1..{MAX_LEVEL}")
    return _level(n)


@functools.cache
def _level(n: int) -> LogicalPaulis:
    """Level n of the shared chain: level n - 1 expanded at its last qubit."""
    if n == 1:
        return LogicalPaulis(
            z=PauliSum.from_strings([("Z", 1.0)]),
            x=PauliSum.from_strings([("X", 1.0)]),
            y=PauliSum.from_strings([("Y", 1.0)]),
            ident=PauliSum.identity(1),
        )
    return expand_code(_level(n - 1), n - 2, bell_logical_paulis())


@dataclass
class FamilyCase:
    """Operator and symbolized expression of one family member."""

    operator: PauliSum
    expression: BellExpression


def mermin_case(n: int, level: LogicalPaulis | None = None) -> FamilyCase:
    """2^(n-1) times the level's logical Z, symbolized over A (Z) and B (X)."""
    level = level or build_level(n)
    op = float(2 ** (n - 1)) * level.z
    return FamilyCase(op, symbolize(op, {"Z": "A", "X": "B"})[0])


def svetlichny_case(n: int, level: LogicalPaulis | None = None) -> FamilyCase:
    """2^(n-1) times (logical X + logical Z) of the level."""
    level = level or build_level(n)
    op = float(2 ** (n - 1)) * (level.x + level.z)
    return FamilyCase(op, symbolize(op, {"Z": "A", "X": "B"})[0])


def assignment_value_bound(n: int, which: str = "z") -> Fraction:
    """Exact maximum of the +/-1-assignment value of the level operator.

    The scaled operator 2^(n-1) * op has unit coefficients only up to
    rounding: the rule is built from the numerically derived Bell basis, so
    they come out as e.g. +/-0.9999999999999989 at n = 6. The enumeration is
    exact integer arithmetic because ``bounds._vertex_blocks`` snaps
    coefficients that all lie within 1e-12 of integers to those integers; the
    result is returned as an exact dyadic fraction.
    """
    level = build_level(n)
    op = level.z if which == "z" else level.x
    scale = 2 ** (n - 1)
    scaled = float(scale) * op
    expr, _ = symbolize(scaled, {"Z": "A", "X": "B"})
    return scaled_value_fraction(classical_bounds(expr).maximum, scale)


def scaled_value_fraction(maximum: float, scale: int) -> Fraction:
    """``maximum / scale`` as an exact fraction; ``maximum`` must be an integer,
    the enumerated maximum of an operator scaled by ``scale``."""
    top = int(round(maximum))
    if abs(maximum - top) > 1e-12:
        raise AssertionError("scaled operator did not enumerate to an integer")
    return Fraction(top, scale)
