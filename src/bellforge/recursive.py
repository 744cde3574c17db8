"""Recursive multi-qubit construction by linear expansion of one qubit.

The expansion replaces a chosen physical qubit, in states and in operators,
by its logical image under a fixed two-qubit basis: |0> and |1> become the
basis kets, X/Y/Z become the logical operators, and I becomes the code-space
projector. Iterating on the last qubit grows the n-qubit family behind the
Mermin and Svetlichny inequalities.

The Bell-basis rule and the levels it grows are constants of the
construction, built once per process: ``default_rule()`` returns one shared
rule, and ``build_level(n)`` returns level n of one shared chain in which
level k+1 is level k expanded at its last qubit. Shared objects are frozen
and their kets read-only.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .bell import BellExpression, symbolize
from .logical import LogicalPaulis, bell_logical_paulis
from .pauli import PauliSum
from .stabilizer import frozen_ket

MAX_LEVEL = 10


@dataclass(frozen=True)
class ExpansionRule:
    """How one qubit maps to a logical block of ``width`` qubits."""

    width: int
    zero_ket: np.ndarray
    one_ket: np.ndarray
    ops: Mapping[str, PauliSum]   # images of "Z", "X", and optionally "Y", "I"

    @classmethod
    def from_logical(cls, lp: LogicalPaulis) -> "ExpansionRule":
        return cls(
            width=lp.n,
            zero_ket=lp.basis.zero_ket,
            one_ket=lp.basis.one_ket,
            ops=MappingProxyType({"Z": lp.z, "X": lp.x, "Y": lp.y, "I": lp.ident}),
        )


@functools.cache
def default_rule() -> ExpansionRule:
    """Expansion through the two-qubit Bell-state basis, shared."""
    return ExpansionRule.from_logical(bell_logical_paulis())


def expand_state(vec: np.ndarray, k: int, n: int, rule: ExpansionRule) -> np.ndarray:
    """Replace qubit k of an n-qubit state by its logical image."""
    if not 0 <= k < n:
        raise ValueError(f"qubit {k} outside range 0..{n - 1}")
    left, right = 1 << k, 1 << (n - 1 - k)
    kets = np.vstack([rule.zero_ket, rule.one_ket])        # (2, 2^width)
    t = np.asarray(vec, dtype=complex).reshape(left, 2, right)
    out = np.einsum("abc,bd->adc", t, kets)
    return out.reshape(left * (1 << rule.width) * right)


def expand_operator(op: PauliSum, k: int, rule: ExpansionRule) -> PauliSum:
    """Replace qubit k's Pauli factor in every term by its logical image."""
    n = op.n
    if not 0 <= k < n:
        raise ValueError(f"qubit {k} outside range 0..{n - 1}")
    w = rule.width
    new_n = n + w - 1
    low = (1 << k) - 1                  # bits below k
    acc: dict[tuple[int, int], float] = {}
    for term, coeff in op.items():
        letter = term.letter(k)
        if letter not in rule.ops:
            raise KeyError(f"expansion rule has no image for Pauli letter {letter}")
        x_lo, z_lo = term.x_mask & low, term.z_mask & low
        x_hi, z_hi = term.x_mask >> (k + 1), term.z_mask >> (k + 1)
        for block, bc in rule.ops[letter].items():
            x = x_lo | (block.x_mask << k) | (x_hi << (k + w))
            z = z_lo | (block.z_mask << k) | (z_hi << (k + w))
            acc[(x, z)] = acc.get((x, z), 0.0) + coeff * bc
    return PauliSum(new_n, {key: c for key, c in acc.items() if abs(c) > 1e-15})


@dataclass(frozen=True)
class RecursiveLevel:
    """State pair and operator pair of one level of the recursion (read-only kets)."""

    n: int
    zero_ket: np.ndarray
    one_ket: np.ndarray
    z_op: PauliSum
    x_op: PauliSum

    def __post_init__(self):
        object.__setattr__(self, "zero_ket", frozen_ket(self.zero_ket))
        object.__setattr__(self, "one_ket", frozen_ket(self.one_ket))

    def expanded(self, k: int, rule: ExpansionRule) -> "RecursiveLevel":
        return RecursiveLevel(
            n=self.n + rule.width - 1,
            zero_ket=expand_state(self.zero_ket, k, self.n, rule),
            one_ket=expand_state(self.one_ket, k, self.n, rule),
            z_op=expand_operator(self.z_op, k, rule),
            x_op=expand_operator(self.x_op, k, rule),
        )


def build_level(n: int) -> RecursiveLevel:
    """Iterated expansion of the last qubit, from a single physical qubit.

    Every call for the same n returns the same shared level.
    """
    if not 1 <= n <= MAX_LEVEL:
        raise ValueError(f"level must be within 1..{MAX_LEVEL}")
    return _level(n)


@functools.cache
def _level(n: int) -> RecursiveLevel:
    """Level n of the shared chain: level n - 1 expanded at its last qubit."""
    if n == 1:
        return RecursiveLevel(
            n=1,
            zero_ket=np.array([1.0, 0.0], dtype=complex),
            one_ket=np.array([0.0, 1.0], dtype=complex),
            z_op=PauliSum.from_strings([("Z", 1.0)]),
            x_op=PauliSum.from_strings([("X", 1.0)]),
        )
    return _level(n - 1).expanded(n - 2, default_rule())


@dataclass
class FamilyCase:
    """Operator, symbolized expression and targets for one family member."""

    name: str
    n: int
    operator: PauliSum
    expression: BellExpression
    classical_target: float
    quantum_target: float


def mermin_case(n: int, level: RecursiveLevel | None = None) -> FamilyCase:
    """2^(n-1) times the level's logical Z, symbolized over A (Z) and B (X)."""
    level = level or build_level(n)
    op = float(2 ** (n - 1)) * level.z_op
    expr, _ = symbolize(op, {"Z": "A", "X": "B"})
    return FamilyCase(
        name=f"mermin:{n}", n=n, operator=op, expression=expr,
        classical_target=float(2 ** (n - 2)), quantum_target=float(2 ** (n - 1)))


def svetlichny_case(n: int, level: RecursiveLevel | None = None) -> FamilyCase:
    """2^(n-1) times (logical X + logical Z) of the level."""
    level = level or build_level(n)
    op = float(2 ** (n - 1)) * (level.x_op + level.z_op)
    expr, _ = symbolize(op, {"Z": "A", "X": "B"})
    return FamilyCase(
        name=f"svetlichny:{n}", n=n, operator=op, expression=expr,
        classical_target=float(2 ** (n - 1)),
        quantum_target=float(2 ** (n - 1)) * np.sqrt(2.0))


def assignment_value_bound(n: int, which: str = "z",
                           level: RecursiveLevel | None = None) -> Fraction:
    """Exact maximum of the +/-1-assignment value of the level operator.

    The scaled operator 2^(n-1) * op has unit coefficients only up to
    rounding: the rule is built from the numerically derived Bell basis, so
    they come out as e.g. +/-0.9999999999999989 at n = 6. The enumeration is
    exact integer arithmetic because ``bounds._vertex_blocks`` snaps
    coefficients that all lie within 1e-12 of integers to those integers; the
    result is returned as an exact dyadic fraction.
    """
    from .bounds import classical_bounds  # local import to avoid a cycle

    level = level or build_level(n)
    op = level.z_op if which == "z" else level.x_op
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
