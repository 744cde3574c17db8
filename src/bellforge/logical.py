"""Logical Pauli operators of a two-dimensional code space.

For a basis {|0>, |1>} the four operators are the Pauli-like outer-product
combinations

    Z = |0><0| - |1><1|      X = |0><1| + |1><0|
    Y = i(|1><0| - |0><1|)   ident = |0><0| + |1><1|

expanded over n-qubit Pauli strings. Two construction routes are provided and
must agree: a dense outer-product route (any code basis of at most
``DECOMPOSE_QUBIT_CAP`` qubits) and a symbolic stabilizer route (half-group
split, one pass over the group per operator, any n the group fits). The named
Bell and GHZ3 bases are stabilizer codes like any other; their operators still
come from the numeric route, whose digits the recursive family and the
certified table carry, and are built once per process and shared.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .pauli import (
    DECOMPOSE_QUBIT_CAP,
    PauliSum,
    PauliTerm,
    _check_cap,
    pauli_decompose,
)
from .stabilizer import (
    LogicalBasis,
    StabilizerGroup,
    basis_from_flip,
    bell_basis,
    commuting_split,
    ghz3_basis,
)


@dataclass(frozen=True)
class LogicalPaulis:
    """The operator quadruple attached to one logical basis."""

    basis: LogicalBasis
    z: PauliSum
    x: PauliSum
    y: PauliSum
    ident: PauliSum

    @property
    def n(self) -> int:
        return self.basis.n

    def direction(self, k: tuple[float, float, float]) -> PauliSum:
        """k_x * X + k_y * Y + k_z * Z for a Bloch-like direction k."""
        kx, ky, kz = (float(c) for c in k)
        return kx * self.x + ky * self.y + kz * self.z


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.outer(a, b.conj())


def logical_paulis_numeric(basis: LogicalBasis) -> LogicalPaulis:
    """Dense outer products decomposed in the Pauli basis by trace inner
    products; QubitCapError above ``DECOMPOSE_QUBIT_CAP`` qubits, before any
    outer product is formed."""
    _check_cap(basis.n, DECOMPOSE_QUBIT_CAP)
    zero, one = basis.zero_ket, basis.one_ket
    z_m = _outer(zero, zero) - _outer(one, one)
    x_m = _outer(zero, one) + _outer(one, zero)
    y_m = 1j * (_outer(one, zero) - _outer(zero, one))
    i_m = _outer(zero, zero) + _outer(one, one)
    return LogicalPaulis(
        basis=basis,
        z=pauli_decompose(z_m, basis.n),
        x=pauli_decompose(x_m, basis.n),
        y=pauli_decompose(y_m, basis.n),
        ident=pauli_decompose(i_m, basis.n),
    )


@functools.cache
def bell_logical_paulis() -> LogicalPaulis:
    """The numeric logical operators of ``bell_basis()``, shared."""
    return logical_paulis_numeric(bell_basis())


@functools.cache
def ghz3_logical_paulis() -> LogicalPaulis:
    """The numeric logical operators of ``ghz3_basis()``, shared."""
    return logical_paulis_numeric(ghz3_basis())


def logical_paulis_symbolic(group: StabilizerGroup, flip: PauliTerm,
                            basis: LogicalBasis | None = None) -> LogicalPaulis:
    """Half-group split construction.

    Z collects the group half anticommuting with the flip, X the commuting
    half C times the flip, each scaled 2/2^n. Y = i*X@Z in one pass over C:
    the other half is z*C for any z in it, so Y = (2/2^n) sum of i*flip*z*c
    over c in C. Agrees term-for-term with the numeric route on the basis
    derived from the same data.
    """
    if basis is None:
        basis = basis_from_flip(group, flip)
    comm, anti = commuting_split(group, flip)
    if not anti:
        raise ValueError("flip commutes with the whole group; no logical Z")
    w = 2.0 / (1 << group.n)
    z_op = PauliSum.from_terms(((e, w) for e in anti), n=group.n)
    x_op = PauliSum.from_terms(((e * flip, w) for e in comm), n=group.n)
    ident = PauliSum.from_terms(((e, w) for e in comm), n=group.n)
    flip_z = flip * anti[0]
    i_flip_z = PauliTerm(group.n, flip_z.x_mask, flip_z.z_mask, flip_z.phase_exp + 1)
    y_op = PauliSum.from_terms(((i_flip_z * e, w) for e in comm), n=group.n)
    return LogicalPaulis(basis=basis, z=z_op, x=x_op, y=y_op, ident=ident)

