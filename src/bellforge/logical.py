"""Logical Pauli operators of a two-dimensional code space.

A logical qubit is its four operators, the Pauli-like outer-product
combinations of a code basis {|0>, |1>}

    Z = |0><0| - |1><1|      X = |0><1| + |1><0|
    Y = i(|1><0| - |0><1|)   ident = |0><0| + |1><1|

expanded over n-qubit Pauli strings; it keeps no kets. Two construction
routes are provided and must agree: a dense outer-product route, which reads
the kets it is given (any code basis of at most ``DECOMPOSE_QUBIT_CAP``
qubits), and a symbolic stabilizer route, which builds no state (the group's
element arrays split by one parity test, one array product per operator).
The named Bell and GHZ3 bases are stabilizer codes like any other; their
operators still come from the numeric route, whose digits the recursive
family and the certified table carry, and are built once per process and
shared.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .pauli import (
    DECOMPOSE_QUBIT_CAP,
    DENSE_QUBIT_CAP,
    PauliSum,
    PauliTerm,
    _check_cap,
    pauli_decompose,
)
from .stabilizer import (
    LogicalBasis,
    StabilizerGroup,
    _signed_sum,
    _times,
    bell_basis,
    ghz3_basis,
)


@dataclass(frozen=True)
class LogicalPaulis:
    """The four logical operators of one code space."""

    z: PauliSum
    x: PauliSum
    y: PauliSum
    ident: PauliSum

    @property
    def n(self) -> int:
        return self.z.n

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
                            cap: int = DENSE_QUBIT_CAP) -> LogicalPaulis:
    """Half-group split construction, on the group's element arrays.

    Z collects the group half anticommuting with the flip, ident the other
    half C and X each c * flip, all scaled 2/2^n. Y = i*X@Z = (2/2^n) sum of
    i*(c*flip)*z over C, for any z in the other half (which is C*z). Builds
    no state, yet agrees term-for-term with the numeric route on the basis
    ``basis_from_flip`` derives from the same data. Raises ValueError on a
    flip of phase +/-i, or one that commutes with the whole group, and
    QubitCapError above ``cap`` qubits, before the 2^n elements are built.
    """
    if flip.n != group.n or not flip.is_hermitian:
        raise ValueError(f"flip {flip} is not a Hermitian {group.n}-qubit string")
    _check_cap(group.n, cap)
    n, (gx, gz, gk) = group.n, group._arrays
    anti = (np.bitwise_count(gx & flip.z_mask) ^ np.bitwise_count(gz & flip.x_mask)) & 1 == 1
    if not anti.any():
        raise ValueError(f"flip {flip} commutes with the whole group; no logical Z")
    comm = (gx[~anti], gz[~anti], gk[~anti])
    x = _times(*comm, flip.x_mask, flip.z_mask, flip.phase_exp)
    z = int(np.argmax(anti))
    w = 2.0 / (1 << n)
    return LogicalPaulis(
        z=_signed_sum(n, gx[anti], gz[anti], gk[anti], w),
        x=_signed_sum(n, *x, w),
        y=_signed_sum(n, *_times(*x, int(gx[z]), int(gz[z]), int(gk[z]) + 1), w),
        ident=_signed_sum(n, *comm, w),
    )
