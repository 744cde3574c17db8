"""Graph states, stabilizer groups, projector expansion and logical bases.

A logical basis is a pair of orthonormal n-qubit states spanning a
two-dimensional code space. It can be given directly as vectors (the named
two- and three-qubit bases below) or derived from a stabilizer group plus a
flip operator that anticommutes with part of the group.

A basis holds read-only copies of its kets, so one basis can be shared. The
named Bell and GHZ3 bases are constants of the construction: each is built
once per process and every caller gets the same object.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .pauli import (
    DENSE_QUBIT_CAP,
    PauliSum,
    PauliTerm,
    _check_cap,
    fix_global_phase,
)

ORTHO_ATOL = 1e-12
PROJECTOR_ATOL = 1e-10


@dataclass(frozen=True)
class GraphSpec:
    """Simple undirected graph; vertices are qubits."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        norm = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) outside vertex range")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))

    @classmethod
    def from_edges(cls, n: int, edges) -> "GraphSpec":
        return cls(n, frozenset(tuple(e) for e in edges))

    @classmethod
    def loop(cls, n: int) -> "GraphSpec":
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n: int) -> "GraphSpec":
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    def neighbors(self, v: int) -> list[int]:
        out = [b if a == v else a for a, b in self.edges if v in (a, b)]
        return sorted(out)


def frozen_ket(vec) -> np.ndarray:
    """A read-only complex copy of ``vec``, safe to share between callers."""
    out = np.array(vec, dtype=complex)
    out.flags.writeable = False
    return out


def _symplectic_rank(terms: list[PauliTerm], n: int) -> int:
    rows = [(t.x_mask << n) | t.z_mask for t in terms]
    rank = 0
    for bit in reversed(range(2 * n)):
        pivot = None
        for i in range(rank, len(rows)):
            if (rows[i] >> bit) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and (rows[i] >> bit) & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


@dataclass(frozen=True)
class StabilizerGroup:
    """n independent, pairwise commuting signed Pauli generators."""

    n: int
    generators: tuple[PauliTerm, ...]

    def __post_init__(self):
        gens = tuple(self.generators)
        if len(gens) != self.n:
            raise ValueError(f"expected {self.n} generators, got {len(gens)}")
        for g in gens:
            if g.n != self.n:
                raise ValueError("generator qubit count mismatch")
            if not g.is_hermitian:
                raise ValueError(f"generator {g} squares to -I, not a stabilizer")
            if g.x_mask == 0 and g.z_mask == 0:
                raise ValueError("identity cannot be a generator")
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                if not gens[i].commutes(gens[j]):
                    raise ValueError(
                        f"generators {gens[i]} and {gens[j]} anticommute")
        if _symplectic_rank(list(gens), self.n) != self.n:
            raise ValueError("generators are not independent")
        object.__setattr__(self, "generators", gens)

    @classmethod
    def from_strings(cls, strings) -> "StabilizerGroup":
        gens = tuple(PauliTerm.from_string(s) for s in strings)
        return cls(gens[0].n, gens)

    def elements(self) -> list[PauliTerm]:
        """All 2^n group elements, sign included, in Gray-code order."""
        current = PauliTerm.identity(self.n)
        out = [current]
        prev_code = 0
        for k in range(1, 1 << self.n):
            code = k ^ (k >> 1)
            flipped = (code ^ prev_code).bit_length() - 1
            current = current * self.generators[flipped]
            prev_code = code
            out.append(current)
        return out


def graph_state_generators(g: GraphSpec) -> StabilizerGroup:
    """The standard generator for vertex v: X on v, Z on every neighbor."""
    gens = []
    for v in range(g.n):
        x = 1 << v
        z = 0
        for u in g.neighbors(v):
            z |= 1 << u
        gens.append(PauliTerm(g.n, x, z, 0))
    return StabilizerGroup(g.n, tuple(gens))


def expand_projector(s: StabilizerGroup, cap: int = DENSE_QUBIT_CAP) -> PauliSum:
    """(1/2^n) * sum of all group elements: the stabilized-state projector."""
    _check_cap(s.n, cap)
    w = 1.0 / (1 << s.n)
    return PauliSum.from_terms(((e, w) for e in s.elements()), n=s.n)


def state_vector(s: StabilizerGroup, cap: int = DENSE_QUBIT_CAP) -> np.ndarray:
    """The unique stabilized state, global phase fixed.

    The projector is rank one, so its largest-diagonal column is already
    proportional to the state.
    """
    proj = expand_projector(s, cap).to_dense(cap)
    diag = np.real(np.diag(proj))
    col = int(np.argmax(diag))
    if diag[col] <= PROJECTOR_ATOL:
        raise ValueError("projector has no usable column; generators inconsistent")
    vec = proj[:, col]
    vec = vec / np.linalg.norm(vec)
    vec = fix_global_phase(vec)
    resid = np.max(np.abs(proj @ vec - vec))
    if resid > PROJECTOR_ATOL:
        raise ValueError(f"stabilized state residual {resid:.3e}")
    return vec


@dataclass(frozen=True)
class LogicalBasis:
    """Orthonormal pair spanning a 2-dimensional code space (read-only kets)."""

    n: int
    zero_ket: np.ndarray
    one_ket: np.ndarray
    name: str = ""

    def __post_init__(self):
        dim = 1 << self.n
        zero = frozen_ket(self.zero_ket)
        one = frozen_ket(self.one_ket)
        if zero.shape != (dim,) or one.shape != (dim,):
            raise ValueError(f"kets must have dimension {dim}")
        if abs(np.linalg.norm(zero) - 1.0) > 1e-12 or abs(np.linalg.norm(one) - 1.0) > 1e-12:
            raise ValueError("kets must be unit norm")
        if abs(np.vdot(zero, one)) > ORTHO_ATOL:
            raise ValueError("kets are not orthogonal")
        object.__setattr__(self, "zero_ket", zero)
        object.__setattr__(self, "one_ket", one)


def basis_from_flip(s: StabilizerGroup, zc: PauliTerm,
                    cap: int = DENSE_QUBIT_CAP, name: str = "") -> LogicalBasis:
    """Code basis |0> = stabilized state, |1> = flip applied to it.

    The flip must anticommute with at least one generator; otherwise it is a
    (signed) stabilizer and the two kets would coincide up to sign.
    """
    if zc.n != s.n:
        raise ValueError("flip qubit count mismatch")
    if all(zc.commutes(g) for g in s.generators):
        raise ValueError(
            f"flip {zc} commutes with the whole group; not a valid logical flip")
    zero = state_vector(s, cap)
    one = zc.apply(zero)
    return LogicalBasis(s.n, zero, one, name=name)


def commuting_split(s: StabilizerGroup, zc: PauliTerm
                    ) -> tuple[list[PauliTerm], list[PauliTerm]]:
    """Group elements split into (commuting, anticommuting) halves w.r.t. zc."""
    comm, anti = [], []
    for e in s.elements():
        (comm if e.commutes(zc) else anti).append(e)
    return comm, anti


# --- named bases used by the golden constructions ---------------------------

@functools.cache
def bell_basis() -> LogicalBasis:
    """|0> = (|00>+|11>)/sqrt2, |1> = (|01>-|10>)/sqrt2."""
    r = 1 / np.sqrt(2)
    zero = np.array([r, 0, 0, r], dtype=complex)
    one = np.array([0, r, -r, 0], dtype=complex)
    return LogicalBasis(2, zero, one, name="bell")

@functools.cache
def ghz3_basis() -> LogicalBasis:
    """The three-qubit basis behind the Mermin / Svetlichny constructions."""
    zero = np.zeros(8, dtype=complex)
    one = np.zeros(8, dtype=complex)
    # |0> = [ |0>(|00>-|11>) - |1>(|01>+|10>) ] / 2
    zero[0b000], zero[0b011] = 0.5, -0.5
    zero[0b101], zero[0b110] = -0.5, -0.5
    # |1> = [ |0>(|01>+|10>) + |1>(|00>-|11>) ] / 2
    one[0b001], one[0b010] = 0.5, 0.5
    one[0b100], one[0b111] = 0.5, -0.5
    return LogicalBasis(3, zero, one, name="ghz3")

