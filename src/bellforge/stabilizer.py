"""Graph states, stabilizer groups, code states and logical bases.

A logical basis is a pair of orthonormal n-qubit states spanning a
two-dimensional code space. Every code basis is a stabilizer group plus a
flip operator that anticommutes with part of the group (``basis_from_flip``):
|0> is the group's stabilized state and |1> the flip applied to it. The named
bases below are two such codes (Gottesman, quant-ph/9705052):

    Bell:  +XX, +ZZ;          flip +ZX
    GHZ3:  +ZZZ, -XXZ, +IYY;  flip +XZZ

The group arithmetic lives here once, on arrays of x masks, z masks and
powers of i (Aaronson & Gottesman, PRA 70, 052328 (2004)): a GF(2) echelon,
a signed product and the group growth built on it, and a code-state scatter
in O(2^n), with no projector sum and no matrix. Elements, code states,
``logical``'s operators and ``bounds``' certificate all use them.

Code states are built only where a ket is read: the numeric route to the
Bell and GHZ3 operators, the certificate's witness, the ``l5-identity``
code-space mixtures and the Bell-state values of the quadratic cases.
``logical``'s symbolic route reads the group arrays alone, and the
recursive family only operators. A basis holds read-only copies of its
kets, so one basis can be shared; a copy holds no negative zero. The named
Bell and GHZ3 bases are constants of the construction: each is built once
per process and every caller gets the same object.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .pauli import (
    _PHASED_SIGNS,
    _REAL_SIGNS,
    DENSE_QUBIT_CAP,
    PauliSum,
    PauliTerm,
    _bit_reversal,
    _check_cap,
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
    """A read-only complex copy of ``vec``, safe to share between callers.

    Adding 0j turns every -0.0 part into +0.0, so equal kets are equal bit
    for bit whichever signed permutation made them."""
    out = np.asarray(vec, dtype=complex) + 0j
    out.flags.writeable = False
    return out


def _gf2_echelon(vecs) -> list[int]:
    """A reduced echelon basis of the GF(2) span of non-negative integer
    vectors: each basis vector's top bit, its pivot, is set in no other. A
    list with a vector of 64 bits or more (past 31 qubits) stays Python ints."""
    wide = not isinstance(vecs, np.ndarray) and max(vecs, default=0) >> 63
    vecs = np.array(vecs, dtype=object if wide else np.int64)
    basis: list[int] = []
    while vecs.size and (top := int(vecs.max())):
        pivot = top.bit_length() - 1
        vecs ^= top * ((vecs >> pivot) & 1)
        basis = [b ^ top if b >> pivot & 1 else b for b in basis]
        basis.append(top)
    return basis


def _times(gx: np.ndarray, gz: np.ndarray, gk: np.ndarray, x: int, z: int, k: int):
    """Masks and powers of i (mod 4) of each i^gk P(gx, gz) times i^k P(x, z)."""
    k = (gk + k + (x & z).bit_count() + np.bitwise_count(gx & gz)
         - np.bitwise_count((gx ^ x) & (gz ^ z)) + 2 * (np.bitwise_count(gz & x) & 1))
    return gx ^ x, gz ^ z, k & 3


def _grow_group(gens) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks and powers of i of the 2^k products of k commuting (x, z, k)
    strings: element e holds the generators at its set bits."""
    group = (np.zeros(1, dtype=np.int64),) * 3
    for x, z, k in gens:
        group = tuple(map(np.concatenate, zip(group, _times(*group, x, z, k))))
    return group


def _code_state(n: int, group, real: bool) -> np.ndarray:
    """sum_e e|r> = 2^n P|r> over a group of 2^n elements (``_grow_group``
    arrays), in float64 if ``real``. r is the first basis state on which the
    Z-type elements act as +1, so entry r, the first nonzero, is their count:
    the phase is fixed, and each entry is an exact integer times i^k."""
    gx, gz, gk = group
    b = 0   # a basis state, in qubit order, on which Z-type elements are +1
    for row in _gf2_echelon(gz[gx == 0] << 1 | gk[gx == 0] >> 1 & 1):
        b |= (row & 1) << (row.bit_length() - 2)
    reverse = _bit_reversal(n)
    moves = reverse[gx]
    first = (moves ^ reverse[b]).min()
    table = _REAL_SIGNS if real else _PHASED_SIGNS
    code = np.zeros(1 << n, dtype=float if real else complex)
    np.add.at(code, (moves ^ first).astype(np.intp),
              table[(gk + np.bitwise_count(gx & gz)) & 3,
                    np.bitwise_count(gz & reverse[first]) & 1])
    return code


def _signed_sum(n: int, gx: np.ndarray, gz: np.ndarray, gk: np.ndarray,
                weight: float) -> PauliSum:
    """sum_t weight * i^gk[t] P(gx[t], gz[t]) over distinct strings, gk even."""
    coeffs = np.where(gk == 0, weight, -weight)
    return PauliSum(n, dict(zip(zip(gx.tolist(), gz.tolist()), coeffs.tolist())))


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
        for i, g in enumerate(gens):
            for h in gens[i + 1:]:
                if not g.commutes(h):
                    raise ValueError(f"generators {g} and {h} anticommute")
        if len(_gf2_echelon([g.x_mask | g.z_mask << self.n for g in gens])) != self.n:
            raise ValueError("generators are not independent")
        object.__setattr__(self, "generators", gens)

    @classmethod
    def from_strings(cls, strings) -> "StabilizerGroup":
        gens = tuple(PauliTerm.from_string(s) for s in strings)
        return cls(gens[0].n, gens)

    @functools.cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_grow_group`` arrays of the 2^n elements, shared read-only."""
        arrays = _grow_group((g.x_mask, g.z_mask, g.phase_exp) for g in self.generators)
        for a in arrays:
            a.flags.writeable = False
        return arrays

    def elements(self) -> list[PauliTerm]:
        """All 2^n group elements, sign included: element e is the product of
        the generators at the set bits of e."""
        return [PauliTerm(self.n, x, z, k)
                for x, z, k in zip(*(a.tolist() for a in self._arrays))]


def graph_state_generators(g: GraphSpec) -> StabilizerGroup:
    """The standard generator for vertex v: X on v, Z on every neighbor."""
    gens = (PauliTerm(g.n, 1 << v, sum(1 << u for u in g.neighbors(v))) for v in range(g.n))
    return StabilizerGroup(g.n, tuple(gens))


def state_vector(s: StabilizerGroup, cap: int = DENSE_QUBIT_CAP) -> np.ndarray:
    """The unique stabilized state, global phase fixed: ``_code_state``,
    normalised, bit for bit the projector's first nonzero column; float64
    for a real group, then cast. Raises ValueError on a zero scatter or when
    a generator moves it by over ``PROJECTOR_ATOL`` (``PauliTerm.apply``)."""
    _check_cap(s.n, cap)
    gx, gz, _ = s._arrays
    vec = _code_state(s.n, s._arrays, real=not np.any(np.bitwise_count(gx & gz) & 1))
    if not vec.any():
        raise ValueError("stabilized state is zero; generators inconsistent")
    vec = vec / np.linalg.norm(vec)
    resid = max(np.max(np.abs(g.apply(vec) - vec)) for g in s.generators)
    if resid > PROJECTOR_ATOL:
        raise ValueError(f"stabilized state residual {resid:.3e}")
    return vec.astype(complex)


@dataclass(frozen=True)
class LogicalBasis:
    """Orthonormal pair spanning a 2-dimensional code space (read-only kets)."""

    n: int
    zero_ket: np.ndarray
    one_ket: np.ndarray

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
                    cap: int = DENSE_QUBIT_CAP) -> LogicalBasis:
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
    return LogicalBasis(s.n, zero, one)


# --- named bases used by the golden constructions ---------------------------

@functools.cache
def bell_basis() -> LogicalBasis:
    """|0> = (|00>+|11>)/sqrt2, |1> = (|01>-|10>)/sqrt2."""
    return basis_from_flip(StabilizerGroup.from_strings(["+XX", "+ZZ"]),
                           PauliTerm.from_string("+ZX"))


@functools.cache
def ghz3_basis() -> LogicalBasis:
    """The three-qubit basis behind the Mermin / Svetlichny constructions:
    |0> = [ |0>(|00>-|11>) - |1>(|01>+|10>) ] / 2,
    |1> = [ |0>(|01>+|10>) + |1>(|00>-|11>) ] / 2."""
    return basis_from_flip(StabilizerGroup.from_strings(["+ZZZ", "-XXZ", "+IYY"]),
                           PauliTerm.from_string("+XZZ"))
