"""Exact algebra of signed n-qubit Pauli strings and real linear combinations.

A term is stored in symplectic form (x bits, z bits, power of i). The letter at
qubit q is read off the bit pair: (0,0)=I, (1,0)=X, (0,1)=Z, (1,1)=Y, so the
string "YI" means the Hermitian Pauli Y on qubit 0; the i hidden in Y = i*X*Z
is absorbed into ``phase_exp``. Qubit 0 is the leftmost letter and the most
significant bit of a computational-basis index.

Sums keep only Hermitian content: every stored term has a real coefficient and
sign +1 (phase folded into the coefficient), so any rendered matrix is
Hermitian by construction.

Every Pauli string is a signed permutation: it sends basis state r to a phase
times basis state r ^ x. One kernel, ``_signed_permutation``, gives that
target and phase for all 2^n basis states at once, and rendering, applying and
decomposing are all built on it. A sum is rendered densely by scattering
O(2^n) entries per term into a zero matrix, in place of a Kronecker product of
2x2 factors per term (the PauliComposer scheme, arXiv:2301.00560).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

DENSE_QUBIT_CAP = 12        # 2^12 = 4096-dim dense matrices at most
COEFF_PRUNE = 1e-14         # drop numerically-zero coefficients after arithmetic
HERMITICITY_ATOL = 1e-9

_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_LETTER = {v: k for k, v in _LETTER_BITS.items()}

# The single-qubit matrices, for code that works one qubit at a time (see-saw
# Bloch matrices, Monte-Carlo sweeps); Pauli strings never render through them.
_PAULI_2X2 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_I_POW = (1.0 + 0j, 1j, -1.0 + 0j, -1j)
# i^k * (+1, -1), indexed by sign parity; one lookup gives the same bits as
# multiplying the phase into a +/-1 sign vector, without the two array passes
_PHASED_SIGNS = tuple(p * np.array([1.0, -1.0]) for p in _I_POW)


class DimensionError(ValueError):
    """Operands act on different qubit counts."""


class QubitCapError(ValueError):
    """Dense rendering requested above the configured qubit cap."""


def _parity(x: int) -> int:
    return x.bit_count() & 1


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise QubitCapError(f"{n} qubits exceeds dense cap of {cap}")


def _index_mask(mask: int, n: int) -> int:
    """Reflect a qubit-indexed bit mask into basis-index bit order."""
    out = 0
    for q in range(n):
        if (mask >> q) & 1:
            out |= 1 << (n - 1 - q)
    return out


def _signed_permutation(n: int, x_mask: int, z_mask: int, phase_exp: int = 0
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Where and with what phase i^phase_exp * (Pauli string) sends each basis state.

    Returns ``(dest, entries)`` with the string mapping basis state r to
    entries[r] * |dest[r]>: column r of its matrix holds one nonzero entry,
    i^(phase_exp + |x & z|) * (-1)^popcount(r & zm), in row r ^ xm.
    """
    src = np.arange(1 << n)
    parity = np.bitwise_count(src & _index_mask(z_mask, n)) & 1
    phased_signs = _PHASED_SIGNS[(phase_exp + (x_mask & z_mask).bit_count()) % 4]
    return src ^ _index_mask(x_mask, n), phased_signs[parity]


@dataclass(frozen=True)
class PauliTerm:
    """One signed tensor product of single-qubit Paulis, phase tracked mod 4."""

    n: int
    x_mask: int
    z_mask: int
    phase_exp: int = 0

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("need at least one qubit")
        full = (1 << self.n) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("mask has bits outside the qubit range")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    @classmethod
    def from_string(cls, text: str) -> "PauliTerm":
        """Parse textual notation like "+ZXZII", "-YIIZZ" or "iXZ"."""
        s = text.strip()
        phase = 0
        if s.startswith("+i"):
            phase, s = 1, s[2:]
        elif s.startswith("i"):
            phase, s = 1, s[1:]
        elif s.startswith("-i"):
            phase, s = 3, s[2:]
        elif s.startswith("-"):
            phase, s = 2, s[1:]
        elif s.startswith("+"):
            s = s[1:]
        if not s:
            raise ValueError(f"empty Pauli string in {text!r}")
        x = z = 0
        for q, letter in enumerate(s):
            try:
                xb, zb = _LETTER_BITS[letter]
            except KeyError:
                raise ValueError(f"bad Pauli letter {letter!r} in {text!r}") from None
            x |= xb << q
            z |= zb << q
        return cls(len(s), x, z, phase)

    @classmethod
    def identity(cls, n: int) -> "PauliTerm":
        return cls(n, 0, 0, 0)

    def letter(self, q: int) -> str:
        return _BITS_LETTER[((self.x_mask >> q) & 1, (self.z_mask >> q) & 1)]

    @property
    def letters(self) -> str:
        return "".join(self.letter(q) for q in range(self.n))

    @property
    def is_hermitian(self) -> bool:
        return self.phase_exp % 2 == 0

    @property
    def sign(self) -> float:
        """Real sign of a Hermitian term."""
        if not self.is_hermitian:
            raise ValueError(f"term {self} carries phase i^{self.phase_exp}")
        return 1.0 if self.phase_exp == 0 else -1.0

    def key(self) -> tuple[int, int]:
        """Sign-normalized identity of this term inside a sum."""
        return (self.x_mask, self.z_mask)

    @property
    def weight(self) -> int:
        return (self.x_mask | self.z_mask).bit_count()

    def __str__(self) -> str:
        return ("+", "+i", "-", "-i")[self.phase_exp] + self.letters

    def commutes(self, other: "PauliTerm") -> bool:
        """Symplectic inner product test; True when the operators commute."""
        if self.n != other.n:
            raise DimensionError(f"{self.n} vs {other.n} qubits")
        return (_parity(self.x_mask & other.z_mask)
                ^ _parity(other.x_mask & self.z_mask)) == 0

    def __mul__(self, other: "PauliTerm") -> "PauliTerm":
        """Operator product, left factor first, with exact phase accumulation."""
        if self.n != other.n:
            raise DimensionError(f"{self.n} vs {other.n} qubits")
        x = self.x_mask ^ other.x_mask
        z = self.z_mask ^ other.z_mask
        # Convert both factors to X^x Z^z normal order, commute Z past X
        # (one -1 per crossing), then restore the Y convention on the result.
        phase = (self.phase_exp + other.phase_exp
                 + (self.x_mask & self.z_mask).bit_count()
                 + (other.x_mask & other.z_mask).bit_count()
                 - (x & z).bit_count()
                 + 2 * _parity(self.z_mask & other.x_mask))
        return PauliTerm(self.n, x, z, phase % 4)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Apply the term to a state vector without building the matrix."""
        dim = 1 << self.n
        vec = np.asarray(vec, dtype=complex)
        if vec.shape != (dim,):
            raise DimensionError(f"state has shape {vec.shape}, expected ({dim},)")
        dest, entries = _signed_permutation(self.n, self.x_mask, self.z_mask,
                                            self.phase_exp)
        out = np.empty(dim, dtype=complex)
        out[dest] = entries * vec
        return out

    def to_dense(self, cap: int = DENSE_QUBIT_CAP) -> np.ndarray:
        _check_cap(self.n, cap)
        dim = 1 << self.n
        dest, entries = _signed_permutation(self.n, self.x_mask, self.z_mask,
                                            self.phase_exp)
        out = np.zeros((dim, dim), dtype=complex)
        out[dest, np.arange(dim)] = entries
        return out


@dataclass
class PauliSum:
    """Hermitian operator as a finite real combination of Pauli strings."""

    n: int
    _terms: dict[tuple[int, int], float] = field(default_factory=dict)

    @classmethod
    def zero(cls, n: int) -> "PauliSum":
        return cls(n, {})

    @classmethod
    def identity(cls, n: int, coeff: float = 1.0) -> "PauliSum":
        return cls(n, {(0, 0): float(coeff)})

    @classmethod
    def from_terms(cls, items, n: int | None = None) -> "PauliSum":
        """Build from (PauliTerm, coeff) pairs; term signs fold into coefficients."""
        items = list(items)
        if n is None:
            if not items:
                raise ValueError("cannot infer qubit count from an empty sum")
            n = items[0][0].n
        out = cls(n, {})
        for term, coeff in items:
            out._add_term(term, float(coeff))
        out._prune()
        return out

    @classmethod
    def from_strings(cls, items, n: int | None = None) -> "PauliSum":
        return cls.from_terms(
            ((PauliTerm.from_string(s), c) for s, c in items), n=n)

    def _add_term(self, term: PauliTerm, coeff: float) -> None:
        if term.n != self.n:
            raise DimensionError(f"{term.n} vs {self.n} qubits")
        key = term.key()
        self._terms[key] = self._terms.get(key, 0.0) + term.sign * coeff

    def _prune(self) -> None:
        for k in [k for k, c in self._terms.items() if abs(c) <= COEFF_PRUNE]:
            del self._terms[k]

    def items(self) -> list[tuple[PauliTerm, float]]:
        """Terms in deterministic (x, z) mask order, all with +1 sign."""
        return [(PauliTerm(self.n, x, z, 0), c)
                for (x, z), c in sorted(self._terms.items())]

    def coeff(self, term: PauliTerm) -> float:
        """Coefficient of a (sign-carrying) term; 0.0 when absent."""
        return term.sign * self._terms.get(term.key(), 0.0)

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n != other.n:
            raise DimensionError(f"{self.n} vs {other.n} qubits")
        terms = dict(self._terms)
        for k, c in other._terms.items():
            terms[k] = terms.get(k, 0.0) + c
        out = PauliSum(self.n, terms)
        out._prune()
        return out

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __rmul__(self, scalar: float) -> "PauliSum":
        s = float(scalar)
        return PauliSum(self.n, {k: s * c for k, c in self._terms.items()
                                 if abs(s * c) > COEFF_PRUNE})

    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        return product(self, other)

    def to_strings(self) -> list[tuple[str, float]]:
        """Serialization-friendly (letters, coefficient) pairs, sorted."""
        return sorted(((t.letters, c) for t, c in self.items()))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for term, c in self.items():
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            parts.append(f"{sign} {mag:g}*{term.letters}")
        return " ".join(parts).lstrip("+ ")

    def to_dense(self, cap: int = DENSE_QUBIT_CAP) -> np.ndarray:
        """Dense matrix, scattered one run of terms with equal x mask at a time.

        Terms sharing an x mask fill the same entries, so each run is summed
        into one vector in sorted (x, z) order and written once; every matrix
        entry sees the same additions in the same order as a term-by-term sum.
        """
        _check_cap(self.n, cap)
        dim = 1 << self.n
        src = np.arange(dim)
        out = np.zeros((dim, dim), dtype=complex)
        for x, run in groupby(sorted(self._terms.items()), key=lambda kc: kc[0][0]):
            acc = np.zeros(dim, dtype=complex)
            for (_, z), c in run:
                dest, entries = _signed_permutation(self.n, x, z)
                acc += c * entries
            out[dest, src] = acc
        return out

    def apply(self, vec: np.ndarray) -> np.ndarray:
        out = np.zeros(1 << self.n, dtype=complex)
        for term, c in self.items():
            out += c * term.apply(vec)
        return out

    def expectation(self, state: np.ndarray) -> float:
        """<psi|A|psi> for a state vector or tr(rho A) for a density matrix."""
        state = np.asarray(state, dtype=complex)
        if state.ndim == 1:
            val = np.vdot(state, self.apply(state))
        else:
            val = np.trace(state @ self.to_dense())
        return float(val.real)


def _accumulate_product(a: PauliSum, b: PauliSum, scale: complex,
                        acc: dict[tuple[int, int], complex]) -> None:
    if a.n != b.n:
        raise DimensionError(f"{a.n} vs {b.n} qubits")
    for ta, ca in a.items():
        for tb, cb in b.items():
            t = ta * tb
            k = t.key()
            acc[k] = acc.get(k, 0j) + scale * ca * cb * _I_POW[t.phase_exp]


def _realize(acc: dict[tuple[int, int], complex], n: int) -> PauliSum:
    terms: dict[tuple[int, int], float] = {}
    for k, c in acc.items():
        if abs(c.imag) > 1e-10 * max(1.0, abs(c.real)):
            raise ValueError(
                "operator combination is not Hermitian with real coefficients "
                f"(term {k} has coefficient {c})")
        if abs(c.real) > COEFF_PRUNE:
            terms[k] = c.real
    return PauliSum(n, terms)


def product(a: PauliSum, b: PauliSum, scale: complex = 1.0) -> PauliSum:
    """scale * a @ b, demanding the result be Hermitian with real coefficients.

    scale=1j recovers Hermitian products of anticommuting Hermitian factors
    (e.g. the logical Y from logical X and Z).
    """
    acc: dict[tuple[int, int], complex] = {}
    _accumulate_product(a, b, scale, acc)
    return _realize(acc, a.n)


def anticommutator_sum(p: PauliSum, q: PauliSum) -> PauliSum:
    """PQ + QP as a PauliSum (always Hermitian for Hermitian inputs)."""
    acc: dict[tuple[int, int], complex] = {}
    _accumulate_product(p, q, 1.0, acc)
    _accumulate_product(q, p, 1.0, acc)
    return _realize(acc, p.n)


def check_hermitian(m: np.ndarray, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"not a square matrix: shape {m.shape}")
    resid = np.max(np.abs(m - m.conj().T))
    if resid > atol:
        raise ValueError(f"matrix is not Hermitian (residual {resid:.3e})")
    return m


def top_eigenpair(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a matching unit eigenvector (phase-fixed)."""
    vals, vecs = np.linalg.eigh(check_hermitian(m))
    vec = vecs[:, -1]
    return float(vals[-1]), fix_global_phase(vec)


def fix_global_phase(vec: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Make the first non-negligible amplitude real positive."""
    vec = np.asarray(vec, dtype=complex)
    for a in vec:
        if abs(a) > tol:
            return vec * (abs(a) / a)
    return vec


def pauli_decompose(matrix: np.ndarray, n: int,
                    prune: float = 1e-12) -> PauliSum:
    """Expand a Hermitian 2^n matrix in the Pauli basis via trace inner products.

    Scans all 4^n strings, so it is restricted to small n; the coefficient of
    P is tr(P M) / 2^n.
    """
    if n > 6:
        raise QubitCapError("full 4^n Pauli scan is limited to n <= 6")
    dim = 1 << n
    m = check_hermitian(matrix)
    if m.shape != (dim, dim):
        raise DimensionError(f"matrix shape {m.shape} does not match n={n}")
    src = np.arange(dim)
    terms: dict[tuple[int, int], float] = {}
    for x in range(dim):
        for z in range(dim):
            # tr(P M) = sum_r P[dest r, r] M[r, dest r]: one entry per column of P
            dest, entries = _signed_permutation(n, x, z)
            val = np.sum(entries * m[src, dest])
            c = val / dim
            if abs(c.imag) > 1e-9:
                raise ValueError("matrix has non-Hermitian Pauli content")
            if abs(c.real) > prune:
                terms[(x, z)] = float(c.real)
    return PauliSum(n, terms)
