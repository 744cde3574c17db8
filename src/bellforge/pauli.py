"""Exact algebra of signed n-qubit Pauli strings and real linear combinations.

A term is stored in symplectic form (x bits, z bits, power of i). The letter at
qubit q is read off the bit pair: (0,0)=I, (1,0)=X, (0,1)=Z, (1,1)=Y, so the
string "YI" means the Hermitian Pauli Y on qubit 0; the i hidden in Y = i*X*Z
is absorbed into ``phase_exp``. Qubit 0 is the leftmost letter and the most
significant bit of a computational-basis index.

Sums keep only Hermitian content: every stored term has a real coefficient and
sign +1 (phase folded into the coefficient), so any rendered matrix is
Hermitian by construction; a sum is built once, by one constructor. The
module also holds the one single-qubit table: the 2x2 Pauli matrices, X, Y and
Z stacked as ``BLOCH_PAULIS``, and ``bloch_sum`` of a Bloch vector.

Every Pauli string is a signed permutation: it sends basis state r to a phase
times basis state r ^ x. One batched kernel, ``_signed_permutation``, gives
that target and phase for all 2^n basis states of a whole array of strings at
once: index masks come from a per-n bit-reversal table, sign parities from
``np.bitwise_count`` and phases from one table lookup. Rendering and
decomposing a term or a sum, and applying a term, are all built on it. A sum
is rendered densely by scattering O(2^n) entries per term into a zero matrix,
in place of a Kronecker product of 2x2 factors per term (the PauliComposer
scheme, arXiv:2301.00560). Its terms go through the kernel a chunk at a time,
within ``_KERNEL_CHUNK_BYTES`` of temporaries, and each chunk is added into
the output by one ``np.add.at``, which applies repeated indices in order, so
the bits equal a term-by-term sum's. A sum acts on a vector only through its
dense matrix.

The top eigenpair of a sum comes from its dense render, with the bits of
``np.linalg.eigh``'s last pair. From 64 rows up, ``top_eigenpair`` calls the
LAPACK steps of ``eigh``'s own ``zheevd`` through ctypes, in numpy's own
library, and back-transforms only the last eigenvector instead of all N
(O(N^2) in place of O(N^3)). On the recursive family, with one BLAS thread,
that is 1.4x faster at 64 rows, 1.8x at 128 and 2.1-2.4x at 256. Below 64
rows ``eigh`` itself runs: its fixed cost is lower (4 rows: 0.01 ms against
0.05 ms), the two tie at 32 and the route wins from 48. With more
than one BLAS thread the value still equals ``eigh``'s, but from 128 rows up
the vector can differ from it in the last bit, as ``eigh``'s own vectors
differ between thread counts.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from functools import cache
from itertools import chain

import numpy as np

DENSE_QUBIT_CAP = 12        # 2^12 = 4096-dim dense matrices at most
DECOMPOSE_QUBIT_CAP = 6     # pauli_decompose scans all 4^n strings up to here
COEFF_PRUNE = 1e-14         # PauliSum keeps only coefficients above this in size
HERMITICITY_ATOL = 1e-9
_PHASE_TOL = 1e-9           # smallest amplitude fix_global_phase takes as first
_DECOMPOSE_PRUNE = 1e-12    # pauli_decompose drops coefficients up to this
_KERNEL_CHUNK_BYTES = 1 << 20   # most bytes of render temporaries held at once
# bytes per basis state of a complex chunk term: 16 for its entry, 8 for its
# destination (its flat index in the output) and 1 for its sign parity, whose
# uint32 operand (4 more) is freed before the entry is made; the rest is room
# for numpy's fixed-size ufunc buffers, up to about 0.26 MB in the kernel.
# tracemalloc reads 25 bytes per entry (numpy 2.4, n = 8..12, 64-term chunks)
_KERNEL_ENTRY_BYTES = 72
_LAPACK_MIN_DIM = 64        # top_eigenpair takes the LAPACK route from here up
# zheevd rescales a matrix whose zlanhe norm lies outside [2^-485, 2^485],
# sqrt(safmin / eps) and its inverse; the route runs where, by the largest
# magnitude among the real numbers zlanhe reads, it cannot
_ZHEEVD_UNSCALED = (2.0 ** -485, 2.0 ** 484)
# each routine's argument count: by address, then hidden character lengths
_LAPACK_ARGS = {"zhetrd": (10, 1), "dstedc": (11, 1), "zunmtr": (13, 3)}

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
# X, Y and Z in Bloch-vector order: the stacked matrices and the (x, z) bits
BLOCH_PAULIS = np.stack([_PAULI_2X2[c] for c in "XYZ"])
BLOCH_PAULIS.flags.writeable = False
_BLOCH_BITS = tuple(_LETTER_BITS[c] for c in "XYZ")

_I_POW = (1.0 + 0j, 1j, -1.0 + 0j, -1j)
# row k is i^k * (+1, -1), column the sign parity; one lookup gives the same
# bits as multiplying the phase into a +/-1 sign vector, without the two passes
_PHASED_SIGNS = np.array([p * np.array([1.0, -1.0]) for p in _I_POW])
_PHASED_SIGNS.flags.writeable = False


class DimensionError(ValueError):
    """Operands act on different qubit counts."""


class QubitCapError(ValueError):
    """Dense rendering, or a matrix-free eigenvalue bound, requested above
    the configured qubit cap."""


def _parity(x: int) -> int:
    return x.bit_count() & 1


def _product_phase(xa: int, za: int, xb: int, zb: int) -> int:
    """k (mod 4) in P_a P_b = i^k P_c for the +1-signed strings with these
    masks, P_c having masks (xa ^ xb, za ^ zb)."""
    # Convert both factors to X^x Z^z normal order, commute Z past X
    # (one -1 per crossing), then restore the Y convention on the result.
    return ((xa & za).bit_count() + (xb & zb).bit_count()
            - ((xa ^ xb) & (za ^ zb)).bit_count() + 2 * _parity(za & xb))


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise QubitCapError(f"{n} qubits exceeds dense cap of {cap}")


@cache
def _bit_reversal(n: int) -> np.ndarray:
    """Every n-qubit mask reflected into basis-index bit order (qubit q is
    bit n - 1 - q of an index); shared and read-only.

    The type is uint8 up to 8 qubits, else uint32 (numpy's ``bitwise_count``
    runs several times slower on uint16 and int64 than on these).
    """
    masks = np.arange(1 << n, dtype=np.uint8 if n <= 8 else np.uint32)
    out = np.zeros_like(masks)
    for q in range(n):
        out |= ((masks >> q) & 1) << (n - 1 - q)
    out.flags.writeable = False
    return out


def _signed_permutation(n: int, x_masks: np.ndarray, z_masks: np.ndarray,
                        phase_exps: np.ndarray | int = 0,
                        scales: np.ndarray | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Where and with what phase each string i^phase_exps[t] * P_t sends each
    basis state, for the T strings with integer masks ``x_masks[t]``, ``z_masks[t]``.

    Returns ``(dest, entries)``, both of shape (T, 2^n): string t maps basis
    state r to entries[t, r] * |dest[t, r]>, so column r of its matrix holds
    one nonzero entry, i^(phase_exp + |x & z|) * (-1)^popcount(r & zm), in row
    r ^ xm (xm, zm: the masks in index bit order). With ``scales``, entry
    (t, r) is ``scales[t] * entry``, the same bits as scaling afterwards; each
    string's two possible entries are scaled before they are spread.
    """
    reverse = _bit_reversal(n)
    odd = np.bitwise_count(np.arange(1 << n, dtype=reverse.dtype)
                           & reverse[z_masks][:, None])
    odd &= 1
    signs = _PHASED_SIGNS[(phase_exps + np.bitwise_count(x_masks & z_masks)) % 4]
    if scales is not None:
        signs = scales[:, None] * signs
    entries = np.where(odd.view(bool), signs[:, 1:], signs[:, :1])
    # intp rows: numpy would convert narrower index arrays on every use
    return np.arange(1 << n) ^ reverse[x_masks][:, None], entries


def _chunk_terms(n: int) -> int:
    """Most terms whose kernel temporaries fit in ``_KERNEL_CHUNK_BYTES``."""
    return max(1, _KERNEL_CHUNK_BYTES // (_KERNEL_ENTRY_BYTES << n))


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
        phase = (self.phase_exp + other.phase_exp
                 + _product_phase(self.x_mask, self.z_mask, other.x_mask, other.z_mask))
        return PauliTerm(self.n, self.x_mask ^ other.x_mask,
                         self.z_mask ^ other.z_mask, phase % 4)

    def _permutation(self) -> tuple[np.ndarray, np.ndarray]:
        """``(dest, entries)`` of this term alone (see ``_signed_permutation``)."""
        dest, entries = _signed_permutation(
            self.n, np.array([self.x_mask]), np.array([self.z_mask]), self.phase_exp)
        return dest[0], entries[0]

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Apply the term to a state vector without building the matrix."""
        vec = np.asarray(vec, dtype=complex)
        if vec.shape != (1 << self.n,):
            raise DimensionError(f"state has shape {vec.shape}, expected ({1 << self.n},)")
        dest, entries = self._permutation()
        out = np.empty(vec.size, dtype=complex)
        out[dest] = entries * vec
        return out

    def to_dense(self, cap: int = DENSE_QUBIT_CAP) -> np.ndarray:
        _check_cap(self.n, cap)
        dim = 1 << self.n
        dest, entries = self._permutation()
        out = np.zeros((dim, dim), dtype=complex)
        out[dest, np.arange(dim)] = entries
        return out


@dataclass(init=False, slots=True)
class PauliSum:
    """Hermitian operator as a finite real combination of Pauli strings.

    A value: ``PauliSum(n, terms)`` keeps the entries of ``{(x_mask, z_mask):
    coefficient}`` with |c| > ``COEFF_PRUNE`` (so never +0.0 or -0.0), and no
    method changes a sum afterwards, so sums and their arrays are shared.
    """

    n: int
    _terms: dict[tuple[int, int], float]
    _arrays: tuple | None = field(repr=False, compare=False)  # ``_sorted_arrays``

    def __init__(self, n: int, terms: dict[tuple[int, int], float] | None = None):
        self.n = n
        self._terms = {k: c for k, c in (terms or {}).items() if abs(c) > COEFF_PRUNE}
        self._arrays = None

    @classmethod
    def zero(cls, n: int) -> "PauliSum":
        return cls(n)

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
        terms: dict[tuple[int, int], float] = {}
        for term, coeff in items:
            if term.n != n:
                raise DimensionError(f"{term.n} vs {n} qubits")
            key = term.key()
            terms[key] = terms.get(key, 0.0) + term.sign * float(coeff)
        return cls(n, terms)

    @classmethod
    def from_strings(cls, items, n: int | None = None) -> "PauliSum":
        return cls.from_terms(
            ((PauliTerm.from_string(s), c) for s, c in items), n=n)

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
        return PauliSum(self.n, terms)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __rmul__(self, scalar: float) -> "PauliSum":
        s = float(scalar)
        return PauliSum(self.n, {k: s * c for k, c in self._terms.items()})

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

    def _sorted_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """x masks, z masks and coefficients of the terms, in sorted (x, z)
        order; built once and shared read-only. The masks are intp, or
        Python ints past 63 qubits."""
        if self._arrays is None:
            keys = sorted(self._terms)
            masks = np.fromiter(chain.from_iterable(keys), count=2 * len(keys),
                                dtype=np.intp if self.n <= 63 else object).reshape(-1, 2)
            coeffs = np.fromiter(map(self._terms.__getitem__, keys), dtype=float,
                                 count=len(keys))
            masks.flags.writeable = coeffs.flags.writeable = False
            self._arrays = masks[:, 0], masks[:, 1], coeffs
        return self._arrays

    def to_dense(self, cap: int = DENSE_QUBIT_CAP) -> np.ndarray:
        """Dense matrix: ``dense_stack`` of this sum alone."""
        return dense_stack([self], cap)[0]

    def expectation(self, state: np.ndarray) -> float:
        """<psi|A|psi> for a state vector or tr(rho A) for a density matrix,
        both from the dense matrix."""
        state = np.asarray(state, dtype=complex)
        if state.ndim == 1:
            val = np.vdot(state, self.to_dense() @ state)
        else:
            val = np.trace(state @ self.to_dense())
        return float(val.real)


def dense_stack(sums: list[PauliSum], cap: int = DENSE_QUBIT_CAP) -> np.ndarray:
    """The dense matrices of n-qubit ``sums``, stacked, in one kernel pass.

    Every sum's terms, in sorted (x, z) order, go through the kernel
    ``_chunk_terms(n)`` at a time; each chunk is added into a +0.0-started
    stack by one ``np.add.at``, which applies repeated indices in order, so
    each entry sees a term-by-term sum of its own sum. Temporaries stay
    within ``_KERNEL_CHUNK_BYTES`` beside the output.
    """
    n = sums[0].n
    _check_cap(n, cap)
    if any(op.n != n for op in sums):
        raise DimensionError("stacked sums act on different qubit counts")
    # each sum's terms in sorted (x, z) order: the stack's terms in (sum, x, z) order
    if len(sums) == 1:
        (xs, zs, coeffs), base = sums[0]._sorted_arrays(), None
    else:
        xs, zs, coeffs = map(np.concatenate, zip(*(op._sorted_arrays() for op in sums)))
        # where each term's matrix starts in the stack
        base = np.arange(len(sums)).repeat([len(op) for op in sums])[:, None] << 2 * n
    out = np.zeros(len(sums) << 2 * n, dtype=complex)
    size, src = _chunk_terms(n), np.arange(1 << n)
    for lo in range(0, coeffs.size, size):
        dest, entries = _signed_permutation(n, xs[lo:lo + size], zs[lo:lo + size],
                                            scales=coeffs[lo:lo + size])
        dest <<= n
        dest |= src     # flat index of row dest, column src
        if base is not None:
            dest += base[lo:lo + size]
        # 1-d index and values: numpy's fast path, about 4x a 2-d index's
        np.add.at(out, dest.ravel(), entries.ravel())
        del dest, entries   # before the next chunk's are made
    return out.reshape(len(sums), 1 << n, 1 << n)


def bloch_sum(vec) -> PauliSum:
    """vx X + vy Y + vz Z, the one-qubit sum of the Bloch vector ``vec``."""
    return PauliSum(1, {bits: float(v) for bits, v in zip(_BLOCH_BITS, vec)})


def _accumulate_product(a: PauliSum, b: PauliSum, scale: complex,
                        acc: dict[tuple[int, int], complex]) -> None:
    if a.n != b.n:
        raise DimensionError(f"{a.n} vs {b.n} qubits")
    right = sorted(b._terms.items())
    for (xa, za), ca in sorted(a._terms.items()):
        for (xb, zb), cb in right:
            k = (xa ^ xb, za ^ zb)
            phase = _product_phase(xa, za, xb, zb) % 4
            acc[k] = acc.get(k, 0j) + scale * ca * cb * _I_POW[phase]


def _realize(acc: dict[tuple[int, int], complex], n: int) -> PauliSum:
    terms: dict[tuple[int, int], float] = {}
    for k, c in acc.items():
        if abs(c.imag) > 1e-10 * max(1.0, abs(c.real)):
            raise ValueError(
                "operator combination is not Hermitian with real coefficients "
                f"(term {k} has coefficient {c})")
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


def check_hermitian(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"not a square matrix: shape {m.shape}")
    resid = np.abs(m - m.conj().T).max()
    if not resid <= HERMITICITY_ATOL:   # a NaN residual fails too
        raise ValueError(f"matrix is not Hermitian (residual {resid:.3e})")
    return m


@cache
def _lapack() -> tuple | None:
    """``zhetrd``, ``dstedc`` and ``zunmtr`` of the LAPACK that
    ``np.linalg.eigh`` itself calls (numpy's ILP64 OpenBLAS), or None where
    numpy's build does not export them under these names."""
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
        fns = tuple(getattr(lib, f"scipy_{name}_64_") for name in _LAPACK_ARGS)
    except (ImportError, OSError, AttributeError):
        return None
    for fn, (pointers, lengths) in zip(fns, _LAPACK_ARGS.values()):
        # every Fortran argument by address, then the hidden character lengths;
        # a bare int argument would be cut to 32 bits
        fn.argtypes = [ctypes.c_void_p] * pointers + [ctypes.c_size_t] * lengths
        fn.restype = None
    return fns


@cache
def _zlanhe_entries(dim: int) -> np.ndarray:
    """Where, in the float64 view of a column-major dim x dim complex
    matrix, sit the numbers ``zlanhe`` reads for the lower triangle: both
    parts of each entry below the diagonal and the real part of each on it.
    Its norm, the largest modulus among those entries, is at least the
    largest magnitude among these numbers and below 1.5 times it. Shared
    and read-only."""
    mask = ~np.tri(dim, dtype=bool).repeat(2, axis=1)
    mask.reshape(-1)[::2 * dim + 2] = True
    mask.flags.writeable = False
    return mask


def _lapack_top_eigenpair(m: np.ndarray, lapack: tuple) -> tuple[float, np.ndarray] | None:
    """The top eigenpair by ``zheevd``'s own steps, back-transforming only
    the last column, or None where ``zheevd`` would rescale ``m`` first.

    ``eigh`` runs ``zheevd`` on the lower triangle of ``m`` in column-major
    order: ``zhetrd`` to a real tridiagonal, ``dstedc('I')`` for its
    eigenpairs (``zstedc`` hands a matrix above 25 rows to it and widens the
    result to complex) and ``zunmtr`` back onto all N columns. These are the
    same calls, with workspaces that give the same blocking, but ``zunmtr``
    gets the last column alone; it applies the reflectors one at a time in
    both (its workspace is too small for blocking), so that column keeps its
    bits.
    """
    zhetrd, dstedc, zunmtr = lapack
    dim = m.shape[0]
    a = m.T.copy()      # m in column-major order, as eigh copies it
    parts, lower = a.view(float), _zlanhe_entries(dim)
    largest = max(np.max(parts, where=lower, initial=0.0),
                  -np.min(parts, where=lower, initial=0.0))
    if not _ZHEEVD_UNSCALED[0] <= largest <= _ZHEEVD_UNSCALED[1]:
        return None
    diag, off = np.empty(dim), np.empty(dim)
    tau, work = np.empty(dim, dtype=complex), np.empty(1, dtype=complex)
    z = np.empty((dim, dim))    # column-major: row j holds eigenvector j
    rwork = np.empty(1 + 4 * dim + dim * dim)
    iwork = np.empty(3 + 5 * dim, dtype=np.int64)
    n, one, info = ctypes.c_int64(dim), ctypes.c_int64(1), ctypes.c_int64(0)
    ref = ctypes.byref

    def check(routine):
        if info.value:     # eigh raises the same error on a nonzero info
            raise np.linalg.LinAlgError(
                f"Eigenvalues did not converge ({routine} info {info.value})")

    # zhetrd blocks alike with any workspace from its optimum N * NB up, such
    # as zheevd's N^2 + N; a query (size -1) writes that optimum to work[0]
    head = (b"L", ref(n), a.ctypes.data, ref(n), diag.ctypes.data, off.ctypes.data,
            tau.ctypes.data)
    zhetrd(*head, work.ctypes.data, ref(ctypes.c_int64(-1)), ref(info), 1)
    work = np.empty(int(work[0].real), dtype=complex)
    zhetrd(*head, work.ctypes.data, ref(ctypes.c_int64(work.size)), ref(info), 1)
    check("zhetrd")
    dstedc(b"I", ref(n), diag.ctypes.data, off.ctypes.data, z.ctypes.data, ref(n),
           rwork.ctypes.data, ref(ctypes.c_int64(rwork.size)), iwork.ctypes.data,
           ref(ctypes.c_int64(iwork.size)), ref(info), 1)
    check("dstedc")
    vec = z[-1].astype(complex)
    zunmtr(b"L", b"L", b"N", ref(n), ref(one), a.ctypes.data, ref(n), tau.ctypes.data,
           vec.ctypes.data, ref(n), work.ctypes.data, ref(one), ref(info), 1, 1, 1)
    check("zunmtr")
    return float(diag[-1]), vec


def top_eigenpair(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a matching unit eigenvector (phase-fixed).

    Both equal ``np.linalg.eigh``'s last pair bit for bit. From
    ``_LAPACK_MIN_DIM`` = 64 rows up they come from
    ``_lapack_top_eigenpair``, which skips the back-transform of the other
    N - 1 eigenvectors (one BLAS thread: 2.1-2.4x faster at 256 rows).
    ``eigh`` runs below 64 rows, where its fixed cost is the lower, where
    numpy's build does not export the LAPACK routines, and where ``zheevd``
    would rescale the matrix (largest entry outside about [1e-146, 1e146]).
    A nonzero LAPACK ``info`` raises ``np.linalg.LinAlgError``, as ``eigh``
    does. With more than one BLAS thread the value still equals ``eigh``'s,
    but from 128 rows up the eigenvector can differ from it in the last bit.
    """
    m = check_hermitian(m)
    lapack = _lapack() if m.shape[0] >= _LAPACK_MIN_DIM else None
    pair = None if lapack is None else _lapack_top_eigenpair(m, lapack)
    if pair is None:
        vals, vecs = np.linalg.eigh(m)
        pair = float(vals[-1]), vecs[:, -1]
    return pair[0], fix_global_phase(pair[1])


def fix_global_phase(vec: np.ndarray) -> np.ndarray:
    """Make the first non-negligible amplitude real positive."""
    vec = np.asarray(vec, dtype=complex)
    for a in vec:
        if abs(a) > _PHASE_TOL:
            return vec * (abs(a) / a)
    return vec


def pauli_decompose(matrix: np.ndarray, n: int) -> PauliSum:
    """Expand a Hermitian 2^n matrix in the Pauli basis via trace inner products.

    Scans all 4^n strings, so it is restricted to n <= ``DECOMPOSE_QUBIT_CAP``;
    the coefficient of P is tr(P M) / 2^n.
    """
    _check_cap(n, DECOMPOSE_QUBIT_CAP)
    dim = 1 << n
    m = check_hermitian(matrix)
    if m.shape != (dim, dim):
        raise DimensionError(f"matrix shape {m.shape} does not match n={n}")
    src = np.arange(dim)
    terms: dict[tuple[int, int], float] = {}
    for x in range(dim):
        # every string with this x mask, one row each (row z: z mask z)
        dest, entries = _signed_permutation(n, np.full(dim, x), src)
        # tr(P M) = sum_r P[dest r, r] M[r, dest r]: one entry per column of P
        cs = np.sum(entries * m[src, dest], axis=1) / dim
        if np.any(np.abs(cs.imag) > 1e-9):
            raise ValueError("matrix has non-Hermitian Pauli content")
        for z in np.flatnonzero(np.abs(cs.real) > _DECOMPOSE_PRUNE):
            terms[(x, int(z))] = float(cs.real[z])
    return PauliSum(n, terms)
