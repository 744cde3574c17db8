"""Small constructions and comparisons that only the tests use."""

import json
import math
from itertools import groupby

import numpy as np

from bellforge.bell import BellExpression, Setting, xz_setting
from bellforge.logical import LogicalPaulis
from bellforge.pauli import _I_POW, PauliSum, PauliTerm, _realize, check_hermitian, product
from bellforge.stabilizer import (
    GraphSpec,
    LogicalBasis,
    basis_from_flip,
    graph_state_generators,
)


def basis_from_kets(zero, one, name: str = "") -> LogicalBasis:
    """A logical basis from two kets, each normalised."""
    zero = np.asarray(zero, dtype=complex)
    n = int(round(np.log2(zero.size)))
    return LogicalBasis(n, zero / np.linalg.norm(zero),
                        np.asarray(one, dtype=complex) / np.linalg.norm(one),
                        name=name)


def loop5_basis() -> LogicalBasis:
    """Five-qubit loop-graph code basis: |0> = |L5>, |1> = Z^(x5) |L5>."""
    group = graph_state_generators(GraphSpec.loop(5))
    return basis_from_flip(group, PauliTerm.from_string("ZZZZZ"), name="loop5")


def logical_paulis_json(ops: LogicalPaulis) -> str:
    """The four logical operators as sorted JSON, coefficients to 12 places."""
    payload = {
        name: [[s, round(c, 12)] for s, c in op.to_strings()]
        for name, op in (("z", ops.z), ("x", ops.x), ("y", ops.y), ("i", ops.ident))
    }
    payload["n"] = ops.n
    return json.dumps(payload, sort_keys=True)


def rotated_z(ops: LogicalPaulis, theta: float) -> PauliSum:
    """cos(theta) * Z + sin(theta) * X, the logical Z rotated in the xz plane."""
    return ops.direction((np.sin(theta), 0.0, np.cos(theta)))


def sums_match(a: PauliSum, b: PauliSum, atol: float = 1e-12) -> bool:
    """Term-by-term agreement of two sums."""
    if a.n != b.n:
        return False
    da, db = dict(a.to_strings()), dict(b.to_strings())
    return all(abs(da.get(k, 0.0) - db.get(k, 0.0)) <= atol for k in da.keys() | db.keys())


def eig_bounds(m: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a Hermitian matrix."""
    vals = np.linalg.eigvalsh(check_hermitian(m))
    return float(vals[0]), float(vals[-1])


# --- per-term oracles for the batched kernel and the mask-walking symbolize ---

_ORACLE_SIGNS = tuple(p * np.array([1.0, -1.0]) for p in _I_POW)


def _index_mask(mask: int, n: int) -> int:
    """Reflect a qubit-indexed bit mask into basis-index bit order."""
    out = 0
    for q in range(n):
        if (mask >> q) & 1:
            out |= 1 << (n - 1 - q)
    return out


def term_permutation(n: int, x_mask: int, z_mask: int, phase_exp: int = 0):
    """``(dest, entries)`` of one string, one term at a time: the string sends
    basis state r to entries[r] * |dest[r]>."""
    src = np.arange(1 << n)
    parity = np.bitwise_count(src & _index_mask(z_mask, n)) & 1
    phased_signs = _ORACLE_SIGNS[(phase_exp + (x_mask & z_mask).bit_count()) % 4]
    return src ^ _index_mask(x_mask, n), phased_signs[parity]


def term_to_dense(term: PauliTerm) -> np.ndarray:
    dim = 1 << term.n
    dest, entries = term_permutation(term.n, term.x_mask, term.z_mask, term.phase_exp)
    out = np.zeros((dim, dim), dtype=complex)
    out[dest, np.arange(dim)] = entries
    return out


def term_apply(term: PauliTerm, vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec, dtype=complex)
    dest, entries = term_permutation(term.n, term.x_mask, term.z_mask, term.phase_exp)
    out = np.empty(1 << term.n, dtype=complex)
    out[dest] = entries * vec
    return out


def sum_to_dense(op: PauliSum) -> np.ndarray:
    """One vector per run of equal x mask, its terms added in sorted order."""
    dim = 1 << op.n
    src = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for x, run in groupby(sorted(op._terms.items()), key=lambda kc: kc[0][0]):
        acc = np.zeros(dim, dtype=complex)
        for (_, z), c in run:
            dest, entries = term_permutation(op.n, x, z)
            acc += c * entries
        out[dest, src] = acc
    return out


def sum_apply(op: PauliSum, vec: np.ndarray) -> np.ndarray:
    out = np.zeros(1 << op.n, dtype=complex)
    for term, c in op.items():
        out += c * term_apply(term, vec)
    return out


def symbolize_by_terms(op: PauliSum, symbol_map: dict[str, str]):
    """Term-by-term symbolize: a ``PauliTerm`` per term, ``letter(q)`` on
    every qubit and a freshly checked ``Setting`` per new symbol."""
    terms = {}
    constant = 0.0
    bindings = {}
    for term, coeff in op.items():
        if term.weight == 0:
            constant += coeff
            continue
        key = []
        for q in range(op.n):
            letter = term.letter(q)
            if letter == "I":
                continue
            if letter not in symbol_map:
                raise ValueError(f"no symbol mapped for Pauli letter {letter}")
            sym = (q, symbol_map[letter])
            key.append(sym)
            if sym not in bindings:
                bindings[sym] = Setting(
                    q, sym[1], PauliSum.from_strings([(letter, 1.0)], n=1))
        terms[tuple(sorted(key))] = terms.get(tuple(sorted(key)), 0.0) + coeff
    return BellExpression(op.n, terms, constant), bindings


def product_by_terms(a: PauliSum, b: PauliSum, scale: complex = 1.0) -> PauliSum:
    """scale * a @ b through ``PauliTerm`` products, pair by pair in sorted order."""
    acc = {}
    for ta, ca in a.items():
        for tb, cb in b.items():
            t = ta * tb
            acc[t.key()] = acc.get(t.key(), 0j) + scale * ca * cb * _I_POW[t.phase_exp]
    return _realize(acc, a.n)


def bits(a: np.ndarray) -> np.ndarray:
    """The raw 64-bit words of a float or complex array, for bit-exact checks."""
    return np.ascontiguousarray(a).view(np.uint64)


def chained_reconstruction(n: int, logical: str) -> PauliSum:
    """The logical Z or X of the two-qubit Bell basis, for every n >= 2.

    (1/n) * sum_k Z1((2k-2)pi/2n) Z2((shift + 2k-2)pi/2n), with shift 0 for
    ``logical="z"`` and n for ``"x"``: the logical X is (logical Z) * (i Y2),
    resolved over half-offset angles.
    """
    if logical not in ("z", "x"):
        raise ValueError(f"logical must be 'z' or 'x', got {logical!r}")
    shift = 0 if logical == "z" else n
    out = PauliSum.zero(2)
    for k in range(1, n + 1):
        za = xz_setting(0, "a", (2 * k - 2) * math.pi / (2 * n)).embed(2)
        zb = xz_setting(1, "b", (shift + 2 * k - 2) * math.pi / (2 * n)).embed(2)
        out = out + (1.0 / n) * product(za, zb)
    return out


def random_pure_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def check_density(rho: np.ndarray, atol: float = 1e-10) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        raise ValueError("density matrix is not Hermitian")
    vals = np.linalg.eigvalsh(rho)
    if vals[0] < -atol:
        raise ValueError(f"density matrix has negative eigenvalue {vals[0]:.3e}")
    if abs(np.trace(rho).real - 1.0) > 1e-12:
        raise ValueError("density matrix trace is not 1")
    return rho
