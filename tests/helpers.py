"""Small constructions and comparisons that only the tests use."""

import functools
import json
import math
from itertools import groupby
from itertools import product as iter_product

import numpy as np

from bellforge import bounds
from bellforge.bell import (
    BellExpression,
    DecomposedOperator,
    Setting,
    _letter_setting,
    xz_setting,
)
from bellforge.logical import LogicalPaulis
from bellforge.pauli import (
    _BITS_LETTER,
    _I_POW,
    DENSE_QUBIT_CAP,
    PauliSum,
    PauliTerm,
    _check_cap,
    _realize,
    check_hermitian,
    fix_global_phase,
    product,
)
from bellforge.stabilizer import (
    GraphSpec,
    LogicalBasis,
    StabilizerGroup,
    _signed_sum,
    basis_from_flip,
    bell_basis,
    graph_state_generators,
)


def basis_from_kets(zero, one) -> LogicalBasis:
    """A logical basis from two kets, each normalised."""
    zero = np.asarray(zero, dtype=complex)
    n = int(round(np.log2(zero.size)))
    return LogicalBasis(n, zero / np.linalg.norm(zero),
                        np.asarray(one, dtype=complex) / np.linalg.norm(one))


def loop5_basis() -> LogicalBasis:
    """Five-qubit loop-graph code basis: |0> = |L5>, |1> = Z^(x5) |L5>."""
    group = graph_state_generators(GraphSpec.loop(5))
    return basis_from_flip(group, PauliTerm.from_string("ZZZZZ"))


def expand_state(vec, k: int, n: int, rule: LogicalBasis) -> np.ndarray:
    """Replace qubit k of an n-qubit state by its logical image: |0> and |1>
    become the rule's kets. The paper's state expansion; ``recursive``
    expands operators only, and this is the oracle for the code space they
    act on."""
    if not 0 <= k < n:
        raise ValueError(f"qubit {k} outside range 0..{n - 1}")
    left, right = 1 << k, 1 << (n - 1 - k)
    kets = np.vstack([rule.zero_ket, rule.one_ket])   # (2, 2^rule.n)
    t = np.asarray(vec, dtype=complex).reshape(left, 2, right)
    out = np.einsum("abc,bd->adc", t, kets)
    return out.reshape(left * (1 << rule.n) * right)


@functools.cache
def level_kets(n: int) -> LogicalBasis:
    """The code basis of ``build_level(n)``: the physical qubit at n = 1,
    then level n - 1's kets expanded at their last qubit by ``bell_basis()``.
    Built once per process; the kets are read-only."""
    if n == 1:
        return LogicalBasis(1, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    prev = level_kets(n - 1)
    return LogicalBasis(n, *(expand_state(ket, n - 2, n - 1, bell_basis())
                             for ket in (prev.zero_ket, prev.one_ket)))


def bell_kets_typed() -> tuple[np.ndarray, np.ndarray]:
    """The Bell-basis kets typed out amplitude by amplitude:
    |0> = (|00>+|11>)/sqrt2, |1> = (|01>-|10>)/sqrt2. The reference for
    ``bell_basis()``, which derives them from a stabilizer group and a flip."""
    r = 1 / np.sqrt(2)
    zero = np.array([r, 0, 0, r], dtype=complex)
    one = np.array([0, r, -r, 0], dtype=complex)
    return zero, one


def ghz3_kets_typed() -> tuple[np.ndarray, np.ndarray]:
    """The GHZ3-basis kets typed out amplitude by amplitude; the reference
    for ``ghz3_basis()``."""
    zero = np.zeros(8, dtype=complex)
    one = np.zeros(8, dtype=complex)
    # |0> = [ |0>(|00>-|11>) - |1>(|01>+|10>) ] / 2
    zero[0b000], zero[0b011] = 0.5, -0.5
    zero[0b101], zero[0b110] = -0.5, -0.5
    # |1> = [ |0>(|01>+|10>) + |1>(|00>-|11>) ] / 2
    one[0b001], one[0b010] = 0.5, 0.5
    one[0b100], one[0b111] = 0.5, -0.5
    return zero, one


def gray_code_elements(s: StabilizerGroup) -> list[PauliTerm]:
    """All 2^n group elements, sign included, by a Gray-code walk: one
    ``PauliTerm`` product per element. The oracle for ``elements()``."""
    current = PauliTerm.identity(s.n)
    out = [current]
    for k in range(1, 1 << s.n):
        flipped = (k & -k).bit_length() - 1   # the bit that k's Gray code flips
        current = current * s.generators[flipped]
        out.append(current)
    return out


def commuting_split(s: StabilizerGroup, zc: PauliTerm
                    ) -> tuple[list[PauliTerm], list[PauliTerm]]:
    """Group elements split into (commuting, anticommuting) halves w.r.t. zc,
    one ``PauliTerm.commutes`` test each."""
    comm, anti = [], []
    for e in gray_code_elements(s):
        (comm if e.commutes(zc) else anti).append(e)
    return comm, anti


def logical_paulis_by_terms(group: StabilizerGroup, flip: PauliTerm
                            ) -> dict[str, PauliSum]:
    """The four symbolic logical operators one ``PauliTerm`` at a time: Z the
    anticommuting half, ident the commuting half C, X each c * flip and Y
    each (i * flip * z) * c for the first anticommuting z, weighted 2/2^n.
    The oracle for ``logical_paulis_symbolic``."""
    comm, anti = commuting_split(group, flip)
    w = 2.0 / (1 << group.n)
    flip_z = flip * anti[0]
    i_flip_z = PauliTerm(group.n, flip_z.x_mask, flip_z.z_mask, flip_z.phase_exp + 1)
    return {"z": PauliSum.from_terms(((e, w) for e in anti), n=group.n),
            "x": PauliSum.from_terms(((e * flip, w) for e in comm), n=group.n),
            "y": PauliSum.from_terms(((i_flip_z * e, w) for e in comm), n=group.n),
            "ident": PauliSum.from_terms(((e, w) for e in comm), n=group.n)}


def seeded_groups(rng: np.random.Generator, n: int, count: int = 3
                  ) -> list[StabilizerGroup]:
    """``count`` random graph groups on n qubits, each also with random
    generator signs and, for n >= 2, rewritten by 2n random generator
    products g_i <- g_i g_j, which puts Y letters in the generators but
    leaves the group, and its real projector, as it was. Last comes that
    group conjugated by the phase gate S (X -> Y, Y -> -X) on a random
    nonempty set of qubits: a group with odd-Y elements, whose projector is
    complex."""
    groups = []
    for _ in range(count):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        plain = graph_state_generators(GraphSpec.from_edges(n, edges))
        signed = [PauliTerm(n, g.x_mask, g.z_mask, 2 * int(rng.integers(2)))
                  for g in plain.generators]
        groups += [plain, StabilizerGroup(n, tuple(signed))]
        if n >= 2:
            for _ in range(2 * n):
                i, j = rng.choice(n, size=2, replace=False)
                signed[i] = signed[i] * signed[j]
            groups.append(StabilizerGroup(n, tuple(signed)))
        s = int(rng.integers(1, 1 << n))
        groups.append(StabilizerGroup(n, tuple(
            PauliTerm(n, g.x_mask, g.z_mask ^ (g.x_mask & s),
                      g.phase_exp + 2 * (g.x_mask & g.z_mask & s).bit_count())
            for g in signed)))
    return groups


def expand_projector(s: StabilizerGroup, cap: int = DENSE_QUBIT_CAP) -> PauliSum:
    """(1/2^n) * sum of all group elements: the stabilized-state projector."""
    _check_cap(s.n, cap)
    return _signed_sum(s.n, *s._arrays, 1.0 / (1 << s.n))


def state_vector_dense(s: StabilizerGroup) -> np.ndarray:
    """The stabilized state read off the dense projector: its first
    largest-diagonal column, normalised and phase-fixed. The oracle for
    ``stabilizer.state_vector``, which builds no matrix."""
    proj = expand_projector(s).to_dense()
    vec = proj[:, int(np.argmax(np.real(np.diag(proj))))]
    return fix_global_phase(vec / np.linalg.norm(vec))


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


def evaluate(expr: BellExpression, assignment: dict) -> float:
    """The value at one assignment by a direct term walk, not
    ``factor_table``, so it checks the vertex enumeration independently."""
    total = expr.constant
    for key, coeff in expr.terms.items():
        v = coeff
        for sym in key:
            v *= assignment[sym]
        total += v
    return total


def classical_bounds_bruteforce(expr: BellExpression) -> tuple[float, float]:
    """Direct per-vertex re-evaluation; the independent oracle for tests."""
    symbols = expr.symbols
    lo, hi = math.inf, -math.inf
    for values in iter_product((1, -1), repeat=len(symbols)):
        v = evaluate(expr, dict(zip(symbols, values)))
        lo, hi = min(lo, v), max(hi, v)
    return lo, hi


def vertex_blocks_one(expr: BellExpression, symbols):
    """The one-expression vertex kernel as it stood before it took a stack of
    expressions, kept as the oracle for ``bounds._vertex_blocks`` at one
    expression: ``(start, values)`` in rank order, ``values[i]`` the term
    values at the assignment of rank ``start + i``. Reads ``VERTEX_BLOCK`` and
    ``_AXIS_SETTINGS`` from ``bounds`` at call time."""
    # factor-table slot j (symbols[j - 1]) is setting local[j] of axis axis_of[j]
    axis_of, local = [-1], [0]
    for j, sym in enumerate(symbols):
        same = j and symbols[j - 1][0] == sym[0] and local[-1] < bounds._AXIS_SETTINGS
        axis_of.append(axis_of[-1] + (not same))
        local.append(local[-1] + 1 if same else 1)
    tables = [bounds._strategy_table(k) for k in np.bincount(axis_of[1:])]
    sizes = [len(table) for table in tables]

    slots, coeffs = expr.factor_table(symbols)
    if coeffs.size and float(np.max(np.abs(coeffs - np.round(coeffs)))) < 1e-12:
        coeffs = np.round(coeffs)  # exact integer arithmetic when possible
    index = np.zeros((len(coeffs), len(tables)), dtype=np.intp)
    term, party = np.nonzero(slots)
    j = slots[term, party]
    index[term, np.take(axis_of, j)] = np.take(local, j)

    # fewest leading axes whose grouped trailing values fit in one block
    lead_keys, inverse = np.zeros((1, 0), np.intp), np.zeros(len(coeffs), np.intp)
    for lead in range(len(tables) + 1):
        if lead:
            lead_keys, inverse = np.unique(index[:, :lead], axis=0,
                                           return_inverse=True)
        n_trail = math.prod(sizes[lead:])
        if len(lead_keys) * n_trail <= bounds.VERTEX_BLOCK:
            break
    n_groups = len(lead_keys)

    # axis order (trailing parties..., group); each contraction consumes the
    # first axis and appends the strategy axis, ending at (group, strategies...)
    trail = np.zeros((*(t.shape[1] for t in tables[lead:]), n_groups))
    trail[(*index[:, lead:].T, inverse.reshape(-1))] = coeffs
    for table in tables[lead:]:
        # a transposed view, where tensordot would copy the tensor
        trail = trail.reshape(table.shape[1], -1).T @ table.T
    if not lead:
        yield 0, trail.reshape(-1)
        return
    trail = trail.reshape(n_groups, n_trail)

    lead_signs = [tables[a][:, lead_keys[:, a]] for a in range(lead)]
    n_lead = math.prod(sizes[:lead])
    step = max(1, bounds.VERTEX_BLOCK // max(n_trail, n_groups))
    for first in range(0, n_lead, step):
        rest = np.arange(first, min(first + step, n_lead))
        signs = np.ones((rest.size, n_groups))
        for a in reversed(range(lead)):
            rest, digit = np.divmod(rest, sizes[a])
            signs *= lead_signs[a][digit]
        yield first * n_trail, (signs @ trail).reshape(-1)


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
    every qubit and a freshly checked ``Setting`` per new symbol; bindings
    follow the expression's symbols."""
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
    expr = BellExpression(op.n, terms, constant)
    return expr, {sym: bindings[sym] for sym in expr.symbols}


def symbolize_by_masks(op: PauliSum, symbol_map: dict[str, str]):
    """Mask-walking symbolize: the terms in sorted (x, z) order, in each only
    the qubits of its support, lowest first, through a dict of term keys;
    bindings follow the expression's symbols."""
    labels = [symbol_map[letter] for letter in "XYZ" if letter in symbol_map]
    if len(set(labels)) != len(labels):
        raise ValueError("symbol map sends two Pauli letters to the same label: "
                         f"{symbol_map!r}")
    terms = {}
    constant = 0.0
    bindings = {}
    for (x, z), coeff in sorted(op._terms.items()):
        if not x | z:
            constant += coeff
            continue
        key = []
        support = x | z
        while support:
            q = (support & -support).bit_length() - 1
            support ^= 1 << q
            letter = _BITS_LETTER[(x >> q) & 1, (z >> q) & 1]
            if letter not in symbol_map:
                raise ValueError(f"no symbol mapped for Pauli letter {letter}")
            sym = (q, symbol_map[letter])
            key.append(sym)
            if sym not in bindings:
                bindings[sym] = _letter_setting(*sym, letter)
        terms[tuple(key)] = coeff
    expr = BellExpression(op.n, terms, constant)
    return expr, {sym: bindings[sym] for sym in expr.symbols}


def factor_table_by_terms(expr: BellExpression, symbols):
    """``expr.factor_table(symbols)`` by a walk over the ``terms`` dict."""
    slot = {sym: j for j, sym in enumerate(symbols, 1)}
    index = np.zeros((len(expr.terms), expr.parties), dtype=np.intp)
    for t, key in enumerate(expr.terms):
        for sym in key:
            index[t, sym[0]] = slot[sym]
    return index, np.array(list(expr.terms.values()), dtype=float)


def product_by_terms(a: PauliSum, b: PauliSum, scale: complex = 1.0) -> PauliSum:
    """scale * a @ b through ``PauliTerm`` products, pair by pair in sorted order."""
    acc = {}
    for ta, ca in a.items():
        for tb, cb in b.items():
            t = ta * tb
            acc[t.key()] = acc.get(t.key(), 0j) + scale * ca * cb * _I_POW[t.phase_exp]
    return _realize(acc, a.n)


def render_terms_by_products(expr: BellExpression,
                             bindings: dict[tuple[int, str], Setting]) -> list[PauliSum]:
    """``render_terms`` by the product route: per term, the coefficient as an
    identity sum times each bound setting's embedding, one exact ``product``
    at a time in party order."""
    out = []
    for key, coeff in expr.terms.items():
        acc = PauliSum.identity(expr.parties, coeff)
        for sym in key:
            acc = product(acc, bindings[sym].embed(expr.parties))
        out.append(acc)
    return out


def decomposed_terms_by_products(dec: DecomposedOperator) -> list[PauliSum]:
    """One operator per product of ``dec``, in product order:
    coeff * product(setting.embed(n), rest), the product route."""
    return [coeff * product(dec.settings[s_idx].embed(dec.n),
                            PauliSum.from_terms([(rest, 1.0)]))
            for coeff, s_idx, rest in dec.products]


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


def random_densities(rng: np.random.Generator, samples: int, dim: int) -> np.ndarray:
    """``samples`` random dim x dim densities G G^dagger / tr(G G^dagger), G's
    real parts drawn first, then its imaginary parts: the density route that
    the Monte-Carlo sweeps replace by drawing expectations directly."""
    shape = (samples, dim, dim)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rhos = np.einsum("kij,klj->kil", g, g.conj())
    return rhos / np.einsum("kii->k", rhos).real[:, None, None]


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
