"""Classical and quantum bounds for Bell expressions.

Classical extrema are exact: the expression is multilinear in dichotomic
symbols, so the extrema over local hidden-variable models are attained at
deterministic +/-1 assignments, and those are enumerated in full. The
expression's ``factor_table`` is scattered into a per-party correlator tensor
whose contraction with each party's strategy table gives every vertex value
at once, in blocks of bounded size. A term's place in that tensor is a sum
of per-slot offsets over its factor-table row, so the scatter is one gather,
one row sum and one assignment, and every catalog expression is one block.

Quantum numbers come in three strengths: the largest eigenvalue of a concrete
Bell operator (a certified lower bound on the quantum maximum of the abstract
expression), the sum of absolute coefficients over dichotomic terms (an upper
bound), and a sum-of-squares identity check on the concrete operator, which
proves the claimed bound above its spectrum, so equal to its norm where the
eigenvalue meets it; it says nothing of the abstract expression. The
eigenvalue comes by one of two routes. Past 8 qubits a pseudo Pauli operator
B = beta (k . L), whose square is beta^2 |k|^2 times the code projector, is
certified from its stabilizer structure alone (``pseudo_pauli_certificate``):
bit operations on its term masks, through the group kernels of
``stabilizer``, with no dense matrix. Every other operator, and every
operator up to 8 qubits, takes ``top_eigenpair`` of its dense render, whose
value and vector are ``eigh``'s bit for bit, so every catalog row keeps its
digits. From 64 rows up it runs ``eigh``'s LAPACK steps but back-transforms
one eigenvector, not all of them: ``mermin:8`` and ``svetlichny:8`` solve in
less than half of ``eigh``'s time (one BLAS thread). The see-saw's 32 x 32
and smaller solves stay on ``eigh``.

The see-saw heuristic re-renders the Bell operator, and each symbol's
leave-one-out operator, after every setting update. A symbol's leave-one-out
operator holds no other setting of its party, so the sweep goes party by
party: one render gives the stack of that party's leave-one-out operators,
and batched partial traces and Bloch projections update all of its settings
at once. A setting's Bloch vector is read off the entries of its Hermitian
reduced operator h as (2 Re h01, -2 Im h01, Re h00 - Re h11), each zero +0.0,
which is tr(h sigma) over sigma = X, Y, Z bit for bit. Each render runs from
a plan cut once per call from the same ``factor_table`` (its rows, regrouped,
plus one term range per output operator) and from a stack of the current 2x2
setting matrices; updating a setting overwrites one slot of that stack. A
party's leave-one-out operators are B (x) I on that party, so its plan drops
the party and each B is rendered on the other n-1 parties, a quarter of the
work, and written into both diagonal blocks of the party's axis. Terms are
built party-major (each party's factor indices outermost, so every multiply
runs over a contiguous axis), one broadcast product per party for a chunk of
at most ``_RENDER_CHUNK_BYTES`` of terms, so memory stays a few operators
whatever the term count; the product buffers are allocated once per see-saw
call. Each operator's terms are summed in order into its own row of one
array, and the rows are transposed to (row, col) layout and written into the
stack once per render. The products and the sums follow a per-term Kronecker
chain, so the operators are bit-identical to it: dropping an identity factor
changes at most the sign of a zero, and a party's sums start from +0.0, so
every zero reads +0.0 in both. A plan whose coefficients are all +1 or -1,
and whose constant is not negative, folds them into the chain: each term's
product starts from its coefficient instead of 1, and no pass scales the
terms. Negation is exact and commutes with rounding, so each entry is the
scaled chain's up to the sign of a zero, and those signs vanish in the sums,
which start from +0.0 and never return -0.0. A negative constant leaves -0.0
off the diagonal of the sum's start, where a term's zero sign would show, so
that plan, like one with any other coefficient, scales its terms after the
chain.

Restarts draw random numbers only as they start, so every restart's starting
settings are drawn up front, in the order one restart after another would
draw them, and the restarts then advance through their sweeps together. Each
restart owns a row of one settings stack; one render of the running
restarts' rows builds all their operators, each restart's terms from the same
plan, restart after restart, and the products with the states, the partial
traces, the Bloch projections and the normalisations that follow are batched
over restarts as well. The eigensolve and the objective stay one call per
restart: the benchmark's trace of ``top_eigenpair`` counts one matrix per
call. Each restart computes what it would alone, bit for bit: the render sums
every operator's terms in the same order, and the batched steps act on each
restart's arrays exactly as on its own. Restarts run in batches whose
leave-one-out stacks hold at most ``_SEESAW_BATCH_BYTES``, so at large n they
run a few at a time, down to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, reduce
from operator import xor

import numpy as np

from .bell import BellExpression, Symbol
from .pauli import (
    _PAULI_2X2,
    DENSE_QUBIT_CAP,
    PauliSum,
    _check_cap,
    _signed_permutation,
    anticommutator_sum,
    dense_stack,
    fix_global_phase,
    top_eigenpair,
)
from .stabilizer import _code_state, _gf2_echelon, _grow_group

SYMBOL_BUDGET = 28
VERTEX_BLOCK = 1 << 20      # most vertex values held in memory at once
_AXIS_SETTINGS = 10         # a party with more settings spans several axes
BOUND_ATOL = 1e-9
_SOS_ATOL = 1e-10           # largest residual a verified SOS certificate leaves
_SEESAW_GAIN_TOL = 1e-9     # a restart converges once a sweep gains less
_RENDER_CHUNK_BYTES = 1 << 18   # most see-saw term matrices built at once
_SEESAW_BATCH_BYTES = 1 << 22   # most leave-one-out stack bytes per restart batch
_NEG_ZERO = complex(-0.0, -0.0)  # additive identity that keeps signed zeros
_DENSE_EIGH_QUBITS = 8      # quantum_lower_bound tries the certificate above this
_PSEUDO_PAULI_RTOL = 1e-13  # largest certificate residual per unit sum |c|


class BudgetError(ValueError):
    """Exact enumeration would exceed the symbol budget."""


class SeesawError(ArithmeticError):
    """A see-saw sweep lowered the objective by more than rounding allows."""


@dataclass
class ClassicalBounds:
    minimum: float
    maximum: float
    witness_min: dict[Symbol, int]
    witness_max: dict[Symbol, int]


@cache
def _strategy_table(k: int) -> np.ndarray:
    """The 2^k deterministic strategies of a party with k settings, built
    once per process and shared read-only.

    Rows run in lexicographic order (setting 0 most significant, +1 before
    -1). Column 0 is the identity; column j is the sign of setting j.
    """
    bits = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    table = np.hstack([np.ones((1 << k, 1)), 1.0 - 2.0 * bits])
    table.flags.writeable = False
    return table


def _snapped(coeffs: np.ndarray) -> np.ndarray:
    """``coeffs``, rounded when every one is within 1e-12 of an integer, so
    that integer coefficients give exact integer arithmetic."""
    rounded = coeffs.round()
    if coeffs.size and float(np.maximum.reduce(abs(coeffs - rounded))) < 1e-12:
        return rounded
    return coeffs


def _vertex_blocks(exprs: list[BellExpression], symbols: list[Symbol]):
    """Term values (constants excluded) of each of ``exprs`` at every +/-1
    assignment of ``symbols``.

    ``symbols`` is sorted and holds every symbol of every expression. Yields
    ``(start, values)`` in rank order, where ``values[l, i]`` is expression l
    at the assignment of lexicographic rank ``start + i`` (symbol 0 most
    significant, +1 before -1); no block holds more than VERTEX_BLOCK values,
    counting every expression.

    The terms form a coefficient tensor with one axis of length k_p + 1 per
    party (index 0 the identity), and the vertex values are that tensor
    contracted with every party's strategy table (a party with more than
    _AXIS_SETTINGS settings spans several axes). Only the trailing parties
    get a dense tensor: the expressions' factor tables stack into one, whose
    terms are grouped by their factor on the leading parties; each group is
    contracted over the trailing parties with the expression index beside
    the group's, and blocks of leading strategies combine the groups with
    their signs. A term's place in either tensor is a sum of per-slot
    offsets over its factor-table row; groups are the distinct places on the
    leading axes. Each expression's coefficients snap to integers or stay as
    they are on their own (``_snapped``).
    """
    # factor-table slot j (symbols[j - 1]) is setting local[j] of axis
    # axis_of[j], which holds counts[axis_of[j]] settings
    axis_of, local, counts = [0], [0], []
    for j, sym in enumerate(symbols):
        if not (j and symbols[j - 1][0] == sym[0] and counts[-1] < _AXIS_SETTINGS):
            counts.append(0)
        counts[-1] += 1
        axis_of.append(len(counts) - 1)
        local.append(counts[-1])
    tables = [_strategy_table(k) for k in counts]
    sizes = [len(table) for table in tables]

    n_exprs = len(exprs)
    stacked = [(slot, _snapped(c)) for slot, c in (e.factor_table(symbols) for e in exprs)]
    slots, coeffs = stacked[0] if n_exprs == 1 else map(np.concatenate, zip(*stacked))

    def places(axes: range, stride: int = 1) -> np.ndarray:
        # each term's flat index, times stride, in the C-order tensor over axes
        offset = {}
        for a in reversed(axes):
            offset[a] = stride
            stride *= counts[a] + 1
        offsets = np.array([j * offset.get(a, 0) for a, j in zip(axis_of, local)])
        return np.add.reduce(offsets[slots], 1)

    # fewest leading axes whose grouped trailing values fit in one block
    keys = np.zeros(1, np.intp)
    for lead in range(len(tables) + 1):
        if lead:
            keys, inverse = np.unique(places(range(lead)), return_inverse=True)
        n_trail = math.prod(sizes[lead:])
        if len(keys) * n_exprs * n_trail <= VERTEX_BLOCK:
            break
    n_groups = len(keys)
    if n_exprs > 1:
        which = np.repeat(np.arange(n_exprs), [len(c) for _, c in stacked])
        inverse = inverse * n_exprs + which if lead else which

    # axis order (trailing parties..., group and expression); each contraction
    # consumes the first axis and appends the strategy axis, ending at
    # (group and expression, strategies...)
    trail = np.zeros((*(k + 1 for k in counts[lead:]), n_groups * n_exprs))
    at = places(range(lead, len(tables)), n_groups * n_exprs)
    trail.reshape(-1)[at + inverse if n_groups * n_exprs > 1 else at] = coeffs
    for table in tables[lead:]:
        # a transposed view, where tensordot would copy the tensor
        trail = trail.reshape(table.shape[1], -1).T @ table.T
    if not lead:
        yield 0, trail.reshape(n_exprs, -1)
        return
    trail = trail.reshape(n_groups, n_exprs * n_trail)

    digits = np.unravel_index(keys, [k + 1 for k in counts[:lead]])
    lead_signs = [table[:, digit] for table, digit in zip(tables, digits)]
    n_lead = math.prod(sizes[:lead])
    step = max(1, VERTEX_BLOCK // max(n_exprs * n_trail, n_groups))
    for first in range(0, n_lead, step):
        rest = np.arange(first, min(first + step, n_lead))
        signs = np.ones((rest.size, n_groups))
        for a in reversed(range(lead)):
            rest, digit = np.divmod(rest, sizes[a])
            signs *= lead_signs[a][digit]
        values = (signs @ trail).reshape(len(signs), n_exprs, n_trail)
        yield first * n_trail, values.swapaxes(0, 1).reshape(n_exprs, -1)


def _assignment_from_rank(rank: int, symbols: list[Symbol]) -> dict[Symbol, int]:
    m = len(symbols)
    return {s: -1 if (rank >> (m - 1 - j)) & 1 else 1 for j, s in enumerate(symbols)}


def check_symbol_budget(m: int) -> None:
    """Raise BudgetError if exact enumeration of m symbols exceeds
    SYMBOL_BUDGET (read at call time). Nothing above the budget is enumerated
    or estimated: a sampled vertex value would be no bound."""
    if m > SYMBOL_BUDGET:
        raise BudgetError(
            f"{m} symbols exceeds the exact-enumeration budget of {SYMBOL_BUDGET}")


def classical_bounds(expr: BellExpression) -> ClassicalBounds:
    """Exact LHV extrema by full vertex enumeration (tensor contraction).

    Every deterministic +/-1 assignment is evaluated, by a one-expression
    ``_vertex_blocks`` pass; integer coefficients give exact integer
    arithmetic. Ties break to the lexicographically smallest assignment
    (symbols sorted, +1 preferred). Raises BudgetError above SYMBOL_BUDGET
    symbols.
    """
    symbols = expr.symbols
    m = len(symbols)
    check_symbol_budget(m)
    if m == 0:
        w: dict[Symbol, int] = {}
        return ClassicalBounds(expr.constant, expr.constant, w, dict(w))

    best_max = best_min = None
    for start, (values,) in _vertex_blocks([expr], symbols):
        hi, lo = int(values.argmax()), int(values.argmin())
        if best_max is None or values[hi] > best_max[0]:
            best_max = (float(values[hi]), start + hi)
        if best_min is None or values[lo] < best_min[0]:
            best_min = (float(values[lo]), start + lo)

    return ClassicalBounds(
        minimum=best_min[0] + expr.constant,
        maximum=best_max[0] + expr.constant,
        witness_min=_assignment_from_rank(best_min[1], symbols),
        witness_max=_assignment_from_rank(best_max[1], symbols),
    )


def _anticommute(u: int, w: int, n: int) -> int:
    """1 when the n-qubit strings with symplectic vectors u and w (x bits
    low, z bits high) anticommute, else 0."""
    full = (1 << n) - 1
    return ((u & full & w >> n) ^ (u >> n & w & full)).bit_count() & 1


def pseudo_pauli_certificate(op: PauliSum) -> tuple[float, np.ndarray] | None:
    """A lower bound on the largest eigenvalue of a pseudo Pauli operator and
    a unit witness, read off the operator's stabilizer structure; None when
    ``op`` does not have that structure.

    A pseudo Pauli operator is B = sum_j a_j r_j P: P = prod_i (I + s_i g_i)/2
    projects onto the code of n - 1 independent commuting signed strings (the
    stabilizer group S), and the 1 to 3 logical strings r_j commute with S,
    lie outside it and anticommute pairwise. Then B^2 = |a|^2 P and the
    largest eigenvalue is |a| (Gottesman, quant-ph/9705052). Its terms are
    the cosets r_j S, which this reads off the cached sorted mask arrays in
    O(T n) bit operations, with no dense matrix and no ``apply``:

    1. S is the part of span{t ^ t0} (over GF(2), t over the terms) that
       commutes with every term, from one small linear solve;
    2. the terms are 1, 2 or 3 full cosets of S, each term reduced to its
       coset's representative;
    3. the representatives lie outside S;
    4. S has n - 1 generators, so the code holds one logical qubit. Then
       the representatives anticommute pairwise: they are distinct nonzero
       classes of the plane that commutes with S, modulo S;
    5. the signs s_i come from the first coset, then each coset's a_j is the
       least-squares fit to its coefficients;
    6. the value is |a| - sum |residual|, a lower bound on the largest
       eigenvalue by Weyl's inequality whatever the coefficients are, each
       string having norm 1;
    7. it stands only when sum |residual| is at most ``_PSEUDO_PAULI_RTOL``
       times sum |c|.

    The witness is (I + A) applied to the code state of S and sign(a_1) r_1,
    A = sum_j a_j r_j / |a|: the +|a| eigenvector of the fitted operator
    sum_j a_j r_j P. That group and its state come from ``stabilizer``'s
    kernels (``_grow_group``, ``_code_state``), with ``_gf2_echelon`` also
    behind steps 1 and 4.
    """
    n = op.n
    if op.is_zero or 2 * n > 62:
        return None
    xs, zs, coeffs = op._sorted_arrays()
    full = (1 << n) - 1
    vecs = xs | zs << n
    span = _gf2_echelon(vecs ^ vecs[0])
    if len(span) > n + 1:
        return None
    # v in span commutes with every term iff it does with t0 and with the span:
    # row j holds span[j]'s anticommutation pattern above its own bit j, and
    # the echelon rows with no pattern bits are the commuting combinations
    tests, k = [*span, int(vecs[0])], len(span)
    rows = _gf2_echelon([sum(_anticommute(u, b, n) << i for i, u in enumerate(tests)) << k
                         | 1 << j for j, b in enumerate(span)])
    stab = [reduce(xor, (s for i, s in enumerate(span) if row >> i & 1))
            for row in rows if not row >> k]
    if len(stab) != n - 1:
        return None
    stab = _gf2_echelon(stab)
    # reduce each term t to its coset representative r: r prod_{i in used} g_i
    # is i^phase t
    label, used, phase = vecs, np.zeros_like(vecs), np.zeros_like(vecs)
    for i, g in enumerate(stab):
        hit = (label >> (g.bit_length() - 1)) & 1
        label = label ^ g * hit
        used |= hit << i
        phase += hit * ((g & full & g >> n).bit_count()
                        + 2 * (np.bitwise_count(label >> n & g & full) & 1))
    phase += np.bitwise_count(label & full & label >> n) - np.bitwise_count(xs & zs)
    labels, coset, counts = np.unique(label, return_inverse=True, return_counts=True)
    if labels.size > 3 or labels[0] == 0 or np.any(counts != 1 << (n - 1)):
        return None
    flip = (phase >> 1 & 1).astype(bool) ^ (coeffs < 0)
    first = np.flatnonzero(coset == 0)
    at = np.empty(1 << (n - 1), dtype=np.intp)
    at[used[first]] = first
    negs = sum(int(flip[at[1 << i]] ^ flip[at[0]]) << i for i in range(n - 1))
    along = np.where((np.bitwise_count(used & negs) + (phase >> 1)) & 1, -coeffs, coeffs)
    amps = np.array([math.fsum(along[coset == j].tolist()) for j in range(labels.size)])
    slack = float(np.abs(along - amps[coset] / (1 << (n - 1))).sum())
    if slack > _PSEUDO_PAULI_RTOL * float(np.abs(coeffs).sum()):
        return None
    norm = math.hypot(*amps.tolist())

    # the code state of S and sign(a_1) r_1
    signed = [(g, negs >> i & 1) for i, g in enumerate(stab)] + [(int(labels[0]), amps[0] < 0)]
    code = _code_state(n, _grow_group((g & full, g >> n, 2 * int(m)) for g, m in signed))
    witness = code.copy()
    for r, a in zip(labels.tolist(), amps.tolist()):
        dest, entries = _signed_permutation(n, np.array([r & full]), np.array([r >> n]))
        witness[dest[0]] += (a / norm) * entries[0] * code
    return norm - slack, fix_global_phase(witness / np.linalg.norm(witness))


def quantum_lower_bound(op: PauliSum, cap: int = DENSE_QUBIT_CAP,
                        dense: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of the operator and a witness eigenvector.

    This is the maximum over states for these fixed settings, hence a
    certified lower bound on the quantum maximum of the abstract expression.
    It takes one of two routes. Past ``_DENSE_EIGH_QUBITS`` qubits a pseudo
    Pauli operator (every recursive-family member and every ``build``
    logical form) gets ``pseudo_pauli_certificate``: |a| less the residual,
    from the stabilizer structure of its terms in O(T n) bit operations,
    exact when the coefficients are. Every other operator, and every
    operator up to 8 qubits, gets ``top_eigenpair`` of its dense render,
    which reads ``dense``, the caller's ``op.to_dense()``, if given:
    ``eigh``'s top pair, bit for bit (from 128 rows up, the vector to the
    last bit only with one BLAS thread), by ``eigh``'s LAPACK steps with one
    back-transformed column from 64 rows up. Either way the witness is a
    complex128 unit vector. ``cap`` bounds the qubit count, checked before
    either route.
    """
    _check_cap(op.n, cap)
    certified = pseudo_pauli_certificate(op) if op.n > _DENSE_EIGH_QUBITS else None
    if certified is not None:
        return certified
    return top_eigenpair(op.to_dense(cap) if dense is None else dense)


def dichotomic_term_bound(expr: BellExpression) -> float:
    """constant + sum |coefficients|: quantum upper bound for dichotomic settings.

    The sum runs term by term in term order, a Python float sum."""
    return expr.constant + float(sum(abs(c) for c in expr.factor_table()[1].tolist()))


# --- sum-of-squares check ---------------------------------------------------

SOS_MAX_TERMS = 8           # the pairing search tries up to 105 pairings


def sos_verify(terms: list[PauliSum], pairs, claimed_bound: float) -> float:
    """Residual of claimed * I - sum(terms) = (1/sqrt2) sum_pairs (I - (P+Q)/sqrt2)^2.

    The largest entry of the difference of the two sides, on the dense
    operators. Raises ValueError unless ``pairs`` uses every term index
    exactly once.
    """
    if sorted(i for pair in pairs for i in pair) != list(range(len(terms))):
        raise ValueError("pairs must use every term index exactly once")
    dense = dense_stack(terms)
    eye = np.eye(dense.shape[1])
    b = np.zeros(eye.shape, dtype=complex)
    for d in dense:
        b += d
    rhs = np.zeros(eye.shape, dtype=complex)
    root2 = math.sqrt(2)
    for i, j in pairs:
        s = eye - (dense[i] + dense[j]) / root2
        rhs += s @ s
    rhs /= root2
    return float(np.max(np.abs(claimed_bound * eye - b - rhs)))


def _pairings(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for k, partner in enumerate(rest):
        remaining = rest[:k] + rest[k + 1:]
        for tail in _pairings(remaining):
            yield [(first, partner)] + tail


def sos_pairing_search(terms: list[PauliSum], claimed_bound: float
                       ) -> tuple[tuple[tuple[int, int], ...] | None, float]:
    """The first pairing of ``terms`` whose SOS identity holds, and its residual.

    The identity needs a pairing's anticommutators to sum to zero, since P^2
    and Q^2 are multiples of I; only such a pairing is checked by
    ``sos_verify``. Each anticommutator is computed once, on first use.
    Returns (None, inf) when no pairing verifies.
    """
    if len(terms) > SOS_MAX_TERMS:
        raise ValueError(f"pairing search is limited to {SOS_MAX_TERMS} terms")
    if len(terms) % 2:
        raise ValueError("need an even number of terms")
    zero, anticomms = PauliSum.zero(terms[0].n), {}
    for pairing in _pairings(list(range(len(terms)))):
        for i, j in pairing:
            if (i, j) not in anticomms:
                anticomms[i, j] = anticommutator_sum(terms[i], terms[j])
        if sum((anticomms[pair] for pair in pairing), zero).is_zero:
            residual = sos_verify(terms, pairing, claimed_bound)
            if residual <= _SOS_ATOL:
                return tuple(pairing), residual
    return None, math.inf


# --- see-saw heuristic ---------------------------------------------------------

_AXES = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))


def _bloch_matrix(bloch: np.ndarray) -> np.ndarray:
    """x X + y Y + z Z for each Bloch vector along the last axis of ``bloch``."""
    bx, by, bz = (bloch[..., c, None, None] for c in range(3))
    return bx * _PAULI_2X2["X"] + by * _PAULI_2X2["Y"] + bz * _PAULI_2X2["Z"]


@dataclass
class SeesawResult:
    value: float
    best_bloch: dict[Symbol, tuple[float, float, float]]
    trajectories: list[list[float]] = field(default_factory=list)


def _render_plan(expr: BellExpression, symbols: list[Symbol], party: int | None = None
                 ) -> tuple[np.ndarray, np.ndarray, list[int], float, int | None, bool]:
    """Compile ``expr`` for repeated dense renders with changing settings.

    Returns ``(index, coeffs, ends, constant, party, unit)``: ``index[t, q]``
    picks term t's factor on the q-th rendered party from a ``mats`` stack (0
    the identity, j the matrix of ``symbols[j - 1]``), ``coeffs`` holds the
    term coefficients, output operator s sums terms ``ends[s - 1]:ends[s]``
    (from 0 for s = 0), and ``constant`` multiplies the identity the first
    operator starts from. Without ``party`` there is one operator, ``expr``
    itself, and every party is rendered. With ``party`` there is one per
    symbol of that party, in ``symbols`` order: the terms holding the symbol
    and no constant. Its factor on ``party`` is then the identity in every
    term, so that column is dropped and ``_render`` places the operators on
    the other parties beside an identity on ``party``. ``unit`` is whether
    every one of the plan's coefficients is +1 or -1, so that ``_render``
    starts each term's product from its coefficient instead of scaling it.
    """
    index, coeffs = expr.factor_table(symbols)
    ends, constant = [len(coeffs)], expr.constant
    if party is not None:
        rows = [np.flatnonzero(index[:, party] == j)
                for j, sym in enumerate(symbols, 1) if sym[0] == party]
        order = np.concatenate([np.zeros(0, np.intp), *rows])
        index, coeffs = np.delete(index[order], party, axis=1), coeffs[order]
        ends, constant = np.cumsum([len(r) for r in rows], dtype=int).tolist(), 0.0
    unit = constant >= 0 and bool(np.all(abs(coeffs) == 1.0))
    # complex, so scaling the terms in place needs no cast buffer
    return index, coeffs.astype(complex), ends, constant, party, unit


def _chunk_terms(term_size: int) -> int:
    """Terms of ``term_size`` entries built at once by ``_render``."""
    return max(1, _RENDER_CHUNK_BYTES // (16 * term_size))


def _render_workspace(plans, restarts: int) -> tuple[np.ndarray, np.ndarray]:
    """The two term-product buffers that ``_render`` of any of ``plans`` for up
    to ``restarts`` restarts works in: each party's product reads one and
    writes the other."""
    size = 1
    for index, *_ in plans:
        term_size = 4 ** index.shape[1]
        size = max(size, min(restarts * len(index), _chunk_terms(term_size)) * term_size)
    return np.empty(size, dtype=complex), np.empty(size, dtype=complex)


def _party_major_products(factors: np.ndarray, buffers=None, start=None) -> np.ndarray:
    """Tensor products over p of the 2x2 ``factors[t, p]``, flat, party-major.

    Term t's entries run over the axes (a_{n-1}, b_{n-1}, ..., a_0, b_0): each
    party's factor goes outermost, so every multiply runs over a contiguous
    inner axis, and the product so far comes first, as in a Kronecker product.
    Term t's chain starts from ``start[t]``, 1 without ``start``. With
    ``buffers``, a pair of flat arrays each large enough for the result, the
    products alternate between them and the result is a view of one.
    """
    size, n = factors.shape[:2]
    terms = np.ones((size, 1), dtype=complex) if start is None else start[:, None]
    for p in range(n):
        shape = (size, 2, 2, terms.shape[1])
        out = None if buffers is None else \
            buffers[p % 2][:math.prod(shape)].reshape(shape)
        terms = np.multiply(terms[:, None, None, :], factors[:, p, :, :, None],
                            out=out).reshape(size, -1)
    return terms


def _render(plan, mats: np.ndarray, work=None) -> np.ndarray:
    """Stack of the dense operators of a ``_render_plan`` for the factors in ``mats``.

    ``mats`` is a ``(restarts, slots, 2, 2)`` stack of each restart's
    settings, or one restart's ``(slots, 2, 2)``; the result holds every
    restart's operators, restart after restart. The terms of all restarts
    are built in that order, party-major, a chunk of at most
    ``_RENDER_CHUNK_BYTES`` at a time, and scaled in place; a ``unit`` plan
    starts each term's chain from its coefficient instead, which gives the
    same sums bit for bit (module docstring). Each operator is
    summed in term order into its own row of one ``(operators, 4**m)`` array,
    which starts from the plan's constant times I, or +0.0: in every chunk
    the row is added into the operator's first term there and the terms are
    reduced back into it. The reduction starts from -0.0, which, unlike
    ``np.add.reduce``'s default +0.0, leaves a -0.0 entry as the Kronecker
    chain has it. After the last chunk the rows are transposed to (row, col)
    layout in one copy. A party plan's operators are rendered on the other
    parties and written into both diagonal blocks of the party's axis, one
    assignment each; the other blocks stay +0.0, as the Kronecker chain has
    them there (its party sums start from +0.0 and never return -0.0).
    ``work`` is a ``_render_workspace`` for the plan and at least this many
    restarts; without it one is allocated.
    """
    index, coeffs, ends, constant, party, unit = plan
    mats = mats.reshape(-1, *mats.shape[-3:])
    restarts, (n_terms, m) = len(mats), index.shape     # m parties rendered
    n = m if party is None else m + 1
    term_size = 4 ** m
    products = work if work is not None else _render_workspace([plan], restarts)
    factors = np.take(mats, index, axis=1).reshape(restarts * n_terms, m, 2, 2)
    coeffs = np.concatenate([coeffs] * restarts)
    ends = [r * n_terms + end for r in range(restarts) for end in ends]
    sums = np.zeros((len(ends), term_size), dtype=complex)
    if constant:
        sums[:] = constant * _party_major_products(mats[:1, np.zeros(n, np.intp)])[0]
    chunk, s = _chunk_terms(term_size), 0
    for lo in range(0, len(factors), chunk):
        if unit:
            terms = _party_major_products(factors[lo:lo + chunk], products,
                                          coeffs[lo:lo + chunk])
        else:
            terms = _party_major_products(factors[lo:lo + chunk], products)
            terms *= coeffs[lo:lo + chunk, None]
        hi = lo + len(terms)
        a = lo
        while a < hi:
            while ends[s] <= a:
                s += 1
            b = min(ends[s], hi)
            part = terms[a - lo:b - lo]
            part[0] += sums[s]
            np.add.reduce(part, axis=0, initial=_NEG_ZERO, out=sums[s])
            a = b
    # (a_{m-1}, b_{m-1}, ..., a_0, b_0) -> (a_0, ..., a_{m-1}, b_0, ..., b_{m-1})
    rows = sums.reshape(len(ends), *(2,) * 2 * m).transpose(
        0, *range(2 * m - 1, 0, -2), *range(2 * m, 1, -2))
    if party is None:
        return rows.reshape(len(ends), 1 << n, 1 << n)
    stack = np.zeros((len(ends), 1 << n, 1 << n), dtype=complex)
    axes = stack.reshape(len(ends), *(2,) * 2 * n)
    for a in (0, 1):
        # the rendered parties' row and column axes at a_party = b_party = a
        axes[(slice(None),) * (1 + party) + (a,) + (slice(None),) * (n - 1) + (a,)] = rows
    return stack


def _partial_trace_keep(m: np.ndarray, party: int, n: int) -> np.ndarray:
    """Reduced 2x2 matrices on ``party`` of a stack of n-qubit operators."""
    left = 1 << party
    right = 1 << (n - party - 1)
    m7 = m.reshape(len(m), left, 2, right, left, 2, right)
    return np.einsum("saibajb->sij", m7)


def _starting_blochs(symbols: list[Symbol], restarts: int, seed: int) -> np.ndarray:
    """Every restart's starting Bloch vectors, ``[restart, symbol]``.

    Restart 0 is axis-aligned: per party, symbols take the z, x, y axes in
    sorted order. Each later restart draws one normal 3-vector per symbol, in
    restart order and then symbol order, and normalises it.
    """
    blochs = np.empty((restarts, len(symbols), 3))
    per_party_count: dict[int, int] = {}
    for j, (party, _) in enumerate(symbols):
        k = per_party_count.get(party, 0)
        blochs[0, j] = _AXES[k % 3]
        per_party_count[party] = k + 1
    v = np.random.default_rng(seed).normal(size=(restarts - 1, len(symbols), 3))
    blochs[1:] = v / np.sqrt(np.vecdot(v, v))[..., None]
    return blochs


def seesaw_optimize(expr: BellExpression, restarts: int = 16, seed: int = 0,
                    max_sweeps: int = 500, cap: int = DENSE_QUBIT_CAP) -> SeesawResult:
    """Alternating maximization over the state and per-symbol Bloch vectors.

    Restart 0 is an axis-aligned warm start (per party, symbols take the z, x,
    y axes in sorted order); remaining restarts are random unit vectors. The
    objective is nondecreasing within each restart, and a sweep that lowers it
    by more than 1e-12 * max(1, |value|) raises SeesawError naming the
    restart (the first of that sweep, when several drop at once); the best
    converged value over restarts is returned, the first restart reaching it
    giving ``best_bloch``. Raises QubitCapError, before any operator is built,
    when the expression has more than ``cap`` parties.

    Restarts run together, in batches of at most ``_SEESAW_BATCH_BYTES`` of
    leave-one-out stacks: each sweep renders each party's stacks, and the
    operators, in one call on the settings of every restart still running,
    and a restart leaves its batch when it converges or reaches
    ``max_sweeps``. Every restart computes what it would alone, bit for bit.
    """
    n = expr.parties
    _check_cap(n, cap)
    symbols = expr.symbols
    n_restarts, width, dim = max(1, restarts), len(symbols) + 1, 1 << n
    # a term holds one symbol per party at most, so a party's leave-one-out
    # operators depend only on the other parties' settings: each party's are
    # rendered together, and updating them together is a symbol-by-symbol sweep
    parties, plans = [], [_render_plan(expr, symbols)]
    for p in range(n):
        slots = [j for j, sym in enumerate(symbols, 1) if sym[0] == p]
        if slots:
            parties.append((p, np.array(slots)))
            plans.append(_render_plan(expr, symbols, party=p))
    most = max((len(slots) for _, slots in parties), default=1)
    batch = min(n_restarts, max(1, _SEESAW_BATCH_BYTES // (16 * dim * dim * most)))
    work = _render_workspace(plans, batch)
    # restart r's factors are mats[r], the identity first
    blochs = _starting_blochs(symbols, n_restarts, seed)
    mats = np.empty((n_restarts, width, 2, 2), dtype=complex)
    mats[:, 0] = _PAULI_2X2["I"]
    mats[:, 1:] = _bloch_matrix(blochs)
    values = [-math.inf] * n_restarts
    trajectories: list[list[float]] = [[] for _ in range(n_restarts)]

    for first in range(0, n_restarts if max_sweeps > 0 else 0, batch):
        active = np.arange(first, min(first + batch, n_restarts))
        operators = _render(plans[0], mats[active], work)
        while len(active):
            states = [top_eigenpair(operator)[1] for operator in operators]
            del operators  # free before the party renders, to keep a sweep's peak
            kets = np.stack(states)
            rho = kets[:, :, None] * kets.conj()[:, None, :]
            for (p, slots), plan in zip(parties, plans[1:]):
                stack = _render(plan, mats[active], work).reshape(
                    len(active), len(slots), dim, dim)
                ptr = _partial_trace_keep((rho[:, None] @ stack).reshape(-1, dim, dim), p, n)
                # u = tr(h sigma) over sigma = X, Y, Z for h = (ptr + ptr^H) / 2:
                # (2 Re h01, -2 Im h01, Re h00 - Re h11), where Re h_ii = Re ptr_ii;
                # + 0.0 makes each zero +0.0, as the trace has it
                h01 = (ptr[:, 0, 1] + ptr[:, 1, 0].conj()) / 2
                u = np.stack([2 * h01.real, -2 * h01.imag,
                              ptr[:, 0, 0].real - ptr[:, 1, 1].real], axis=-1) + 0.0
                u = u.reshape(len(active), len(slots), 3)
                norm = np.sqrt(np.vecdot(u, u))
                a, k = np.nonzero(norm > 1e-13)
                rows, cols = active[a], slots[k]
                blochs[rows, cols - 1] = u[a, k] / norm[a, k, None]
                mats[rows, cols] = _bloch_matrix(blochs[rows, cols - 1])
            operators = _render(plans[0], mats[active], work)
            running = []
            for i, (r, state, operator) in enumerate(zip(active, states, operators)):
                value, new_value = values[r], float(np.vdot(state, operator @ state).real)
                trajectories[r].append(new_value)
                if new_value < value - 1e-12 * max(1.0, abs(value)):
                    raise SeesawError(f"see-saw objective of restart {r} decreased "
                                      f"from {value!r} to {new_value!r}")
                values[r] = new_value
                converged = new_value - value < _SEESAW_GAIN_TOL
                if not converged and len(trajectories[r]) < max_sweeps:
                    running.append(i)
            if len(running) < len(active):
                active, operators = active[running], operators[running]

    best_value = -math.inf
    best_bloch: dict[Symbol, tuple[float, float, float]] = {}
    for value, bloch in zip(values, blochs):
        if value > best_value:
            best_value = value
            best_bloch = {s: tuple(float(c) for c in b) for s, b in zip(symbols, bloch)}
    return SeesawResult(best_value, best_bloch, trajectories)


# --- aggregated report ----------------------------------------------------------

@dataclass
class BoundsReport:
    """Everything the pipeline can certify about one Bell expression."""

    classical_min: float
    classical_max: float
    classical_witness: dict[Symbol, int]
    quantum_lower: float
    rough_bound: float
    dichotomic_bound: float
    sos_status: str
    seesaw_value: float | None

    @property
    def violation(self) -> bool:
        return bool(self.quantum_lower > self.classical_max + BOUND_ATOL)

    def to_dict(self) -> dict:
        return {
            "classical_min": float(self.classical_min),
            "classical_max": float(self.classical_max),
            "classical_witness": {f"{lab}_{p}": int(v) for (p, lab), v
                                  in sorted(self.classical_witness.items())},
            "quantum_lower": float(self.quantum_lower),
            "rough_bound": float(self.rough_bound),
            "dichotomic_bound": float(self.dichotomic_bound),
            "sos_status": self.sos_status,
            "seesaw_value": None if self.seesaw_value is None else float(self.seesaw_value),
            "violation": self.violation,
        }
