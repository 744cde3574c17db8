"""Classical and quantum bounds for Bell expressions.

Classical extrema are exact: the expression is multilinear in dichotomic
symbols, so the extrema over local hidden-variable models are attained at
deterministic +/-1 assignments, and those are enumerated in full. The terms
are compiled into a per-party correlator tensor whose contraction with each
party's strategy table gives every vertex value at once, in blocks of bounded
size.

Quantum numbers come in three strengths: the largest eigenvalue of a concrete
Bell operator (a certified lower bound on the quantum maximum of the abstract
expression), the sum of absolute coefficients over dichotomic terms (an upper
bound), and a sum-of-squares certificate check that can pin the maximum
exactly.

The see-saw heuristic re-renders the Bell operator, and each symbol's
leave-one-out operator, after every setting update. A symbol's leave-one-out
operator holds no other setting of its party, so the sweep goes party by
party: one render gives the stack of that party's leave-one-out operators,
and batched partial traces and Bloch projections update all of its settings
at once. Each render runs from a plan compiled once per call, a table of
factor indices per term and party plus one term range per output operator,
and from a stack of the current 2x2 setting matrices; updating a setting
overwrites one slot of that stack. Terms are built party-major (each party's
factor indices outermost, so every multiply runs over a contiguous axis), one
broadcast product per party for a chunk of at most ``_RENDER_CHUNK_BYTES`` of
terms, so memory stays a few operators whatever the term count. Each
operator's terms are summed in order and transposed to (row, col) layout once.
The products and the sums follow a per-term Kronecker chain, so the operators
are bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product as iter_product

import numpy as np

from .bell import BellExpression, Symbol
from .pauli import (
    _PAULI_2X2,
    DENSE_QUBIT_CAP,
    PauliSum,
    _check_cap,
    anticommutator_sum,
    top_eigenpair,
)

SYMBOL_BUDGET = 28
VERTEX_BLOCK = 1 << 20      # most vertex values held in memory at once
_AXIS_SETTINGS = 10         # a party with more settings spans several axes
BOUND_ATOL = 1e-9
_RENDER_CHUNK_BYTES = 1 << 18   # most see-saw term matrices built at once
_NEG_ZERO = complex(-0.0, -0.0)  # additive identity that keeps signed zeros


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
    exact: bool = True


def _strategy_table(k: int) -> np.ndarray:
    """The 2^k deterministic strategies of a party with k settings.

    Rows run in lexicographic order (setting 0 most significant, +1 before
    -1). Column 0 is the identity; column j is the sign of setting j.
    """
    bits = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    return np.hstack([np.ones((1 << k, 1)), 1.0 - 2.0 * bits])


def _vertex_blocks(expr: BellExpression, symbols: list[Symbol]):
    """Term values (constant excluded) at every +/-1 assignment of ``symbols``.

    ``symbols`` is sorted and holds every symbol of ``expr``. Yields
    ``(start, values)`` in rank order, where ``values[i]`` belongs to the
    assignment of lexicographic rank ``start + i`` (symbol 0 most significant,
    +1 before -1); no block holds more than VERTEX_BLOCK values.

    The terms form a coefficient tensor with one axis of length k_p + 1 per
    party (index 0 the identity), and the vertex values are that tensor
    contracted with every party's strategy table (a party with more than
    _AXIS_SETTINGS settings spans several axes). Only the trailing parties
    get a dense tensor: terms are grouped by their factor on the leading
    parties, each group is contracted over the trailing parties, and blocks of
    leading strategies combine the groups with their signs.
    """
    axes: list[list[Symbol]] = []
    for sym in symbols:
        if not axes or axes[-1][0][0] != sym[0] \
                or len(axes[-1]) == _AXIS_SETTINGS:
            axes.append([])
        axes[-1].append(sym)
    position = {sym: (a, i) for a, axis in enumerate(axes)
                for i, sym in enumerate(axis, 1)}
    tables = [_strategy_table(len(axis)) for axis in axes]
    sizes = [len(table) for table in tables]

    keys = list(expr.terms)
    coeffs = np.array([expr.terms[k] for k in keys], dtype=float)
    if coeffs.size and float(np.max(np.abs(coeffs - np.round(coeffs)))) < 1e-12:
        coeffs = np.round(coeffs)  # exact integer arithmetic when possible
    index = np.zeros((len(keys), len(tables)), dtype=np.intp)
    for t, key in enumerate(keys):
        for sym in key:
            a, i = position[sym]
            index[t, a] = i

    # fewest leading axes whose grouped trailing values fit in one block
    lead_keys, inverse = np.zeros((1, 0), np.intp), np.zeros(len(keys), np.intp)
    for lead in range(len(tables) + 1):
        if lead:
            lead_keys, inverse = np.unique(index[:, :lead], axis=0,
                                           return_inverse=True)
        n_trail = math.prod(sizes[lead:])
        if len(lead_keys) * n_trail <= VERTEX_BLOCK:
            break
    n_groups = len(lead_keys)

    # axis order (trailing parties..., group); each contraction consumes the
    # first axis and appends the strategy axis, ending at (group, strategies...)
    trail = np.zeros((*(t.shape[1] for t in tables[lead:]), n_groups))
    trail[(*index[:, lead:].T, inverse.reshape(-1))] = coeffs
    for table in tables[lead:]:
        trail = np.tensordot(trail, table, axes=(0, 1))
    trail = trail.reshape(n_groups, n_trail)

    lead_signs = [tables[a][:, lead_keys[:, a]] for a in range(lead)]
    n_lead = math.prod(sizes[:lead])
    step = max(1, VERTEX_BLOCK // max(n_trail, n_groups))
    for first in range(0, n_lead, step):
        rest = np.arange(first, min(first + step, n_lead))
        signs = np.ones((rest.size, n_groups))
        for a in reversed(range(lead)):
            rest, digit = np.divmod(rest, sizes[a])
            signs *= lead_signs[a][digit]
        yield first * n_trail, (signs @ trail).reshape(-1)


def _assignment_from_rank(rank: int, symbols: list[Symbol]) -> dict[Symbol, int]:
    m = len(symbols)
    return {s: -1 if (rank >> (m - 1 - j)) & 1 else 1 for j, s in enumerate(symbols)}


def classical_bounds(expr: BellExpression) -> ClassicalBounds:
    """Exact LHV extrema by full vertex enumeration (tensor contraction).

    Every deterministic +/-1 assignment is evaluated; integer coefficients
    give exact integer arithmetic. Ties break to the lexicographically
    smallest assignment (symbols sorted, +1 preferred). Raises BudgetError
    above SYMBOL_BUDGET symbols; use classical_sample_bound for a non-exact
    estimate there.
    """
    symbols = expr.symbols
    m = len(symbols)
    if m > SYMBOL_BUDGET:
        raise BudgetError(
            f"{m} symbols exceeds the exact-enumeration budget of "
            f"{SYMBOL_BUDGET}; classical_sample_bound gives a sampled, "
            "non-exact lower bound")
    if m == 0:
        w: dict[Symbol, int] = {}
        return ClassicalBounds(expr.constant, expr.constant, w, dict(w))

    best_max = best_min = None
    for start, values in _vertex_blocks(expr, symbols):
        hi, lo = int(np.argmax(values)), int(np.argmin(values))
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


def classical_bounds_bruteforce(expr: BellExpression) -> tuple[float, float]:
    """Direct per-vertex re-evaluation; the independent oracle for tests."""
    symbols = expr.symbols
    lo, hi = math.inf, -math.inf
    for values in iter_product((1, -1), repeat=len(symbols)):
        v = expr.evaluate(dict(zip(symbols, values)))
        lo, hi = min(lo, v), max(hi, v)
    return lo, hi


def classical_sample_bound(expr: BellExpression, samples: int = 20000,
                           seed: int = 0) -> ClassicalBounds:
    """Random-vertex sampling; bounds are attained values, not certified extrema."""
    rng = np.random.default_rng(seed)
    symbols = expr.symbols
    best = ClassicalBounds(math.inf, -math.inf, {}, {}, exact=False)
    for _ in range(samples):
        assignment = {s: int(v) for s, v in
                      zip(symbols, rng.choice((-1, 1), size=len(symbols)))}
        v = expr.evaluate(assignment)
        if v > best.maximum:
            best.maximum, best.witness_max = v, assignment
        if v < best.minimum:
            best.minimum, best.witness_min = v, assignment
    return best


def quantum_lower_bound(op: PauliSum, cap: int | None = None
                        ) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of the rendered operator and a witness eigenvector.

    This is the maximum over states for these fixed settings, hence a
    certified lower bound on the quantum maximum of the abstract expression.
    """
    dense = op.to_dense() if cap is None else op.to_dense(cap)
    return top_eigenpair(dense)


def dichotomic_term_bound(expr: BellExpression) -> float:
    """constant + sum |coefficients|: quantum upper bound for dichotomic settings."""
    return expr.constant + float(sum(abs(c) for c in expr.terms.values()))


# --- sum-of-squares certificates ---------------------------------------------

@dataclass(frozen=True)
class SosCertificate:
    """Pairing of expression terms claimed to certify a quantum maximum."""

    pairs: tuple[tuple[int, int], ...]
    claimed_bound: float

    def __post_init__(self):
        flat = [i for pair in self.pairs for i in pair]
        if sorted(flat) != list(range(len(flat))):
            raise ValueError("pairs must partition the term indices exactly once")


@dataclass
class SosReport:
    residual: float
    pairing_ok: bool
    verified: bool


def sos_verify(terms: list[PauliSum], cert: SosCertificate,
               atol: float = 1e-10) -> SosReport:
    """Check a sum-of-squares certificate against the dense operator identity.

    Verifies (i) the paired anticommutators cancel overall, and (ii)
    claimed * I - sum(terms) equals (1/sqrt2) * sum (I - (P+Q)/sqrt2)^2.
    """
    n = terms[0].n
    if any(t.n != n for t in terms):
        raise ValueError("certificate terms act on different qubit counts")
    if 2 * len(cert.pairs) != len(terms):
        raise ValueError("pairs do not cover the term list")

    anticomms = [anticommutator_sum(terms[i], terms[j]) for i, j in cert.pairs]
    total = PauliSum.zero(n)
    for ac in anticomms:
        total = total + ac
    pairing_ok = total.is_zero and _negating_match(anticomms)

    dim = 1 << n
    eye = np.eye(dim)
    dense = [t.to_dense() for t in terms]
    b = np.zeros((dim, dim), dtype=complex)
    for d in dense:
        b += d
    rhs = np.zeros((dim, dim), dtype=complex)
    root2 = math.sqrt(2)
    for i, j in cert.pairs:
        s = eye - (dense[i] + dense[j]) / root2
        rhs += s @ s
    rhs /= root2
    residual = float(np.max(np.abs(cert.claimed_bound * eye - b - rhs)))
    return SosReport(residual=residual, pairing_ok=pairing_ok,
                     verified=pairing_ok and residual <= atol)


def _negating_match(anticomms: list[PauliSum]) -> bool:
    """Nonzero pair anticommutators must cancel one against another."""
    live = [ac for ac in anticomms if not ac.is_zero]
    used = [False] * len(live)
    for i, ac in enumerate(live):
        if used[i]:
            continue
        found = False
        for j in range(i + 1, len(live)):
            if not used[j] and (ac + live[j]).is_zero:
                used[i] = used[j] = True
                found = True
                break
        if not found:
            return False
    return True


def _pairings(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for k, partner in enumerate(rest):
        remaining = rest[:k] + rest[k + 1:]
        for tail in _pairings(remaining):
            yield [(first, partner)] + tail


def sos_pairing_search(terms: list[PauliSum], claimed_bound: float,
                       atol: float = 1e-10) -> tuple[SosCertificate | None, SosReport | None]:
    """Brute-force search for a verifying pairing; limited to 8 terms."""
    if len(terms) > 8:
        raise ValueError("pairing search is limited to 8 terms")
    if len(terms) % 2:
        raise ValueError("need an even number of terms")
    for pairing in _pairings(list(range(len(terms)))):
        cert = SosCertificate(tuple(pairing), claimed_bound)
        report = sos_verify(terms, cert, atol)
        if report.verified:
            return cert, report
    return None, None


# --- see-saw heuristic ---------------------------------------------------------

_AXES = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
_BLOCH_PAULIS = np.stack([_PAULI_2X2[c] for c in "XYZ"])


def _bloch_matrix(bloch) -> np.ndarray:
    bx, by, bz = bloch
    return bx * _PAULI_2X2["X"] + by * _PAULI_2X2["Y"] + bz * _PAULI_2X2["Z"]


@dataclass
class SeesawResult:
    value: float
    best_bloch: dict[Symbol, tuple[float, float, float]]
    trajectories: list[list[float]] = field(default_factory=list)


def _render_plan(expr: BellExpression, symbols: list[Symbol], party: int | None = None
                 ) -> tuple[np.ndarray, np.ndarray, list[int], float]:
    """Compile ``expr`` for repeated dense renders with changing settings.

    Returns ``(index, coeffs, ends, constant)``: ``index[t, p]`` picks term t's
    factor on party p from a ``mats`` stack (0 the identity, j the matrix of
    ``symbols[j - 1]``), ``coeffs`` holds the term coefficients, output
    operator s sums terms ``ends[s - 1]:ends[s]`` (from 0 for s = 0), and
    ``constant`` multiplies the identity the first operator starts from.
    Without ``party`` there is one operator, ``expr`` itself. With ``party``
    there is one per symbol of that party, in ``symbols`` order: the terms
    holding the symbol, its factor made the identity, and no constant.
    """
    slot = {sym: j for j, sym in enumerate(symbols, 1)}
    if party is None:
        entries = [(None, key) for key in expr.terms]
        ends = [len(entries)]
    else:
        entries, ends = [], []
        for skip in symbols:
            if skip[0] == party:
                entries += [(skip, key) for key in expr.terms if skip in key]
                ends.append(len(entries))
    index = np.zeros((len(entries), expr.parties), dtype=np.intp)
    for t, (skip, key) in enumerate(entries):
        for sym in key:
            if sym != skip:
                index[t, sym[0]] = slot[sym]
    # complex, so scaling the terms in place needs no cast buffer
    coeffs = np.array([expr.terms[key] for _, key in entries], dtype=complex)
    return index, coeffs, ends, (expr.constant if party is None else 0.0)


def _party_major_products(factors: np.ndarray) -> np.ndarray:
    """Tensor products over p of the 2x2 ``factors[t, p]``, flat, party-major.

    Term t's entries run over the axes (a_{n-1}, b_{n-1}, ..., a_0, b_0): each
    party's factor goes outermost, so every multiply runs over a contiguous
    inner axis, and the product so far comes first, as in a Kronecker product.
    """
    size, n = factors.shape[:2]
    terms = np.ones((size, 1), dtype=complex)
    for p in range(n):
        terms = (terms[:, None, None, :] * factors[:, p, :, :, None]).reshape(size, -1)
    return terms


def _render(plan, mats: np.ndarray) -> np.ndarray:
    """Stack of the dense operators of a ``_render_plan`` for the factors in ``mats``.

    Terms are built party-major a chunk of at most ``_RENDER_CHUNK_BYTES`` at
    a time and scaled in place. Each operator's terms are summed in order, the
    running sum carried from chunk to chunk by adding it into the operator's
    first term in the next chunk. The sums start from -0.0, which, unlike
    ``np.add.reduce``'s default +0.0, leaves a -0.0 entry as the Kronecker
    chain has it. An operator is transposed to (row, col) layout once, when
    its last term is in.
    """
    index, coeffs, ends, constant = plan
    n_terms, n = index.shape
    dim = 1 << n
    # (a_{n-1}, b_{n-1}, ..., a_0, b_0) -> (a_0, ..., a_{n-1}, b_0, ..., b_{n-1})
    to_rows = [*range(2 * n - 2, -1, -2), *range(2 * n - 1, 0, -2)]
    start = 0.0
    if constant:
        start = constant * _party_major_products(mats[np.zeros((1, n), np.intp)])[0]
    stack = np.empty((len(ends), dim, dim), dtype=complex)
    acc = np.empty(dim * dim, dtype=complex)
    acc[...] = start
    done = 0

    def close_through(t: int) -> None:
        # emit every operator whose terms all lie before term t
        nonlocal done
        while done < len(ends) and ends[done] <= t:
            stack[done].reshape((2,) * 2 * n)[...] = \
                acc.reshape((2,) * 2 * n).transpose(to_rows)
            acc[...] = start
            done += 1

    chunk = max(1, _RENDER_CHUNK_BYTES // (16 * dim * dim))
    for lo in range(0, n_terms, chunk):
        terms = _party_major_products(mats[index[lo:lo + chunk]])
        size = len(terms)
        terms *= coeffs[lo:lo + size, None]
        a = lo
        while a < lo + size:
            close_through(a)
            b = min(ends[done], lo + size)
            part = terms[a - lo:b - lo]
            part[0] += acc
            np.add.reduce(part, axis=0, initial=_NEG_ZERO, out=acc)
            a = b
    close_through(n_terms)
    return stack


def _partial_trace_keep(m: np.ndarray, party: int, n: int) -> np.ndarray:
    """Reduced 2x2 matrices on ``party`` of a stack of n-qubit operators."""
    left = 1 << party
    right = 1 << (n - party - 1)
    m7 = m.reshape(len(m), left, 2, right, left, 2, right)
    return np.einsum("saibajb->sij", m7)


def seesaw_optimize(expr: BellExpression, restarts: int = 16, seed: int = 0,
                    max_sweeps: int = 500, gain_tol: float = 1e-9,
                    cap: int = DENSE_QUBIT_CAP) -> SeesawResult:
    """Alternating maximization over the state and per-symbol Bloch vectors.

    Restart 0 is an axis-aligned warm start (per party, symbols take the z, x,
    y axes in sorted order); remaining restarts are random unit vectors. The
    objective is nondecreasing within each restart, and a sweep that lowers it
    by more than 1e-12 * max(1, |value|) raises SeesawError; the best
    converged value over restarts is returned. Raises QubitCapError, before
    any operator is built, when the expression has more than ``cap`` parties.
    """
    n = expr.parties
    _check_cap(n, cap)
    rng = np.random.default_rng(seed)
    symbols = expr.symbols
    full = _render_plan(expr, symbols)
    # a term holds one symbol per party at most, so a party's leave-one-out
    # operators depend only on the other parties' settings: each party's are
    # rendered together, and updating them together is a symbol-by-symbol sweep
    party_plans = []
    for p in range(n):
        slots = [j for j, sym in enumerate(symbols, 1) if sym[0] == p]
        if slots:
            party_plans.append((p, slots, _render_plan(expr, symbols, party=p)))
    mats = np.empty((len(symbols) + 1, 2, 2), dtype=complex)
    mats[0] = _PAULI_2X2["I"]
    best_value = -math.inf
    best_bloch: dict[Symbol, tuple[float, float, float]] = {}
    trajectories: list[list[float]] = []

    for restart in range(max(1, restarts)):
        blochs: dict[Symbol, np.ndarray] = {}
        per_party_count: dict[int, int] = {}
        for j, sym in enumerate(symbols, 1):
            if restart == 0:
                k = per_party_count.get(sym[0], 0)
                blochs[sym] = np.array(_AXES[k % 3])
                per_party_count[sym[0]] = k + 1
            else:
                v = rng.normal(size=3)
                blochs[sym] = v / np.linalg.norm(v)
            mats[j] = _bloch_matrix(blochs[sym])

        trajectory: list[float] = []
        value = -math.inf
        operator = _render(full, mats)[0]
        for _ in range(max_sweeps):
            _, state = top_eigenpair(operator)
            rho = np.outer(state, state.conj())
            for p, slots, plan in party_plans:
                ptr = _partial_trace_keep(rho @ _render(plan, mats), p, n)
                h = (ptr + ptr.conj().swapaxes(1, 2)) / 2
                bloch = np.trace(h[:, None] @ _BLOCH_PAULIS, axis1=2, axis2=3).real
                for j, u in zip(slots, bloch):
                    norm = float(np.linalg.norm(u))
                    if norm > 1e-13:
                        sym = symbols[j - 1]
                        blochs[sym] = u / norm
                        mats[j] = _bloch_matrix(blochs[sym])
            operator = _render(full, mats)[0]
            new_value = float(np.vdot(state, operator @ state).real)
            trajectory.append(new_value)
            if new_value < value - 1e-12 * max(1.0, abs(value)):
                raise SeesawError(
                    f"see-saw objective decreased from {value!r} to {new_value!r}")
            if new_value - value < gain_tol:
                value = new_value
                break
            value = new_value
        trajectories.append(trajectory)
        if value > best_value:
            best_value = value
            best_bloch = {s: tuple(float(c) for c in b) for s, b in blochs.items()}

    return SeesawResult(best_value, best_bloch, trajectories)


# --- aggregated report ----------------------------------------------------------

@dataclass
class BoundsReport:
    """Everything the pipeline can certify about one Bell expression."""

    classical_min: float
    classical_max: float
    classical_witness: dict[Symbol, int]
    quantum_lower: float
    quantum_witness: np.ndarray | None
    rough_bound: float | None
    dichotomic_bound: float
    sos_status: str = "not-attempted"
    seesaw_value: float | None = None

    @property
    def violation(self) -> bool:
        return bool(self.quantum_lower > self.classical_max + BOUND_ATOL)

    def to_dict(self, include_witness_state: bool = True) -> dict:
        out = {
            "classical_min": float(self.classical_min),
            "classical_max": float(self.classical_max),
            "classical_witness": {f"{lab}_{p}": int(v) for (p, lab), v
                                  in sorted(self.classical_witness.items())},
            "quantum_lower": float(self.quantum_lower),
            "rough_bound": None if self.rough_bound is None else float(self.rough_bound),
            "dichotomic_bound": float(self.dichotomic_bound),
            "sos_status": self.sos_status,
            "seesaw_value": None if self.seesaw_value is None else float(self.seesaw_value),
            "violation": self.violation,
        }
        if include_witness_state and self.quantum_witness is not None:
            out["quantum_witness_state"] = [
                [round(float(a.real), 12), round(float(a.imag), 12)]
                for a in self.quantum_witness]
        return out
