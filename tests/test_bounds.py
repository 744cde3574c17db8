"""Classical enumeration, eigen bounds, SOS certificates, see-saw."""

import json
import math
import tracemalloc
from itertools import product as iter_product
from pathlib import Path

import numpy as np
import pytest

from bellforge import bounds, cases
from bellforge.bell import (
    BellExpression,
    BellRecipe,
    build_logical,
    chained_construction,
    complementary_decompose,
    render_operator,
    render_terms,
    symbolize,
    symbolize_decomposed,
)
from bellforge.bounds import (
    BudgetError,
    SeesawError,
    classical_bounds,
    dichotomic_term_bound,
    quantum_lower_bound,
    seesaw_optimize,
    sos_pairing_search,
    sos_verify,
)
from bellforge.cases import case_names, published_identity_expression, run_cases
from bellforge.logical import logical_paulis_numeric, logical_paulis_symbolic
from bellforge.pauli import _PAULI_2X2, DimensionError, PauliSum, PauliTerm, anticommutator_sum
from bellforge.recursive import mermin_case, svetlichny_case
from bellforge.stabilizer import GraphSpec, bell_basis, ghz3_basis, graph_state_generators
from bellforge.uncertainty import quadratic_bell
from helpers import bits, classical_bounds_bruteforce, evaluate, loop5_basis, vertex_blocks_one

DATA = Path(__file__).resolve().parent / "data"

ROOT2 = math.sqrt(2)


def chsh_expression():
    ops = logical_paulis_numeric(bell_basis())
    dec = complementary_decompose((2 * ROOT2) * ops.z, pivot=1)
    expr, _ = symbolize_decomposed(dec)
    return expr, dec


def loop5_ops():
    return logical_paulis_symbolic(
        graph_state_generators(GraphSpec.loop(5)), PauliTerm.from_string("ZZZZZ"))


# (VERTEX_BLOCK, _AXIS_SETTINGS): whole, and small blocks with parties split
BLOCK_SETTINGS = ((bounds.VERTEX_BLOCK, bounds._AXIS_SETTINGS), (8, 2), (2, 1))


class TestClassicalBounds:
    def test_chsh(self):
        expr, _ = chsh_expression()
        cb = classical_bounds(expr)
        assert (cb.minimum, cb.maximum) == (-2.0, 2.0)

    def test_witness_attains_bound(self):
        expr, _ = chsh_expression()
        cb = classical_bounds(expr)
        assert abs(evaluate(expr, cb.witness_max) - cb.maximum) < 1e-9
        assert abs(evaluate(expr, cb.witness_min) - cb.minimum) < 1e-9

    def test_published_identity_expression(self):
        cb = classical_bounds(published_identity_expression())
        assert (cb.minimum, cb.maximum) == (-6.0, 10.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_chained(self, n):
        cb = classical_bounds(chained_construction(n).expression)
        assert cb.maximum == float(2 * n - 2)
        assert cb.minimum == float(-(2 * n - 2))

    def test_loop5_mermin_like(self):
        expr, _ = symbolize(16.0 * loop5_ops().z, {"Z": "A", "X": "B", "Y": "C"})
        cb = classical_bounds(expr)
        assert (cb.minimum, cb.maximum) == (-8.0, 8.0)

    def test_matches_bruteforce_on_random_expressions(self, monkeypatch):
        # 1-3 settings per party, a party without symbols, integer and
        # non-integer coefficients, and the enumeration run whole and in small
        # blocks with parties split over several axes. With integer coefficients values are exact and both witnesses
        # must be the lexicographically first optimum (symbols sorted, +1
        # before -1); every third expression has only even-degree terms, so
        # flipping all symbols keeps its value and each optimum is tied.
        rng = np.random.default_rng(100)
        ties = 0
        for trial in range(60):
            integer, even = trial % 3 != 0, trial % 3 == 1
            parties = int(rng.integers(3 if even else 1, 6))
            settings = {p: ["A", "B", "C"][:int(rng.integers(1, 4))]
                        for p in range(parties)}
            silent = int(rng.integers(parties)) if parties > 1 else None
            terms = {}
            for _ in range(int(rng.integers(1, 7))):
                key = tuple((p, str(rng.choice(settings[p])))
                            for p in range(parties)
                            if p != silent and rng.random() < 0.6)
                key = key[:len(key) // 2 * 2] if even else key
                if not key:
                    continue
                coeff = float(rng.integers(-3, 4)) if integer else float(rng.normal())
                terms[key] = terms.get(key, 0.0) + coeff
            expr = BellExpression(parties, terms, constant=float(rng.integers(-2, 3)))
            symbols = expr.symbols
            vertices = [dict(zip(symbols, v))
                        for v in iter_product((1, -1), repeat=len(symbols))]
            values = [evaluate(expr, a) for a in vertices]
            lo, hi = classical_bounds_bruteforce(expr)
            assert (lo, hi) == (min(values), max(values))
            if even and symbols:
                assert values.count(hi) > 1 and values.count(lo) > 1
                ties += 1
            for block, per_axis in BLOCK_SETTINGS:
                monkeypatch.setattr(bounds, "VERTEX_BLOCK", block)
                monkeypatch.setattr(bounds, "_AXIS_SETTINGS", per_axis)
                cb = classical_bounds(expr)
                if integer:
                    assert (cb.minimum, cb.maximum) == (lo, hi)
                    assert cb.witness_max == vertices[values.index(hi)]
                    assert cb.witness_min == vertices[values.index(lo)]
                else:
                    assert abs(cb.minimum - lo) < 1e-12
                    assert abs(cb.maximum - hi) < 1e-12
                    assert abs(evaluate(expr, cb.witness_min) - lo) < 1e-12
                    assert abs(evaluate(expr, cb.witness_max) - hi) < 1e-12
        assert ties >= 10

    def test_memory_stays_bounded(self):
        # a 24-party ring, where one unblocked 2^24 float64 array is 128 MB,
        # and one party with 21 settings, whose unsplit strategy table is
        # 2^21 x 22 float64 = 352 MB
        ring = BellExpression(24, {((p, "A"), ((p + 1) % 24, "A")): 1.0
                                   for p in range(24)})
        wide = BellExpression(1, {((0, f"S{j:02d}"),): 1.0 for j in range(21)})
        for expr, lowest in ((ring, [1 - 2 * (p % 2) for p in range(24)]),
                             (wide, [-1] * 21)):
            tracemalloc.start()
            try:
                cb = classical_bounds(expr)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            m = len(expr.terms)
            assert (cb.minimum, cb.maximum) == (-m, m)
            assert cb.witness_max == {s: 1 for s in expr.symbols}
            assert cb.witness_min == dict(zip(expr.symbols, lowest))
            assert peak < 64 * 2 ** 20

    def test_constant_only(self):
        cb = classical_bounds(BellExpression(1, {}, constant=3.5))
        assert (cb.minimum, cb.maximum) == (3.5, 3.5)

    def test_budget(self):
        terms = {((p, "A"), ((p + 1) % 29, "A")): 1.0 for p in range(29)}
        expr = BellExpression(29, terms)
        with pytest.raises(BudgetError, match="exceeds the exact-enumeration budget"):
            classical_bounds(expr)

    def test_lexicographic_witness_tie_break(self):
        # A_0 * B_1 has four optima; the lexicographically smallest (+1 first,
        # symbols sorted) is all +1
        expr = BellExpression(2, {((0, "A"), (1, "B")): 1.0})
        cb = classical_bounds(expr)
        assert cb.witness_max == {(0, "A"): 1, (1, "B"): 1}
        assert cb.witness_min == {(0, "A"): 1, (1, "B"): -1}


def catalog_expressions(monkeypatch):
    """Every expression a catalog pass enumerates, in call order."""
    seen = []

    def recorded(expr):
        seen.append(expr)
        return classical_bounds(expr)

    with monkeypatch.context() as patch:
        patch.setattr(cases, "classical_bounds", recorded)
        run_cases(case_names())
    return seen


def concatenated(blocks):
    """The values of a block stream, one row per expression, and its starts."""
    blocks = list(blocks)
    return (np.concatenate([np.atleast_2d(v) for _, v in blocks], axis=1),
            [start for start, _ in blocks])


class TestVertexPass:
    def test_one_expression_matches_frozen_kernel(self, monkeypatch):
        # the stacked kernel at one expression is the one-expression kernel
        # bit for bit, block for block, and classical_bounds keeps its
        # lexicographic witnesses; the two small block settings, where every
        # block is a Python iteration, run on expressions of up to 2^10
        # vertices
        rng = np.random.default_rng(2604)
        exprs = catalog_expressions(monkeypatch)
        assert len(exprs) >= 20
        exprs += [mermin_case(9).expression, svetlichny_case(9).expression]
        exprs += [random_expression(rng, parties, sparse=bool(parties % 2),
                                    constant=float(rng.normal()))
                  for parties in [1, 2, 3, 4, 5, 6] * 7]
        for block, per_axis in BLOCK_SETTINGS:
            monkeypatch.setattr(bounds, "VERTEX_BLOCK", block)
            monkeypatch.setattr(bounds, "_AXIS_SETTINGS", per_axis)
            for expr in exprs:
                symbols = expr.symbols
                if not symbols or (block < 1 << 20 and len(symbols) > 10):
                    continue
                got, got_starts = concatenated(bounds._vertex_blocks([expr], symbols))
                want, want_starts = concatenated(vertex_blocks_one(expr, symbols))
                assert got_starts == want_starts
                assert np.array_equal(bits(got), bits(want)), str(expr)
                cb = classical_bounds(expr)
                values = want[0] + expr.constant
                hi, lo = int(np.argmax(values)), int(np.argmin(values))
                assert (cb.maximum, cb.minimum) == (values[hi], values[lo])
                assert cb.witness_max == bounds._assignment_from_rank(hi, symbols)
                assert cb.witness_min == bounds._assignment_from_rank(lo, symbols)

    def test_catalog_extrema_do_not_depend_on_the_contraction_order(self, monkeypatch):
        # every catalog row's coefficients, and those of the exact golden
        # recipes, are integers after the snap, so every partial sum is exact:
        # reversed and shuffled term orders give the default pass's extrema
        # and witnesses at four block sizes, the two smallest on expressions
        # of up to 12 and 10 symbols (ghz3-unsnapped's and graph2-sos-failed's
        # coefficients are not integers, and their order is not free)
        rng = np.random.default_rng(2607)
        exprs = catalog_expressions(monkeypatch)
        for name in ("loop5", "bell-complementary", "chained3", "empty4-sos-failed"):
            recipe = BellRecipe.from_dict(json.loads((DATA / f"{name}.json").read_text()))
            exprs.append(cases._derive(build_logical(recipe), recipe.decomposition,
                                       recipe.symbols).expression)
        default = [classical_bounds(expr) for expr in exprs]
        runs = 0
        for block, most_symbols in ((1 << 20, None), (1 << 12, None), (1 << 7, 12),
                                    (1 << 4, 10)):
            monkeypatch.setattr(bounds, "VERTEX_BLOCK", block)
            for expr, want in zip(exprs, default):
                if most_symbols is not None and len(expr.symbols) > most_symbols:
                    continue
                index, coeffs = expr.factor_table()
                for order in (np.arange(coeffs.size)[::-1], rng.permutation(coeffs.size)):
                    cb = classical_bounds(BellExpression._from_table(
                        expr.parties, expr.symbols, index[order], coeffs[order],
                        expr.constant))
                    assert (cb.maximum.hex(), cb.minimum.hex()) == \
                        (want.maximum.hex(), want.minimum.hex()), str(expr)
                    assert (cb.witness_max, cb.witness_min) == \
                        (want.witness_max, want.witness_min), str(expr)
                    runs += 1
        assert len(exprs) == 28 and runs == 182

    def test_flat_offsets_match_frozen_kernel(self):
        # parties of 1, 3 and 11 settings (11 spans two axes of at most
        # _AXIS_SETTINGS = 10), non-integer and tie-heavy integer
        # coefficients, and a 22-symbol expression of four blocks, compared
        # block by block: the values bit for bit, and each witness the
        # lexicographically first extreme assignment over all blocks
        rng = np.random.default_rng(2801)
        exprs = []
        for settings in [(1, 3, 11), (11, 1), (3, 3, 1, 1), (1,), (11,), (3, 11, 3)]:
            for integer in (False, True):
                exprs.append(settings_expression(rng, settings, integer))
        exprs.append(settings_expression(rng, (11, 11), integer=True, terms=40))
        assert len(exprs[-1].symbols) == 22
        for expr in exprs:
            symbols = expr.symbols
            blocks = 0
            best_max = best_min = None
            for (start, got), (want_start, want) in zip(
                    bounds._vertex_blocks([expr], symbols), vertex_blocks_one(expr, symbols),
                    strict=True):
                assert start == want_start
                assert np.array_equal(bits(got[0]), bits(want)), str(expr)
                hi, lo = int(np.argmax(want)), int(np.argmin(want))
                if best_max is None or want[hi] > best_max[0]:
                    best_max = (want[hi], start + hi)
                if best_min is None or want[lo] < best_min[0]:
                    best_min = (want[lo], start + lo)
                blocks += 1
            assert blocks == (4 if len(symbols) == 22 else 1)
            cb = classical_bounds(expr)
            assert (cb.maximum, cb.minimum) == (best_max[0] + expr.constant,
                                                best_min[0] + expr.constant)
            assert cb.witness_max == bounds._assignment_from_rank(best_max[1], symbols)
            assert cb.witness_min == bounds._assignment_from_rank(best_min[1], symbols)

    def test_stacked_pass_equals_separate_passes(self, monkeypatch):
        # two or three expressions on one symbol list, each snapped to
        # integers on its own: exact where the coefficients snap, within 1e-12
        # otherwise, where the stack may group and block the terms
        # differently; small blocks on up to 2^10 vertices, as above
        rng = np.random.default_rng(2605)
        stacks = [(quadratic_bell(v).expr1, quadratic_bell(v).expr2) for v in ("uffink", "nki")]
        stacks.append(tuple(loop5_expressions()))
        for n in (3, 4):
            # coefficients 1e-16 off integers beside real ones: only the
            # family member snaps
            member = mermin_case(n).expression
            other = BellExpression(n, {k: float(rng.normal()) for k in member.terms})
            stacks += [(member, other), (other, member)]
        for parties in [2, 3, 4, 5] * 6:
            stack = [random_expression(rng, parties, sparse=bool(rng.integers(2)),
                                       constant=0.0) for _ in range(int(rng.integers(2, 4)))]
            if rng.integers(2):
                stack[0] = BellExpression(parties, {k: float(rng.integers(-3, 4))
                                                    for k in stack[0].terms})
            stacks.append(tuple(stack))
        integer = 0
        for block, per_axis in BLOCK_SETTINGS:
            monkeypatch.setattr(bounds, "VERTEX_BLOCK", block)
            monkeypatch.setattr(bounds, "_AXIS_SETTINGS", per_axis)
            for stack in stacks:
                symbols = sorted(set().union(*(e.symbols for e in stack)))
                if block < 1 << 20 and len(symbols) > 10:
                    continue
                got, _ = concatenated(bounds._vertex_blocks(list(stack), symbols))
                assert got.shape == (len(stack), 1 << len(symbols))
                for row, expr in zip(got, stack):
                    want, _ = concatenated(bounds._vertex_blocks([expr], symbols))
                    coeffs = expr.factor_table()[1]
                    if np.all(np.abs(coeffs - np.round(coeffs)) < 1e-12):
                        assert np.array_equal(row, want[0]), str(expr)
                        integer += 1
                    else:
                        assert np.max(np.abs(row - want[0])) <= 1e-12, str(expr)
        assert integer >= 7 * len(BLOCK_SETTINGS)

    def test_identity_forms_share_one_pass(self):
        # l5-identity's published form and the derived all-plus form of
        # 16 * projector hold the same 15 symbols; one two-expression pass
        # gives the extrema of both
        published = published_identity_expression()
        derived, _ = symbolize(16.0 * cases._row_recipe("l5-mermin").ops.ident,
                               {"Z": "A", "X": "B", "Y": "C"})
        assert derived.symbols == published.symbols and len(published.symbols) == 15
        values, _ = concatenated(bounds._vertex_blocks([published, derived], published.symbols))
        values += np.array([[published.constant], [derived.constant]])
        assert values.min(axis=1).tolist() == [-6.0, -8.0]
        assert values.max(axis=1).tolist() == [10.0, 16.0]


class TestQuantumBounds:
    def test_chsh_operator(self):
        _, dec = chsh_expression()
        val, wit = quantum_lower_bound(render_operator(*symbolize_decomposed(dec)))
        assert abs(val - 2 * ROOT2) < 1e-9
        r = 1 / ROOT2
        assert np.allclose(wit, [r, 0, 0, r], atol=1e-8)

    def test_loop5_scaled_z(self):
        ops = loop5_ops()
        val, wit = quantum_lower_bound(16.0 * ops.z)
        assert abs(val - 16.0) < 1e-9
        overlap = abs(np.vdot(wit, loop5_basis().zero_ket))
        assert abs(overlap - 1.0) < 1e-8

    def test_projector_reaches_16_on_any_code_state(self):
        op16 = 16.0 * loop5_ops().ident
        basis = loop5_basis()
        rng = np.random.default_rng(5)
        for _ in range(5):
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi = amps[0] * basis.zero_ket + amps[1] * basis.one_ket
            psi /= np.linalg.norm(psi)
            assert abs(op16.expectation(psi) - 16.0) < 1e-9

    def test_dichotomic_term_bound(self):
        g3 = logical_paulis_numeric(ghz3_basis())
        mermin, _ = symbolize(4.0 * g3.z, {"Z": "A", "X": "B"})
        assert dichotomic_term_bound(mermin) == 4.0
        b1, _ = symbolize(16.0 * loop5_ops().z, {"Z": "A", "X": "B", "Y": "C"})
        assert dichotomic_term_bound(b1) == 16.0
        assert dichotomic_term_bound(published_identity_expression()) == 16.0


class TestSos:
    def test_chsh_certificate(self):
        _, dec = chsh_expression()
        terms = render_terms(*symbolize_decomposed(dec))
        pairs, residual = sos_pairing_search(terms, 2 * ROOT2)
        assert pairs is not None and residual <= 1e-10
        assert sos_verify(terms, pairs, 2 * ROOT2) == residual

    def test_svetlichny_certificate_found_by_search(self):
        g3 = logical_paulis_numeric(ghz3_basis())
        op = 4.0 * (g3.x - g3.z)
        terms = [c * PauliSum.from_terms([(t, 1.0)]) for t, c in op.items()]
        pairs, residual = sos_pairing_search(terms, 4 * ROOT2)
        assert pairs is not None and residual <= 1e-10
        assert sos_verify(terms, pairs, 4 * ROOT2) == residual

    def test_wrong_partition_fails_loudly(self):
        _, dec = chsh_expression()
        terms = render_terms(*symbolize_decomposed(dec))
        # products come out in restriction order: Z.B, -Z.B', X.B, X.B';
        # pairing a B-setting term with a B'-setting term across different
        # first-party operators breaks the cancellation
        bad = ((0, 3), (1, 2))
        assert not sum((anticommutator_sum(terms[i], terms[j]) for i, j in bad),
                       PauliSum.zero(2)).is_zero
        assert sos_verify(terms, bad, 2 * ROOT2) >= 0.1

    def test_partition_validation(self):
        _, dec = chsh_expression()
        terms = render_terms(*symbolize_decomposed(dec))
        with pytest.raises(ValueError, match="exactly once"):
            sos_verify(terms, ((0, 1), (1, 2)), 1.0)     # index 1 twice, 3 unused
        with pytest.raises(ValueError, match="exactly once"):
            sos_verify(terms, ((0, 1),), 1.0)             # terms 2 and 3 uncovered
        with pytest.raises(DimensionError):
            sos_verify(terms[:1] + [PauliSum.identity(3)], ((0, 1),), 1.0)
        with pytest.raises(ValueError, match="even number"):
            sos_pairing_search(terms[:3], 1.0)
        with pytest.raises(ValueError, match="limited to 8"):
            sos_pairing_search(terms * 3, 1.0)
        assert bounds.SOS_MAX_TERMS == 8

    def test_wrong_bound_fails(self):
        _, dec = chsh_expression()
        terms = render_terms(*symbolize_decomposed(dec))
        pairs, _ = sos_pairing_search(terms, 2 * ROOT2)
        assert sos_verify(terms, pairs, 3.0) > 0.1
        assert sos_pairing_search(terms, 3.0) == (None, math.inf)


class TestSeesaw:
    def test_chsh_converges(self):
        expr, _ = chsh_expression()
        res = seesaw_optimize(expr, restarts=6, seed=2)
        assert abs(res.value - 2 * ROOT2) < 1e-7

    def test_single_term(self):
        expr = BellExpression(2, {((0, "A"), (1, "B")): 1.0})
        res = seesaw_optimize(expr, restarts=3, seed=4)
        assert abs(res.value - 1.0) < 1e-9

    def test_monotone_trajectories(self):
        expr, _ = chsh_expression()
        res = seesaw_optimize(expr, restarts=5, seed=9)
        for traj in res.trajectories:
            assert all(b >= a - 1e-12 for a, b in zip(traj, traj[1:]))

    def test_between_eigen_bound_and_dichotomic_bound(self):
        ops = loop5_ops()
        op = 16.0 * (ops.z + ops.x)
        expr, _ = symbolize(op, {"Z": "A", "X": "B", "Y": "C"})
        res = seesaw_optimize(expr, restarts=4, seed=3)
        lam, _ = quantum_lower_bound(op)
        assert res.value >= lam - 1e-8
        assert res.value <= dichotomic_term_bound(expr) + 1e-8

    def test_decrease_raises_seesaw_error(self, monkeypatch):
        # the second sweep is handed the product state |00>, which caps the
        # CHSH objective at 2, below the 2*sqrt(2) of the first sweep
        expr, _ = chsh_expression()
        real = bounds.top_eigenpair
        calls = []

        def eigenpair(m, work=None):
            calls.append(1)
            if len(calls) == 2:
                return 0.0, np.eye(4, dtype=complex)[0]
            return real(m, work)

        monkeypatch.setattr(bounds, "top_eigenpair", eigenpair)
        with pytest.raises(SeesawError, match="decreased"):
            seesaw_optimize(expr, restarts=1)
        assert len(calls) == 2
        assert issubclass(SeesawError, ArithmeticError)

    def test_rounding_at_large_scale_does_not_raise(self):
        # at 1e6 * CHSH a converged sweep can read a few 1e-9 below the last,
        # past an absolute 1e-12 but within 1e-12 of the objective's scale
        expr, _ = chsh_expression()
        drops = []
        for seed in range(4):
            res = seesaw_optimize(expr.scaled(1e6), restarts=4, seed=seed)
            assert abs(res.value - 2e6 * ROOT2) < 1e-9 * 2e6 * ROOT2
            drops += [a - b for t in res.trajectories for a, b in zip(t, t[1:])]
        assert max(drops) > 1e-12

# --- see-saw renders against the kron chain ---------------------------------------

def bloch_matrix(bloch):
    """x X + y Y + z Z for one Bloch vector, as the oracles build it."""
    bx, by, bz = bloch
    return bx * _PAULI_2X2["X"] + by * _PAULI_2X2["Y"] + bz * _PAULI_2X2["Z"]


def kron_render(expr, blochs, skip=None):
    """The see-saw operator by one np.kron per party per term: the oracle."""
    n = expr.parties
    dim = 1 << n
    out = expr.constant * np.eye(dim, dtype=complex) if (expr.constant and skip is None) \
        else np.zeros((dim, dim), dtype=complex)
    for key, coeff in expr.terms.items():
        if skip is not None and skip not in key:
            continue
        by_party = {p: lab for p, lab in key}
        m = np.ones((1, 1), dtype=complex)
        for p in range(n):
            if p in by_party and (skip is None or (p, by_party[p]) != skip):
                m = np.kron(m, bloch_matrix(blochs[(p, by_party[p])]))
            else:
                m = np.kron(m, _PAULI_2X2["I"])
        out += coeff * m
    return out


def partial_trace_keep(m, party, n):
    """The reduced 2x2 matrix on ``party`` of one n-qubit operator."""
    left = 1 << party
    right = 1 << (n - party - 1)
    return np.einsum("aibajb->ij", m.reshape(left, 2, right, left, 2, right))


def kron_seesaw(expr, restarts, seed, max_sweeps=500, gain_tol=1e-9):
    """seesaw_optimize one restart after another, rendering every operator
    with kron_render and updating one symbol at a time."""
    rng = np.random.default_rng(seed)
    symbols = expr.symbols
    n = expr.parties
    best_value, best_bloch, trajectories = -math.inf, {}, []
    for restart in range(max(1, restarts)):
        blochs, per_party_count = {}, {}
        for sym in symbols:
            if restart == 0:
                k = per_party_count.get(sym[0], 0)
                blochs[sym] = np.array(bounds._AXES[k % 3])
                per_party_count[sym[0]] = k + 1
            else:
                v = rng.normal(size=3)
                blochs[sym] = v / np.linalg.norm(v)
        trajectory, value = [], -math.inf
        for _ in range(max_sweeps):
            _, state = bounds.top_eigenpair(kron_render(expr, blochs))
            rho = np.outer(state, state.conj())
            for sym in symbols:
                a = kron_render(expr, blochs, skip=sym)
                ptr = partial_trace_keep(rho @ a, sym[0], n)
                h = (ptr + ptr.conj().T) / 2
                u = np.array([np.trace(h @ _PAULI_2X2[c]).real for c in "XYZ"])
                norm = float(np.linalg.norm(u))
                if norm > 1e-13:
                    blochs[sym] = u / norm
            new_value = float(np.vdot(state, kron_render(expr, blochs) @ state).real)
            trajectory.append(new_value)
            if new_value - value < gain_tol:
                value = new_value
                break
            value = new_value
        trajectories.append(trajectory)
        if value > best_value:
            best_value = value
            best_bloch = {s: tuple(float(c) for c in b) for s, b in blochs.items()}
    return best_value, best_bloch, trajectories


def catalog_seesaw_rows(monkeypatch):
    """``{name: (expr, restarts, seed)}``: what each catalog see-saw row passes
    to ``seesaw_optimize`` at the default seed, recorded from its run."""
    rows, real = {}, cases.seesaw_optimize

    def record(expr, restarts, seed, **kwargs):
        rows[name] = (expr, restarts, seed)
        return real(expr, restarts=restarts, seed=seed, **kwargs)

    monkeypatch.setattr(cases, "seesaw_optimize", record)
    for name in ("l5-svetlichny", "l5-hyper", "chsh"):
        run_cases([name])
    return rows


def record_chain_starts(monkeypatch):
    """Patch ``bounds._party_major_products`` to record each call's ``start``."""
    real, starts = bounds._party_major_products, []

    def products(factors, buffers=None, start=None):
        starts.append(start)
        return real(factors, buffers, start)

    monkeypatch.setattr(bounds, "_party_major_products", products)
    return starts


def random_expression(rng, parties, sparse, constant):
    """Up to 8 terms on 1-3 settings per party; ``sparse`` terms skip parties."""
    settings = {p: ["A", "B", "C"][:int(rng.integers(1, 4))] for p in range(parties)}
    terms = {}
    for _ in range(int(rng.integers(1, 9))):
        key = tuple((p, str(rng.choice(settings[p]))) for p in range(parties)
                    if not sparse or rng.random() < 0.6)
        if key:
            terms[key] = terms.get(key, 0.0) + float(rng.normal())
    return BellExpression(parties, terms, constant=constant)


def settings_expression(rng, settings, integer, terms=12):
    """Up to ``terms`` random terms, party p choosing among ``settings[p]``
    settings (A, A', A'', ...) or skipping; coefficients in {-1, 1} when
    ``integer``, else Gaussian."""
    labels = [[chr(ord("A") + p) + "'" * j for j in range(k)] for p, k in enumerate(settings)]
    out = {}
    for _ in range(terms):
        key = tuple((p, str(rng.choice(labels[p]))) for p in range(len(settings))
                    if rng.random() < 0.8)
        if key:
            out[key] = float(rng.choice([-1.0, 1.0])) if integer else float(rng.normal())
    # every setting in at least one term, so each party keeps its axes
    for p, names in enumerate(labels):
        for label in names:
            out.setdefault(((p, label),), float(rng.choice([-1.0, 1.0])))
    return BellExpression(len(settings), out, constant=float(rng.integers(-2, 3)))


def loop5_expressions():
    ops = loop5_ops()
    letters = {"Z": "A", "X": "B", "Y": "C"}
    svetlichny, _ = symbolize(16.0 * (ops.z + ops.x), letters)
    hyper, _ = symbolize(16.0 * (ops.z + ops.x + ops.y), letters)
    return [svetlichny, hyper]


def random_settings(rng, symbols):
    """Random unit Bloch vectors, and the stack of their matrices that
    ``bounds._render`` reads, the identity first."""
    blochs = {}
    mats = np.empty((len(symbols) + 1, 2, 2), dtype=complex)
    mats[0] = _PAULI_2X2["I"]
    for j, sym in enumerate(symbols, 1):
        v = rng.normal(size=3)
        blochs[sym] = v / np.linalg.norm(v)
        mats[j] = bloch_matrix(blochs[sym])
    return blochs, mats


def seven_party_expression(rng, labels):
    """96 terms, each holding one of ``labels`` on every one of 7 parties."""
    terms = {}
    while len(terms) < 96:
        key = tuple((p, str(rng.choice(labels))) for p in range(7))
        terms[key] = float(rng.normal())
    return BellExpression(7, terms)


def render_peak(plan, mats):
    """Peak traced allocation of one ``bounds._render``, in bytes."""
    tracemalloc.start()
    try:
        bounds._render(plan, mats)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_same_bits(got, want, context):
    assert got.shape == want.shape, context
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), context


class TestSeesawRender:
    @staticmethod
    def check_renders(expr, rng):
        symbols = expr.symbols
        blochs, mats = random_settings(rng, symbols)
        full = bounds._render(bounds._render_plan(expr, symbols), mats)
        assert full.shape[0] == 1
        assert_same_bits(full[0], kron_render(expr, blochs), (str(expr), None))
        for party in range(expr.parties):
            stack = bounds._render(bounds._render_plan(expr, symbols, party), mats)
            own = [sym for sym in symbols if sym[0] == party]
            assert len(stack) == len(own)
            for got, skip in zip(stack, own):
                assert_same_bits(got, kron_render(expr, blochs, skip), (str(expr), skip))

    def test_catalog_expressions_bit_identical(self):
        rng = np.random.default_rng(40)
        chsh, _ = chsh_expression()
        for expr in [*loop5_expressions(), chsh]:
            for _ in range(3):
                self.check_renders(expr, rng)

    @pytest.mark.parametrize("terms_per_chunk", [1, 5, 16])
    def test_terms_spanning_several_chunks(self, monkeypatch, terms_per_chunk):
        # the budget holds terms_per_chunk 5-party terms, so 4x as many of a
        # loop-5 party plan's 4-party terms. A party plan whose operators sum
        # equal runs of terms, a run to a chunk at least, sums them a chunk
        # of whole runs at a time; any other plan carries each operator's
        # running sum across chunks
        rng = np.random.default_rng(44)
        chsh, _ = chsh_expression()
        monkeypatch.setattr(bounds, "_RENDER_CHUNK_BYTES",
                            terms_per_chunk * 16 * 32 * 32)
        # equal runs: loop-5 (8 and 12 terms a symbol) and CHSH (2 a symbol);
        # mostly uneven runs: random 5-party expressions of three sizes, the
        # largest with more terms to a party than the largest chunk holds;
        # a party with no symbol
        loop5 = loop5_expressions()
        exprs = [*loop5, chsh,
                 *(settings_expression(rng, [2, 3, 1, 3, 2], integer=False, terms=terms)
                   for terms in (20, 60, 200)),
                 BellExpression(3, {((0, "A"), (2, "B")): 1.0, ((0, "A'"),): -0.5})]
        reduced, carried, crossing = [], 0, 0
        for expr in exprs:
            for party in range(expr.parties):
                plan = bounds._render_plan(expr, expr.symbols, party)
                ends = plan[2]
                chunk = bounds._chunk_terms(4 ** plan[0].shape[1])
                runs = np.diff([0, *ends])
                if len(runs) and runs[0] <= chunk and np.all(runs == runs[0]):
                    reduced.append(expr)
                    continue
                carried += 1
                crossing += sum(first // chunk != (end - 1) // chunk
                                for first, end in zip([0, *ends], ends) if end > first)
            self.check_renders(expr, rng)
            # two restarts' settings stacked render each restart's operators
            (_, one), (_, two) = random_settings(rng, expr.symbols), \
                random_settings(rng, expr.symbols)
            for party in range(expr.parties):
                plan = bounds._render_plan(expr, expr.symbols, party)
                assert_same_bits(bounds._render(plan, np.stack([one, two])),
                                 np.concatenate([bounds._render(plan, one),
                                                 bounds._render(plan, two)]),
                                 (str(expr), party))
        # some party plans take each reduction, and some carried operator's
        # terms start in one chunk and end in a later one
        assert reduced and carried and crossing
        # CHSH's runs fit any chunk; below one run, loop-5's sums are carried
        assert reduced.count(chsh) == 2
        assert sum(expr in loop5 for expr in reduced) == 10 * (terms_per_chunk > 1)

    def test_render_memory_stays_bounded(self):
        # 96 terms on 7 parties: all term matrices at once would be 24 MB
        rng = np.random.default_rng(45)
        expr = seven_party_expression(rng, ["A", "B"])
        _, mats = random_settings(rng, expr.symbols)
        peak = render_peak(bounds._render_plan(expr, expr.symbols), mats)
        # a few 128 x 128 complex matrices (256 kB each), not 96 of them
        assert peak < 8 * 16 * 128 * 128

    def test_party_stack_memory_stays_bounded(self):
        # with 3 settings a party's stack holds 3 operators of 128 x 128 and
        # needs at most a running sum and a chunk of terms beside them
        rng = np.random.default_rng(46)
        expr = seven_party_expression(rng, ["A", "B", "C"])
        _, mats = random_settings(rng, expr.symbols)
        operator = 16 * 128 * 128
        for party in (0, 3, 6):
            plan = bounds._render_plan(expr, expr.symbols, party)
            k = sum(sym[0] == party for sym in expr.symbols)
            assert len(plan[2]) == k == 3
            peak = render_peak(plan, mats)
            assert peak <= (k + 3) * operator + bounds._RENDER_CHUNK_BYTES

    def test_party_stack_is_identity_on_its_party(self):
        # each leave-one-out operator of party p is B (x) I_p: rendered on the
        # other parties, its two diagonal blocks on p are bitwise equal and the
        # off-diagonal ones +0.0
        rng = np.random.default_rng(47)
        exprs = [loop5_expressions()[1]] + [
            random_expression(rng, parties, sparse=bool(parties % 2),
                              constant=float(rng.integers(-1, 2)))
            for parties in [1, 2, 3, 4, 5] * 3]
        for expr in exprs:
            n = expr.parties
            _, mats = random_settings(rng, expr.symbols)
            for party in range(n):
                plan = bounds._render_plan(expr, expr.symbols, party)
                assert plan[0].shape == (len(plan[1]), n - 1)
                stack = bounds._render(plan, mats)
                blocks = stack.reshape(len(stack), 1 << party, 2, 1 << (n - party - 1),
                                       1 << party, 2, 1 << (n - party - 1))
                for a, b in ((0, 1), (1, 0)):
                    off = blocks[:, :, a, :, :, b, :]
                    assert np.all(off == 0), (str(expr), party)
                    assert not np.signbit(off.view(float)).any(), (str(expr), party)
                assert_same_bits(np.ascontiguousarray(blocks[:, :, 0, :, :, 0, :]),
                                 np.ascontiguousarray(blocks[:, :, 1, :, :, 1, :]),
                                 (str(expr), party))

    @pytest.mark.parametrize("terms_per_chunk", [1, None])
    def test_negative_zero_entries_keep_their_sign(self, monkeypatch, terms_per_chunk):
        # the constant -1 * I and both terms -1 * Z have -0.0 real parts off
        # the diagonal, which the Kronecker chain sums to -0.0; a sum started
        # from np.add.reduce's default +0.0 would read +0.0 there
        if terms_per_chunk:
            monkeypatch.setattr(bounds, "_RENDER_CHUNK_BYTES", terms_per_chunk * 16 * 2 * 2)
        expr = BellExpression(1, {((0, "A"),): -1.0, ((0, "B"),): -1.0}, constant=-1.0)
        blochs = {sym: np.array(bounds._AXES[0]) for sym in expr.symbols}
        mats = np.stack([_PAULI_2X2["I"], *(bloch_matrix(blochs[sym])
                                             for sym in expr.symbols)])
        plan = bounds._render_plan(expr, expr.symbols)
        # a negative constant's -0.0 would show a folded zero's sign: no fold
        assert not plan[5]
        got = bounds._render(plan, mats)[0]
        want = kron_render(expr, blochs)
        assert np.signbit(want[0, 1].real) and np.signbit(want[1, 0].real)
        assert_same_bits(got, want, str(expr))

    def test_unit_coefficients_start_the_chain(self, monkeypatch):
        # every coefficient +1 or -1 and a constant of 0, 1 or 2: every plan
        # folds, each term's chain starting from its coefficient; only the
        # constant's identity is built from 1
        rng = np.random.default_rng(49)
        starts, constants = record_chain_starts(monkeypatch), 0
        for _ in range(12):
            settings = [int(k) for k in rng.integers(1, 4, size=int(rng.integers(1, 5)))]
            expr = settings_expression(rng, settings, integer=True, terms=8)
            expr = BellExpression(expr.parties, expr.terms, constant=abs(expr.constant))
            plans = [bounds._render_plan(expr, expr.symbols, party)
                     for party in [None, *range(expr.parties)]]
            assert all(plan[5] for plan in plans), str(expr)
            self.check_renders(expr, rng)
            constants += expr.constant != 0
        chains = [start for start in starts if start is not None]
        assert len(starts) - len(chains) == constants
        assert chains and all(np.all(abs(start) == 1) for start in chains)

    def test_one_other_coefficient_scales_the_whole_plan(self, monkeypatch):
        # one 0.6 among +-1 coefficients, in a term on every party: every
        # plan holds it, so every plan scales all its terms after the chain
        expr = BellExpression(3, {((0, "A"), (1, "A"), (2, "A")): 1.0,
                                  ((0, "B"), (1, "A")): -1.0,
                                  ((0, "A"), (1, "B"), (2, "B")): 0.6,
                                  ((1, "B"), (2, "A")): -1.0}, constant=1.0)
        units = [bounds._render_plan(expr, expr.symbols, party)[5]
                 for party in (None, 0, 1, 2)]
        assert units == [False, False, False, False]
        starts = record_chain_starts(monkeypatch)
        rng = np.random.default_rng(50)
        for _ in range(3):
            self.check_renders(expr, rng)
        assert starts and all(start is None for start in starts)

    @pytest.mark.parametrize("terms_per_chunk", [1, None])
    def test_folded_negative_zeros_vanish_in_the_sums(self, monkeypatch, terms_per_chunk):
        # a chain started from -1 gives -0.0 off the diagonal of -Z, where the
        # Kronecker chain scaled after the product has +0.0 or -0.0; sums that
        # start from +0.0 read +0.0 either way, as the oracle does
        if terms_per_chunk:
            monkeypatch.setattr(bounds, "_RENDER_CHUNK_BYTES", terms_per_chunk * 16 * 4 * 4)
        expr = BellExpression(2, {((0, "A"), (1, "A")): -1.0, ((0, "B"),): -1.0,
                                  ((1, "B"),): 1.0})
        blochs = {sym: np.array(bounds._AXES[0]) for sym in expr.symbols}
        mats = np.stack([_PAULI_2X2["I"], *(bloch_matrix(blochs[sym])
                                             for sym in expr.symbols)])
        plan = bounds._render_plan(expr, expr.symbols)
        assert plan[5]
        real, negative_zeros = bounds._party_major_products, []

        def products(factors, buffers=None, start=None):
            terms = real(factors, buffers, start)
            flat = terms.view(float)
            negative_zeros.append(int(np.sum((flat == 0) & np.signbit(flat))))
            return terms

        monkeypatch.setattr(bounds, "_party_major_products", products)
        got = bounds._render(plan, mats)[0]
        want = kron_render(expr, blochs)
        assert sum(negative_zeros) > 0
        assert not np.signbit(want.view(float)[want.view(float) == 0]).any()
        assert_same_bits(got, want, str(expr))

    def test_catalog_seesaw_rows_fold_where_coefficients_are_unit(self, monkeypatch):
        # the l5 rows' coefficients are +-1, so each chain starts from its
        # coefficient; CHSH's are +-0.9999999999999999, one ulp below 1, so its
        # terms are scaled after the chain
        rows = catalog_seesaw_rows(monkeypatch)
        starts = record_chain_starts(monkeypatch)
        for name, (expr, restarts, seed) in rows.items():
            starts.clear()
            seesaw_optimize(expr, restarts=restarts, seed=seed, max_sweeps=1)
            assert starts, name
            if name == "chsh":
                assert set(np.abs(expr.factor_table()[1]).tolist()) == {1 - 2 ** -53}
                assert all(start is None for start in starts)
            else:
                assert all(start is not None and np.all(abs(start) == 1)
                           for start in starts), name

    def test_random_expressions_with_constant(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            parties = int(rng.integers(1, 5))
            expr = random_expression(rng, parties, sparse=False,
                                     constant=float(rng.normal()) or 1.0)
            assert expr.constant != 0.0
            self.check_renders(expr, rng)

    def test_terms_leaving_parties_out(self):
        rng = np.random.default_rng(42)
        left_out = 0
        for _ in range(40):
            parties = int(rng.integers(2, 6))
            expr = random_expression(rng, parties, sparse=True,
                                     constant=float(rng.integers(-1, 2)))
            left_out += sum(len(key) < parties for key in expr.terms)
            self.check_renders(expr, rng)
        assert left_out >= 40

    @pytest.mark.parametrize("case", ["chsh", "single-term", "random-3-party"])
    def test_seesaw_matches_kron_loop(self, case):
        if case == "chsh":
            expr, _ = chsh_expression()
        elif case == "single-term":
            expr = BellExpression(2, {((0, "A"), (1, "B")): 1.0})
        else:
            expr = random_expression(np.random.default_rng(43), 3, sparse=True,
                                     constant=0.5)
            assert len(expr.symbols) >= 3
        for seed in range(4):
            self.check_seesaw(expr, restarts=3, seed=seed)

    def test_seesaw_matches_kron_loop_three_settings_per_party(self):
        # l5-hyper: each party's three leave-one-out operators come from one
        # stack, where the kron loop renders and updates them one at a time
        self.check_seesaw(loop5_expressions()[1], restarts=2, seed=5)

    def test_catalog_seesaw_rows_match_kron_loop(self, monkeypatch):
        # each row's own expression, restarts and seed; l5-svetlichny's best
        # settings hold zero Bloch components, whose +0.0 the update must keep
        rows = catalog_seesaw_rows(monkeypatch)
        for name, restarts in (("l5-svetlichny", 6), ("l5-hyper", 6), ("chsh", 8)):
            expr, *call = rows[name]
            assert call == [restarts, cases.RunConfig().case_seed(name)]
            res = self.check_seesaw(expr, restarts, call[1])
            if name == "l5-svetlichny":
                assert any(c == 0 for b in res.best_bloch.values() for c in b)

    @staticmethod
    def check_seesaw(expr, restarts, seed, max_sweeps=500):
        res = seesaw_optimize(expr, restarts=restarts, seed=seed, max_sweeps=max_sweeps)
        value, best_bloch, trajectories = kron_seesaw(expr, restarts, seed, max_sweeps)
        assert res.value.hex() == value.hex()
        assert {s: [c.hex() for c in b] for s, b in res.best_bloch.items()} == \
            {s: [c.hex() for c in b] for s, b in best_bloch.items()}
        assert [[v.hex() for v in t] for t in res.trajectories] == \
            [[v.hex() for v in t] for t in trajectories]
        return res


def count_renders(monkeypatch):
    """Patch ``bounds._render`` to record the number of operators of each call."""
    real, sizes = bounds._render, []

    def render(plan, mats, work=None):
        stack = real(plan, mats, work)
        sizes.append(len(stack))
        return stack

    monkeypatch.setattr(bounds, "_render", render)
    return sizes


class TestSeesawBatches:
    """Restarts run together; each must still compute what it would alone."""

    check_seesaw = staticmethod(TestSeesawRender.check_seesaw)

    @pytest.mark.parametrize("which, seed", [(0, 0), (1, 2)])
    def test_restarts_leaving_at_different_sweeps(self, which, seed):
        # l5-svetlichny at seed 0 runs 2, 4, 4 and 5 sweeps, l5-hyper at seed 2
        # 2, 8, 5 and 4, so the batch shrinks sweep by sweep
        res = self.check_seesaw(loop5_expressions()[which], restarts=4, seed=seed)
        lengths = [len(t) for t in res.trajectories]
        assert len(set(lengths)) > 2, lengths

    def test_cut_off_by_max_sweeps(self):
        # l5-hyper at seed 1 runs 2, 17, 4 and 4 sweeps: three restarts stop
        # at the cap before converging, restart 0 converges first
        res = self.check_seesaw(loop5_expressions()[1], restarts=4, seed=1, max_sweeps=3)
        assert [len(t) for t in res.trajectories] == [2, 3, 3, 3]
        assert res.trajectories[1][-1] - res.trajectories[1][-2] > 1e-9

    def test_no_sweeps(self):
        chsh, _ = chsh_expression()
        res = seesaw_optimize(chsh, restarts=3, max_sweeps=0)
        assert (res.value, res.best_bloch, res.trajectories) == (-math.inf, {}, [[], [], []])

    @pytest.mark.parametrize("terms_per_chunk", [1, 3, None])
    def test_tiled_render_matches_each_restart(self, monkeypatch, terms_per_chunk):
        # restarts 0, 2 and 3 of four still running, and 3, 0 and 2 out of
        # order: one render of their settings stack gives each one's operators
        # as its own render on its own settings does, also when one restart's
        # terms share a chunk with the next one's
        rng = np.random.default_rng(48)
        for _ in range(12):
            parties = int(rng.integers(1, 5))
            if terms_per_chunk:
                monkeypatch.setattr(bounds, "_RENDER_CHUNK_BYTES",
                                    terms_per_chunk * 16 * 4 ** parties)
            expr = random_expression(rng, parties, sparse=bool(parties % 2),
                                     constant=float(rng.integers(-1, 2)))
            symbols = expr.symbols
            mats = np.stack([random_settings(rng, symbols)[1] for _ in range(4)])
            for running in (np.array([0, 2, 3]), np.array([3, 0, 2])):
                for party in [None, *{sym[0] for sym in symbols}]:
                    plan = bounds._render_plan(expr, symbols, party)
                    got = bounds._render(plan, mats[running])
                    want = np.concatenate([bounds._render(plan, mats[r]) for r in running])
                    assert_same_bits(got, want, (str(expr), party))

    @pytest.mark.parametrize("restarts_per_batch", [1, 2])
    def test_several_batches(self, monkeypatch, restarts_per_batch):
        # l5-hyper's largest party stack holds 3 operators of 32 x 32; a
        # budget of that many restarts' stacks splits 3 restarts into batches
        expr = loop5_expressions()[1]
        monkeypatch.setattr(bounds, "_SEESAW_BATCH_BYTES",
                            restarts_per_batch * 3 * 16 * 32 * 32)
        sizes = count_renders(monkeypatch)
        res = self.check_seesaw(expr, restarts=3, seed=2)
        longest = [max(len(t) for t in res.trajectories[first:first + restarts_per_batch])
                   for first in range(0, 3, restarts_per_batch)]
        assert len(sizes) == sum(1 + (expr.parties + 1) * s for s in longest)
        assert max(sizes) == 3 * restarts_per_batch

    @pytest.mark.parametrize("restarts", [6, 12])
    def test_render_calls_do_not_grow_with_restarts(self, monkeypatch, restarts):
        # one render of every running restart's operator to start, then per
        # sweep one per party and one of the operators
        expr = loop5_expressions()[1]
        sizes = count_renders(monkeypatch)
        res = seesaw_optimize(expr, restarts=restarts, seed=1)
        longest = max(len(t) for t in res.trajectories)
        assert len(sizes) == 1 + (expr.parties + 1) * longest
        # the first sweep renders every restart's three leave-one-out operators
        assert sizes[:2] == [restarts, 3 * restarts]

    def test_seesaw_error_from_a_later_restart(self, monkeypatch):
        # restarts run sweep by sweep: calls 1-3 are the first sweep of
        # restarts 0-2, call 5 restart 1's second sweep, which gets |00> and
        # so ends at most at 2, below the 2*sqrt(2) of its first sweep
        expr, _ = chsh_expression()
        real = bounds.top_eigenpair
        calls = []

        def eigenpair(m, work=None):
            calls.append(1)
            if len(calls) == 5:
                return 0.0, np.eye(4, dtype=complex)[0]
            return real(m, work)

        monkeypatch.setattr(bounds, "top_eigenpair", eigenpair)
        with pytest.raises(SeesawError, match="restart 1 decreased"):
            seesaw_optimize(expr, restarts=3, seed=0)
        assert len(calls) == 6

    def test_memory_grows_by_the_stacks_of_each_restart(self):
        # 96 terms on 7 parties, 3 settings each: a restart adds its party
        # stack, that stack times its state, its state and its operator, all
        # 128 x 128, beside the render buffers; a batch holds at most
        # _SEESAW_BATCH_BYTES of stacks, so 6 restarts peak as 5 do
        rng = np.random.default_rng(46)
        expr = seven_party_expression(rng, ["A", "B", "C"])
        operator = 16 * 128 * 128
        batch = bounds._SEESAW_BATCH_BYTES // (3 * operator)
        assert batch == 5
        for restarts in (2, 6):
            tracemalloc.start()
            try:
                seesaw_optimize(expr, restarts=restarts, seed=1, max_sweeps=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            running = min(restarts, batch)
            assert peak <= 2 * bounds._RENDER_CHUNK_BYTES + (8 * running + 5) * operator
