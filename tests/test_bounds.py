"""Classical enumeration, eigen bounds, SOS certificates, see-saw."""

import math
import tracemalloc
from itertools import product as iter_product

import numpy as np
import pytest

from bellforge import bounds
from bellforge.bell import (
    BellExpression,
    Setting,
    chained_construction,
    complementary_decompose,
    symbolize,
    symbolize_decomposed,
)
from bellforge.bounds import (
    BudgetError,
    SosCertificate,
    classical_bounds,
    classical_bounds_bruteforce,
    classical_sample_bound,
    dichotomic_term_bound,
    quantum_lower_bound,
    seesaw_optimize,
    sos_pairing_search,
    sos_verify,
)
from bellforge.cases import published_identity_expression
from bellforge.logical import logical_paulis_numeric, logical_paulis_symbolic
from bellforge.pauli import PauliSum, PauliTerm
from bellforge.stabilizer import GraphSpec, bell_basis, ghz3_basis, graph_state_generators

ROOT2 = math.sqrt(2)


def chsh_expression():
    ops = logical_paulis_numeric(bell_basis())
    dec = complementary_decompose((2 * ROOT2) * ops.z, pivot=1)
    expr, _ = symbolize_decomposed(dec)
    return expr, dec


def loop5_ops():
    return logical_paulis_symbolic(
        graph_state_generators(GraphSpec.loop(5)), PauliTerm.from_string("ZZZZZ"))


class TestClassicalBounds:
    def test_chsh(self):
        expr, _ = chsh_expression()
        cb = classical_bounds(expr)
        assert (cb.minimum, cb.maximum) == (-2.0, 2.0)

    def test_witness_attains_bound(self):
        expr, _ = chsh_expression()
        cb = classical_bounds(expr)
        assert abs(expr.evaluate(cb.witness_max) - cb.maximum) < 1e-9
        assert abs(expr.evaluate(cb.witness_min) - cb.minimum) < 1e-9

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
            values = [expr.evaluate(a) for a in vertices]
            lo, hi = classical_bounds_bruteforce(expr)
            assert (lo, hi) == (min(values), max(values))
            if even and symbols:
                assert values.count(hi) > 1 and values.count(lo) > 1
                ties += 1
            for block, per_axis in ((bounds.VERTEX_BLOCK, bounds._AXIS_SETTINGS),
                                    (8, 2), (2, 1)):
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
                    assert abs(expr.evaluate(cb.witness_min) - lo) < 1e-12
                    assert abs(expr.evaluate(cb.witness_max) - hi) < 1e-12
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
        with pytest.raises(BudgetError, match="sample"):
            classical_bounds(expr)
        sampled = classical_sample_bound(expr, samples=500, seed=1)
        assert not sampled.exact
        assert sampled.maximum <= 29.0

    def test_sampling_never_beats_enumeration(self):
        expr, _ = chsh_expression()
        cb = classical_bounds(expr)
        for seed in range(5):
            s = classical_sample_bound(expr, samples=200, seed=seed)
            assert s.maximum <= cb.maximum + 1e-12
            assert s.minimum >= cb.minimum - 1e-12

    def test_lexicographic_witness_tie_break(self):
        # A_0 * B_1 has four optima; the lexicographically smallest (+1 first,
        # symbols sorted) is all +1
        expr = BellExpression(2, {((0, "A"), (1, "B")): 1.0})
        cb = classical_bounds(expr)
        assert cb.witness_max == {(0, "A"): 1, (1, "B"): 1}
        assert cb.witness_min == {(0, "A"): 1, (1, "B"): -1}


class TestQuantumBounds:
    def test_chsh_operator(self):
        _, dec = chsh_expression()
        val, wit = quantum_lower_bound(dec.to_pauli_sum())
        assert abs(val - 2 * ROOT2) < 1e-9
        r = 1 / ROOT2
        assert np.allclose(wit, [r, 0, 0, r], atol=1e-8)

    def test_loop5_scaled_z(self):
        ops = loop5_ops()
        val, wit = quantum_lower_bound(16.0 * ops.z)
        assert abs(val - 16.0) < 1e-9
        overlap = abs(np.vdot(wit, ops.basis.zero_ket))
        assert abs(overlap - 1.0) < 1e-8

    def test_projector_reaches_16_on_any_code_state(self):
        ops = loop5_ops()
        op16 = 16.0 * ops.ident
        rng = np.random.default_rng(5)
        for _ in range(5):
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi = amps[0] * ops.basis.zero_ket + amps[1] * ops.basis.one_ket
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
        terms = dec.term_operators()
        cert, rep = sos_pairing_search(terms, 2 * ROOT2)
        assert cert is not None
        assert rep.pairing_ok and rep.residual <= 1e-10

    def test_svetlichny_certificate_found_by_search(self):
        g3 = logical_paulis_numeric(ghz3_basis())
        op = 4.0 * (g3.x - g3.z)
        terms = [c * PauliSum.from_terms([(t, 1.0)]) for t, c in op.items()]
        cert, rep = sos_pairing_search(terms, 4 * ROOT2)
        assert cert is not None
        assert rep.verified and rep.residual <= 1e-10

    def test_wrong_partition_fails_loudly(self):
        _, dec = chsh_expression()
        terms = dec.term_operators()
        # products come out in restriction order: Z.B, -Z.B', X.B, X.B';
        # pairing a B-setting term with a B'-setting term across different
        # first-party operators breaks the cancellation
        bad = SosCertificate(((0, 3), (1, 2)), 2 * ROOT2)
        rep = sos_verify(terms, bad)
        assert not rep.verified
        assert rep.residual >= 0.1

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            SosCertificate(((0, 1), (1, 2)), 1.0)
        _, dec = chsh_expression()
        with pytest.raises(ValueError):
            sos_verify(dec.term_operators(), SosCertificate(((0, 1),), 1.0))

    def test_wrong_bound_fails(self):
        _, dec = chsh_expression()
        terms = dec.term_operators()
        cert, rep = sos_pairing_search(terms, 2 * ROOT2)
        wrong = SosCertificate(cert.pairs, 3.0)
        assert not sos_verify(terms, wrong).verified


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
