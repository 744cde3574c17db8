"""Uncertainty relation for Bell operator pairs and quadratic inequalities."""

import math
import tracemalloc

import numpy as np
import pytest

from bellforge.bell import BellExpression
from bellforge.logical import logical_paulis_numeric
from bellforge.pauli import _PAULI_2X2
from bellforge.stabilizer import bell_basis
from helpers import sums_match
from bellforge.uncertainty import (
    DirectionXZ,
    SweepResult,
    _random_densities,
    bell_op_xz,
    check_density,
    lemma_check,
    lemma_sweep,
    quadratic_bell,
    quadratic_quantum_sweep,
    random_density,
    random_pure_state,
    square_in_disc_check,
    uffink_attaining_value,
    uncertainty_lhs,
    uncertainty_sweep,
)

ROOT2 = math.sqrt(2)


def bell_ops():
    return logical_paulis_numeric(bell_basis())


def bell_state_density():
    v = bell_basis().zero_ket
    return np.outer(v, v.conj())


class TestBellOpXZ:
    def test_zero_angle(self):
        op = bell_op_xz(bell_ops(), DirectionXZ(0.0))
        assert dict(op.to_strings()) == pytest.approx({"XX": ROOT2, "ZZ": ROOT2})

    def test_quarter_turn(self):
        op = bell_op_xz(bell_ops(), DirectionXZ(math.pi / 2))
        assert sums_match(op, 2 * ROOT2 * bell_ops().x, atol=1e-12)

    def test_diagonal(self):
        op = bell_op_xz(bell_ops(), DirectionXZ(math.pi / 4))
        want = 2.0 * (bell_ops().x + bell_ops().z)
        assert sums_match(op, want, atol=1e-12)


class TestUncertaintyLHS:
    def test_saturation_on_bell_state(self):
        lhs = uncertainty_lhs(bell_state_density(), DirectionXZ(0.0),
                              DirectionXZ(math.pi / 2), bell_ops())
        assert abs(lhs - 8.0) < 1e-8

    def test_maximally_mixed(self):
        lhs = uncertainty_lhs(np.eye(4) / 4, DirectionXZ(0.0),
                              DirectionXZ(math.pi / 2), bell_ops())
        assert abs(lhs) < 1e-12

    def test_parallel_rejected(self):
        with pytest.raises(ValueError):
            uncertainty_lhs(np.eye(4) / 4, DirectionXZ(0.3), DirectionXZ(0.3))
        with pytest.raises(ValueError):
            uncertainty_lhs(np.eye(4) / 4, DirectionXZ(0.0), DirectionXZ(math.pi))

    def test_sweep_respects_bound(self):
        sw = uncertainty_sweep(samples=10000, seed=123)
        assert sw.max_lhs <= 8.0 + 1e-9

    def test_product_states_stay_in_classical_square(self):
        rng = np.random.default_rng(42)
        ops = bell_ops()
        worst = -1.0
        for _ in range(2000):
            ra = random_density(rng, 2)
            rb = random_density(rng, 2)
            rho = np.kron(ra, rb)
            lhs = uncertainty_lhs(rho, DirectionXZ(0.0), DirectionXZ(math.pi / 2), ops)
            worst = max(worst, lhs)
        assert worst <= 4.0 + 1e-9

    def test_population_outside_code_space_never_helps(self):
        ops = bell_ops()
        op = bell_op_xz(ops, DirectionXZ(0.7))
        rho_code = bell_state_density()
        r = 1 / ROOT2
        two = np.array([r, 0, 0, -r], dtype=complex)
        rho_out = np.outer(two, two.conj())
        base = abs(op.expectation(rho_code))
        for eps in (0.1, 0.4, 0.9):
            mixed = (1 - eps) * rho_code + eps * rho_out
            assert abs(op.expectation(mixed)) <= base + 1e-12


class TestLemma:
    def test_saturation(self):
        lhs = lemma_check([1, 0, 0], [0, 0, 1], np.diag([1.0, 0.0]))
        assert abs(lhs - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert abs(lemma_check([1, 0, 0], [0, 0, 1], np.eye(2) / 2)) < 1e-12

    def test_parallel_rejected(self):
        with pytest.raises(ValueError):
            lemma_check([0, 0, 1], [0, 0, -1], np.eye(2) / 2)

    def test_sweep(self):
        sw = lemma_sweep(samples=10000, seed=99)
        assert sw.max_lhs <= 1.0 + 1e-10


class TestSamplers:
    def test_pure_state_normalized(self):
        rng = np.random.default_rng(0)
        v = random_pure_state(rng, 8)
        assert abs(np.linalg.norm(v) - 1) < 1e-12

    def test_density_valid(self):
        rng = np.random.default_rng(0)
        check_density(random_density(rng, 4))

    def test_check_density_rejects(self):
        with pytest.raises(ValueError):
            check_density(np.diag([2.0, -1.0]))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_batched_densities_match_expression_oracle(self, dim):
        self.check_densities(dim, 500)

    @pytest.mark.parametrize("dim, samples", [(4, 256), (3, 1), (4, 1025)])
    def test_densities_at_product_block_edges(self, dim, samples):
        # one full block, one sample, and four full blocks and one sample
        self.check_densities(dim, samples)

    @staticmethod
    def check_densities(dim, samples):
        # the sampler as one expression, with its sample-sized temporaries
        rng = np.random.default_rng(3)
        g = rng.normal(size=(samples, dim, dim)) + 1j * rng.normal(size=(samples, dim, dim))
        rhos = np.einsum("kij,klj->kil", g, g.conj())
        want = rhos / np.einsum("kii->k", rhos).real[:, None, None]
        mine = np.random.default_rng(3)
        got = _random_densities(mine, samples, dim)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert mine.random() == rng.random()    # the same draws, no more
        check_density(got[0])

    def test_densities_need_half_their_size_beside_them(self):
        # the real parts (half the output) are the only sample-sized
        # temporary; the output, G and its conjugate at once would be three
        # times the output
        samples, dim = 10000, 4
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            _random_densities(rng, samples, dim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 16 * samples * dim * dim


def closure_sweep(case, samples, seed):
    """quadratic_quantum_sweep with one angle array per symbol and a per-term
    expectation closure: the oracle for the factor-table form."""
    rng = np.random.default_rng(seed)
    rhos = _random_densities(rng, samples, 4)
    angles = {(p, lab): rng.uniform(-math.pi, math.pi, size=samples)
              for p in (0, 1) for lab in ("A", "B")}
    basis = [_PAULI_2X2["Z"], _PAULI_2X2["X"]]
    prods = np.stack([np.kron(p, q) for p in basis for q in basis]).reshape(2, 2, 4, 4)
    t = np.einsum("kij,abji->kab", rhos, prods).real

    def expectation(sym_a, sym_b):
        ta, tb = angles[sym_a], angles[sym_b]
        comp_a = np.stack([np.cos(ta), np.sin(ta)])
        comp_b = np.stack([np.cos(tb), np.sin(tb)])
        return np.einsum("ak,bk,kab->k", comp_a, comp_b, t)

    def value(expr):
        out = np.full(samples, expr.constant)
        for (sym_a, sym_b), coeff in expr.terms.items():
            out = out + coeff * expectation(sym_a, sym_b)
        return out

    lhs = value(case.expr1) ** 2 + value(case.expr2) ** 2
    k = int(np.argmax(lhs))
    return SweepResult(samples, float(lhs[k]), case.bound, {"sample": k})


class TestQuadratic:
    def test_uffink_vertices_and_classical(self):
        case = quadratic_bell("uffink")
        assert case.classical_max == 4.0
        assert set((round(x), round(y)) for x, y in case.vertices) == \
            {(2, 0), (-2, 0), (0, 2), (0, -2)}

    def test_nki_vertices_and_classical(self):
        case = quadratic_bell("nki")
        assert case.classical_max == 8.0
        assert set((round(x), round(y)) for x, y in case.vertices) == \
            {(2, 2), (2, -2), (-2, 2), (-2, -2)}

    def test_sweeps(self):
        uff = quadratic_bell("uffink")
        nki = quadratic_bell("nki")
        assert quadratic_quantum_sweep(uff, samples=4000, seed=6).max_lhs <= 4 + 1e-9
        assert quadratic_quantum_sweep(nki, samples=4000, seed=7).max_lhs <= 8 + 1e-9

    @pytest.mark.parametrize("variant", ["uffink", "nki"])
    def test_sweep_matches_per_symbol_closure(self, variant):
        # the factor-table sweep against a per-term closure over per-symbol
        # angle draws, the form the sweep had before it read the table
        case = quadratic_bell(variant)
        for seed in range(6):
            got = quadratic_quantum_sweep(case, samples=3000, seed=seed)
            want = closure_sweep(case, samples=3000, seed=seed)
            assert got.max_lhs.hex() == want.max_lhs.hex(), (variant, seed)
            assert got.argmax == want.argmax, (variant, seed)

    def test_sweep_rejects_one_party_term(self):
        case = quadratic_bell("uffink")
        case.expr2 = BellExpression(2, {((0, "A"),): 1.0, ((0, "B"), (1, "A")): 1.0})
        with pytest.raises(ValueError, match="lacks a factor"):
            quadratic_quantum_sweep(case, samples=10)

    def test_uffink_attains_bound(self):
        assert abs(uffink_attaining_value() - 4.0) < 1e-9

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            quadratic_bell("chsh-squared")


class TestSquareInDisc:
    def test_orthogonal_pair(self):
        ok, worst, vertices = square_in_disc_check(DirectionXZ(0.0),
                                                   DirectionXZ(math.pi / 2))
        assert ok
        assert abs(worst - 8.0) < 1e-9      # extreme points exactly on the circle
        assert len(vertices) == 16

    def test_non_orthogonal_pair(self):
        ok, worst, _ = square_in_disc_check(DirectionXZ(0.3), DirectionXZ(1.2))
        assert ok
        assert worst <= 8.0 + 1e-9
