"""Uncertainty relation for Bell operator pairs and quadratic inequalities."""

import inspect
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from bellforge.bell import BellExpression
from bellforge.cases import RunConfig
from bellforge.logical import bell_logical_paulis, logical_paulis_numeric
from bellforge.pauli import _PAULI_2X2, bloch_sum
from bellforge.stabilizer import bell_basis
from helpers import (
    check_density,
    random_densities,
    random_density,
    random_pure_state,
    sums_match,
)
from bellforge.uncertainty import (
    DISC_BOUND,
    SweepResult,
    _ZX_PRODUCTS,
    _check_not_parallel,
    _ellipse,
    _pair_vertices,
    _random_expectations,
    bell_op_xz,
    lemma_sweep,
    quadratic_bell,
    quadratic_quantum_sweep,
    uffink_attaining_value,
    uncertainty_lhs,
    uncertainty_sweep,
)

ROOT2 = math.sqrt(2)


# --- the single-qubit lemma and the square-in-disc picture, test-only --------

def lemma_check(a1, a2, rho: np.ndarray) -> float:
    """Single-qubit ellipse functional; at most 1 for any qubit state."""
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    if np.linalg.norm(np.cross(a1, a2)) < 1e-12:
        raise ValueError("Bloch vectors are parallel")
    e1, e2 = bloch_sum(a1).expectation(rho), bloch_sum(a2).expectation(rho)
    plus = float(np.linalg.norm(a1 + a2)) ** 2
    minus = float(np.linalg.norm(a1 - a2)) ** 2
    return _ellipse(e1, e2, plus, minus)


def square_in_disc_check(theta1: float, theta2: float
                         ) -> tuple[bool, float, list[tuple[float, float]]]:
    """All LHV vertices of the symbolized operator pair satisfy the ellipse bound.

    For orthogonal directions the ellipse is the disc x^2 + y^2 <= 8 and the
    extreme classical points sit exactly on the circle.
    """
    plus, minus = _check_not_parallel(theta1, theta2)
    root2 = math.sqrt(2)
    A = [(0, "A"), (0, "B"), (1, "A"), (1, "B")]
    a1, b1, a2, b2 = A

    def expr_for(theta: float) -> BellExpression:
        s, c = math.sin(theta), math.cos(theta)
        # 2*sqrt2*(sin*X + cos*Z) on the Bell basis, symbols Z->A, X->B
        return BellExpression(2, {
            (a1, a2): root2 * c, (b1, b2): root2 * c,
            (a1, b2): root2 * s, (b1, a2): -root2 * s,
        })

    e1, e2 = expr_for(theta1), expr_for(theta2)
    vertices = list(zip(*_pair_vertices(e1, e2).tolist()))
    worst = max(_ellipse(x, y, plus, minus) for x, y in vertices)
    return worst <= DISC_BOUND + 1e-9, worst, vertices



def bell_ops():
    return logical_paulis_numeric(bell_basis())


def bell_state_density():
    v = bell_basis().zero_ket
    return np.outer(v, v.conj())


class TestBellOpXZ:
    def test_zero_angle(self):
        op = bell_op_xz(bell_ops(), 0.0)
        assert dict(op.to_strings()) == pytest.approx({"XX": ROOT2, "ZZ": ROOT2})

    def test_quarter_turn(self):
        op = bell_op_xz(bell_ops(), math.pi / 2)
        assert sums_match(op, 2 * ROOT2 * bell_ops().x, atol=1e-12)

    def test_diagonal(self):
        op = bell_op_xz(bell_ops(), math.pi / 4)
        want = 2.0 * (bell_ops().x + bell_ops().z)
        assert sums_match(op, want, atol=1e-12)


class TestUncertaintyLHS:
    def test_saturation_on_bell_state(self):
        lhs = uncertainty_lhs(bell_state_density(), 0.0, math.pi / 2, bell_ops())
        assert abs(lhs - 8.0) < 1e-8

    def test_maximally_mixed(self):
        lhs = uncertainty_lhs(np.eye(4) / 4, 0.0, math.pi / 2, bell_ops())
        assert abs(lhs) < 1e-12

    def test_parallel_rejected(self):
        with pytest.raises(ValueError):
            uncertainty_lhs(np.eye(4) / 4, 0.3, 0.3)
        with pytest.raises(ValueError):
            uncertainty_lhs(np.eye(4) / 4, 0.0, math.pi)

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
            lhs = uncertainty_lhs(rho, 0.0, math.pi / 2, ops)
            worst = max(worst, lhs)
        assert worst <= 4.0 + 1e-9

    def test_population_outside_code_space_never_helps(self):
        ops = bell_ops()
        op = bell_op_xz(ops, 0.7)
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
        # the batched density oracle against one matrix product per sample
        samples = 500
        rng = np.random.default_rng(3)
        g = rng.normal(size=(samples, dim, dim)) + 1j * rng.normal(size=(samples, dim, dim))
        rhos = g @ g.conj().transpose(0, 2, 1)
        want = rhos / np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
        mine = np.random.default_rng(3)
        got = random_densities(mine, samples, dim)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15
        assert mine.random() == rng.random()    # the same draws, no more
        check_density(got[0])

    @pytest.mark.parametrize("kind", ["symmetric", "hermitian"])
    @pytest.mark.parametrize("samples", [1, 256, 1025, 10000])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_expectations_match_density_oracle(self, dim, samples, kind):
        obs = random_observables(np.random.default_rng(dim), dim, kind)
        rng = np.random.default_rng(3)
        rhos = random_densities(rng, samples, dim)
        want = np.einsum("kij,cji->ck", rhos, obs).real
        mine = np.random.default_rng(3)
        got = _random_expectations(mine, samples, obs)
        assert got.shape == (len(obs), samples)
        scale = np.abs(obs).sum(axis=(1, 2))[:, None]
        assert np.all(np.abs(got - want) <= 1e-14 * scale)
        assert mine.random() == rng.random()    # the same draws, no more

    def test_expectations_peak_memory(self):
        # the draws laid out samples-last (the size of the densities they
        # replace) are held beside one part's raw draws or the correlator
        # rows, each at most half that; the densities, G and its conjugate
        # would be three times the first
        samples, dim = 10000, 4
        obs = random_observables(np.random.default_rng(0), dim, "hermitian")
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            _random_expectations(rng, samples, obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.7 * 16 * samples * dim * dim


def random_observables(rng, dim, kind, count=3):
    """``count`` random real-symmetric or complex-Hermitian dim x dim matrices."""
    m = rng.normal(size=(count, dim, dim))
    if kind == "hermitian":
        m = m + 1j * rng.normal(size=(count, dim, dim))
    return (m + m.conj().transpose(0, 2, 1)) / 2


def closure_sweep(case, samples, seed):
    """quadratic_quantum_sweep with one angle array per symbol and a per-term
    expectation closure: the oracle for the factor-table form."""
    rng = np.random.default_rng(seed)
    t = _random_expectations(rng, samples, _ZX_PRODUCTS).reshape(2, 2, samples)
    angles = {(p, lab): rng.uniform(-math.pi, math.pi, size=samples)
              for p in (0, 1) for lab in ("A", "B")}

    def expectation(sym_a, sym_b):
        ta, tb = angles[sym_a], angles[sym_b]
        comp_a = np.stack([np.cos(ta), np.sin(ta)])
        comp_b = np.stack([np.cos(tb), np.sin(tb)])
        return np.einsum("ak,bk,abk->k", comp_a, comp_b, t)

    def value(expr):
        out = np.full(samples, expr.constant)
        for (sym_a, sym_b), coeff in expr.terms.items():
            out = out + coeff * expectation(sym_a, sym_b)
        return out

    lhs = value(case.expr1) ** 2 + value(case.expr2) ** 2
    k = int(np.argmax(lhs))
    return SweepResult(float(lhs[k]), {"sample": k})


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
        ok, worst, vertices = square_in_disc_check(0.0, math.pi / 2)
        assert ok
        assert abs(worst - 8.0) < 1e-9      # extreme points exactly on the circle
        assert len(vertices) == 16

    def test_non_orthogonal_pair(self):
        ok, worst, _ = square_in_disc_check(0.3, 1.2)
        assert ok
        assert worst <= 8.0 + 1e-9


# --- the sweeps against the density route they replace -------------------------

def density_relation_sweep(samples, seed):
    """uncertainty_sweep through explicit densities."""
    rng = np.random.default_rng(seed)
    ops = bell_logical_paulis()
    b_x = (2 * ROOT2 * ops.x).to_dense()
    b_z = (2 * ROOT2 * ops.z).to_dense()
    rhos = random_densities(rng, samples, 4)
    t1 = rng.uniform(0, math.pi, size=samples)
    t2 = rng.uniform(0, math.pi, size=samples)
    keep = np.abs(np.sin(t1 - t2)) > 1e-6
    ex = np.einsum("kij,ji->k", rhos, b_x).real
    ez = np.einsum("kij,ji->k", rhos, b_z).real
    b1 = np.sin(t1) * ex + np.cos(t1) * ez
    b2 = np.sin(t2) * ex + np.cos(t2) * ez
    plus = (np.sin(t1) + np.sin(t2)) ** 2 + (np.cos(t1) + np.cos(t2)) ** 2
    minus = (np.sin(t1) - np.sin(t2)) ** 2 + (np.cos(t1) - np.cos(t2)) ** 2
    lhs = np.where(keep, (b1 + b2) ** 2 / plus + (b1 - b2) ** 2 / minus, -np.inf)
    k = int(np.argmax(lhs))
    return SweepResult(float(lhs[k]),
                       {"sample": k, "theta1": float(t1[k]), "theta2": float(t2[k])})


def density_lemma_sweep(samples, seed):
    """lemma_sweep through explicit densities."""
    rng = np.random.default_rng(seed)
    a1 = rng.normal(size=(samples, 3))
    a1 /= np.linalg.norm(a1, axis=1)[:, None]
    a2 = rng.normal(size=(samples, 3))
    a2 /= np.linalg.norm(a2, axis=1)[:, None]
    keep = np.linalg.norm(np.cross(a1, a2), axis=1) > 1e-8
    rhos = random_densities(rng, samples, 2)
    paulis = np.stack([_PAULI_2X2[c] for c in "XYZ"])
    bloch = np.einsum("kij,cji->kc", rhos, paulis).real
    e1 = np.sum(a1 * bloch, axis=1)
    e2 = np.sum(a2 * bloch, axis=1)
    plus = np.sum((a1 + a2) ** 2, axis=1)
    minus = np.sum((a1 - a2) ** 2, axis=1)
    lhs = np.where(keep, (e1 + e2) ** 2 / plus + (e1 - e2) ** 2 / minus, -np.inf)
    k = int(np.argmax(lhs))
    return SweepResult(float(lhs[k]), {"sample": k})


def density_quadratic_sweep(case, samples, seed):
    """quadratic_quantum_sweep through explicit densities."""
    rng = np.random.default_rng(seed)
    rhos = random_densities(rng, samples, 4)
    symbols = [(p, lab) for p in (0, 1) for lab in ("A", "B")]
    angles = np.stack([rng.uniform(-math.pi, math.pi, size=samples) for _ in symbols])
    comps = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    basis = [_PAULI_2X2["Z"], _PAULI_2X2["X"]]
    prods = np.stack([np.kron(p, q) for p in basis for q in basis]).reshape(2, 2, 4, 4)
    t = np.einsum("kij,abji->kab", rhos, prods).real

    def value(expr):
        index, coeffs = expr.factor_table(symbols)
        out = np.full(samples, expr.constant)
        for (a, b), coeff in zip(index, coeffs):
            out = out + coeff * np.einsum("ak,bk,kab->k", comps[a - 1], comps[b - 1], t)
        return out

    lhs = value(case.expr1) ** 2 + value(case.expr2) ** 2
    k = int(np.argmax(lhs))
    return SweepResult(float(lhs[k]), {"sample": k})


def sweep_pair(name):
    """(sweep, density-route oracle, catalog seed name) for one sweep."""
    if name in ("uffink", "nki"):
        case = quadratic_bell(name)
        return (partial(quadratic_quantum_sweep, case),
                partial(density_quadratic_sweep, case), name)
    if name == "relation":
        return uncertainty_sweep, density_relation_sweep, "uncertainty-sweep"
    return lemma_sweep, density_lemma_sweep, "lemma-sweep"


SWEEP_NAMES = ["relation", "lemma", "uffink", "nki"]


class TestSweepsAgainstDensityRoute:
    @pytest.mark.parametrize("name", SWEEP_NAMES)
    def test_same_argmax_and_maximum(self, name):
        # seeds 0-19, then the seed the seed-7 catalog row runs at, with the
        # sweep's default sample count, which the row uses
        sweep, oracle, seed_name = sweep_pair(name)
        runs = [(4000, seed) for seed in range(20)]
        runs.append((inspect.signature(sweep).parameters["samples"].default,
                     RunConfig().case_seed(seed_name)))
        for samples, seed in runs:
            got, want = sweep(samples=samples, seed=seed), oracle(samples, seed)
            assert got.argmax == want.argmax, (name, seed)
            assert got.max_lhs == pytest.approx(want.max_lhs, rel=1e-13, abs=0)


class TestSweepSampleCount:
    @pytest.mark.parametrize("samples", [0, -3])
    @pytest.mark.parametrize("name", ["relation", "lemma", "uffink"])
    def test_rejects_fewer_than_one_sample(self, name, samples):
        sweep = sweep_pair(name)[0]
        with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
            sweep(samples=samples)
