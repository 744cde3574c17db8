"""The batched Pauli kernel and the mask-walking symbolize against the
term-by-term oracles in ``helpers``, bit for bit, on seeded random inputs."""

import tracemalloc

import numpy as np
import pytest

from bellforge import pauli
from bellforge.bell import symbolize
from bellforge.pauli import COEFF_PRUNE, PauliSum, PauliTerm, product
from helpers import (
    bits,
    product_by_terms,
    sum_apply,
    sum_to_dense,
    symbolize_by_terms,
    term_apply,
    term_to_dense,
)

# default; one term per chunk; three terms per chunk at n = 8 (more below it)
BUDGETS = [pauli._KERNEL_CHUNK_BYTES, 1, 3 * (pauli._KERNEL_ENTRY_BYTES << 8)]


def random_coeff(rng):
    """Mixed signs and magnitudes, some just above ``COEFF_PRUNE``."""
    kind = rng.integers(0, 4)
    if kind == 0:
        mag = COEFF_PRUNE * (1.0 + rng.random())
    elif kind == 1:
        mag = float(rng.integers(1, 4))
    else:
        mag = abs(rng.normal()) + 1e-3
    return float(mag if rng.random() < 0.5 else -mag)


def random_sum(rng, n, runs, terms):
    """A sum whose terms share ``runs`` x masks, so runs hold several terms."""
    xs = rng.integers(0, 1 << n, size=runs)
    keys = {(int(rng.choice(xs)), int(rng.integers(0, 1 << n))) for _ in range(terms)}
    return PauliSum(n, {k: random_coeff(rng) for k in sorted(keys)})


def sums(seed):
    rng = np.random.default_rng(seed)
    out = []
    for n in range(1, 9):
        for runs, terms in ((1, 6), (3, 12), (1 << n, 3 << n)):
            out.append(random_sum(rng, n, runs, terms))
    # long runs beside many short ones, past one kernel chunk at n = 8
    out.append(random_sum(rng, 8, 3, 600) + random_sum(rng, 8, 150, 150))
    out.append(PauliSum.zero(3))
    out.append(PauliSum.identity(2, -0.5))
    return out


class TestRenderAgainstTermOracle:
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_sum_to_dense_bit_identical(self, monkeypatch, budget):
        monkeypatch.setattr(pauli, "_KERNEL_CHUNK_BYTES", budget)
        for op in sums(1201):
            assert np.array_equal(bits(op.to_dense()), bits(sum_to_dense(op)))

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_sum_apply_bit_identical(self, monkeypatch, budget):
        monkeypatch.setattr(pauli, "_KERNEL_CHUNK_BYTES", budget)
        rng = np.random.default_rng(1202)
        for op in sums(1203):
            vec = rng.normal(size=1 << op.n) + 1j * rng.normal(size=1 << op.n)
            vec[::3] = -0.0
            assert np.array_equal(bits(op.apply(vec)), bits(sum_apply(op, vec)))

    def test_terms_bit_identical(self):
        rng = np.random.default_rng(1204)
        for n in range(1, 9):
            for _ in range(6):
                x, z = (int(m) for m in rng.integers(0, 1 << n, size=2))
                vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
                for phase in range(4):
                    t = PauliTerm(n, x, z, phase)
                    assert np.array_equal(bits(t.to_dense()), bits(term_to_dense(t)))
                    assert np.array_equal(bits(t.apply(vec)), bits(term_apply(t, vec)))

    def test_runs_and_prune_edge_are_exercised(self):
        ops = sums(1201)
        longest = max(np.bincount([x for x, _ in op._terms]).max() for op in ops if len(op))
        small = [c for op in ops for c in op._terms.values() if abs(c) < 2 * COEFF_PRUNE]
        assert longest > pauli._chunk_terms(8)
        assert {np.sign(c) for c in small} == {-1.0, 1.0}


class TestRenderMemory:
    def test_to_dense_peak_is_output_plus_budget(self):
        rng = np.random.default_rng(1205)
        n = 10
        op = random_sum(rng, n, 3, 400) + random_sum(rng, n, 200, 200)
        output = 16 << (2 * n)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            dense = op.to_dense()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dense.nbytes == output
        assert peak <= output + pauli._KERNEL_CHUNK_BYTES


class TestProductAgainstTermProducts:
    def test_products_bit_identical(self):
        rng = np.random.default_rng(1207)
        for n in range(1, 7):
            for _ in range(8):
                a, b = random_sum(rng, n, 3, 6), random_sum(rng, n, 3, 6)
                # a commutes with itself, so a @ a is Hermitian; i [a, b] mixes phases
                for scale, left, right in ((1.0, a, a), (2.5, a, a), (1j, a, b)):
                    try:
                        oracle = product_by_terms(left, right, scale)
                    except ValueError:
                        with pytest.raises(ValueError):
                            product(left, right, scale)
                        continue
                    mine = product(left, right, scale)
                    assert [(k, c.hex()) for k, c in mine._terms.items()] == \
                        [(k, c.hex()) for k, c in oracle._terms.items()]


def symbolize_results(op, symbol_map):
    """Everything ``symbolize`` hands back, with coefficients as hex strings."""
    expr, bindings = symbolize(op, symbol_map)
    return ([(k, c.hex()) for k, c in expr.terms.items()], expr.constant.hex(),
            [(sym, s.party, s.label, s.op.to_strings()) for sym, s in bindings.items()])


def oracle_results(op, symbol_map):
    expr, bindings = symbolize_by_terms(op, symbol_map)
    return ([(k, c.hex()) for k, c in expr.terms.items()], expr.constant.hex(),
            [(sym, s.party, s.label, s.op.to_strings()) for sym, s in bindings.items()])


MAPS = [{"Z": "A", "X": "B", "Y": "C"}, {"X": "x", "Y": "y", "Z": "z"},
        {"Y": "A", "Z": "B", "X": "C"}]


class TestSymbolizeAgainstTermWalk:
    @pytest.mark.parametrize("symbol_map", MAPS)
    def test_terms_constant_and_bindings(self, symbol_map):
        ops = sums(1206)
        for op in ops:
            assert symbolize_results(op, symbol_map) == oracle_results(op, symbol_map)
        letters = {t.letter(q) for op in ops for t, _ in op.items() for q in range(op.n)}
        assert letters == set("IXYZ")
        assert any((0, 0) in op._terms for op in ops)

    def test_identity_term_and_every_letter(self):
        op = PauliSum.from_strings([("II", 0.25), ("XI", 1.0), ("IY", -2.0),
                                    ("ZX", 0.5), ("YZ", -1e-13)])
        symbol_map = {"Z": "A", "X": "B", "Y": "C"}
        assert symbolize_results(op, symbol_map) == oracle_results(op, symbol_map)
        expr, _ = symbolize(op, symbol_map)
        assert expr.constant == 0.25

    def test_same_errors(self):
        op = PauliSum.from_strings([("XZ", 1.0), ("YI", 1.0)])
        symbol_map = {"Z": "A", "X": "B"}
        with pytest.raises(ValueError) as mine:
            symbolize(op, symbol_map)
        with pytest.raises(ValueError) as oracle:
            symbolize_by_terms(op, symbol_map)
        assert str(mine.value) == str(oracle.value)
