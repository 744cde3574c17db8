"""The batched Pauli kernel and the array symbolize against the term-by-term
and mask-walking oracles in ``helpers``, bit for bit, the render of a
decomposed operator against the product route, and the matrix-free quantum
lower bound against dense ``eigh``, on seeded random inputs."""

import math
import tracemalloc

import numpy as np
import pytest

from bellforge import pauli
from bellforge.bell import (
    BellExpression,
    BellRecipe,
    DecompositionError,
    _letter_setting,
    build_logical,
    complementary_decompose,
    render_operator,
    render_terms,
    symbolize,
    symbolize_decomposed,
)
from bellforge.bounds import quantum_lower_bound
from bellforge.pauli import COEFF_PRUNE, PauliSum, PauliTerm, QubitCapError, product
from helpers import (
    bits,
    decomposed_terms_by_products,
    factor_table_by_terms,
    product_by_terms,
    sum_apply,
    sum_to_dense,
    symbolize_by_masks,
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
    # the uint32 bit-reversal table
    for n in (9, 10):
        for runs, terms in ((1, 6), (3, 12)):
            out.append(random_sum(rng, n, runs, terms))
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

    @pytest.mark.parametrize("n", [10, 12])
    def test_apply_peak_is_vector_plus_budget(self, n):
        rng = np.random.default_rng(1205)
        op = random_sum(rng, n, 3, 400) + random_sum(rng, n, 200, 200)
        vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        output = 16 << n
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            image = op.apply(vec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert image.nbytes == output
        assert peak <= output + pauli._KERNEL_CHUNK_BYTES


def krylov_sums(seed):
    """9-qubit sums for the matrix-free route: generic spectra, and commuting
    strings (Z on qubits 0-4, X on 5-8) whose top eigenvalue is degenerate."""
    rng = np.random.default_rng(seed)
    commuting = PauliSum(9, {(0, int(z)): random_coeff(rng)
                             for z in rng.integers(1, 1 << 5, size=6)})
    commuting += PauliSum(9, {(int(x) << 5, 0): random_coeff(rng)
                              for x in rng.integers(1, 1 << 4, size=4)})
    return [random_sum(rng, 9, 64, 64), random_sum(rng, 9, 3, 12), commuting]


class TestKrylovAgainstDenseEigh:
    def test_value_matches_eigh(self):
        degenerate = 0
        for op in krylov_sums(1208):
            value, _ = quantum_lower_bound(op)
            dense = op.to_dense()
            top, _ = pauli.top_eigenpair(dense)
            assert abs(value - top) <= 1e-9 * sum(abs(c) for _, c in op.items())
            degenerate += np.sum(np.linalg.eigvalsh(dense) > top - 1e-9) > 1
        assert degenerate

    def test_value_is_the_witness_rayleigh_quotient(self):
        for op in krylov_sums(1209):
            value, witness = quantum_lower_bound(op)
            assert abs(np.linalg.norm(witness) - 1.0) <= 1e-12
            assert value == np.vdot(witness, op.apply(witness)).real

    def test_unconverged_value_is_a_lower_bound(self, monkeypatch):
        # one Lanczos step and the Rayleigh quotient, far from the top
        monkeypatch.setattr(pauli, "_KRYLOV_RTOL", np.inf)
        for op in krylov_sums(1210):
            value, _ = quantum_lower_bound(op)
            assert value <= pauli.top_eigenpair(op.to_dense())[0] + 1e-12

    def test_repeated_calls_identical_bits(self):
        op = krylov_sums(1211)[0]
        (a, x), (b, y) = quantum_lower_bound(op), quantum_lower_bound(op)
        assert a.hex() == b.hex() and np.array_equal(bits(x), bits(y))

    def test_cap_is_checked_before_any_apply(self, monkeypatch):
        def apply(self, vec):
            raise AssertionError("applied above the qubit cap")

        monkeypatch.setattr(PauliSum, "apply", apply)
        with pytest.raises(QubitCapError, match="9 qubits exceeds dense cap of 8"):
            quantum_lower_bound(krylov_sums(1212)[0], cap=8)


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


def oracle_results(op, symbol_map, oracle=symbolize_by_terms):
    expr, bindings = oracle(op, symbol_map)
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


def letter_sum(rng, n, letters):
    """Random strings over ``letters`` (with I), an identity term half the
    time, and about one coefficient in six an exact +0.0 or -0.0."""
    codes = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
    terms = {(0, 0): random_coeff(rng)} if rng.random() < 0.5 else {}
    for _ in range(int(rng.integers(0, 3 * n + 4))):
        x = z = 0
        for q in range(n):
            xb, zb = codes[str(rng.choice(["I", *letters]))]
            x, z = x | xb << q, z | zb << q
        terms[(x, z)] = (float(rng.choice([0.0, -0.0])) if rng.random() < 1 / 6
                         else random_coeff(rng))
    return PauliSum(n, terms)


ZX, ZXY = {"Z": "A", "X": "B"}, {"Z": "A", "X": "B", "Y": "C"}


class TestArraySymbolize:
    def table_results(self, op, symbol_map):
        expr, _ = symbolize(op, symbol_map)
        index, coeffs = expr.factor_table()
        return expr.symbols, index.tolist(), [c.hex() for c in coeffs.tolist()]

    def oracle_table(self, op, symbol_map):
        expr, _ = symbolize_by_terms(op, symbol_map)
        index, coeffs = factor_table_by_terms(expr, expr.symbols)
        return expr.symbols, index.tolist(), [c.hex() for c in coeffs.tolist()]

    @pytest.mark.parametrize("symbol_map", [ZX, ZXY])
    def test_matches_both_oracles(self, symbol_map):
        # n = 1..10, Z/X sums under both maps and Z/X/Y sums under Z/X/Y;
        # constants, exact zeros and the empty sum included
        rng = np.random.default_rng(1801)
        ops = [PauliSum.zero(1), PauliSum.zero(4)]
        ops += [letter_sum(rng, n, "XZ" if len(symbol_map) == 2 else "XYZ")
                for n in range(1, 11) for _ in range(12)]
        for op in ops:
            mine = symbolize_results(op, symbol_map)
            assert mine == oracle_results(op, symbol_map)
            assert mine == oracle_results(op, symbol_map, symbolize_by_masks)
            assert self.table_results(op, symbol_map) == self.oracle_table(op, symbol_map)
        zeros = [c for op in ops for c in op._terms.values() if c == 0.0]
        assert {math.copysign(1.0, c) for c in zeros} == {-1.0, 1.0}
        assert sum((0, 0) in op._terms for op in ops) > 20

    def test_same_unmapped_letter_errors(self):
        rng = np.random.default_rng(1802)
        raised = 0
        for n in range(1, 11):
            for _ in range(12):
                op = letter_sum(rng, n, "XYZ")
                try:
                    mine = symbolize_results(op, ZX)
                except ValueError as err:
                    raised += 1
                    assert str(err) == "no symbol mapped for Pauli letter Y"
                    for oracle in (symbolize_by_terms, symbolize_by_masks):
                        with pytest.raises(ValueError, match=f"^{err}$"):
                            oracle(op, ZX)
                    continue
                assert mine == oracle_results(op, ZX)
                assert mine == oracle_results(op, ZX, symbolize_by_masks)
        assert raised > 60
        # the first unmapped letter in sorted (x, z) term order, lowest qubit
        # first: XZ has masks (1, 2) and sorts before ZY's (2, 3)
        for route in (symbolize, symbolize_by_masks):
            with pytest.raises(ValueError, match="^no symbol mapped for Pauli letter X$"):
                route(PauliSum.from_strings([("ZY", 1.0), ("XZ", 1.0)]), {"Z": "A"})

    def test_non_injective_map_error(self):
        op = PauliSum.from_strings([("ZX", 1.0)])
        symbol_map = {"Z": "A", "X": "A"}
        message = "symbol map sends two Pauli letters to the same label: " \
            "{'Z': 'A', 'X': 'A'}"
        for route in (symbolize, symbolize_by_masks):
            with pytest.raises(ValueError) as err:
                route(op, symbol_map)
            assert str(err.value) == message

    @pytest.mark.parametrize("n", [63, 64, 70])
    def test_masks_past_one_machine_word(self, n):
        rng = np.random.default_rng(1805 + n)
        op = letter_sum(rng, n, "XYZ") + PauliSum.from_strings([("Y" * n, 1.0)])
        assert symbolize_results(op, ZXY) == oracle_results(op, ZXY, symbolize_by_masks)
        expr, bindings = symbolize(op, ZXY)
        assert expr.symbols[-1] == (n - 1, "C")
        assert render_operator(expr, bindings)._terms == op._terms

    def test_zero_terms_bind_nothing(self):
        # the zero term's X on qubit 0 is no symbol of the expression
        op = PauliSum(2, {(1, 0): 0.0, (3, 3): 1.0})
        expr, bindings = symbolize(op, {"X": "A", "Y": "C"})
        assert expr.symbols == [(0, "C"), (1, "C")]
        assert list(bindings) == expr.symbols
        # nor is an unmapped letter in a zero term an error
        expr, bindings = symbolize(PauliSum(2, {(2, 2): -0.0, (1, 0): 2.0}), {"X": "A"})
        assert dict(expr.terms) == {((0, "A"),): 2.0} and list(bindings) == [(0, "A")]


def graph_recipes(rng):
    """Graph-basis recipes for n = 2..6: a path, a star and eight seeded random
    connected graphs each, flip Z on every qubit, k on each axis and one
    random unit k, beta_q auto."""
    out = []
    for n in range(2, 7):
        graphs = [[[q, q + 1] for q in range(n - 1)], [[0, q] for q in range(1, n)]]
        graphs += [[[int(rng.integers(q)), q] for q in range(1, n)]
                   + [[u, v] for u in range(n) for v in range(u + 2, n) if rng.random() < 0.3]
                   for _ in range(8)]
        k = rng.normal(size=3)
        directions = [[1, 0, 0], [0, 1, 0], [0, 0, 1], (k / np.linalg.norm(k)).tolist()]
        for graph in graphs:
            for direction in directions:
                out.append(BellRecipe.from_dict({
                    "basis": {"kind": "graph", "graph": {"n": n, "edges": graph},
                              "flip": "Z" * n},
                    "k": direction}))
    return out


def letter_expression(dec):
    """``dec`` as an expression and its bindings, each non-pivot factor
    labelled by its Pauli letter, an oracle independent of
    ``symbolize_decomposed``'s primed labels."""
    bindings = {(s.party, s.label): s for s in dec.settings}
    terms = {}
    for coeff, s_idx, rest in dec.products:
        setting = dec.settings[s_idx]
        key = [(setting.party, setting.label)]
        for q in range(dec.n):
            letter = rest.letter(q)
            if q != dec.pivot and letter != "I":
                key.append((q, letter))
                bindings[q, letter] = _letter_setting(q, letter, letter)
        terms[tuple(key)] = coeff
    assert len(terms) == len(dec.products)
    return BellExpression(dec.n, terms), bindings


def sum_hex(op: PauliSum) -> list:
    """Keys in dict order with their coefficients' hex, for bit-exact checks."""
    return [(key, c.hex()) for key, c in op._terms.items()]


class TestRenderAgainstProducts:
    def test_decomposed_terms_match_product_route(self):
        rng = np.random.default_rng(1906)
        decomposed = []
        for recipe in graph_recipes(rng):
            logical_form = build_logical(recipe)
            for pivot in range(logical_form.n):
                try:
                    dec = complementary_decompose(logical_form, pivot)
                except DecompositionError:
                    continue
                decomposed.append(dec.n)
                # every decomposition symbolizes, however many settings a party needs
                routes = [letter_expression(dec), symbolize_decomposed(dec)]
                oracle = decomposed_terms_by_products(dec)
                for expr, bindings in routes:
                    assert list(map(sum_hex, render_terms(expr, bindings))) == \
                        list(map(sum_hex, oracle))
                    assert sum_hex(render_operator(expr, bindings)) == \
                        sum_hex(sum(oracle, PauliSum.zero(dec.n)))
        assert set(decomposed) == {2, 3, 4, 5, 6}
        assert len(decomposed) >= 90
