"""Pipeline: logical form -> settings rewrite -> symbols, plus chained family."""

import math

import numpy as np
import pytest

from bellforge.bell import (
    BellExpression,
    BellRecipe,
    DecompositionError,
    Setting,
    build_logical,
    chained_construction,
    complementary_decompose,
    embed_single,
    evaluate_quantum,
    render_operator,
    symbolize,
    symbolize_decomposed,
)
from bellforge.logical import logical_paulis_numeric, logical_paulis_symbolic
from bellforge.pauli import PauliSum, PauliTerm
from bellforge.stabilizer import GraphSpec, bell_basis, ghz3_basis, graph_state_generators
from helpers import basis_from_kets, chained_reconstruction, rotated_z

ROOT2 = math.sqrt(2)


def bell_ops():
    return logical_paulis_numeric(bell_basis())


def loop5_ops():
    return logical_paulis_symbolic(
        graph_state_generators(GraphSpec.loop(5)), PauliTerm.from_string("ZZZZZ"))


class TestSetting:
    def test_dichotomy_enforced(self):
        Setting(0, "A", PauliSum.from_strings([("X", 1.0)], n=1))
        Setting(0, "B", PauliSum.from_strings(
            [("X", 1 / ROOT2), ("Z", 1 / ROOT2)], n=1))
        with pytest.raises(ValueError):
            Setting(0, "bad", PauliSum.from_strings([("X", 0.5)], n=1))

    def test_embed(self):
        s = Setting(1, "B", PauliSum.from_strings([("Z", 1.0)], n=1))
        assert s.embed(3).to_strings() == [("IZI", 1.0)]


class TestBellExpression:
    def test_repeated_party_rejected(self):
        with pytest.raises(ValueError):
            BellExpression(2, {((0, "A"), (0, "B")): 1.0})

    def test_evaluate(self):
        e = BellExpression(2, {((0, "A"), (1, "B")): 2.0}, constant=1.0)
        assert e.evaluate({(0, "A"): 1, (1, "B"): -1}) == -1.0

    def test_symbols(self):
        e = BellExpression(2, {((0, "A"), (1, "B")): 1.0,
                               ((0, "A'"), (1, "B")): -1.0})
        assert e.symbols == [(0, "A"), (0, "A'"), (1, "B")]

    def test_factor_table_matches_evaluate(self):
        # seeded random expressions with a constant, on 1-5 parties, one of
        # them without symbols, tabled over their own symbols and over a
        # wider list holding symbols they do not use
        rng = np.random.default_rng(31)
        for trial in range(40):
            parties = int(rng.integers(1, 6))
            silent = int(rng.integers(parties))
            terms = {}
            for _ in range(int(rng.integers(0, 7))):
                key = tuple((p, str(rng.choice(["A", "B", "C"])))
                            for p in range(parties) if p != silent and rng.random() < 0.7)
                if key:
                    terms[key] = float(rng.normal())
            expr = BellExpression(parties, terms, constant=float(rng.normal()))
            wide = sorted(set(expr.symbols) | {(p, "D") for p in range(parties)})
            for symbols in (None, wide):
                index, coeffs = expr.factor_table(symbols)
                symbols = expr.symbols if symbols is None else symbols
                assert index.shape == (len(expr.terms), parties)
                assert coeffs.dtype == np.float64
                assert not index[:, silent].any()
                assert coeffs.tolist() == list(expr.terms.values())
                assert [tuple(symbols[j - 1] for j in row if j) for row in index] \
                    == list(expr.terms)
                assert all(symbols[j - 1][0] == p
                           for row in index for p, j in enumerate(row) if j)
                for values in ([1] * len(symbols), rng.choice((-1, 1), len(symbols))):
                    signs = np.concatenate([[1], values])
                    got = expr.constant
                    for row, coeff in zip(index, coeffs):
                        got += coeff * np.prod(signs[row])
                    assignment = {s: int(v) for s, v in zip(symbols, values)}
                    assert got == expr.evaluate(assignment), (str(expr), symbols)


class TestBuildLogical:
    def test_chsh_form(self):
        recipe = BellRecipe.from_dict(
            {"basis": {"kind": "bell"}, "k": [0, 0, 1], "beta_q": 2 * ROOT2})
        op = build_logical(recipe)
        got = dict(op.to_strings())
        assert abs(got["XX"] - ROOT2) < 1e-12 and abs(got["ZZ"] - ROOT2) < 1e-12

    def test_loop5_three_direction(self):
        r3 = math.sqrt(3)
        recipe = BellRecipe.from_dict({
            "basis": {"kind": "graph",
                      "graph": {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]},
                      "flip": "ZZZZZ"},
            "k": [1 / r3, 1 / r3, 1 / r3], "beta_q": "auto"})
        assert abs(recipe.beta_q - 16 * r3) < 1e-9
        op = build_logical(recipe)
        assert len(op) == 48
        assert all(abs(abs(c) - 1.0) < 1e-9 for _, c in op.to_strings())

    def test_trivial_direction(self):
        basis_ops = logical_paulis_numeric(basis_from_kets([1, 0], [0, 1]))
        assert (1.0 * basis_ops.direction((0, 0, 1))).to_strings() == [("Z", 1.0)]

    def test_beta_auto_rules(self):
        base = {"basis": {"kind": "bell"}, "beta_q": "auto"}
        assert BellRecipe.from_dict({**base, "k": [0, 0, 1]}).beta_q == 2.0
        r = BellRecipe.from_dict({**base, "k": [1 / ROOT2, 0, 1 / ROOT2]})
        assert abs(r.beta_q - 2 * ROOT2) < 1e-12

    def test_unit_k_required(self):
        with pytest.raises(ValueError):
            BellRecipe.from_dict({"basis": {"kind": "bell"}, "k": [0, 0, 2]})


class TestComplementaryDecompose:
    def test_chsh_four_products(self):
        op = (2 * ROOT2) * bell_ops().z
        dec = complementary_decompose(op, pivot=1)
        assert [s.label for s in dec.settings] == ["B", "B'"]
        bloch_plus = np.array(dec.settings[0].bloch())
        bloch_minus = np.array(dec.settings[1].bloch())
        assert np.allclose(bloch_plus, [1 / ROOT2, 0, 1 / ROOT2], atol=1e-12)
        assert np.allclose(bloch_minus, [1 / ROOT2, 0, -1 / ROOT2], atol=1e-12)
        products = sorted((rest.letters, dec.settings[i].label, round(c, 9))
                          for c, i, rest in dec.products)
        assert products == [("XI", "B", 1.0), ("XI", "B'", 1.0),
                            ("ZI", "B", 1.0), ("ZI", "B'", -1.0)]
        resid = np.max(np.abs(dec.to_pauli_sum().to_dense() - op.to_dense()))
        assert resid < 1e-12

    def test_svetlichny_merge_mode(self):
        g3 = logical_paulis_numeric(ghz3_basis())
        op = 4.0 * (g3.x - g3.z)
        dec = complementary_decompose(op, pivot=0)
        assert len(dec.products) == 4
        coeffs = sorted(round(abs(c), 9) for c, _, _ in dec.products)
        assert coeffs == [round(ROOT2, 9)] * 4
        blochs = {tuple(np.round(s.bloch(), 9)) for s in dec.settings}
        r = round(1 / ROOT2, 9)
        assert blochs == {(r, 0.0, r), (r, 0.0, -r)}
        resid = np.max(np.abs(dec.to_pauli_sum().to_dense() - op.to_dense()))
        assert resid < 1e-12

    def test_rotated_settings(self):
        def canon(v):
            v = np.round(v, 9)
            for c in v:
                if abs(c) > 1e-12:
                    return tuple(v if c > 0 else -v)
            return tuple(v)

        for theta in (0.2, 0.7, 1.3):
            op = (2 * ROOT2) * rotated_z(bell_ops(), theta)
            dec = complementary_decompose(op, pivot=1)
            resid = np.max(np.abs(dec.to_pauli_sum().to_dense() - op.to_dense()))
            assert resid < 1e-12
            # settings are the published rotated pair, up to outcome relabeling
            want = {canon(np.array([math.sin(theta + math.pi / 4), 0.0,
                                    math.cos(theta + math.pi / 4)])),
                    canon(np.array([math.cos(theta + math.pi / 4), 0.0,
                                    -math.sin(theta + math.pi / 4)]))}
            got = {canon(np.array(s.bloch())) for s in dec.settings}
            assert got == want

    def test_single_direction_error(self):
        op = PauliSum.from_strings([("XX", 1.0), ("ZX", 1.0)])
        with pytest.raises(DecompositionError):
            complementary_decompose(op, pivot=1)

    def test_identity_at_pivot_error(self):
        op = PauliSum.from_strings([("XI", 1.0), ("ZX", 1.0)])
        with pytest.raises(DecompositionError):
            complementary_decompose(op, pivot=1)

    def test_settings_are_dichotomic(self):
        op = (2 * ROOT2) * bell_ops().z
        for s in complementary_decompose(op, pivot=1).settings:
            sq = s.op.to_dense() @ s.op.to_dense()
            assert np.max(np.abs(sq - np.eye(2))) < 1e-12


class TestSymbolize:
    def test_chsh_expression(self):
        dec = complementary_decompose((2 * ROOT2) * bell_ops().z, pivot=1)
        expr, bindings = symbolize_decomposed(dec, letter_order={0: ["X", "Z"]})
        assert str(expr) == "+ A_0*B_1 + A_0*B'_1 + A'_0*B_1 - A'_0*B'_1"
        assert set(bindings) == {(0, "A"), (0, "A'"), (1, "B"), (1, "B'")}

    def test_loop5_mermin_like(self):
        ops = loop5_ops()
        expr, _ = symbolize(16.0 * ops.z, {"Z": "A", "X": "B", "Y": "C"})
        assert len(expr) == 16
        # the published pattern: A B A on consecutive parties, with the
        # all-B five-term carrying the minus sign
        assert expr.terms[((0, "A"), (1, "B"), (2, "A"))] == 1.0
        assert expr.terms[((0, "B"), (1, "B"), (2, "B"), (3, "B"), (4, "B"))] == -1.0

    def test_identity_term_becomes_constant(self):
        ops = loop5_ops()
        expr, _ = symbolize(16.0 * ops.ident, {"Z": "A", "X": "B", "Y": "C"})
        assert expr.constant == 1.0
        assert len(expr) == 15

    def test_unmapped_letter(self):
        with pytest.raises(ValueError):
            symbolize(PauliSum.from_strings([("Y", 1.0)]), {"Z": "A"})

    def test_two_letters_one_label_rejected(self):
        # ZX and XZ would both become A_0*A_1, one setting standing for two
        op = PauliSum.from_strings([("ZX", 1.0), ("XZ", 1.0)])
        with pytest.raises(ValueError, match="same label"):
            symbolize(op, {"Z": "A", "X": "A", "Y": "C"})

    def test_round_trip_evaluation(self):
        rng = np.random.default_rng(77)
        ops = loop5_ops()
        op = 16.0 * (ops.z + ops.x)
        expr, bindings = symbolize(op, {"Z": "A", "X": "B", "Y": "C"})
        for _ in range(20):
            g = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            direct = op.expectation(rho)
            via_expr = evaluate_quantum(expr, bindings, rho)
            assert abs(direct - via_expr) < 1e-10

    def test_render_operator_unbound(self):
        expr = BellExpression(2, {((0, "A"), (1, "B")): 1.0})
        with pytest.raises(ValueError):
            render_operator(expr, {})


class TestEvaluateQuantum:
    def test_chsh_on_bell_state(self):
        dec = complementary_decompose((2 * ROOT2) * bell_ops().z, pivot=1)
        expr, bindings = symbolize_decomposed(dec)
        val = evaluate_quantum(expr, bindings, bell_basis().zero_ket)
        assert abs(val - 2 * ROOT2) < 1e-10

    def test_mermin3_on_ghz_state(self):
        g3 = logical_paulis_numeric(ghz3_basis())
        expr, bindings = symbolize(4.0 * g3.z, {"Z": "A", "X": "B"})
        val = evaluate_quantum(expr, bindings, ghz3_basis().zero_ket)
        assert abs(val - 4.0) < 1e-10

    def test_product_state_all_z(self):
        expr = BellExpression(2, {((0, "A"), (1, "A")): 1.5,
                                  ((0, "A"),): 0.25})
        bindings = {(p, "A"): Setting(p, "A", PauliSum.from_strings([("Z", 1.0)], n=1))
                    for p in (0, 1)}
        ket = np.zeros(4, dtype=complex)
        ket[0] = 1.0
        assert abs(evaluate_quantum(expr, bindings, ket) - 1.75) < 1e-12


class TestChained:
    def test_n2_reduces_to_chsh_structure(self):
        ch = chained_construction(2)
        assert len(ch.expression) == 4
        coeffs = sorted(ch.expression.terms.values())
        assert coeffs == [-1.0, 1.0, 1.0, 1.0]
        assert abs(ch.quantum_bound - 2 * ROOT2) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_operator_identity(self, n):
        ch = chained_construction(n)
        want = (2 * n * math.cos(math.pi / (2 * n))) * bell_ops().z
        resid = np.max(np.abs(ch.operator.to_dense() - want.to_dense()))
        assert resid < 1e-10
        assert len(ch.expression) == 2 * n

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_z_reconstruction(self, n):
        resid = np.max(np.abs(chained_reconstruction(n, "z").to_dense()
                              - bell_ops().z.to_dense()))
        assert resid < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_x_reconstruction(self, n):
        from bellforge.pauli import product as op_product
        ops = bell_ops()
        resid = np.max(np.abs(chained_reconstruction(n, "x").to_dense()
                              - ops.x.to_dense()))
        assert resid < 1e-12
        # the same operator is logical Z times iY on the second qubit
        y2 = PauliSum.from_strings([("IY", 1.0)])
        via_product = op_product(ops.z, y2, scale=1j)
        assert np.max(np.abs(via_product.to_dense() - ops.x.to_dense())) < 1e-12

    def test_half_angle_resolution(self):
        # Z(mid angle) pairs resolve each measurement direction:
        # Z(t_k) = [Z(low) + Z(high)] / (2 cos(pi/2n))
        for n in (3, 4, 6):
            for k in range(2, n + 1):
                tk = (k - 1) * math.pi / n
                lo = (2 * k - 3) * math.pi / (2 * n)
                hi = (2 * k - 1) * math.pi / (2 * n)
                lhs = PauliSum.from_strings([("Z", math.cos(tk)), ("X", math.sin(tk))])
                rhs = (1.0 / (2 * math.cos(math.pi / (2 * n)))) * PauliSum.from_strings(
                    [("Z", math.cos(lo) + math.cos(hi)),
                     ("X", math.sin(lo) + math.sin(hi))])
                assert np.max(np.abs(lhs.to_dense() - rhs.to_dense())) < 1e-10

    def test_minimum_settings(self):
        with pytest.raises(ValueError):
            chained_construction(1)


class TestPipelineIdentity:
    def test_logical_equals_final_for_golden_recipes(self):
        ops2 = bell_ops()
        cases = []
        op = (2 * ROOT2) * ops2.z
        cases.append((op, complementary_decompose(op, 1).to_pauli_sum()))
        g3 = logical_paulis_numeric(ghz3_basis())
        svet = 4.0 * (g3.x - g3.z)
        cases.append((svet, complementary_decompose(svet, 0).to_pauli_sum()))
        for n in (2, 3, 4):
            ch = chained_construction(n)
            cases.append(((ch.quantum_bound) * ops2.z, ch.operator))
        for logical_form, final in cases:
            resid = np.max(np.abs(logical_form.to_dense() - final.to_dense()))
            assert resid < 1e-10
