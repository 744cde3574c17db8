"""Linear-expansion recursion: operators, their code spaces, and family bounds."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bellforge import bounds
from bellforge.bell import BellExpression
from bellforge.bounds import (
    classical_bounds,
    dichotomic_term_bound,
    quantum_lower_bound,
)
from bellforge.logical import bell_logical_paulis
from bellforge.pauli import PauliSum, product
from bellforge.recursive import (
    MAX_LEVEL,
    assignment_value_bound,
    build_level,
    expand_code,
    expand_operator,
    mermin_case,
    svetlichny_case,
)
from bellforge.stabilizer import LogicalBasis, bell_basis
from helpers import expand_state, level_kets, sums_match


class TestExpansion:
    def test_level2_matches_projector_definition(self):
        lv = build_level(2)
        assert dict(lv.z.to_strings()) == pytest.approx({"ZZ": 0.5, "XX": 0.5})
        assert dict(lv.x.to_strings()) == pytest.approx({"ZX": 0.5, "XZ": -0.5})
        r = 1 / math.sqrt(2)
        kets = level_kets(2)
        assert np.allclose(kets.zero_ket, [r, 0, 0, r], atol=1e-12)
        assert np.allclose(kets.one_ket, [0, r, -r, 0], atol=1e-12)

    def test_level2_is_the_bell_rule_bit_for_bit(self):
        lv, bell = build_level(2), bell_logical_paulis()
        for op in ("z", "x", "y", "ident"):
            got, want = getattr(lv, op).to_strings(), getattr(bell, op).to_strings()
            assert [(s, c.hex()) for s, c in got] == [(s, c.hex()) for s, c in want], op
        for ket in ("zero_ket", "one_ket"):
            assert getattr(level_kets(2), ket).tobytes() == getattr(bell_basis(), ket).tobytes()

    def test_level3_golden(self):
        lv = build_level(3)
        assert dict(lv.z.to_strings()) == pytest.approx(
            {"ZZZ": 0.25, "ZXX": 0.25, "XZX": 0.25, "XXZ": -0.25})
        assert dict(lv.x.to_strings()) == pytest.approx(
            {"ZZX": 0.25, "ZXZ": -0.25, "XZZ": -0.25, "XXX": -0.25})
        want_zero = np.zeros(8)
        want_zero[[0b000, 0b011, 0b101]] = 0.5
        want_zero[0b110] = -0.5
        assert np.allclose(level_kets(3).zero_ket, want_zero, atol=1e-12)
        want_one = np.zeros(8)
        want_one[0b001] = 0.5
        want_one[[0b010, 0b100, 0b111]] = -0.5
        assert np.allclose(level_kets(3).one_ket, want_one, atol=1e-12)

    def test_identity_expands_to_projector(self):
        eye = PauliSum.identity(1)
        out = expand_operator(eye, 0, bell_logical_paulis())
        assert dict(out.to_strings()) == pytest.approx({"II": 0.5, "YY": -0.5})

    def test_expand_mid_qubit(self):
        # expanding the middle qubit of ZIZ touches only that slot
        op = PauliSum.from_strings([("ZIZ", 1.0)])
        out = expand_operator(op, 1, bell_logical_paulis())
        assert dict(out.to_strings()) == pytest.approx(
            {"ZIIZ": 0.5, "ZYYZ": -0.5})

    def test_expand_state_mid_qubit(self):
        vec = np.zeros(4, dtype=complex)
        vec[0b01] = 1.0   # |0>|1>
        out = expand_state(vec, 1, 2, bell_basis())
        r = 1 / math.sqrt(2)
        want = np.zeros(8, dtype=complex)
        want[0b001] = r   # |0> (|01>-|10>)/sqrt2
        want[0b010] = -r
        assert np.allclose(out, want, atol=1e-12)

    def test_star_expand_object(self):
        lv3 = expand_code(build_level(2), 1, bell_logical_paulis())
        assert lv3.n == 3
        for op in ("z", "x", "y", "ident"):
            assert sums_match(getattr(lv3, op), getattr(build_level(3), op))

    def test_level1_is_the_physical_qubit(self):
        lv = build_level(1)
        assert lv.n == 1
        assert lv.z.to_strings() == [("Z", 1.0)]
        assert lv.x.to_strings() == [("X", 1.0)]
        assert lv.y.to_strings() == [("Y", 1.0)]
        assert lv.ident.to_strings() == [("I", 1.0)]
        kets = level_kets(1)
        assert np.allclose(kets.zero_ket, [1, 0]) and np.allclose(kets.one_ket, [0, 1])

    def test_bad_qubit(self):
        with pytest.raises(ValueError):
            expand_operator(PauliSum.identity(2), 2, bell_logical_paulis())
        with pytest.raises(ValueError):
            build_level(0)
        with pytest.raises(ValueError):
            build_level(11)


class TestLevelInvariants:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_projector_identity(self, n):
        lv = build_level(n)
        zero, one = level_kets(n).zero_ket, level_kets(n).one_ket
        z_m = np.outer(zero, zero.conj()) - np.outer(one, one.conj())
        x_m = np.outer(zero, one.conj()) + np.outer(one, zero.conj())
        assert np.max(np.abs(lv.z.to_dense() - z_m)) < 1e-10
        assert np.max(np.abs(lv.x.to_dense() - x_m)) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_ident_is_the_code_projector_and_y_is_ixz(self, n):
        lv = build_level(n)
        zero, one = level_kets(n).zero_ket, level_kets(n).one_ket
        projector = np.outer(zero, zero.conj()) + np.outer(one, one.conj())
        assert np.max(np.abs(lv.ident.to_dense() - projector)) < 1e-15
        assert np.max(np.abs((lv.y - product(lv.x, lv.z, scale=1j)).to_dense())) < 1e-15

    @pytest.mark.parametrize("n", range(1, MAX_LEVEL + 1))
    def test_every_level_is_a_logical_basis(self, n):
        # the level's operators act as logical Paulis on the kets of the
        # paper's state expansion, which pass LogicalBasis's norm and
        # orthogonality checks
        lv, kets = build_level(n), level_kets(n)
        assert lv.n == kets.n == n and isinstance(kets, LogicalBasis)
        zero, one = kets.zero_ket, kets.one_ket
        for op, ket, want in ((lv.z, zero, zero), (lv.z, one, -one), (lv.x, zero, one),
                              (lv.ident, zero, zero), (lv.ident, one, one)):
            assert np.max(np.abs(op.to_dense() @ ket - want)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_scaled_coefficients_are_unit(self, n):
        lv = build_level(n)
        scale = 2 ** (n - 1)
        for op in (lv.z, lv.x):
            assert len(op) == scale
            for _, c in op.to_strings():
                assert abs(abs(c * scale) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_two_step_composition(self, n):
        # expanding the last qubit twice equals substituting the three-qubit
        # level in one move
        lv_n = build_level(n)
        direct = build_level(n + 2)
        composed = expand_code(lv_n, lv_n.n - 1, build_level(3))
        for op in ("z", "x", "y", "ident"):
            assert sums_match(getattr(direct, op), getattr(composed, op)), op
        # the same two moves on the kets
        for ket in ("zero_ket", "one_ket"):
            composed_ket = expand_state(getattr(level_kets(n), ket), n - 1, n, level_kets(3))
            assert np.allclose(getattr(level_kets(n + 2), ket), composed_ket, atol=1e-12)


class TestFamilyCases:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of ``to_dense`` and ``top_eigenpair`` calls."""
        counts = {"to_dense": 0, "top_eigenpair": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(PauliSum, "to_dense", counted("to_dense", PauliSum.to_dense))
        monkeypatch.setattr(bounds, "top_eigenpair",
                            counted("top_eigenpair", bounds.top_eigenpair))
        return counts

    @staticmethod
    def check_members(n, calls):
        # past 8 qubits the quantum lower bound of a pseudo Pauli operator is
        # read off its stabilizer structure, with no dense render and no
        # eigh; the witness is a complex128 unit vector
        for build, classical, quantum in (
                (mermin_case, 2.0 ** (n // 2), 2.0 ** (n - 1)),
                (svetlichny_case, 2.0 ** ((n + 1) // 2), 2.0 ** (n - 1) * math.sqrt(2))):
            case = build(n)
            assert classical_bounds(case.expression).maximum == classical
            calls.update(to_dense=0, top_eigenpair=0)
            q, witness = quantum_lower_bound(case.operator)
            assert witness.dtype == np.complex128
            assert abs(np.linalg.norm(witness) - 1.0) <= 1e-12
            assert calls == {"to_dense": 0, "top_eigenpair": 0}
            assert abs(q - quantum) <= 1e-9 * quantum
            assert q <= dichotomic_term_bound(case.expression)

    def test_members_at_n9(self, calls):
        self.check_members(9, calls)

    def test_members_at_n10(self, calls):
        # n = MAX_LEVEL
        self.check_members(10, calls)

    def test_certifying_n9_builds_no_terms_dict(self, monkeypatch):
        # symbolize writes the factor table and every bound, and the printer,
        # reads it; the terms dict is a view built only for evaluation and
        # rewriting
        def built(expr):
            raise AssertionError(f"terms dict of a {expr.parties}-party expression built")

        monkeypatch.setattr(BellExpression, "terms", property(built))
        for build in (mermin_case, svetlichny_case):
            case = build(9)
            classical_bounds(case.expression)
            quantum_lower_bound(case.operator)
            dichotomic_term_bound(case.expression)
            assert str(case.expression).startswith("+ A_0*A_1*A_2")
        with pytest.raises(AssertionError, match="terms dict of a 9-party"):
            case.expression.scaled(2.0)


class TestAssignmentValueBound:
    def test_two_qubit_value_reaches_one(self):
        assert assignment_value_bound(2, "z") == Fraction(1)
        assert assignment_value_bound(2, "x") == Fraction(1)

    @pytest.mark.parametrize("n", [3, 4])
    def test_half_for_small_levels(self, n):
        assert assignment_value_bound(n, "z") == Fraction(1, 2)
        assert assignment_value_bound(n, "x") == Fraction(1, 2)
