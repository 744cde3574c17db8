"""Pauli algebra against independent dense-matrix and Jacobi oracles."""

import math

import numpy as np
import pytest

from bellforge.logical import bell_logical_paulis
from bellforge.pauli import (
    _PAULI_2X2,
    BLOCH_PAULIS,
    COEFF_PRUNE,
    DENSE_QUBIT_CAP,
    DimensionError,
    PauliSum,
    PauliTerm,
    QubitCapError,
    anticommutator_sum,
    bloch_sum,
    check_hermitian,
    pauli_decompose,
    product,
    top_eigenpair,
)
from bellforge.recursive import expand_operator
from helpers import eig_bounds, embed_single


def kron_dense(term):
    """Dense term as a Kronecker product of one 2x2 factor per qubit: the
    independent oracle for the signed-permutation scatter in ``pauli``."""
    m = np.ones((1, 1), dtype=complex)
    for q in range(term.n):
        m = np.kron(m, _PAULI_2X2[term.letter(q)])
    return (1.0 + 0j, 1j, -1.0 + 0j, -1j)[term.phase_exp] * m


def kron_dense_sum(p):
    out = np.zeros((1 << p.n, 1 << p.n), dtype=complex)
    for term, c in p.items():
        out += c * kron_dense(term)
    return out


def random_term(rng, n):
    return PauliTerm(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
                     int(rng.integers(0, 4)))


def jacobi_eigenvalues(matrix, tol=1e-12, max_sweeps=100):
    """Cyclic Jacobi diagonalization of a Hermitian matrix.

    Deliberately independent of numpy.linalg: this is the oracle the
    production eigensolver is checked against.
    """
    a = np.array(matrix, dtype=complex)
    n = a.shape[0]
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off += abs(a[p, q]) ** 2
        if math.sqrt(off) < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                # unitary 2x2 rotation annihilating the (p, q) element
                alpha, beta, gamma = a[p, p].real, a[q, q].real, a[p, q]
                theta = 0.5 * math.atan2(2 * abs(gamma), alpha - beta)
                c, s = math.cos(theta), math.sin(theta)
                phase = np.exp(1j * np.angle(gamma))
                rot = np.eye(n, dtype=complex)
                rot[p, p], rot[q, q] = c, c
                rot[p, q], rot[q, p] = -s * phase, s * np.conj(phase)
                a = rot.conj().T @ a @ rot
    return np.sort(np.diag(a).real)


class TestTermAlgebra:
    def test_single_qubit_identities(self):
        X, Z = PauliTerm.from_string("X"), PauliTerm.from_string("Z")
        assert str(X * Z) == "-iY"
        assert str(Z * X) == "+iY"
        iz = PauliTerm.from_string("IZ")
        assert str(iz * iz) == "+II"

    def test_three_qubit_product_matches_dense(self):
        a = PauliTerm.from_string("ZXZII")
        b = PauliTerm.from_string("IZXZI")
        c = a * b
        assert c.letters == "ZYYZI"
        assert np.allclose(c.to_dense(), a.to_dense() @ b.to_dense(), atol=1e-12)

    def test_product_dense_oracle_random(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            a, b = random_term(rng, n), random_term(rng, n)
            c = a * b
            assert np.allclose(c.to_dense(), a.to_dense() @ b.to_dense(),
                               atol=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            a, b, c = (random_term(rng, n) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_normal_form_closure(self):
        # Hermitian inputs: product phase is 0..3; sign extraction leaves a
        # Hermitian string again exactly when the factors commute.
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            a = PauliTerm(n, int(rng.integers(0, 1 << n)),
                          int(rng.integers(0, 1 << n)), 2 * int(rng.integers(0, 2)))
            b = PauliTerm(n, int(rng.integers(0, 1 << n)),
                          int(rng.integers(0, 1 << n)), 2 * int(rng.integers(0, 2)))
            c = a * b
            assert c.is_hermitian == a.commutes(b)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            PauliTerm.from_string("X") * PauliTerm.from_string("XX")
        with pytest.raises(DimensionError):
            PauliTerm.from_string("X").commutes(PauliTerm.from_string("XX"))

    def test_parse_print_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            t = random_term(rng, int(rng.integers(1, 7)))
            assert PauliTerm.from_string(str(t)) == t
        with pytest.raises(ValueError):
            PauliTerm.from_string("+XQ")
        with pytest.raises(ValueError):
            PauliTerm.from_string("-")


class TestCommutation:
    def test_same_qubit(self):
        assert not PauliTerm.from_string("X").commutes(PauliTerm.from_string("Z"))

    def test_disjoint_support(self):
        assert PauliTerm.from_string("XI").commutes(PauliTerm.from_string("IZ"))

    def test_loop_generator_vs_flip(self):
        zc = PauliTerm.from_string("ZZZZZ")
        g1 = PauliTerm.from_string("ZXZII")
        assert not zc.commutes(g1)
        m = zc.to_dense() @ g1.to_dense() - g1.to_dense() @ zc.to_dense()
        assert np.max(np.abs(m)) > 1.0  # dense commutator oracle agrees

    def test_random_agreement_with_dense(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            a, b = random_term(rng, n), random_term(rng, n)
            comm = a.to_dense() @ b.to_dense() - b.to_dense() @ a.to_dense()
            assert a.commutes(b) == bool(np.max(np.abs(comm)) < 1e-12)


class TestSums:
    def test_anticommutator_basics(self):
        x = PauliSum.from_strings([("X", 1.0)])
        z = PauliSum.from_strings([("Z", 1.0)])
        assert anticommutator_sum(x, z).is_zero
        assert anticommutator_sum(x, x).to_strings() == [("I", 2.0)]

    def test_anticommutator_dimension_error(self):
        with pytest.raises(DimensionError):
            anticommutator_sum(PauliSum.from_strings([("X", 1.0)]),
                               PauliSum.from_strings([("XX", 1.0)]))

    def test_sign_normalization(self):
        s = PauliSum.from_terms([(PauliTerm.from_string("-ZZ"), 2.0),
                                 (PauliTerm.from_string("+ZZ"), 0.5)])
        assert s.to_strings() == [("ZZ", -1.5)]

    def test_zero_coefficients_dropped(self):
        s = PauliSum.from_strings([("XX", 1.0), ("XX", -1.0), ("ZZ", 0.25)])
        assert s.to_strings() == [("ZZ", 0.25)]

    def test_non_hermitian_product_rejected(self):
        x = PauliSum.from_strings([("X", 1.0)])
        z = PauliSum.from_strings([("Z", 1.0)])
        for beta in (1.0, 1e4, 1e8):
            with pytest.raises(ValueError, match="not Hermitian"):
                product(beta * x, beta * z)     # X Z = -iY alone is not Hermitian
        assert product(x, z, scale=1j).to_strings() == [("Y", 1.0)]

    def test_dense_identity_and_y(self):
        eye = PauliSum.identity(1)
        assert np.allclose(eye.to_dense(), np.eye(2))
        y = PauliTerm.from_string("Y")
        assert np.allclose(y.to_dense(), np.array([[0, -1j], [1j, 0]]))

    def test_dense_linearity(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            p = PauliSum.from_terms([(random_term_h(rng, n), rng.normal())
                                     for _ in range(3)], n=n)
            q = PauliSum.from_terms([(random_term_h(rng, n), rng.normal())
                                     for _ in range(3)], n=n)
            a, b = rng.normal(), rng.normal()
            lhs = (a * p + b * q).to_dense()
            rhs = a * p.to_dense() + b * q.to_dense()
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_dense_respects_multiplication(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            p = PauliSum.from_terms([(random_term_h(rng, n), rng.normal())
                                     for _ in range(3)], n=n)
            acc = {}
            from bellforge.pauli import _accumulate_product
            _accumulate_product(p, p, 1.0, acc)
            dense = sum(c * PauliTerm(n, k[0], k[1], 0).to_dense()
                        for k, c in acc.items())
            assert np.max(np.abs(dense - p.to_dense() @ p.to_dense())) <= 1e-12

    def test_cap_enforced(self):
        with pytest.raises(QubitCapError):
            PauliSum.identity(13).to_dense()
        with pytest.raises(QubitCapError):
            PauliTerm.identity(DENSE_QUBIT_CAP + 1).to_dense()
        with pytest.raises(QubitCapError):
            PauliTerm.from_string("XYZ").to_dense(cap=2)
        PauliSum.identity(13)      # symbolic side is fine above the cap

    def test_apply_matches_dense(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            t = random_term(rng, n)    # any of the four phases
            assert np.allclose(t.apply(v), t.to_dense() @ v, atol=1e-12)


def random_term_h(rng, n):
    return PauliTerm(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
                     2 * int(rng.integers(0, 2)))


def random_sum_shared_x(rng, n, masks=3, terms=12):
    """Random real sum whose terms share a few x masks; z masks are free, so
    all four letters occur."""
    xs = rng.integers(0, 1 << n, size=masks)
    return PauliSum.from_terms(
        [(PauliTerm(n, int(rng.choice(xs)), int(rng.integers(0, 1 << n))),
          rng.normal()) for _ in range(terms)], n=n)


class TestScatterAgainstKron:
    def test_sum_render_is_bit_identical(self):
        rng = np.random.default_rng(404)
        letters = set()
        shared = 0
        for n in range(1, 8):
            for _ in range(6):
                p = random_sum_shared_x(rng, n)
                mine, oracle = p.to_dense(), kron_dense_sum(p)
                assert np.array_equal(mine.view(np.uint64), oracle.view(np.uint64))
                letters.update("".join(t.letters for t, _ in p.items()))
                xs = [t.x_mask for t, _ in p.items()]
                shared += len(xs) - len(set(xs))
        assert letters == set("IXYZ")
        assert shared > 0

    def test_term_render_all_phases(self):
        rng = np.random.default_rng(405)
        for n in range(1, 7):
            for _ in range(5):
                x, z = int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n))
                for phase in range(4):
                    t = PauliTerm(n, x, z, phase)
                    assert np.all(t.to_dense() == kron_dense(t))


def random_sum_like(rng, p, commuting, terms):
    """Random real sum whose every term commutes (or anticommutes) with every
    term of ``p``; None when a few hundred draws find no such term."""
    items = []
    for _ in range(300):
        t = random_term_h(rng, p.n)
        if all(t.commutes(u) == commuting for u, _ in p.items()):
            items.append((t, rng.normal()))
            if len(items) == terms:
                break
    return PauliSum.from_terms(items, n=p.n) if items else None


class TestProductsAgainstDense:
    """``product`` and ``anticommutator_sum`` against dense products of
    Kronecker-built matrices, on seeded random sums."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_products_match_dense(self, n):
        rng = np.random.default_rng(500 + n)
        letters, checked = set(), {1.0: 0, 1j: 0, "anti": 0}
        for _ in range(12):
            p = PauliSum.from_terms([(random_term_h(rng, n), rng.normal())
                                     for _ in range(int(rng.integers(1, 5)))], n=n)
            dense_p = kron_dense_sum(p)
            # commuting factors give a Hermitian p q, anticommuting ones i p q
            for scale, commuting in ((1.0, True), (1j, False)):
                q = random_sum_like(rng, p, commuting, int(rng.integers(1, 5)))
                if q is None or q.to_strings() == p.to_strings():
                    continue
                want = scale * (dense_p @ kron_dense_sum(q))
                assert np.allclose(want, want.conj().T, atol=1e-12)
                got = kron_dense_sum(product(p, q, scale))
                assert np.max(np.abs(got - want)) <= 1e-12
                checked[scale] += 1
            q = PauliSum.from_terms([(random_term_h(rng, n), rng.normal())
                                     for _ in range(int(rng.integers(1, 5)))], n=n)
            if q.to_strings() != p.to_strings():
                dense_q = kron_dense_sum(q)
                got = kron_dense_sum(anticommutator_sum(p, q))
                assert np.max(np.abs(got - (dense_p @ dense_q + dense_q @ dense_p))) <= 1e-12
                checked["anti"] += 1
                letters.update("".join(t.letters for t, _ in (p + q).items()))
        assert min(checked.values()) >= 4, checked
        assert letters == set("IXYZ")

    def test_non_hermitian_products_rejected(self):
        rng = np.random.default_rng(510)
        rejected = 0
        for n in range(1, 6):
            for _ in range(10):
                p, q = (PauliSum.from_terms([(random_term_h(rng, n), rng.normal())
                                             for _ in range(3)], n=n) for _ in range(2))
                for scale in (1.0, 1j):
                    want = scale * (kron_dense_sum(p) @ kron_dense_sum(q))
                    if np.allclose(want, want.conj().T, atol=1e-9):
                        continue
                    with pytest.raises(ValueError, match="not Hermitian"):
                        product(p, q, scale)
                    rejected += 1
        assert rejected >= 40


class TestEigenBounds:
    def test_lambda_of_z(self):
        assert eig_bounds(PauliSum.from_strings([("Z", 1.0)]).to_dense())[1] == 1.0

    def test_chsh_operator_norm(self):
        op = PauliSum.from_strings([("XX", math.sqrt(2)), ("ZZ", math.sqrt(2))])
        assert abs(eig_bounds(op.to_dense())[1] - 2 * math.sqrt(2)) < 1e-12

    def test_spectrum_of_bell_projector_combination(self):
        op = PauliSum.from_strings([("XX", 0.5), ("ZZ", 0.5)])
        vals = np.linalg.eigvalsh(op.to_dense())
        assert np.allclose(np.sort(vals), [-1.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            h = (g + g.conj().T) / 2
            mine = np.linalg.eigvalsh(h)
            oracle = jacobi_eigenvalues(h)
            assert np.allclose(mine, oracle, atol=1e-10)
            assert abs(eig_bounds(h)[1] - oracle[-1]) < 1e-10
            assert abs(eig_bounds(h)[0] - oracle[0]) < 1e-10

    def test_expectation_between_extremes(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            p = PauliSum.from_terms([(random_term_h(rng, n), rng.normal())
                                     for _ in range(4)], n=n)
            g = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            lo, hi = eig_bounds(p.to_dense())
            val = p.expectation(rho)
            assert lo - 1e-10 <= val <= hi + 1e-10

    def test_non_hermitian_rejected(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            eig_bounds(m)[1]

    def test_top_eigenpair_phase_fixed(self):
        op = PauliSum.from_strings([("XX", 0.5), ("ZZ", 0.5)])
        val, vec = top_eigenpair(op.to_dense())
        assert abs(val - 1.0) < 1e-12
        first = vec[np.argmax(np.abs(vec) > 1e-9)]
        assert abs(first.imag) < 1e-12 and first.real > 0


class TestDecompose:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 3, 4):
            g = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
            h = (g + g.conj().T) / 2
            ps = pauli_decompose(h, n)
            assert np.max(np.abs(ps.to_dense() - h)) < 1e-10
            # and back from a sum with guaranteed Y content
            p = random_sum_shared_x(rng, n) + PauliSum.from_strings([("Y" * n, 0.75)])
            coeffs = dict(pauli_decompose(p.to_dense(), n).to_strings())
            assert coeffs == pytest.approx(dict(p.to_strings()), abs=1e-12)
            assert "Y" * n in coeffs

    def test_scan_cap(self):
        with pytest.raises(QubitCapError):
            pauli_decompose(np.eye(1 << 7), 7)

    def test_check_hermitian(self):
        with pytest.raises(ValueError):
            check_hermitian(np.array([[0, 1j], [1j, 0]]))

    @pytest.mark.parametrize("nan_at", [None, (0, 1), (1, 1)],
                             ids=["all", "off-diagonal", "diagonal"])
    def test_check_hermitian_rejects_nan(self, nan_at):
        # NaN > tol is False, so a residual of NaN must fail by not being <= tol,
        # before eigh would fail to converge on it
        m = np.eye(2, dtype=complex)
        m[(slice(None),) * 2 if nan_at is None else nan_at] = np.nan
        with pytest.raises(ValueError, match="not Hermitian"):
            check_hermitian(m)
        with pytest.raises(ValueError, match="not Hermitian"):
            top_eigenpair(m)


class TestSortedArrayCache:
    def test_built_once_and_read_only(self):
        op = PauliSum.from_strings([("XZ", 1.0), ("ZI", -2.0), ("II", 0.5)])
        arrays = op._sorted_arrays()
        assert op._sorted_arrays() is arrays
        keys = sorted(op._terms)
        assert [a.tolist() for a in arrays] == [
            [x for x, _ in keys], [z for _, z in keys], [op._terms[k] for k in keys]]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0

    def test_no_method_changes_a_sum(self):
        given = {(1, 2): 1.0, (2, 0): -2.0, (0, 0): 0.5}
        op = PauliSum(2, given)
        given[(3, 3)] = 4.0     # the sum keeps its own copy of the terms
        terms, arrays, before = dict(op._terms), op._sorted_arrays(), op.to_dense()
        other = PauliSum.from_strings([("YY", 3.0), ("XZ", -1.0)])
        v = np.arange(4.0) + 1j
        results = [op + other, op - op, 2.0 * op, -1.0 * op, op @ op,
                   product(op, op), anticommutator_sum(op, other),
                   PauliSum.from_terms(op.items()), op.expectation(v)]
        assert op._terms == terms and list(op._terms) == list(terms)
        assert op._sorted_arrays() is arrays
        assert np.array_equal(op.to_dense(), before)
        assert (op - op).is_zero and results[7] == op
        assert not hasattr(op, "_add_term") and not hasattr(op, "_prune")


class TestSingleQubitTable:
    def test_bloch_paulis_are_x_y_z(self):
        assert np.array_equal(BLOCH_PAULIS, np.stack([_PAULI_2X2[c] for c in "XYZ"]))
        assert not BLOCH_PAULIS.flags.writeable

    def test_bloch_sum_renders_the_bloch_matrix(self):
        rng = np.random.default_rng(2101)
        for vec in rng.normal(size=(20, 3)):
            op = bloch_sum(vec)
            assert op.n == 1
            assert np.allclose(op.to_dense(), np.tensordot(vec, BLOCH_PAULIS, 1), atol=1e-15)
            assert [op.coeff(PauliTerm.from_string(c)) for c in "XYZ"] == vec.tolist()


# each way of building a sum, fed terms whose coefficients come out as +0.0,
# -0.0 or at most COEFF_PRUNE in size, and the strings it must keep
ZERO_RULE_CASES = {
    "constructor": (lambda: PauliSum(2, {(1, 0): 0.0, (2, 0): -0.0, (3, 0): 1e-14,
                                         (1, 1): -1e-14, (0, 1): 1.5e-14, (0, 0): 1.0}),
                    {"II", "ZI"}),
    "from_terms": (lambda: PauliSum.from_strings([("XI", 1.0), ("XI", -1.0), ("ZZ", 1e-15),
                                                  ("YY", -0.0), ("ZI", 2.0)]),
                   {"ZI"}),
    "add": (lambda: PauliSum.from_strings([("XX", 1.0), ("ZZ", 0.3)])
            + PauliSum.from_strings([("XX", -1.0), ("ZZ", -0.3 + 1e-15), ("YY", 1.0)]),
            {"YY"}),
    "scalar": (lambda: 1e-14 * PauliSum.from_strings([("X", 1.0), ("Z", 0.5), ("Y", 2.0)]),
               {"Y"}),
    "scalar zero": (lambda: -0.0 * PauliSum.from_strings([("X", 1.0), ("Z", 0.5)]), set()),
    # XZ + ZX = 0: the Y terms of (X + Z)^2 cancel exactly
    "product": (lambda: product(PauliSum.from_strings([("X", 1.0), ("Z", 1.0)]),
                                PauliSum.from_strings([("X", 1.0), ("Z", 1.0)])),
                {"I"}),
    # Z's image terms get 2e-14 times the rule's coefficients, about 1e-14
    "expand_operator": (lambda: expand_operator(
        PauliSum.from_strings([("Z", 2e-14), ("X", 1.0)]), 0, bell_logical_paulis()),
        {"XZ", "ZX"}),
    "embed_single": (lambda: embed_single(bloch_sum((1e-15, -0.0, 0.6)), 1, 3), {"IZI"}),
    "bloch_sum": (lambda: bloch_sum((0.8, 1e-14, -0.0)), {"X"}),
}


@pytest.mark.parametrize("build", ZERO_RULE_CASES)
def test_no_sum_holds_a_numerically_zero_coefficient(build):
    make, kept = ZERO_RULE_CASES[build]
    op = make()
    assert all(abs(c) > COEFF_PRUNE for c in op._terms.values())
    assert {s for s, _ in op.to_strings()} == kept
