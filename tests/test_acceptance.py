"""Acceptance suite: every frozen criterion at its stated tolerance.

One pass/fail line prints per criterion (run with -s or read the pytest
report). For the recursive family (criterion 6) the published classical
values 2^(n-2) (Mermin), 2^(n-1) (Svetlichny) and the assignment value 1/2 are
checked as what a Bell inequality needs, valid upper bounds, at n = 3..8.
Each subtest also pins the exact enumerated maximum to its closed form
(2^floor(n/2), 2^ceil(n/2), 2^floor(n/2) / 2^(n-1)), cross-checked against
the brute-force oracle for n <= 6, and checks where the published value is
tight: Mermin and the assignment value at n = 3, 4, Svetlichny at n = 3;
everywhere else the maximum lies strictly below it.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from golden import (
    TWO_QUBIT_BASIS_TABLE,
    loop5_golden_x,
    loop5_golden_y,
    loop5_golden_z,
)
from helpers import basis_from_kets, classical_bounds_bruteforce, expand_projector, loop5_basis

from bellforge.bell import (
    chained_construction,
    complementary_decompose,
    render_operator,
    render_terms,
    symbolize,
    symbolize_decomposed,
)
from bellforge.bounds import (
    classical_bounds,
    quantum_lower_bound,
    seesaw_optimize,
    sos_pairing_search,
)
from bellforge.cases import RunConfig, published_identity_expression, random_codespace_mixture
from bellforge.logical import logical_paulis_numeric, logical_paulis_symbolic
from bellforge.pauli import PauliSum, PauliTerm
from bellforge.recursive import assignment_value_bound, mermin_case, svetlichny_case
from bellforge.stabilizer import (
    GraphSpec,
    StabilizerGroup,
    bell_basis,
    ghz3_basis,
    graph_state_generators,
)
from bellforge.uncertainty import (
    DirectionXZ,
    lemma_sweep,
    quadratic_bell,
    quadratic_quantum_sweep,
    uffink_attaining_value,
    uncertainty_lhs,
    uncertainty_sweep,
)

ROOT2 = math.sqrt(2)
ROOT3 = math.sqrt(3)
SEED = 20240808


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{criterion} failed: {detail}"


def loop5_ops():
    return logical_paulis_symbolic(
        graph_state_generators(GraphSpec.loop(5)), PauliTerm.from_string("ZZZZZ"))


# --- 1. CHSH ----------------------------------------------------------------

def test_criterion_1_chsh():
    ops = logical_paulis_numeric(bell_basis())
    logical_form = (2 * ROOT2) * ops.z
    dec = complementary_decompose(logical_form, pivot=1)
    expr, bindings = symbolize_decomposed(dec)
    cb = classical_bounds(expr)
    assert len(expr.symbols) == 4        # 16-vertex enumeration
    lam, _ = quantum_lower_bound(render_operator(expr, bindings))
    cert, rep = sos_pairing_search(render_terms(expr, bindings), 2 * ROOT2)
    ok = (cb.maximum == 2.0 and abs(lam - 2 * ROOT2) <= 1e-9
          and cert is not None and rep.residual <= 1e-10)
    report("1 (chsh)", ok,
           f"classical={cb.maximum} lambda={lam:.12f} sos_residual="
           f"{rep.residual if rep else None}")


# --- 2. three-qubit Mermin / Svetlichny --------------------------------------

def test_criterion_2_mermin3_svetlichny3():
    g3 = logical_paulis_numeric(ghz3_basis())
    mermin_op = 4.0 * g3.z
    mermin_expr, _ = symbolize(mermin_op, {"Z": "A", "X": "B"})
    mermin_cb = classical_bounds(mermin_expr)
    mermin_q, _ = quantum_lower_bound(mermin_op)

    svet_op = 4.0 * (g3.x - g3.z)
    svet_expr, _ = symbolize(svet_op, {"Z": "A", "X": "B"})
    svet_cb = classical_bounds(svet_expr)
    svet_q, _ = quantum_lower_bound(svet_op)
    terms = [c * PauliSum.from_terms([(t, 1.0)]) for t, c in svet_op.items()]
    cert, rep = sos_pairing_search(terms, 4 * ROOT2)

    ok = (mermin_cb.maximum == 2.0 and abs(mermin_q - 4.0) <= 1e-9
          and svet_cb.maximum == 4.0 and abs(svet_q - 4 * ROOT2) <= 1e-9
          and cert is not None and rep.verified)
    report("2 (mermin3/svetlichny3)", ok,
           f"classical={mermin_cb.maximum}/{svet_cb.maximum} "
           f"quantum={mermin_q:.9f}/{svet_q:.9f} sos={rep.verified if rep else None}")


# --- 3. five-qubit loop code --------------------------------------------------

def test_criterion_3_loop5_operators_match_term_for_term():
    ops = loop5_ops()
    for op, golden in ((ops.z, loop5_golden_z()), (ops.x, loop5_golden_x()),
                       (ops.y, loop5_golden_y())):
        got = dict(op.to_strings())
        assert set(got) == set(golden)
        for k, v in golden.items():
            assert abs(got[k] - v) < 1e-12
    report("3a (loop5 operator terms)", True, "48 golden terms matched")


def test_criterion_3_loop5_bounds_and_seesaw():
    ops = loop5_ops()
    config = RunConfig(seed=SEED)
    targets = {"b1": (16.0 * ops.z, 8.0), "b2": (16.0 * (ops.z + ops.x), 16.0),
               "b3": (16.0 * (ops.z + ops.x + ops.y), 24.0)}
    classical = {}
    for name, (op, want) in targets.items():
        expr, _ = symbolize(op, {"Z": "A", "X": "B", "Y": "C"})
        assert len(expr.symbols) == 15     # 2^15-vertex enumeration
        classical[name] = classical_bounds(expr).maximum
        assert classical[name] == want

    lam, _ = quantum_lower_bound(targets["b1"][0])
    assert abs(lam - 16.0) <= 1e-9

    expr2, _ = symbolize(targets["b2"][0], {"Z": "A", "X": "B", "Y": "C"})
    expr3, _ = symbolize(targets["b3"][0], {"Z": "A", "X": "B", "Y": "C"})
    see2 = seesaw_optimize(expr2, restarts=4, seed=config.case_seed("b2")).value
    see3 = seesaw_optimize(expr3, restarts=4, seed=config.case_seed("b3")).value
    ok = see2 >= 16 * ROOT2 - 1e-6 and see3 >= 16 * ROOT3 - 1e-6
    report("3b (loop5 bounds/seesaw)", ok,
           f"classical={classical} lambda_b1={lam:.9f} "
           f"seesaw={see2:.9f}/{see3:.9f}")


# --- 4. identity-induced inequality -------------------------------------------

def test_criterion_4_identity_case():
    ops = loop5_ops()
    published = published_identity_expression()
    cb = classical_bounds(published)
    projector16 = 16.0 * ops.ident
    lam, _ = quantum_lower_bound(projector16)
    rng = np.random.default_rng(SEED)
    deviations = [abs(projector16.expectation(
        random_codespace_mixture(loop5_basis(), rng)) - 16.0) for _ in range(10)]
    ok = (cb.minimum == -6.0 and cb.maximum == 10.0
          and abs(lam - 16.0) <= 1e-9 and max(deviations) <= 1e-9)
    report("4 (identity case)", ok,
           f"classical=({cb.minimum},{cb.maximum}) lambda={lam:.9f} "
           f"worst_mixture_dev={max(deviations):.2e}")


# --- 5. chained family ---------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_criterion_5_chained(n):
    ch = chained_construction(n)
    cb = classical_bounds(ch.expression)
    lam, _ = quantum_lower_bound(ch.operator)
    target = 2 * n * math.cos(math.pi / (2 * n))
    ops = logical_paulis_numeric(bell_basis())
    resid = float(np.max(np.abs(ch.operator.to_dense()
                                - (target * ops.z).to_dense())))
    half_angle_ok = True
    for k in range(2, n + 1):
        tk = (k - 1) * math.pi / n
        lo = (2 * k - 3) * math.pi / (2 * n)
        hi = (2 * k - 1) * math.pi / (2 * n)
        lhs = PauliSum.from_strings([("Z", math.cos(tk)), ("X", math.sin(tk))])
        rhs = (1.0 / (2 * math.cos(math.pi / (2 * n)))) * PauliSum.from_strings(
            [("Z", math.cos(lo) + math.cos(hi)), ("X", math.sin(lo) + math.sin(hi))])
        half_angle_ok &= float(np.max(np.abs(lhs.to_dense() - rhs.to_dense()))) <= 1e-10
    ok = (cb.maximum == float(2 * n - 2) and abs(lam - target) <= 1e-9
          and resid <= 1e-10 and half_angle_ok)
    report(f"5 (chained n={n})", ok,
           f"classical={cb.maximum} lambda={lam:.9f} operator_residual={resid:.2e}")


# --- 6. recursive family (published bounds hold, exact maxima, tightness) ------

@pytest.mark.parametrize("n", range(3, 9))
def test_criterion_6_mermin_quantum(n):
    case = mermin_case(n)
    lam, _ = quantum_lower_bound(case.operator)
    report(f"6 (mermin:{n} quantum)", abs(lam - 2.0 ** (n - 1)) <= 1e-9,
           f"lambda={lam:.9f}")


@pytest.mark.parametrize("n", range(3, 9))
def test_criterion_6_svetlichny_quantum(n):
    case = svetlichny_case(n)
    lam, _ = quantum_lower_bound(case.operator)
    report(f"6 (svetlichny:{n} quantum)", abs(lam - (2.0 ** (n - 1)) * ROOT2) <= 1e-9,
           f"lambda={lam:.9f}")


# The published classical values of the family are Bell-inequality bounds:
# they must hold at every n, and are attained only at the listed n. The exact
# maxima are 2^floor(n/2) for Mermin, the LHV value of a 2^(n-1)-term Mermin
# operator (Mermin, PRL 65, 1838 (1990)), and 2^ceil(n/2) for Svetlichny.
MERMIN_TIGHT = (3, 4)
SVETLICHNY_TIGHT = (3,)
BRUTEFORCE_MAX_N = 6    # the per-vertex oracle takes <= 0.2 s up to here


def check_published_bound(criterion: str, n: int, expr, exact: int,
                          published: float, tight: bool):
    """The enumerated maximum of ``expr`` is at most ``published``, equals it
    exactly when ``tight``, and equals the closed form ``exact``; small cases
    are cross-checked against the brute-force oracle."""
    enumerated = classical_bounds(expr).maximum
    ok = (enumerated <= published and (enumerated == published) == tight
          and enumerated == exact)
    if n <= BRUTEFORCE_MAX_N:
        ok &= abs(classical_bounds_bruteforce(expr)[1] - exact) <= 1e-9
    report(criterion, ok, f"enumerated={enumerated} published={published} "
           f"exact={exact} tight={tight}")


@pytest.mark.parametrize("n", range(3, 9))
def test_criterion_6_mermin_classical_published_value(n):
    # published 2^(n-2) holds as a bound; exact maximum 2^floor(n/2)
    check_published_bound(f"6 (mermin:{n} classical<=2^{n - 2})", n,
                          mermin_case(n).expression, 2 ** (n // 2),
                          2.0 ** (n - 2), n in MERMIN_TIGHT)


@pytest.mark.parametrize("n", range(3, 9))
def test_criterion_6_svetlichny_classical_published_value(n):
    # published 2^(n-1) holds as a bound; exact maximum 2^ceil(n/2)
    check_published_bound(f"6 (svetlichny:{n} classical<=2^{n - 1})", n,
                          svetlichny_case(n).expression, 2 ** ((n + 1) // 2),
                          2.0 ** (n - 1), n in SVETLICHNY_TIGHT)


@pytest.mark.parametrize("n", range(3, 9))
def test_criterion_6_assignment_value_is_half(n):
    # published 1/2 holds as a bound; exact value 2^floor(n/2) / 2^(n-1)
    v = assignment_value_bound(n, "z")
    exact = Fraction(2 ** (n // 2), 2 ** (n - 1))
    ok = v <= Fraction(1, 2) and (v == Fraction(1, 2)) == (n in MERMIN_TIGHT) \
        and v == exact
    if n <= BRUTEFORCE_MAX_N:
        brute = classical_bounds_bruteforce(mermin_case(n).expression)[1]
        ok &= abs(brute / 2 ** (n - 1) - float(exact)) <= 1e-9
    report(f"6 (value bound n={n} <= 1/2)", ok,
           f"enumerated={v} published=1/2 exact={exact} tight={n in MERMIN_TIGHT}")


# --- 7. two-qubit basis table ----------------------------------------------------

@pytest.mark.parametrize("row", range(6))
def test_criterion_7_basis_table(row):
    entry = TWO_QUBIT_BASIS_TABLE[row]
    basis = basis_from_kets(list(entry["zero"]), list(entry["one"]))
    ops = logical_paulis_numeric(basis)
    for name, op in (("x", ops.x), ("z", ops.z), ("y", ops.y), ("i", ops.ident)):
        got = dict(op.to_strings())
        want = entry[name]
        assert set(got) == set(want), (row, name, got, want)
        for k, v in want.items():
            assert abs(got[k] - v) < 1e-12, (row, name, k)
    report(f"7 (basis table row {row + 1})", True, "term-for-term")


# --- 8. quadratic / uncertainty ---------------------------------------------------

def test_criterion_8_quadratic_uncertainty():
    sw = uncertainty_sweep(samples=10000, seed=SEED)
    lm = lemma_sweep(samples=10000, seed=SEED + 1)
    uff = quadratic_bell("uffink")
    nki = quadratic_bell("nki")
    uff_sweep = quadratic_quantum_sweep(uff, samples=10000, seed=SEED + 2)
    nki_sweep = quadratic_quantum_sweep(nki, samples=10000, seed=SEED + 3)
    ops = logical_paulis_numeric(bell_basis())
    rho0 = np.outer(bell_basis().zero_ket, bell_basis().zero_ket.conj())
    saturation = uncertainty_lhs(rho0, DirectionXZ(0.0), DirectionXZ(math.pi / 2), ops)
    ok = (sw.max_lhs <= 8.0 + 1e-9
          and lm.max_lhs <= 1.0 + 1e-10
          and uff.classical_max == 4.0 and uff_sweep.max_lhs <= 4.0 + 1e-9
          and nki.classical_max == 8.0 and nki_sweep.max_lhs <= 8.0 + 1e-9
          and abs(saturation - 8.0) <= 1e-8
          and abs(uffink_attaining_value(uff) - 4.0) <= 1e-9)
    report("8 (quadratic/uncertainty)", ok,
           f"relation_max={sw.max_lhs:.6f} lemma_max={lm.max_lhs:.6f} "
           f"uffink={uff.classical_max}/{uff_sweep.max_lhs:.6f} "
           f"nki={nki.classical_max}/{nki_sweep.max_lhs:.6f} "
           f"saturation={saturation:.9f}")


# --- 9. property suites -------------------------------------------------------------

def test_criterion_9_pauli_algebra_oracle():
    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        a = PauliTerm(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
                      int(rng.integers(0, 4)))
        b = PauliTerm(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
                      int(rng.integers(0, 4)))
        c = a * b
        assert np.allclose(c.to_dense(), a.to_dense() @ b.to_dense(), atol=1e-12)
        comm = a.to_dense() @ b.to_dense() - b.to_dense() @ a.to_dense()
        assert a.commutes(b) == bool(np.max(np.abs(comm)) < 1e-12)
    report("9a (pauli algebra, 1000 random cases)", True)


def test_criterion_9_projector_idempotence():
    groups = [
        StabilizerGroup.from_strings(["XX", "ZZ"]),
        graph_state_generators(GraphSpec.path(3)),
        graph_state_generators(GraphSpec.loop(4)),
        graph_state_generators(GraphSpec.loop(5)),
        graph_state_generators(GraphSpec.loop(6)),
    ]
    worst = 0.0
    for g in groups:
        d = expand_projector(g).to_dense()
        worst = max(worst, float(np.max(np.abs(d @ d - d))))
    report("9b (projector idempotence)", worst <= 1e-10, f"worst={worst:.2e}")


def test_criterion_9_pipeline_identities():
    ops2 = logical_paulis_numeric(bell_basis())
    g3 = logical_paulis_numeric(ghz3_basis())
    l5 = loop5_ops()
    pairs = []
    chsh = (2 * ROOT2) * ops2.z
    pairs.append(("chsh", chsh, render_operator(*symbolize_decomposed(
        complementary_decompose(chsh, 1)))))
    svet = 4.0 * (g3.x - g3.z)
    pairs.append(("svetlichny3", svet, render_operator(*symbolize_decomposed(
        complementary_decompose(svet, 0)))))
    for n in (2, 3, 4, 5, 6):
        ch = chained_construction(n)
        pairs.append((f"chained:{n}", ch.quantum_bound * ops2.z, ch.operator))
    for name, op in (("mermin3", 4.0 * g3.z),
                     ("l5-mermin", 16.0 * l5.z),
                     ("l5-svetlichny", 16.0 * (l5.z + l5.x)),
                     ("l5-hyper", 16.0 * (l5.z + l5.x + l5.y)),
                     ("l5-identity", 16.0 * l5.ident)):
        pairs.append((name, op, op))
    for n in (3, 4):
        pairs.append((f"mermin:{n} operator", mermin_case(n).operator,
                      mermin_case(n).operator))
    worst = 0.0
    for name, logical_form, final in pairs:
        resid = float(np.max(np.abs(logical_form.to_dense() - final.to_dense())))
        worst = max(worst, resid)
        assert resid <= 1e-10, name
    report("9c (pipeline identities)", True, f"worst={worst:.2e}")


def test_criterion_9_seesaw_monotone():
    ops = logical_paulis_numeric(bell_basis())
    dec = complementary_decompose((2 * ROOT2) * ops.z, pivot=1)
    expr, _ = symbolize_decomposed(dec)
    res = seesaw_optimize(expr, restarts=8, seed=SEED)
    ok = all(b >= a - 1e-12 for traj in res.trajectories
             for a, b in zip(traj, traj[1:]))
    report("9d (seesaw monotone)", ok, f"restarts={len(res.trajectories)}")
