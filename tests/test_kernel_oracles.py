"""The batched Pauli kernel and the array symbolize against the term-by-term
and mask-walking oracles in ``helpers``, bit for bit, the render of an
expression against the product and dict routes, the printer against the
``terms`` walk, the quantum lower bound's two routes, the pseudo Pauli
certificate and dense ``eigh``, against dense ``eigh``, on seeded random
inputs, the top eigenpair's LAPACK route against ``eigh``, bit for bit, and
the SOS pairing search against the record route it replaced."""

import functools
import math
import os
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from bellforge import cases, pauli
from bellforge.bell import (
    BellExpression,
    BellRecipe,
    DecompositionError,
    Setting,
    _letter_setting,
    build_logical,
    chained_construction,
    complementary_decompose,
    render_operator,
    render_terms,
    sum_terms,
    symbolize,
    symbolize_decomposed,
)
from bellforge import bounds
from bellforge.bounds import pseudo_pauli_certificate, quantum_lower_bound
from bellforge.cases import case_names, published_identity_expression, run_cases
from bellforge.pauli import (
    COEFF_PRUNE,
    PauliSum,
    PauliTerm,
    QubitCapError,
    bloch_sum,
    dense_stack,
    product,
)
from bellforge.logical import bell_logical_paulis, ghz3_logical_paulis, logical_paulis_symbolic
from bellforge.recursive import build_level, mermin_case, svetlichny_case
from bellforge.stabilizer import GraphSpec, StabilizerGroup, graph_state_generators
from helpers import (
    bits,
    decomposed_terms_by_products,
    expression_text_by_terms,
    factor_table_by_terms,
    product_by_terms,
    render_terms_by_dicts,
    render_terms_by_products,
    sos_pairing_search_by_reports,
    sum_to_dense,
    symbolize_by_masks,
    symbolize_by_terms,
    sum_terms_by_dicts,
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


class TestOneSumStack:
    def test_one_sum_equals_its_matrix_in_a_stack(self):
        # the one-sum call reads the sum's cached arrays with no offsets, a
        # stack offsets each sum's terms; a sum's matrix has the same bits
        # alone, first or second
        rng = np.random.default_rng(1206)
        ops = [random_sum(rng, n, runs, terms)
               for n in range(1, 9) for runs, terms in ((1, 6), (3, 12), (1 << n, 3 << n))]
        big = random_sum(rng, 8, 3, 600) + random_sum(rng, 8, 150, 150)
        assert len(big) >= 128 and len(big) > 2 * pauli._chunk_terms(8)
        # the same terms, inserted in reverse: the render reads them sorted
        ops += [big, PauliSum(8, dict(reversed(big._terms.items()))),
                PauliSum.identity(4, -0.75)]
        for op in ops:
            other = random_sum(rng, op.n, 3, 12)
            alone = bits(dense_stack([op])[0])
            assert np.array_equal(alone, bits(dense_stack([op, other])[0]))
            assert np.array_equal(alone, bits(dense_stack([other, op])[1]))
            assert np.array_equal(alone, bits(sum_to_dense(op)))


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


def generic_sums(seed):
    """9-qubit sums that are no pseudo Pauli operator: generic spectra, and
    commuting strings (Z on qubits 0-4, X on 5-8) whose top eigenvalue is
    degenerate."""
    rng = np.random.default_rng(seed)
    commuting = PauliSum(9, {(0, int(z)): random_coeff(rng)
                             for z in rng.integers(1, 1 << 5, size=6)})
    commuting += PauliSum(9, {(int(x) << 5, 0): random_coeff(rng)
                              for x in rng.integers(1, 1 << 4, size=4)})
    return [random_sum(rng, 9, 64, 64), random_sum(rng, 9, 3, 12), commuting]


class TestRejectedSumsTakeDenseEigh:
    """Past 8 qubits, a sum the certificate rejects takes dense
    ``top_eigenpair``, with ``eigh``'s bits."""

    def test_certificate_rejects_every_input(self):
        # so that quantum_lower_bound takes dense eigh on every sum below
        for seed in range(1208, 1213):
            for op in generic_sums(seed):
                assert pseudo_pauli_certificate(op) is None

    def test_value_matches_eigh(self):
        for op in generic_sums(1208):
            assert_matches_eigh(quantum_lower_bound(op), op.to_dense())

    def test_repeated_calls_identical_bits(self):
        op = generic_sums(1211)[0]
        (a, x), (b, y) = quantum_lower_bound(op), quantum_lower_bound(op)
        assert a.hex() == b.hex() and np.array_equal(bits(x), bits(y))

    def test_cap_is_checked_before_any_render(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("rendered above the qubit cap")

        monkeypatch.setattr(pauli, "dense_stack", refuse)
        with pytest.raises(QubitCapError, match="9 qubits exceeds dense cap of 8"):
            quantum_lower_bound(generic_sums(1212)[0], cap=8)


# with more than one BLAS thread, an eigenvector of 128 rows or more can
# differ from eigh's in the last bit, as eigh's own do between thread counts
ONE_BLAS_THREAD = os.environ.get("OPENBLAS_NUM_THREADS") == "1"


def eigh_top(m):
    """The oracle: ``np.linalg.eigh``'s last eigenpair, its vector
    phase-fixed as ``top_eigenpair`` fixes it."""
    vals, vecs = np.linalg.eigh(np.asarray(m, dtype=complex))
    return float(vals[-1]), pauli.fix_global_phase(vecs[:, -1])


def assert_matches_eigh(pair, m):
    value, vec = pair
    top, ref = eigh_top(m)
    assert value.hex() == top.hex()
    if ONE_BLAS_THREAD or m.shape[0] < 128:
        assert np.array_equal(bits(vec), bits(ref))
    else:
        assert np.max(np.abs(vec - ref)) <= 1e-13


def assert_is_eigh(m):
    """Where ``top_eigenpair`` leaves a matrix to ``eigh``, its pair is
    ``eigh``'s at any thread count."""
    value, vec = pauli.top_eigenpair(m)
    top, ref = eigh_top(m)
    assert value.hex() == top.hex() and np.array_equal(bits(vec), bits(ref))


def random_hermitian(rng, dim, complex_valued):
    g = rng.normal(size=(dim, dim))
    if complex_valued:
        g = g + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


@pytest.fixture
def lapack_calls(monkeypatch):
    """What each LAPACK solver call returned: a pair, or None where it left
    the matrix to ``eigh``."""
    returned = []
    real = pauli._LapackSolver.__call__

    def spy(solver, m):
        returned.append(real(solver, m))
        return returned[-1]

    monkeypatch.setattr(pauli._LapackSolver, "__call__", spy)
    return returned


class TestTopEigenpairAgainstEigh:
    """From 64 rows up, or above 25 rows with a reused solver,
    ``top_eigenpair`` runs ``eigh``'s own LAPACK steps and back-transforms
    one column; its pair equals ``eigh``'s bit for bit."""

    @pytest.mark.parametrize("complex_valued", [True, False], ids=["complex", "real"])
    def test_random_matrices(self, lapack_calls, complex_valued):
        rng = np.random.default_rng(3501 + complex_valued)
        dims = [64, 96, 128, 200, 256, 512]
        for dim in dims:
            m = random_hermitian(rng, dim, complex_valued)
            assert_matches_eigh(pauli.top_eigenpair(m), m)
        # one solver per size, reused on three matrices, as the see-saw reuses
        # one per call; from 26 rows up zstedc hands the tridiagonal to dstedc
        reused = [26, 32, 48, 64]
        for dim in reused:
            solver = pauli.lapack_solver(dim)
            for _ in range(3):
                m = random_hermitian(rng, dim, complex_valued)
                assert_matches_eigh(pauli.top_eigenpair(m, work=solver), m)
        # every one took the route, where numpy exports it
        assert sum(pair is not None for pair in lapack_calls) == \
            (len(dims) + 3 * len(reused)) * (pauli._lapack() is not None)

    def test_catalog_operators(self, monkeypatch, lapack_calls):
        # every dense operator of 64 rows or more that a catalog pass solves,
        # and every see-saw operator its reused solvers take
        seen, reused = [], []
        real = bounds.top_eigenpair

        def recorded(m, work=None):
            if work is not None:
                reused.append(m.copy())
            elif m.shape[0] >= pauli._LAPACK_MIN_DIM:
                seen.append(m)
            return real(m, work)

        monkeypatch.setattr(bounds, "top_eigenpair", recorded)
        run_cases(case_names())
        assert sorted(m.shape[0] for m in seen) == [64, 64, 128, 128, 256, 256]
        for m in seen:
            assert_matches_eigh(pauli.top_eigenpair(m), m)
        # the l5 see-saw rows' 32-row solves, where numpy exports the route
        assert {m.shape[0] for m in reused} == ({32} if pauli._lapack() else set())
        for m in reused:
            assert_matches_eigh(pauli.top_eigenpair(m, work=pauli.lapack_solver(32)), m)
        assert all(pair is not None for pair in lapack_calls)

    def test_missing_symbols_take_eigh(self, monkeypatch, lapack_calls):
        monkeypatch.setattr(pauli, "_lapack", lambda: None)
        assert_is_eigh(random_hermitian(np.random.default_rng(3503), 256, True))
        assert pauli.lapack_solver(32) is None
        assert lapack_calls == []

    @pytest.mark.parametrize("error", [ImportError, OSError, AttributeError])
    def test_failed_lookup_is_none(self, monkeypatch, error):
        def cdll(path):
            raise error(path)

        monkeypatch.setattr(pauli.ctypes, "CDLL", cdll)
        assert pauli._lapack.__wrapped__() is None

    def test_unexported_names_are_none(self, monkeypatch):
        monkeypatch.setattr(pauli.ctypes, "CDLL", lambda path: SimpleNamespace())
        assert pauli._lapack.__wrapped__() is None

    @pytest.mark.parametrize("scale,routed", [(1e-150, False), (1e150, False),
                                              (1e-140, True), (1e140, True)])
    def test_only_unrescaled_matrices_take_the_route(self, lapack_calls, scale, routed):
        # zheevd rescales a matrix whose largest entry is outside about
        # [1e-146, 1e146]; the route leaves those to eigh, with a reused
        # solver too
        rng = np.random.default_rng(3504)
        assert_is_eigh(scale * random_hermitian(rng, 64, True))
        m = scale * random_hermitian(rng, 32, True)
        solver = pauli.lapack_solver(32)
        pair = pauli.top_eigenpair(m, work=solver)
        top, ref = eigh_top(m)
        assert pair[0].hex() == top.hex() and np.array_equal(bits(pair[1]), bits(ref))
        if pauli._lapack() is not None:
            assert [pair is not None for pair in lapack_calls] == [routed, routed]

    @pytest.mark.parametrize("dim", [1, 2, 4, 32, 63, 25])
    def test_small_matrices_never_enter_the_route(self, monkeypatch, dim):
        # below 64 rows without a solver; at 25 rows or fewer, where zstedc
        # solves with zsteqr and the bits differ, not even with one
        def refuse(solver, m):
            raise AssertionError(f"the LAPACK route entered at {m.shape}")

        solvers = [None]
        if dim <= pauli._ZSTEQR_MAX_DIM and pauli._lapack() is not None:
            assert pauli.lapack_solver(dim) is None
            solvers.append(pauli._LapackSolver(dim, pauli._lapack()))
        monkeypatch.setattr(pauli._LapackSolver, "__call__", refuse)
        for complex_valued in (True, False):
            m = random_hermitian(np.random.default_rng(dim), dim, complex_valued)
            for solver in solvers:
                value, vec = pauli.top_eigenpair(m, work=solver)
                top, ref = eigh_top(m)
                assert value.hex() == top.hex() and np.array_equal(bits(vec), bits(ref))

    @pytest.mark.parametrize("failing", list(pauli._LAPACK_ARGS))
    def test_nonzero_info_raises(self, monkeypatch, failing):
        if pauli._lapack() is None:
            pytest.skip("numpy's build does not export the LAPACK route")
        routines = dict(zip(pauli._LAPACK_ARGS, pauli._lapack()))
        real = routines[failing]
        info = pauli._LAPACK_ARGS[failing][0] - 1     # the last argument by address

        def fails(*args):
            real(*args)
            args[info]._obj.value = 1

        routines[failing] = fails
        monkeypatch.setattr(pauli, "_lapack", lambda: tuple(routines.values()))
        rng = np.random.default_rng(3505)
        m = random_hermitian(rng, 64, True)
        with pytest.raises(np.linalg.LinAlgError, match=f"{failing} info 1"):
            pauli.top_eigenpair(m)
        # a reused solver raises on every call
        solver = pauli.lapack_solver(32)
        for _ in range(2):
            with pytest.raises(np.linalg.LinAlgError, match=f"{failing} info 1"):
                pauli.top_eigenpair(random_hermitian(rng, 32, True), work=solver)

    def test_solver_checks_the_shape(self):
        # the solver's buffers hold one size; another would overrun them
        if pauli._lapack() is None:
            pytest.skip("numpy's build does not export the LAPACK route")
        solver = pauli.lapack_solver(32)
        with pytest.raises(ValueError, match="solver for 32 rows got shape"):
            pauli.top_eigenpair(random_hermitian(np.random.default_rng(3506), 64, True),
                                work=solver)


def pseudo_pauli_sums(seed):
    """beta (k . L) on graph codes of 2 to 8 qubits: two seeded random
    connected graphs per n and the 5-loop, each generator signed at random,
    flip Z on every qubit; k on an axis, in a coordinate plane or generic (1,
    2 or 3 cosets of the stabilizer group), beta 1, 2^(n-1) or random."""
    rng = np.random.default_rng(seed)
    out = []
    for n in range(2, 9):
        graphs = [GraphSpec.from_edges(n, [(int(rng.integers(q)), q) for q in range(1, n)]
                                       + [(u, v) for u in range(n) for v in range(u + 2, n)
                                          if rng.random() < 0.3])
                  for _ in range(2)]
        if n == 5:
            graphs.append(GraphSpec.loop(5))
        for graph in graphs:
            gens = tuple(PauliTerm(n, g.x_mask, g.z_mask, 2 * int(rng.integers(2)))
                         for g in graph_state_generators(graph).generators)
            ops = logical_paulis_symbolic(StabilizerGroup(n, gens),
                                          PauliTerm(n, 0, (1 << n) - 1))
            for cosets in (1, 2, 3):
                k = np.zeros(3)
                k[rng.permutation(3)[:cosets]] = rng.normal(size=cosets)
                beta = float(rng.choice([1.0, 2.0 ** (n - 1), rng.uniform(0.5, 10.0)]))
                out.append(beta * ops.direction(k / np.linalg.norm(k)))
    return out


def abs_sum(op):
    return float(np.sum(np.abs(op._sorted_arrays()[2])))


class TestPseudoPauliCertificate:
    # eigh itself reads the exact beta |k| up to 13 ulps of sum |c| low on
    # these inputs (64.0 as 63.999999999999886 at n = 7), so "not above
    # eigh" allows that rounding
    EIGH_ROUNDING = 1e-14

    def test_value_matches_eigh_and_is_below_the_witness(self):
        family = [build(n).operator for n in range(3, 9)
                  for build in (mermin_case, svetlichny_case)]
        cosets = set()
        for op in pseudo_pauli_sums(2401) + family:
            value, witness = pseudo_pauli_certificate(op)
            dense = op.to_dense()
            top, _ = pauli.top_eigenpair(dense)
            assert abs(value - top) <= 1e-12 * abs_sum(op)
            assert value <= top + self.EIGH_ROUNDING * abs_sum(op)
            assert abs(np.linalg.norm(witness) - 1.0) <= 1e-12
            assert witness.dtype == np.complex128
            rayleigh = np.vdot(witness, dense @ witness).real
            assert value <= rayleigh + self.EIGH_ROUNDING * abs_sum(op)
            cosets.add(len(op) >> (op.n - 1))
        assert cosets == {1, 2, 3}

    def test_perturbed_sums_keep_a_lower_bound(self):
        # one coefficient off by 3e-14 sum |c|: the residual is within the
        # tolerance, and the value, |a| less the residual, stays below eigh
        rng = np.random.default_rng(2403)
        for op in pseudo_pauli_sums(2404):
            terms = dict(op._terms)
            key = list(terms)[rng.integers(len(terms))]
            terms[key] += rng.choice([-3e-14, 3e-14]) * abs_sum(op)
            bumped = PauliSum(op.n, terms)
            value, _ = pseudo_pauli_certificate(bumped)
            top, _ = pauli.top_eigenpair(bumped.to_dense())
            assert top - 1e-12 * abs_sum(op) <= value <= top + self.EIGH_ROUNDING * abs_sum(op)

    @pytest.mark.parametrize("n", [2, 5, 9, 10])
    def test_unit_coefficients_give_beta_to_the_bit(self, n):
        # beta = 2^(n-1) on an axis of a path code: every coefficient is +/-1
        for k in np.eye(3):
            op = build_logical(BellRecipe.from_dict({
                "basis": {"kind": "graph", "flip": "Z" * n,
                          "graph": {"n": n, "edges": [[q, q + 1] for q in range(n - 1)]}},
                "k": k.tolist()}))
            assert pseudo_pauli_certificate(op)[0] == 2.0 ** (n - 1)

    @pytest.mark.parametrize("n", [9, 10])
    def test_family_past_8_qubits_matches_eigh(self, n):
        for build in (mermin_case, svetlichny_case):
            op = build(n).operator
            value, witness = pseudo_pauli_certificate(op)
            top, _ = pauli.top_eigenpair(op.to_dense())
            assert abs(value - top) <= 1e-12 * top
            assert witness.dtype == np.complex128
            assert abs(np.linalg.norm(witness) - 1.0) <= 1e-12

    def test_generic_sums_fall_back(self):
        rng = np.random.default_rng(2402)
        for n in range(2, 10):
            for size in (4, 1 << (n - 1), 3 << (n - 1)):
                keys = {(int(rng.integers(1 << n)), int(rng.integers(1 << n)))
                        for _ in range(size)}
                op = PauliSum(n, {key: float(rng.normal()) for key in keys})
                assert pseudo_pauli_certificate(op) is None

    def test_other_shapes_fall_back(self):
        ops = build_level(4)
        for op in (ops.ident,                 # the projector: its coset is S
                   ops.z + ops.ident,         # a logical coset beside S
                   ops.z + ops.x + ops.y + ops.ident,
                   # two anticommuting strings of a two-qubit code space
                   PauliSum.from_strings([("ZI", 1.0), ("XI", 1.0)])):
            assert pseudo_pauli_certificate(op) is None

    def test_bumped_family_sum_falls_back_to_eigh(self, monkeypatch):
        op = mermin_case(9).operator
        terms = dict(op._terms)
        key = next(iter(terms))
        terms[key] *= 1 + 1e-6
        bumped = PauliSum(9, terms)
        assert pseudo_pauli_certificate(bumped) is None
        shapes = []
        real = bounds.top_eigenpair

        def top_eigenpair(m):
            shapes.append(m.shape)
            return real(m)

        monkeypatch.setattr(bounds, "top_eigenpair", top_eigenpair)
        value, _ = quantum_lower_bound(bumped)
        assert shapes == [(512, 512)] and abs(value - 256.0) <= 1e-5

    def test_star_9_recipes_never_reach_dense_eigh(self, monkeypatch):
        # every recipe past 8 qubits that the program builds is certified:
        # star-9, flip Z^9, the logical form and its complementary rewrite,
        # k on two axes, in the xz plane and halfway between x and z
        real = bounds.top_eigenpair

        def top_eigenpair(m):
            assert m.shape[0] <= 256, f"dense eigh of a {m.shape} matrix"
            return real(m)

        monkeypatch.setattr(bounds, "top_eigenpair", top_eigenpair)
        half = 1 / math.sqrt(2)
        for decomposition in ({"kind": "none"}, {"kind": "complementary", "pivot": 0}):
            for k in ([0, 0, 1], [1, 0, 0], [0.6, 0, 0.8], [half, 0, half]):
                recipe = BellRecipe.from_dict({
                    "basis": {"kind": "graph", "flip": "Z" * 9,
                              "graph": {"n": 9, "edges": [[0, q] for q in range(1, 9)]}},
                    "k": k, "decomposition": decomposition})
                report = cases.build_report(recipe, cases.RunConfig(), seesaw=False)
                assert abs(report["quantum_lower"] - recipe.beta_q) <= 1e-12 * recipe.beta_q

    def test_repeated_calls_identical_bits(self):
        op = svetlichny_case(9).operator
        (a, x), (b, y) = pseudo_pauli_certificate(op), pseudo_pauli_certificate(op)
        assert a.hex() == b.hex() and np.array_equal(bits(x), bits(y))

    def test_cap_is_checked_before_the_certificate(self, monkeypatch):
        def certificate(op):
            raise AssertionError("certified above the qubit cap")

        monkeypatch.setattr(bounds, "pseudo_pauli_certificate", certificate)
        with pytest.raises(QubitCapError, match="9 qubits exceeds dense cap of 8"):
            quantum_lower_bound(mermin_case(9).operator, cap=8)


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
    time, and about one coefficient in six an exact +0.0 or -0.0, which the
    constructor drops."""
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
        # constants and the empty sum included, coefficients drawn as exact
        # zeros dropped
        rng = np.random.default_rng(1801)
        ops = [PauliSum.zero(1), PauliSum.zero(4)]
        ops += [letter_sum(rng, n, "XZ" if len(symbol_map) == 2 else "XYZ")
                for n in range(1, 11) for _ in range(12)]
        for op in ops:
            mine = symbolize_results(op, symbol_map)
            assert mine == oracle_results(op, symbol_map)
            assert mine == oracle_results(op, symbol_map, symbolize_by_masks)
            assert self.table_results(op, symbol_map) == self.oracle_table(op, symbol_map)
        assert all(abs(c) > COEFF_PRUNE for op in ops for c in op._terms.values())
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
        # the constructor drops the zero term, so its X on qubit 0 is no
        # symbol of the expression
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
            # the logical form symbolized with Y as its own symbol
            expr, bindings = symbolize(logical_form, ZXY)
            assert list(map(sum_hex, render_terms(expr, bindings))) == \
                list(map(sum_hex, render_terms_by_products(expr, bindings)))
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
                    rendered = list(map(sum_hex, render_terms(expr, bindings)))
                    assert rendered == list(map(sum_hex, oracle))
                    assert rendered == list(map(sum_hex, render_terms_by_products(
                        expr, bindings)))
                    assert sum_hex(render_operator(expr, bindings)) == \
                        sum_hex(sum(oracle, PauliSum.zero(dec.n)))
        assert set(decomposed) == {2, 3, 4, 5, 6}
        assert len(decomposed) >= 90

    def test_random_settings_match_product_route(self):
        # Bloch settings of two or three terms on every party, terms of up to
        # five factors: the partial sum is re-sorted before each factor
        rng = np.random.default_rng(2203)
        for n in range(1, 6):
            for _ in range(6):
                bindings = {}
                for q in range(n):
                    for label in "AB":
                        v = rng.normal(size=3)
                        v[rng.integers(3)] *= rng.integers(2)
                        bindings[q, label] = Setting(q, label, bloch_sum(v / np.linalg.norm(v)))
                terms = {}
                for _ in range(int(rng.integers(1, 8))):
                    parties = sorted(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
                    terms[tuple((int(q), str(rng.choice(["A", "B"]))) for q in parties)] = \
                        float(rng.normal())
                expr = BellExpression(n, terms, float(rng.normal()))
                assert list(map(sum_hex, render_terms(expr, bindings))) == \
                    list(map(sum_hex, render_terms_by_products(expr, bindings)))

    def test_one_string_settings_between_bloch_settings(self):
        # a signed letter (one string) and a Bloch setting (two or three) on
        # every party, so a term's one-step products come before, between and
        # after its list passes
        rng = np.random.default_rng(2204)
        for n in range(1, 7):
            for _ in range(8):
                bindings = {}
                for q in range(n):
                    letter = np.zeros(3)
                    letter[rng.integers(3)] = rng.choice([-1.0, 1.0])
                    v = rng.normal(size=3)
                    bindings[q, "A"] = Setting(q, "A", bloch_sum(letter))
                    bindings[q, "B"] = Setting(q, "B", bloch_sum(v / np.linalg.norm(v)))
                terms = {}
                for _ in range(int(rng.integers(1, 10))):
                    parties = sorted(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
                    terms[tuple((int(q), str(rng.choice(["A", "A", "B"]))) for q in parties)] = \
                        float(rng.normal())
                expr = BellExpression(n, terms)
                assert list(map(sum_hex, render_terms(expr, bindings))) == \
                    list(map(sum_hex, render_terms_by_products(expr, bindings)))

    def test_catalog_expressions_match_product_route(self, monkeypatch):
        # every expression a catalog case renders, and the family members
        # and the loop-5 projector's symbolization, which the catalog does
        # not render
        seen = []

        def recorded(expr, bindings):
            seen.append((expr, bindings))
            return render_terms(expr, bindings)

        monkeypatch.setattr(cases, "render_terms", recorded)
        run_cases(case_names())
        assert len(seen) >= 10
        for n in range(3, 9):
            level = build_level(n)
            for op in (level.z, level.x + level.z):
                seen.append(symbolize(float(2 ** (n - 1)) * op, ZX))
        seen.append(symbolize(16.0 * cases._row_recipe("l5-mermin").ops.ident, ZXY))
        for expr, bindings in seen:
            assert list(map(sum_hex, render_terms(expr, bindings))) == \
                list(map(sum_hex, render_terms_by_products(expr, bindings)))


def render_cases(rng):
    """(expression, bindings) pairs: every catalog derivation, seeded graph
    recipes symbolized and decomposed at every pivot, chained constructions
    and ``build`` recipes, and two expressions whose sums cancel below
    ``COEFF_PRUNE``."""
    seen = []
    original = cases.render_terms

    def recorded(expr, bindings):
        seen.append((expr, bindings))
        return original(expr, bindings)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cases, "render_terms", recorded)
        run_cases(case_names(), cases.RunConfig())
    assert len(seen) == 11
    for recipe in graph_recipes(rng)[::3]:
        logical_form = build_logical(recipe)
        seen.append(symbolize(logical_form, ZXY))
        for pivot in range(logical_form.n):
            try:
                seen.append(symbolize_decomposed(complementary_decompose(logical_form, pivot)))
            except DecompositionError:
                pass
    for n in range(2, 10):
        ch = chained_construction(n)
        seen.append((ch.expression, ch.bindings))
    # Z on party 0 three times: +1 and -1 + 2^-50 cancel to below COEFF_PRUNE,
    # so ZZ leaves the running sum and returns last, from 0.5; each factor's
    # X part of 1e-8 makes products of 1e-16, which the term drops
    tilted = bloch_sum((1e-8, 0.0, math.sqrt(1.0 - 1e-16)))
    bindings = {(0, label): Setting(0, label, tilted) for label in ("A", "A'", "A''")}
    bindings[1, "B"] = Setting(1, "B", tilted)
    terms = {((0, "A"), (1, "B")): 1.0, ((0, "A'"), (1, "B")): -1.0 + 2.0 ** -50,
             ((1, "B"),): 0.25, ((0, "A''"), (1, "B")): 0.5}
    seen.append((BellExpression(2, terms, constant=0.75), bindings))
    seen.append((BellExpression(2, terms, constant=1e-15), bindings))
    return seen


class TestRenderAgainstDicts:
    def test_render_and_sum_match_dict_route(self):
        # each term's keys in the same order with the same coefficient bits,
        # and the operator's, pruned after every single addition
        cancelled = 0
        for expr, bindings in render_cases(np.random.default_rng(2802)):
            rendered = render_terms(expr, bindings)
            oracle = render_terms_by_dicts(expr, bindings)
            assert list(map(sum_hex, rendered)) == list(map(sum_hex, oracle)), str(expr)
            total = sum_hex(sum_terms(expr, rendered))
            assert total == sum_hex(sum_terms_by_dicts(expr, oracle)), str(expr)
            keys = [key for key, _ in total]
            if (2, 0) in keys and (0, 3) in keys:
                # ZZ left the sum and came back after B's X; XX never entered
                assert keys.index((0, 3)) > keys.index((2, 0))
                assert (3, 0) not in keys and (3, 0) not in rendered[0]._terms
                cancelled += 1
        assert cancelled == 2

    def test_errors_match_dict_route(self):
        expr = BellExpression(2, {((0, "A"), (1, "B")): 1.0})
        a, b = _letter_setting(0, "A", "Z"), _letter_setting(1, "B", "X")
        for bindings, message in (
                ({(0, "A"): a}, "symbol (1, 'B') is not bound"),
                ({(0, "A"): a, (1, "B"): a}, "binding for (1, 'B') names party 0")):
            for route in (render_terms, render_terms_by_dicts):
                with pytest.raises(ValueError, match=re.escape(message)):
                    route(expr, bindings)
        rendered = render_operator(expr, {(0, "A"): a, (1, "B"): b})
        assert sum_hex(rendered) == [((2, 1), (1.0).hex())]


class TestPrinterAgainstTerms:
    def test_catalog_and_random_expressions(self):
        rng = np.random.default_rng(2803)
        exprs = [expr for expr, _ in render_cases(rng)]
        exprs += [published_identity_expression(), BellExpression(3), BellExpression(2, {}, 1.5)]
        for n in range(3, 9):
            exprs += [mermin_case(n).expression, svetlichny_case(n).expression]
        for parties in range(1, 7):
            for _ in range(5):
                terms = {}
                for _ in range(int(rng.integers(1, 12))):
                    key = tuple((p, str(rng.choice(["A", "B", "A'", "C"])))
                                for p in range(parties) if rng.random() < 0.7)
                    if key:
                        terms[key] = float(rng.choice([1.0, -1.0, 1.0 + 1e-13, 2.5,
                                                       float(rng.normal()), -3e-5]))
                constant = float(rng.choice([0.0, 1.0, -2.25, float(rng.normal())]))
                exprs.append(BellExpression(parties, terms, constant))
        for expr in exprs:
            # an expression written from a table, whose terms view is not built
            fresh = BellExpression._from_table(expr.parties, expr.symbols,
                                               *expr.factor_table(), expr.constant)
            assert str(fresh) == expression_text_by_terms(expr) == str(expr)


# --- the SOS pairing search against the record route -----------------------------

_SOS_KS = ([0, 0, 1], [1, 0, 0], [0.6, 0, 0.8],
           [1 / math.sqrt(2), 0, 1 / math.sqrt(2)], [0.6, 0.8, 0])


def _sos_bases():
    yield {"kind": "bell"}, 2
    yield {"kind": "ghz3"}, 3
    for n in (2, 3, 4):
        path, star = [[i, i + 1] for i in range(n - 1)], [[0, i] for i in range(1, n)]
        for edges in ([], path) + ((star,) if star != path else ()):     # empty, path, star
            for flip in ("Z" * n, "X" * n, "X" + "Z" * (n - 1), "Z" + "X" * (n - 1)):
                yield {"kind": "graph", "graph": {"n": n, "edges": edges}, "flip": flip}, n


@functools.cache
def sos_inputs() -> tuple[tuple[str, list[PauliSum], float], ...]:
    """(label, terms, claimed bound): the catalog's two SOS derivations, then
    every complementary recipe on at most 8 terms over the axes above, at
    every pivot; a recipe the pipeline refuses is left out."""
    root2 = math.sqrt(2)
    ops = ghz3_logical_paulis()
    inputs = [
        ("chsh", cases._derive((2 * root2) * bell_logical_paulis().z,
                               {"kind": "complementary", "pivot": 1},
                               letter_order={0: ["X", "Z"]}).terms, 2 * root2),
        ("svetlichny3", cases._derive(4.0 * (ops.x - ops.z), {"kind": "none"},
                                      {"Z": "A", "X": "B"}).terms, 4 * root2),
    ]
    for basis, n in _sos_bases():
        for k in _SOS_KS:
            for pivot in range(n):
                data = {"basis": basis, "k": k,
                        "decomposition": {"kind": "complementary", "pivot": pivot}}
                try:
                    recipe = BellRecipe.from_dict(data)
                    terms = cases._derive(build_logical(recipe), recipe.decomposition,
                                          recipe.symbols).terms
                except ValueError:      # no logical qubit, or no complementary pairing
                    continue
                if len(terms) <= bounds.SOS_MAX_TERMS:
                    inputs.append((str(data), terms, recipe.beta_q))
    return tuple(inputs)


class TestSosSearchAgainstReportOracle:
    def test_inputs_cover_both_outcomes_and_sizes(self):
        inputs = sos_inputs()
        assert len(inputs) == 97
        assert {len(terms) for _, terms, _ in inputs} == {4, 8}
        found = [bounds.sos_pairing_search(terms, bound)[0] is not None
                 for _, terms, bound in inputs]
        # the catalog rows and six CHSH-like recipes at k = (x + z)/sqrt2 verify
        assert found[:2] == [True, True] and sum(found) == 8

    def test_same_pairs_and_residual_bits(self):
        for label, terms, bound in sos_inputs():
            pairs, residual = bounds.sos_pairing_search(terms, bound)
            cert, report = sos_pairing_search_by_reports(terms, bound)
            assert pairs == (cert.pairs if cert else None), label
            assert residual.hex() == (report.residual if report else math.inf).hex(), label

    def test_each_anticommutator_computed_once(self, monkeypatch):
        calls = []

        def counted(p, q):
            calls.append((p, q))
            return pauli.anticommutator_sum(p, q)

        monkeypatch.setattr(bounds, "anticommutator_sum", counted)
        recipe = BellRecipe.from_dict(
            {"basis": {"kind": "graph", "graph": {"n": 4, "edges": []}, "flip": "ZZZZ"},
             "k": [1, 0, 0], "decomposition": {"kind": "complementary", "pivot": 0}})
        terms = cases._derive(build_logical(recipe), recipe.decomposition,
                              recipe.symbols).terms
        assert len(terms) == 8
        assert bounds.sos_pairing_search(terms, recipe.beta_q) == (None, math.inf)
        # 105 pairings of 8 terms, 4 anticommutators each, 28 index pairs
        assert len(calls) <= 28
