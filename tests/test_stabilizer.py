"""Graph states, group expansion, and logical bases."""

import numpy as np
import pytest

from bellforge.logical import logical_paulis_symbolic
from bellforge.pauli import PauliSum, PauliTerm, QubitCapError
from bellforge.stabilizer import (
    GraphSpec,
    LogicalBasis,
    StabilizerGroup,
    _gf2_echelon,
    basis_from_flip,
    bell_basis,
    ghz3_basis,
    graph_state_generators,
    state_vector,
)
from helpers import (
    bell_kets_typed,
    commuting_split,
    expand_projector,
    ghz3_kets_typed,
    gray_code_elements,
    level_kets,
    loop5_basis,
    seeded_groups,
    state_vector_dense,
)

RNG = np.random.default_rng(1234)


class TestGraphSpec:
    def test_loop_and_path(self):
        loop = GraphSpec.loop(5)
        assert len(loop.edges) == 5
        assert GraphSpec.path(3).neighbors(1) == [0, 2]

    def test_rejects_self_loops_and_bad_vertices(self):
        with pytest.raises(ValueError):
            GraphSpec.from_edges(3, [(0, 0)])
        with pytest.raises(ValueError):
            GraphSpec.from_edges(3, [(0, 3)])


class TestGenerators:
    def test_single_edge(self):
        g = graph_state_generators(GraphSpec.from_edges(2, [(0, 1)]))
        assert [t.letters for t in g.generators] == ["XZ", "ZX"]

    def test_path3(self):
        g = graph_state_generators(GraphSpec.path(3))
        assert [t.letters for t in g.generators] == ["XZI", "ZXZ", "IZX"]

    def test_loop5(self):
        g = graph_state_generators(GraphSpec.loop(5))
        expected = {"XZIIZ", "ZXZII", "IZXZI", "IIZXZ", "ZIIZX"}
        assert {t.letters for t in g.generators} == expected

    def test_group_validation(self):
        with pytest.raises(ValueError):   # anticommuting pair
            StabilizerGroup.from_strings(["XX", "ZI"])
        with pytest.raises(ValueError):   # dependent set
            StabilizerGroup.from_strings(["XX", "XX"])
        with pytest.raises(ValueError):   # -i phase squares to -I
            StabilizerGroup(1, (PauliTerm(1, 1, 1, 3),))

    def test_elements_count_and_closure(self):
        g = graph_state_generators(GraphSpec.loop(5))
        elems = g.elements()
        assert len(elems) == 32
        assert len({e.key() for e in elems}) == 32
        assert all(e.is_hermitian for e in elems)

    def test_elements_match_the_gray_code_walk(self):
        # graph, signed and Y-bearing groups, n = 1..8: the same signed terms
        rng = np.random.default_rng(2501)
        for n in range(1, 9):
            for g in seeded_groups(rng, n):
                def signed(terms):
                    return {(t.x_mask, t.z_mask, t.phase_exp) for t in terms}
                assert signed(g.elements()) == signed(gray_code_elements(g))

    def test_40_qubit_path_validates(self):
        # symplectic vectors of 80 bits: the echelon works in Python ints
        g = graph_state_generators(GraphSpec.path(40))
        assert len(g.generators) == 40
        assert [t.letters for t in g.generators[:2]] == ["XZ" + "I" * 38,
                                                         "ZXZ" + "I" * 37]

    def test_40_qubit_dependent_set_is_rejected(self):
        gens = list(graph_state_generators(GraphSpec.path(40)).generators)
        gens[20] = gens[3] * gens[35]
        with pytest.raises(ValueError, match="not independent"):
            StabilizerGroup(40, tuple(gens))

    def test_echelon_of_wide_vectors(self):
        wide = [(1 << 79) | 5, (1 << 79) | 3, 6, 1 << 64]
        basis = _gf2_echelon(wide)
        assert sorted(basis) == [6, 1 << 64, (1 << 79) | 3]
        assert all(type(b) is int for b in basis)
        assert len(_gf2_echelon(np.array([5, 3, 6]))) == 2


class TestProjector:
    def test_bell_pair(self):
        p = expand_projector(StabilizerGroup.from_strings(["XX", "ZZ"]))
        assert p.to_strings() == [("II", 0.25), ("XX", 0.25),
                                  ("YY", -0.25), ("ZZ", 0.25)]

    def test_single_qubit(self):
        p = expand_projector(StabilizerGroup.from_strings(["Z"]))
        assert p.to_strings() == [("I", 0.5), ("Z", 0.5)]

    def test_loop5_projector_is_rank_one(self):
        p = expand_projector(graph_state_generators(GraphSpec.loop(5)))
        assert len(p) == 32
        d = p.to_dense()
        assert np.max(np.abs(d @ d - d)) < 1e-10
        assert abs(np.trace(d).real - 1.0) < 1e-12

    def test_idempotence_small_groups(self):
        groups = [
            StabilizerGroup.from_strings(["XX", "ZZ"]),
            graph_state_generators(GraphSpec.path(3)),
            graph_state_generators(GraphSpec.loop(4)),
            graph_state_generators(GraphSpec.loop(6)),
        ]
        for g in groups:
            d = expand_projector(g).to_dense()
            assert np.max(np.abs(d @ d - d)) < 1e-10
            assert abs(np.trace(d).real - 1.0) < 1e-10


class TestStateVector:
    def test_bell_state(self):
        v = state_vector(StabilizerGroup.from_strings(["XX", "ZZ"]))
        r = 1 / np.sqrt(2)
        assert np.allclose(v, [r, 0, 0, r], atol=1e-12)

    def test_all_zero(self):
        v = state_vector(StabilizerGroup.from_strings(["ZI", "IZ"]))
        assert np.allclose(v, [1, 0, 0, 0], atol=1e-12)

    def test_ghz_type_state_from_group_scan(self):
        # find the stabilizer group of the named three-qubit basis ket by
        # exhaustive scan, rebuild the state from those generators, compare
        target = ghz3_basis().zero_ket

        def gf2_rank(rows):
            rank = 0
            rows = list(rows)
            for bit in reversed(range(6)):
                pivot = next((i for i in range(rank, len(rows))
                              if (rows[i] >> bit) & 1), None)
                if pivot is None:
                    continue
                rows[rank], rows[pivot] = rows[pivot], rows[rank]
                for i in range(len(rows)):
                    if i != rank and (rows[i] >> bit) & 1:
                        rows[i] ^= rows[rank]
                rank += 1
            return rank

        indep = []
        for x in range(8):
            for z in range(8):
                if x == 0 and z == 0:
                    continue
                for phase in (0, 2):
                    t = PauliTerm(3, x, z, phase)
                    if not np.allclose(t.apply(target), target, atol=1e-10):
                        continue
                    rows = [(u.x_mask << 3) | u.z_mask for u in indep + [t]]
                    if gf2_rank(rows) == len(indep) + 1:
                        indep.append(t)
        assert len(indep) == 3
        group = StabilizerGroup(3, tuple(indep))
        rebuilt = state_vector(group)
        overlap = abs(np.vdot(rebuilt, target))
        assert abs(overlap - 1.0) < 1e-10   # equal up to global phase

    def test_matches_dense_projector_column(self):
        # graph groups, the same with random generator signs, signed Z-type
        # groups (computational basis states), n = 1..8, generator products
        # that carry Y letters, n = 2..8, and phase-gate conjugates of those,
        # whose projectors are complex
        rng = np.random.default_rng(2102)
        groups = []
        for n in range(1, 9):
            groups += seeded_groups(rng, n)
            groups.append(StabilizerGroup(n, tuple(
                PauliTerm(n, 0, 1 << q, 2 * int(rng.integers(2))) for q in range(n))))
        complex_projectors = 0
        for group in groups:
            assert state_vector(group).tobytes() == state_vector_dense(group).tobytes()
            complex_projectors += bool(np.any(expand_projector(group).to_dense().imag))
        assert complex_projectors >= 20

    def test_builds_no_matrix(self, monkeypatch):
        def no_render(*args, **kwargs):
            raise AssertionError("state_vector rendered or applied a Pauli sum")

        monkeypatch.setattr(PauliSum, "to_dense", no_render)
        monkeypatch.setattr(PauliSum, "apply", no_render)
        group = graph_state_generators(GraphSpec.path(12))
        v = state_vector(group)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        for g in group.generators:
            assert np.max(np.abs(g.apply(v) - v)) < 1e-10
        with pytest.raises(QubitCapError):
            state_vector(group, cap=11)

    def test_projection_residual_guard(self):
        v = state_vector(graph_state_generators(GraphSpec.loop(5)))
        p = expand_projector(graph_state_generators(GraphSpec.loop(5))).to_dense()
        assert np.max(np.abs(p @ v - v)) < 1e-10


class TestLogicalBasis:
    def test_orthonormal_enforced(self):
        with pytest.raises(ValueError):
            LogicalBasis(1, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            LogicalBasis(1, np.array([2.0, 0.0]), np.array([0.0, 1.0]))

    def test_named_bases(self):
        for basis in (bell_basis(), ghz3_basis(), loop5_basis()):
            assert abs(np.vdot(basis.zero_ket, basis.one_ket)) < 1e-12
            assert abs(np.linalg.norm(basis.zero_ket) - 1) < 1e-12
            assert abs(np.linalg.norm(basis.one_ket) - 1) < 1e-12

    @pytest.mark.parametrize("basis,typed", [(bell_basis, bell_kets_typed),
                                             (ghz3_basis, ghz3_kets_typed)],
                             ids=["bell", "ghz3"])
    def test_named_basis_is_the_typed_kets_bit_for_bit(self, basis, typed):
        # group and flip give exactly the amplitudes written out by hand
        got = basis()
        for ket, want in zip((got.zero_ket, got.one_ket), typed()):
            assert ket.dtype == want.dtype
            assert ket.tobytes() == want.tobytes()

    def test_no_ket_holds_a_negative_zero(self):
        # a flip or an expansion can leave -0.0 parts; a basis never keeps one
        rng = np.random.default_rng(2323)
        bases = [bell_basis(), ghz3_basis(), loop5_basis(),
                 *(level_kets(n) for n in range(1, 7))]
        for n in range(2, 7):
            for _ in range(4):
                edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                         if rng.random() < 0.5]
                group = graph_state_generators(GraphSpec.from_edges(n, edges))
                flip = PauliTerm.from_string("".join(rng.choice(list("IXYZ"), size=n)))
                if any(not flip.commutes(g) for g in group.generators):
                    bases.append(basis_from_flip(group, flip))
        assert len(bases) > 15
        for basis in bases:
            for ket in (basis.zero_ket, basis.one_ket):
                parts = ket.view(np.float64)
                assert not np.any((parts == 0.0) & np.signbit(parts))

    def test_flip_applied_to_bell_pair(self):
        # flip Z on qubit 1 maps (|00>+|11>)/sqrt2 to (|00>-|11>)/sqrt2
        basis = basis_from_flip(StabilizerGroup.from_strings(["XX", "ZZ"]),
                                PauliTerm.from_string("IZ"))
        r = 1 / np.sqrt(2)
        assert np.allclose(basis.one_ket, [r, 0, 0, -r], atol=1e-12)

    def test_loop5_flip(self):
        basis = loop5_basis()
        zc = PauliTerm.from_string("ZZZZZ")
        assert np.allclose(basis.one_ket, zc.apply(basis.zero_ket), atol=1e-12)

    def test_stabilizer_flip_rejected(self):
        with pytest.raises(ValueError):
            basis_from_flip(StabilizerGroup.from_strings(["XX", "ZZ"]),
                            PauliTerm.from_string("XX"))


class TestHalfGroupSplit:
    @pytest.mark.parametrize("strings,flip", [
        (["XX", "ZZ"], "IZ"),
        (["XZI", "ZXZ", "IZX"], "ZII"),
        (["XZIIZ", "ZXZII", "IZXZI", "IIZXZ", "ZIIZX"], "ZZZZZ"),
    ])
    def test_half_counts(self, strings, flip):
        g = StabilizerGroup.from_strings(strings)
        zc = PauliTerm.from_string(flip)
        comm, anti = commuting_split(g, zc)
        assert len(comm) == len(anti) == 2 ** (g.n - 1)
        # the array route's parity test splits the group the same way
        ops = logical_paulis_symbolic(g, zc)
        assert set(ops.z._terms) == {e.key() for e in anti}
        assert set(ops.ident._terms) == {e.key() for e in comm}
