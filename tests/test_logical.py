"""Logical Pauli operator construction, numeric vs symbolic routes."""

import dataclasses
import json
import math

import numpy as np
import pytest

from bellforge import logical, recursive, stabilizer
from bellforge.bell import BellRecipe
from bellforge.logical import (
    LogicalPaulis,
    bell_logical_paulis,
    logical_paulis_numeric,
    logical_paulis_symbolic,
)
from bellforge.pauli import PauliSum, PauliTerm, QubitCapError, product
from bellforge.stabilizer import (
    GraphSpec,
    StabilizerGroup,
    basis_from_flip,
    bell_basis,
    ghz3_basis,
    graph_state_generators,
)


from golden import loop5_golden_x, loop5_golden_y, loop5_golden_z, ring_string
from helpers import (
    basis_from_kets,
    logical_paulis_by_terms,
    logical_paulis_json,
    loop5_basis,
    rotated_z,
    seeded_groups,
    sums_match,
)


def loop5_parts():
    group = graph_state_generators(GraphSpec.loop(5))
    flip = PauliTerm.from_string("ZZZZZ")
    return group, flip


def assert_terms(op: PauliSum, golden: dict[str, float]):
    got = dict(op.to_strings())
    assert set(got) == set(golden)
    for k, v in golden.items():
        assert abs(got[k] - v) < 1e-12, (k, got[k], v)


class TestNumericRoute:
    def test_bell_basis_set(self):
        ops = logical_paulis_numeric(bell_basis())
        assert_terms(ops.z, {"ZZ": 0.5, "XX": 0.5})
        assert_terms(ops.x, {"ZX": 0.5, "XZ": -0.5})
        assert_terms(ops.y, {"IY": 0.5, "YI": -0.5})
        assert_terms(ops.ident, {"II": 0.5, "YY": -0.5})

    def test_alternate_bell_pair_basis(self):
        r = 1 / math.sqrt(2)
        basis = basis_from_kets([r, 0, 0, -r], [0, r, r, 0])
        ops = logical_paulis_numeric(basis)
        assert_terms(ops.x, {"XZ": 0.5, "ZX": 0.5})
        assert_terms(ops.z, {"ZZ": 0.5, "XX": -0.5})
        assert_terms(ops.y, {"YI": 0.5, "IY": 0.5})
        assert_terms(ops.ident, {"II": 0.5, "YY": 0.5})

    def test_physical_qubit(self):
        basis = basis_from_kets([1, 0], [0, 1])
        ops = logical_paulis_numeric(basis)
        assert_terms(ops.z, {"Z": 1.0})
        assert_terms(ops.x, {"X": 1.0})
        assert_terms(ops.y, {"Y": 1.0})
        assert_terms(ops.ident, {"I": 1.0})

    def test_ghz3_matches_published_operators(self):
        ops = logical_paulis_numeric(ghz3_basis())
        assert_terms(ops.x, {"XZZ": 0.25, "ZXZ": 0.25, "ZZX": 0.25, "XXX": -0.25})
        assert_terms(ops.z, {"ZZZ": 0.25, "ZXX": -0.25, "XZX": -0.25, "XXZ": -0.25})

    def test_cap(self, monkeypatch):
        # a 7-qubit code basis is past DECOMPOSE_QUBIT_CAP; the check comes
        # before any 2^7 x 2^7 outer product is formed
        basis = basis_from_flip(graph_state_generators(GraphSpec.loop(7)),
                                PauliTerm.from_string("ZZZZZZZ"))

        def no_outer(*args):
            raise AssertionError("outer product formed above the cap")

        monkeypatch.setattr(logical, "_outer", no_outer)
        with pytest.raises(QubitCapError):
            logical_paulis_numeric(basis)


class TestSymbolicRoute:
    def test_loop5_z_terms(self):
        group, flip = loop5_parts()
        ops = logical_paulis_symbolic(group, flip)
        assert_terms(ops.z, loop5_golden_z())

    def test_loop5_x_terms(self):
        group, flip = loop5_parts()
        ops = logical_paulis_symbolic(group, flip)
        assert_terms(ops.x, loop5_golden_x())

    def test_loop5_y_terms(self):
        group, flip = loop5_parts()
        ops = logical_paulis_symbolic(group, flip)
        assert_terms(ops.y, loop5_golden_y())

    def test_loop5_identity_is_projector(self):
        group, flip = loop5_parts()
        ops = logical_paulis_symbolic(group, flip)
        # every coefficient of the code-space projector is +1/16; the
        # middle (Z.YY.Z) orbit is positive like the rest
        got = dict(ops.ident.to_strings())
        assert len(got) == 16
        assert all(abs(c - 1 / 16) < 1e-12 for c in got.values())
        patterns = {ring_string({i: "Z", i + 1: "Y", i + 2: "Y", i + 3: "Z"})
                    for i in range(5)}
        assert patterns <= set(got)
        d = ops.ident.to_dense()
        assert np.max(np.abs(d @ d - d)) < 1e-10
        assert abs(np.trace(d).real - 2.0) < 1e-12

    def test_half_term_counts(self):
        group, flip = loop5_parts()
        ops = logical_paulis_symbolic(group, flip)
        assert len(ops.z) == len(ops.x) == 16

    @pytest.mark.parametrize("strings,flip", [
        (["XX", "ZZ"], "IZ"),
        (["XZI", "ZXZ", "IZX"], "ZII"),
        (["XZIIZ", "ZXZII", "IZXZI", "IIZXZ", "ZIIZX"], "ZZZZZ"),
        (["+XX", "+ZZ"], "+ZX"),                 # bell_basis()
        (["+ZZZ", "-XXZ", "+IYY"], "+XZZ"),      # ghz3_basis()
    ])
    def test_matches_numeric_route(self, strings, flip):
        group = StabilizerGroup.from_strings(strings)
        zc = PauliTerm.from_string(flip)
        sym = logical_paulis_symbolic(group, zc)
        num = logical_paulis_numeric(basis_from_flip(group, zc))
        for a, b in ((sym.z, num.z), (sym.x, num.x), (sym.y, num.y),
                     (sym.ident, num.ident)):
            assert sums_match(a, b, atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_numeric_route_on_random_graph_codes(self, n):
        # 10 codes below n = 6, 3 at n = 6, where the numeric route's 4^n
        # scan takes about 0.4 s a code
        rng = np.random.default_rng(60 + n)
        codes = 10 if n < 6 else 3
        checked = attempts = 0
        while checked < codes and attempts < 4 * codes:
            attempts += 1
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.5]
            group = graph_state_generators(GraphSpec.from_edges(n, edges))
            flip = PauliTerm.from_string("".join(rng.choice(list("IXYZ"), size=n)))
            try:
                basis = basis_from_flip(group, flip)
            except ValueError:
                continue   # the flip commutes with the whole group
            sym = logical_paulis_symbolic(group, flip)
            num = logical_paulis_numeric(basis)
            for a, b in ((sym.z, num.z), (sym.x, num.x), (sym.y, num.y),
                         (sym.ident, num.ident)):
                assert sums_match(a, b, atol=1e-12), (edges, str(flip))
            checked += 1
        assert checked == codes

    @pytest.mark.parametrize("n", range(2, 9))
    def test_y_matches_product_route(self, n):
        # i * X @ Z by T^2 term products, the oracle of the one-pass Y, bit for
        # bit on paths, loops, random graphs and random signed flips
        rng = np.random.default_rng(80 + n)
        graphs = [GraphSpec.path(n), GraphSpec.loop(n) if n > 2 else GraphSpec.path(n)]
        graphs += [GraphSpec.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                            if rng.random() < 0.5]) for _ in range(4)]
        checked = 0
        for graph in graphs:
            group = graph_state_generators(graph)
            for flip in (PauliTerm(n, 0, (1 << n) - 1),
                         PauliTerm(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)), 0)):
                flip = PauliTerm(n, flip.x_mask, flip.z_mask, 2 * int(rng.integers(2)))
                if all(flip.commutes(g) for g in group.generators):
                    continue
                ops = logical_paulis_symbolic(group, flip)
                oracle = product(ops.x, ops.z, scale=1j)
                assert sorted((k, c.hex()) for k, c in ops.y._terms.items()) == \
                    sorted((k, c.hex()) for k, c in oracle._terms.items())
                checked += 1
        assert checked >= 6

    def test_invalid_flip(self):
        group, _ = loop5_parts()
        with pytest.raises(ValueError):
            logical_paulis_symbolic(group, PauliTerm.from_string("IIIII"))

    @pytest.mark.parametrize("flip", ["iZZZZZ", "-iZZZZZ"])
    def test_phased_flip_rejected(self, flip):
        # i*Z^(x5) squares to -I: it has no Hermitian logical X, though it
        # flips the code basis like Z^(x5)
        group, _ = loop5_parts()
        zc = PauliTerm.from_string(flip)
        basis_from_flip(group, zc)
        with pytest.raises(ValueError, match="not a Hermitian 5-qubit string"):
            logical_paulis_symbolic(group, zc)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_term_oracle(self, n):
        # graph, signed, Y-bearing and phase-gate groups, several signed
        # flips each: the same keys and the same coefficient bits as the
        # PauliTerm-at-a-time split
        rng = np.random.default_rng(2510 + n)
        checked = 0
        for group in seeded_groups(rng, n):
            for _ in range(3):
                flip = PauliTerm(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)),
                                 2 * int(rng.integers(2)))
                if all(flip.commutes(g) for g in group.generators):
                    continue
                ops = logical_paulis_symbolic(group, flip)
                for name, oracle in logical_paulis_by_terms(group, flip).items():
                    got = getattr(ops, name)._terms
                    assert sorted((k, c.hex()) for k, c in got.items()) == \
                        sorted((k, c.hex()) for k, c in oracle._terms.items())
                checked += 1
        assert checked >= 6


class TestAlgebraOnCodeSpace:
    def test_code_space_action(self):
        for basis_ops, basis in ((logical_paulis_numeric(bell_basis()), bell_basis()),
                                 (logical_paulis_symbolic(*loop5_parts()), loop5_basis())):
            zero, one = basis.zero_ket, basis.one_ket
            assert np.allclose(basis_ops.z.apply(zero), zero, atol=1e-10)
            assert np.allclose(basis_ops.z.apply(one), -one, atol=1e-10)
            assert np.allclose(basis_ops.x.apply(zero), one, atol=1e-10)
            assert np.allclose(basis_ops.y.apply(zero), 1j * one, atol=1e-10)
            assert np.allclose(basis_ops.ident.apply(zero), zero, atol=1e-10)

    def test_squares_and_products(self):
        ops = logical_paulis_symbolic(*loop5_parts())
        ident = ops.ident.to_dense()
        for op in (ops.z, ops.x, ops.y):
            assert np.max(np.abs(product(op, op).to_dense() - ident)) < 1e-10
        assert np.max(np.abs(product(ops.ident, ops.ident).to_dense() - ident)) < 1e-10
        from bellforge.pauli import anticommutator_sum
        assert anticommutator_sum(ops.z, ops.x).is_zero
        y_again = product(ops.x, ops.z, scale=1j)
        assert sums_match(y_again, ops.y, atol=1e-12)

    def test_annihilates_outside_code_space(self):
        ops = logical_paulis_numeric(bell_basis())
        r = 1 / math.sqrt(2)
        two = np.array([r, 0, 0, -r], dtype=complex)
        three = np.array([0, r, r, 0], dtype=complex)
        for op in (ops.z, ops.x, ops.y):
            for ket in (two, three):
                assert np.max(np.abs(op.apply(ket))) < 1e-12


class TestOperatorsOnly:
    def test_a_logical_qubit_is_its_four_operators(self):
        assert [f.name for f in dataclasses.fields(LogicalPaulis)] == ["z", "x", "y", "ident"]
        assert logical_paulis_symbolic(*loop5_parts()).n == 5

    def test_operator_routes_build_no_state(self, monkeypatch):
        # the symbolic route, the recursive chain and a graph recipe read only
        # the group arrays and the shared Bell rule, whose numeric operators
        # are built from its kets once, before the patch
        bell_logical_paulis()

        def no_state(*args, **kwargs):
            raise AssertionError("a code state was built")

        monkeypatch.setattr(stabilizer, "state_vector", no_state)
        monkeypatch.setattr(stabilizer, "_code_state", no_state)
        monkeypatch.setattr(stabilizer.LogicalBasis, "__post_init__", no_state)
        assert logical_paulis_symbolic(*loop5_parts()).n == 5
        path12 = graph_state_generators(GraphSpec.path(12))
        assert logical_paulis_symbolic(path12, PauliTerm(12, 0, (1 << 12) - 1)).n == 12
        recursive._level.cache_clear()     # a fresh chain, built under the patch
        assert recursive.build_level(10).n == 10
        recipe = BellRecipe.from_dict({
            "basis": {"kind": "graph", "flip": "ZZZZZ",
                      "graph": {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]}},
            "k": [0, 0, 1]})
        assert recipe.ops.n == 5


class TestRotatedZ:
    def test_limits(self):
        ops = logical_paulis_numeric(bell_basis())
        assert sums_match(rotated_z(ops, 0.0), ops.z)
        assert sums_match(rotated_z(ops, math.pi / 2), ops.x, atol=1e-12)

    def test_eigenstate_is_rotated_superposition(self):
        ops = logical_paulis_numeric(bell_basis())
        basis = bell_basis()
        for theta in (0.3, 1.1, 2.5):
            zt = rotated_z(ops, theta)
            psi = math.cos(theta / 2) * basis.zero_ket \
                + math.sin(theta / 2) * basis.one_ket
            assert np.max(np.abs(zt.apply(psi) - psi)) < 1e-10

    def test_rotated_stabilizers_fix_the_eigenstate(self):
        basis = bell_basis()
        theta = 0.8
        c, s = math.cos(theta), math.sin(theta)
        z2t = PauliSum.from_strings([("IZ", c), ("IX", s)])
        x2t = PauliSum.from_strings([("IX", c), ("IZ", -s)])
        zz = product(PauliSum.from_strings([("ZI", 1.0)]), z2t)
        xx = product(PauliSum.from_strings([("XI", 1.0)]), x2t)
        psi = math.cos(theta / 2) * basis.zero_ket \
            + math.sin(theta / 2) * basis.one_ket
        assert np.max(np.abs(zz.apply(psi) - psi)) < 1e-10
        assert np.max(np.abs(xx.apply(psi) - psi)) < 1e-10


def test_json_serialization():
    ops = logical_paulis_numeric(bell_basis())
    payload = json.loads(logical_paulis_json(ops))
    assert payload["n"] == 2
    assert sorted(payload) == ["i", "n", "x", "y", "z"]
    assert payload["z"] == [["XX", 0.5], ["ZZ", 0.5]]
