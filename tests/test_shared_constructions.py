"""The fixed constructions are built once per process and shared read-only."""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from bellforge import bell, bounds, cases, logical, pauli, recursive, stabilizer
from bellforge.bell import BellRecipe, ChainedConstruction, Setting, chained_construction
from bellforge.cases import RunConfig, build_report, case_names, run_cases
from bellforge.logical import bell_logical_paulis, ghz3_logical_paulis, logical_paulis_numeric
from bellforge.pauli import PauliSum
from bellforge.recursive import MAX_LEVEL, build_level, expand_code
from bellforge.stabilizer import LogicalBasis, basis_from_flip, bell_basis, ghz3_basis
from helpers import level_kets

CACHED = (stabilizer.bell_basis, stabilizer.ghz3_basis, logical.bell_logical_paulis,
          logical.ghz3_logical_paulis, recursive._level, cases._loop5_code, cases._loop5_ops,
          bell._letter_setting, bounds._strategy_table, bell.chained_construction)

# the single-letter settings and strategy tables a catalog pass reads
LETTER_KEYS = [(party, label, letter) for party in range(8)
               for letter, label in (("Z", "A"), ("X", "B"), ("Y", "C"))]
STRATEGY_SIZES = range(1, 7)
CHAINED_SIZES = range(2, 7)

# the catalog's Monte-Carlo cases take fewer samples; no construction depends on it
QUICK = RunConfig(samples=500)
DATA = Path(__file__).resolve().parent / "data"


def _count_calls(monkeypatch, module, name: str) -> list:
    """Count calls of ``module.name`` made from any bellforge module."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "bellforge" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def _record_calls(monkeypatch, name: str, key) -> list:
    """``key(*args, **kwargs)`` of each call of ``cases.name``, patched on the
    ``cases`` module as the perfbench tracer patches it."""
    original = getattr(cases, name)
    calls = []

    def recorded(*args, **kwargs):
        calls.append(key(*args, **kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(cases, name, recorded)
    return calls


def _sum_bytes(op: PauliSum) -> tuple:
    return op.n, [(s, c.hex()) for s, c in op.to_strings()]


def _ket_bytes(*kets: np.ndarray) -> list:
    return [(k.dtype.str, k.shape, k.tobytes()) for k in kets]


def _cached_objects() -> list:
    return [bell_basis(), ghz3_basis(), bell_logical_paulis(), ghz3_logical_paulis(),
            cases._loop5_ops(),
            *(build_level(n) for n in range(1, MAX_LEVEL + 1)),
            *(bell._letter_setting(*key) for key in LETTER_KEYS),
            *(bounds._strategy_table(k) for k in STRATEGY_SIZES),
            *(chained_construction(n) for n in CHAINED_SIZES)]


def _snapshot(obj) -> tuple:
    if isinstance(obj, np.ndarray):
        return _ket_bytes(obj)
    if isinstance(obj, Setting):
        return (obj.party, obj.label, _sum_bytes(obj.op))
    if isinstance(obj, ChainedConstruction):
        return (obj.quantum_bound.hex(),
                [(key, c.hex()) for key, c in obj.expression.terms.items()],
                [(sym, _snapshot(s)) for sym, s in obj.bindings.items()])
    if isinstance(obj, LogicalBasis):
        return (obj.n, *_ket_bytes(obj.zero_ket, obj.one_ket))
    if isinstance(obj, logical.LogicalPaulis):
        return tuple(map(_sum_bytes, (obj.z, obj.x, obj.y, obj.ident)))
    raise TypeError(f"no snapshot for {type(obj).__name__}")


class TestBuiltOnce:
    def test_catalog_pass_call_counts(self, monkeypatch):
        for fn in CACHED:
            fn.cache_clear()
        decompose = _count_calls(monkeypatch, logical, "pauli_decompose")
        symbolic = _count_calls(monkeypatch, logical, "logical_paulis_symbolic")
        expand = _count_calls(monkeypatch, recursive, "expand_operator")
        run_cases(case_names(), QUICK)
        # Bell and GHZ3 bases, four operators each; one loop-5 code; levels
        # 2..8, four operators each
        assert len(decompose) <= 8
        assert len(symbolic) <= 1
        assert len(expand) <= 28
        del decompose[:], symbolic[:], expand[:]
        passes = []
        dense_stack = pauli.dense_stack

        def counted_dense_stack(sums, *args, **kwargs):
            passes.append(len(sums))
            return dense_stack(sums, *args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "bellforge" and \
                    getattr(mod, "dense_stack", None) is dense_stack:
                monkeypatch.setattr(mod, "dense_stack", counted_dense_stack)
        run_cases(case_names(), QUICK)
        assert (decompose, symbolic, expand) == ([], [], [])
        # 48 matrices in 31 kernel passes: chsh and chained:2..6 render their
        # operator and logical form in one pass, for the pipeline identity,
        # and their lower bound reads that render; an SOS check renders all
        # its terms in one pass
        assert (len(passes), sum(passes)) == (31, 48)

    def test_bounds_step_runs_what_each_row_asks_for(self, monkeypatch):
        run_cases(case_names(), QUICK)
        sos = _record_calls(monkeypatch, "sos_pairing_search",
                            lambda terms, claimed_bound: len(terms))
        seesaw = _record_calls(monkeypatch, "seesaw_optimize",
                               lambda expr, restarts, seed, cap: restarts)
        run_cases(case_names(), QUICK)
        # chsh and svetlichny3 search their 4 and 8 terms; chsh, l5-svetlichny
        # and l5-hyper run the see-saw with 8, 6 and 6 restarts
        assert (sos, seesaw) == ([4, 8], [8, 6, 6])
        # a 4-term complementary recipe is searched, a 16-term ``none`` one is not
        for name, with_seesaw, expected in (("bell-complementary", False, ([4], [])),
                                            ("bell-complementary", True, ([4], [8])),
                                            ("loop5", False, ([], []))):
            del sos[:], seesaw[:]
            recipe = BellRecipe.from_dict(json.loads((DATA / f"{name}.json").read_text()))
            build_report(recipe, QUICK, with_seesaw)
            assert (sos, seesaw) == expected, name

    def test_warm_catalog_pass_stays_batched(self, monkeypatch):
        run_cases(case_names(), QUICK)
        requested, checked, kernel_calls = set(), [], []
        cached_setting = bell._letter_setting

        def letter_setting(*key):
            requested.add(key)
            return cached_setting(*key)

        for mod in (bell, sys.modules["bellforge.uncertainty"]):
            monkeypatch.setattr(mod, "_letter_setting", letter_setting)
        post_init = Setting.__post_init__

        def counted_post_init(setting):
            letters = setting.op.to_strings()
            key = (setting.party, setting.label, letters[0][0]) \
                if letters and letters[0][1] == 1.0 and len(letters) == 1 else None
            checked.append(key)
            post_init(setting)

        monkeypatch.setattr(Setting, "__post_init__", counted_post_init)
        kernel = pauli._signed_permutation

        def counted_kernel(n, x_masks, *args, **kwargs):
            frame = sys._getframe(1)
            if frame.f_code is pauli.dense_stack.__code__:
                kernel_calls.append((len(frame.f_locals["coeffs"]), len(x_masks)))
            return kernel(n, x_masks, *args, **kwargs)

        monkeypatch.setattr(pauli, "_signed_permutation", counted_kernel)
        run_cases(case_names(), QUICK)
        assert len(requested) >= 10 and checked
        assert not requested & set(checked)
        assert any(terms > 1 for terms, _ in kernel_calls)
        assert [call for call in kernel_calls if call[0] > 1 and call[1] == 1] == []

    def test_same_object_every_call(self):
        assert build_level(5) is build_level(5)
        assert bell_basis() is bell_basis() and ghz3_basis() is ghz3_basis()
        assert cases._loop5_ops() is cases._loop5_ops()
        for kind, ops in (("bell", bell_logical_paulis()), ("ghz3", ghz3_logical_paulis())):
            assert BellRecipe.from_dict({"basis": {"kind": kind}}).ops is ops

    def test_shared_chain_matches_fresh_chain(self):
        rule = logical_paulis_numeric(stabilizer.bell_basis.__wrapped__())
        fresh = logical.LogicalPaulis(
            z=PauliSum.from_strings([("Z", 1.0)]),
            x=PauliSum.from_strings([("X", 1.0)]),
            y=PauliSum.from_strings([("Y", 1.0)]),
            ident=PauliSum.from_strings([("I", 1.0)]),
        )
        for n in range(1, MAX_LEVEL + 1):
            shared = build_level(n)
            assert shared.n == fresh.n == n
            for op in ("z", "x", "y", "ident"):
                assert getattr(shared, op).to_strings() == getattr(fresh, op).to_strings()
            fresh = expand_code(fresh, n - 1, rule)

    def test_catalog_pass_leaves_shared_objects_unchanged(self):
        objects = _cached_objects()
        before = [_snapshot(obj) for obj in objects]
        run_cases(case_names(), QUICK)
        assert all(a is b for a, b in zip(_cached_objects(), objects))
        assert [_snapshot(obj) for obj in objects] == before


class TestReadOnly:
    @pytest.mark.parametrize("get_ket", [
        lambda: bell_basis().zero_ket,
        lambda: ghz3_basis().one_ket,
        lambda: bell_basis().one_ket,
        lambda: basis_from_flip(*cases._loop5_code()).zero_ket,
        lambda: level_kets(2).zero_ket,
        lambda: level_kets(1).zero_ket,
        lambda: level_kets(6).one_ket,
    ])
    def test_cached_ket_rejects_writes(self, get_ket):
        ket = get_ket()
        with pytest.raises(ValueError):
            ket[0] = 0.0

    @pytest.mark.parametrize("k", [1, 3])
    def test_strategy_table_rejects_writes(self, k):
        with pytest.raises(ValueError):
            bounds._strategy_table(k)[0, 0] = 0.0

    def test_letter_setting_is_frozen_and_shared(self):
        setting = bell._letter_setting(2, "B", "X")
        assert bell._letter_setting(2, "B", "X") is setting
        with pytest.raises(dataclasses.FrozenInstanceError):
            setting.op = PauliSum.from_strings([("Z", 1.0)])

    def test_chained_construction_is_frozen_and_shared(self):
        ch = chained_construction(3)
        assert chained_construction(3) is ch
        with pytest.raises(dataclasses.FrozenInstanceError):
            ch.quantum_bound = 0.0
        with pytest.raises(TypeError):
            ch.bindings[0, "A1"] = None

    def test_shared_level_and_rule_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            build_level(3).z = PauliSum.zero(3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ghz3_basis().zero_ket = np.zeros(8, dtype=complex)
        with pytest.raises(dataclasses.FrozenInstanceError):
            bell_logical_paulis().ident = PauliSum.zero(2)

    def test_level_keeps_its_own_copy(self):
        zero = np.array([1.0, 0.0], dtype=complex)
        basis = LogicalBasis(1, zero, np.array([0.0, 1.0], dtype=complex))
        zero[0] = 0.0
        assert basis.zero_ket[0] == 1.0 and zero.flags.writeable
