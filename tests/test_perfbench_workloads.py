"""The benchmark's workloads still run against the library's public API.

``perfbench/workloads.py`` builds its inputs and ops from library functions; a
changed signature or return type would otherwise fail only in a benchmark
run. The module is loaded from its file without writing bytecode next to it,
and one small op of each workload runs through its own check.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while the file runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _run(ops, names) -> dict:
    """The named ops' check results, by name; every name must be an op."""
    picked = {op.name: op for op in ops if op.name in names}
    assert set(picked) == set(names)
    return {name: op.check(op.call()) for name, op in picked.items()}


def test_family_ops_pass_their_checks(workloads):
    family = workloads.Family()
    results = _run(family.ops(1), {"mermin:7", "svetlichny:7"})
    assert results == {"mermin:7": [], "svetlichny:7": []}


def test_seesaw_op_passes_its_check(workloads):
    assert _run(workloads.Seesaw().ops(1), {"chsh"}) == {"chsh": []}


def test_catalog_op_passes_its_check(workloads):
    assert _run(workloads.Catalog().ops(1), {"chsh"}) == {"chsh": []}
