"""The benchmark tracer's hooks still name functions of the library.

``perfbench/tracing.py`` patches the functions listed in its ``TARGETS``; a
renamed function would otherwise fail only in a traced benchmark run. The
module is loaded from its file without writing bytecode next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from bellforge import bounds, cases

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_to_a_callable(tracing):
    assert tracing.TARGETS
    for module_name, attr, span_name, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{module_name}.{attr} ({span_name}) is gone"
        assert callable(owner), f"{module_name}.{attr} is not callable"


def test_hooks_read_the_arguments_they_name(tracing):
    # one traced case runs every hook its calls reach against the real
    # signatures; the patches are undone when the block closes, and the case
    # is looked up through its module, as the tracer patches only bellforge
    original = bounds.classical_bounds
    tracer = tracing.Tracer()
    with tracer.installed():
        cases.run_case("chsh", cases.RunConfig())
    assert bounds.classical_bounds is original
    assert tracer.counts["cases.run_case.calls"] == 1
    assert tracer.counts["bounds.classical_bounds.calls"] >= 1
    assert tracer.counts["bounds.classical_bounds.vertices"] >= 1
