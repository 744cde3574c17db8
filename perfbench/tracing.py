"""Spans and work counters around bellforge's public entry points.

The tracer swaps each traced function for a wrapper in every ``bellforge``
module that holds a reference to it (``bellforge.cases.classical_bounds`` as
well as ``bellforge.bounds.classical_bounds``), so calls made from inside the
library are seen as well as calls made by the benchmark. Methods are wrapped on
their class. Spans stay in memory as ``[name, start, end, parent, op, label]``
and are written out when the run ends.

Work counters are computed from arguments and return values, never from
timers, so they repeat exactly for a given input. Their bookkeeping runs in a
``trace.bookkeeping`` span of its own, so it is not charged to the layer that
called the traced function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

OP_SPAN = "bench.op"
BOOKKEEPING_SPAN = "trace.bookkeeping"


def _classical_counters(tracer, span, args, result):
    expr = args["expr"]
    symbols = expr.symbols
    m = len(symbols)
    index = {s: j for j, s in enumerate(symbols)}
    per_symbol = [0] * m
    for key in expr.terms:
        for sym in key:
            per_symbol[index[sym]] += 1
    # The Gray walk flips symbol j at 2^(m-1-j) of its 2^m - 1 steps and
    # touches every term holding that symbol.
    tracer.counts["bounds.classical_bounds.vertices"] += 1 << m
    tracer.counts["bounds.classical_bounds.term_updates"] += sum(
        c << (m - 1 - j) for j, c in enumerate(per_symbol))
    span[5] = expr.parties
    key = (expr.parties, expr.constant, tuple(sorted(expr.terms.items())))
    tracer.note_repeat("bounds.classical_bounds", key)


def _dense_counters(tracer, span, args, result):
    op = args["self"]
    tracer.counts["pauli.to_dense.bytes"] += 16 << (2 * op.n)
    span[5] = op.n
    tracer.note_repeat("pauli.to_dense", (op.n, tuple(op.to_strings())))


def _eigen_counters(tracer, span, args, result):
    dim = args["m"].shape[0]
    tracer.counts["pauli.top_eigenpair.dim_sum"] += dim
    span[5] = dim.bit_length() - 1


def _seesaw_counters(tracer, span, args, result):
    tracer.counts["bounds.seesaw_optimize.sweeps"] += sum(
        len(t) for t in result.trajectories)
    tracer.counts["bounds.seesaw_optimize.restarts"] += len(result.trajectories)


def _sos_search_counters(tracer, span, args, result):
    if result[0] is not None:
        tracer.counts["bounds.sos.found"] += 1


def _sweep_counters(tracer, span, args, result):
    tracer.counts["uncertainty.samples"] += args["samples"]


def _case_label(tracer, span, args, result):
    span[5] = args["name"]


# (module, attribute or Class.method, span name, counter hook)
TARGETS = (
    ("bellforge.pauli", "PauliSum.to_dense", "pauli.to_dense", _dense_counters),
    ("bellforge.pauli", "top_eigenpair", "pauli.top_eigenpair", _eigen_counters),
    ("bellforge.stabilizer", "graph_state_generators",
     "stabilizer.graph_state_generators", None),
    ("bellforge.logical", "logical_paulis_numeric",
     "logical.logical_paulis_numeric", None),
    ("bellforge.logical", "logical_paulis_symbolic",
     "logical.logical_paulis_symbolic", None),
    ("bellforge.bell", "symbolize", "bell.symbolize", None),
    ("bellforge.bell", "complementary_decompose", "bell.complementary_decompose", None),
    ("bellforge.bell", "chained_construction", "bell.chained_construction", None),
    ("bellforge.bounds", "classical_bounds", "bounds.classical_bounds",
     _classical_counters),
    ("bellforge.bounds", "quantum_lower_bound", "bounds.quantum_lower_bound", None),
    ("bellforge.bounds", "seesaw_optimize", "bounds.seesaw_optimize", _seesaw_counters),
    ("bellforge.bounds", "sos_pairing_search", "bounds.sos_pairing_search",
     _sos_search_counters),
    ("bellforge.bounds", "sos_verify", "bounds.sos_verify", None),
    ("bellforge.recursive", "build_level", "recursive.build_level", None),
    ("bellforge.recursive", "assignment_value_bound",
     "recursive.assignment_value_bound", None),
    ("bellforge.uncertainty", "uncertainty_sweep", "uncertainty.sweeps", _sweep_counters),
    ("bellforge.uncertainty", "lemma_sweep", "uncertainty.sweeps", _sweep_counters),
    ("bellforge.uncertainty", "quadratic_quantum_sweep", "uncertainty.sweeps",
     _sweep_counters),
    ("bellforge.cases", "run_case", "cases.run_case", _case_label),
)


class Tracer:
    """In-memory span recorder; ``installed()`` patches the library while open."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op: str | None = None
        self._seen: dict[str, set] = defaultdict(set)
        self._patches: list[tuple[object, str, object]] = []

    # --- spans -----------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self._op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: str):
        """Root span of one op; repeat detection starts afresh for each op."""
        self._op = op_id
        self._seen.clear()
        span = self._open(OP_SPAN)
        try:
            yield
        finally:
            self._close(span)
            self._op = None

    def note_repeat(self, name: str, key) -> None:
        seen = self._seen[name]
        if key in seen:
            self.counts[name + ".repeats"] += 1
        seen.add(key)

    # --- patching ----------------------------------------------------------------

    def _wrap(self, fn, span_name: str, hook):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            self.counts[span_name + ".calls"] += 1
            if hook is not None:
                book = self._open(BOOKKEEPING_SPAN)
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self, span, bound.arguments, result)
                finally:
                    self._close(book)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore them."""
        try:
            for module_name, attr, span_name, hook in TARGETS:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    self._patch(cls, meth, self._wrap(getattr(cls, meth), span_name, hook))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(original, span_name, hook)
                for name, mod in list(sys.modules.items()):
                    if name != "bellforge" and not name.startswith("bellforge."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
            yield self
        finally:
            while self._patches:
                owner, attr, value = self._patches.pop()
                setattr(owner, attr, value)

    # --- summaries ---------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[2] - s[1] - child[i] for i, s in enumerate(self.spans)]

    def to_json(self, t0: float) -> list:
        return [[name, start - t0, end - t0, parent, op, label]
                for name, start, end, parent, op, label in self.spans]


def layer_metrics(tracer: Tracer, passes: int, case_names: list[str],
                  op_scale: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-pass layer figures from the spans and counters of ``passes`` traced passes.

    Each span's time is multiplied by its op's calibration factor in ``op_scale``.
    """
    selfs = tracer.self_times()
    self_by_name: defaultdict[str, float] = defaultdict(float)
    self_by_size: defaultdict[tuple[str, int], float] = defaultdict(float)
    case_time: defaultdict[str, float] = defaultdict(float)
    for span, own in zip(tracer.spans, selfs):
        name, start, end, _, op, label = span
        scale = op_scale[op]
        own *= scale
        self_by_name[name] += own
        if isinstance(label, int):
            self_by_size[(name, label)] += own
        elif name == "cases.run_case":
            case_time[label] += (end - start) * scale
    c = tracer.counts

    def calls(name):
        return c[name + ".calls"] / passes

    def self_s(name):
        return self_by_name[name] / passes

    def frac(num, den):
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    cb, dense, eig = "bounds.classical_bounds", "pauli.to_dense", "pauli.top_eigenpair"
    out[cb + ".calls"] = (calls(cb), "count")
    out[cb + ".self_s"] = (self_s(cb), "s")
    out[cb + ".vertices"] = (c[cb + ".vertices"] / passes, "count")
    out[cb + ".term_updates"] = (c[cb + ".term_updates"] / passes, "count")
    out[cb + ".repeat_frac"] = (frac(c[cb + ".repeats"], c[cb + ".calls"]), "ratio")
    for name in (cb, dense, eig):
        for n in (7, 8, 9):
            out[f"{name}.self_s.n{n}"] = (self_by_size[(name, n)] / passes, "s")
    out[dense + ".calls"] = (calls(dense), "count")
    out[dense + ".self_s"] = (self_s(dense), "s")
    out[dense + ".bytes"] = (c[dense + ".bytes"] / passes, "B")
    out[dense + ".repeat_frac"] = (frac(c[dense + ".repeats"], c[dense + ".calls"]), "ratio")
    out[eig + ".calls"] = (calls(eig), "count")
    out[eig + ".self_s"] = (self_s(eig), "s")
    out[eig + ".dim_sum"] = (c[eig + ".dim_sum"] / passes, "count")
    for name in ("bounds.quantum_lower_bound", "bounds.seesaw_optimize",
                 "bounds.sos_pairing_search"):
        out[name + ".calls"] = (calls(name), "count")
        out[name + ".self_s"] = (self_s(name), "s")
    ss = "bounds.seesaw_optimize"
    out[ss + ".sweeps"] = (c[ss + ".sweeps"] / passes, "count")
    out[ss + ".restarts"] = (c[ss + ".restarts"] / passes, "count")
    out["bounds.sos_verify.calls"] = (calls("bounds.sos_verify"), "count")
    out["bounds.sos_verify.self_s"] = (self_s("bounds.sos_verify"), "s")
    out["bounds.sos.found_frac"] = (
        frac(c["bounds.sos.found"], c["bounds.sos_verify.calls"]), "ratio")
    for name in ("recursive.build_level", "recursive.assignment_value_bound",
                 "bell.symbolize", "logical.logical_paulis_numeric",
                 "logical.logical_paulis_symbolic"):
        out[name + ".calls"] = (calls(name), "count")
        out[name + ".self_s"] = (self_s(name), "s")
    for name in ("bell.complementary_decompose", "bell.chained_construction",
                 "stabilizer.graph_state_generators", "uncertainty.sweeps",
                 "cases.run_case", OP_SPAN, BOOKKEEPING_SPAN):
        out[name + ".self_s"] = (self_s(name), "s")
    out["uncertainty.samples"] = (c["uncertainty.samples"] / passes, "count")
    for case in case_names:
        out[f"case.{case.replace(':', '-')}.s"] = (case_time[case] / passes, "s")
    return out
