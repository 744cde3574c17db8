"""Golden case catalog: named constructions with their certified numbers.

Each case builds one Bell inequality through the pipeline, computes bounds,
and compares them against its frozen targets. Case results serialize
deterministically (same seed, same bytes) so they can gate CI. Eleven Bell
rows are recipe rows (``_Row``): a recipe as ``bellforge build --config``
reads it, the row's checks, and three extras ``build`` leaves at their
defaults, the complementary letter order, the SOS search and the see-saw
restarts. Every recipe row and a user recipe's ``build_report`` go through
one ``_certify``.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from typing import NamedTuple

import numpy as np

from .bell import (
    BellExpression,
    BellRecipe,
    build_logical,
    chained_construction,
    complementary_decompose,
    render_terms,
    sum_terms,
    symbolize,
    symbolize_decomposed,
)
from .bounds import (
    _SOS_ATOL,
    SOS_MAX_TERMS,
    BoundsReport,
    check_symbol_budget,
    classical_bounds,
    dichotomic_term_bound,
    quantum_lower_bound,
    seesaw_optimize,
    sos_pairing_search,
)
from .logical import bell_logical_paulis
from .pauli import DENSE_QUBIT_CAP, PauliSum, PauliTerm, _check_cap, dense_stack
from .recursive import mermin_case, scaled_value_fraction, svetlichny_case
from .stabilizer import GraphSpec, basis_from_flip, bell_basis, graph_state_generators
from .uncertainty import (
    DISC_BOUND,
    QuadraticCase,
    lemma_sweep,
    quadratic_bell,
    quadratic_quantum_sweep,
    uffink_attaining_value,
    uncertainty_lhs,
    uncertainty_sweep,
)

ROOT2 = math.sqrt(2.0)
ROOT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class RunConfig:
    seed: int = 7
    cap_qubits: int = DENSE_QUBIT_CAP

    def case_seed(self, name: str) -> int:
        return (self.seed ^ zlib.crc32(name.encode())) & 0x7FFFFFFF


@dataclass
class Check:
    name: str
    target: str
    value: float
    ok: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "target": self.target,
                "value": _num(self.value), "pass": bool(self.ok)}


@dataclass
class CaseResult:
    name: str
    expression: BellExpression | QuadraticCase | str    # formatted by ``to_dict`` only
    bounds: BoundsReport | None
    checks: list[Check]
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(bool(c.ok) for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "case": self.name,
            "expression": str(self.expression),
            "bounds": self.bounds.to_dict() if self.bounds else None,
            "checks": [c.to_dict() for c in self.checks],
            "notes": self.notes,
            "pass": bool(self.passed),
        }


def _num(v: float) -> float:
    return float(f"{float(v):.12g}")


def _close(name: str, value: float, target: float, label: str,
           tol: float = 1e-9) -> Check:
    return Check(name, f"{label} +/- {tol:g}", value, abs(value - target) <= tol)


def _exact(name: str, value: float, target: float, label: str) -> Check:
    return Check(name, f"{label} (exact)", value, value == target)


def _at_least(name: str, value: float, target: float, label: str,
              tol: float = 1e-6) -> Check:
    return Check(name, f">= {label} - {tol:g}", value, value >= target - tol)


def _at_most(name: str, value: float, target: float, label: str,
             tol: float = 1e-9) -> Check:
    return Check(name, f"<= {label} + {tol:g}", value, value <= target + tol)


def _report(expr: BellExpression, operator: PauliSum, rough: float, cap: int,
            dense: np.ndarray | None = None, sos: list[PauliSum] | None = None,
            seesaw: tuple[int, int] | None = None) -> tuple[BoundsReport, Check | None]:
    """The bounds of ``expr`` and its ``operator`` (dense render ``dense``, if made),
    with the SOS search on the rendered terms ``sos``, claiming ``rough``, and its
    residual check, and the see-saw at ``seesaw=(restarts, seed)``, when asked.
    QubitCapError above ``cap`` qubits comes before either renders."""
    _check_cap(operator.n, cap)
    sos_status, sos_check, seesaw_value = "not-attempted", None, None
    if sos is not None:
        pairs, residual = sos_pairing_search(sos, rough)
        sos_status = "verified" if pairs is not None else "failed"
        sos_check = Check("sos residual", f"<= {_SOS_ATOL:g}", residual, pairs is not None)
    if seesaw is not None:
        seesaw_value = seesaw_optimize(expr, restarts=seesaw[0], seed=seesaw[1], cap=cap).value
    cb = classical_bounds(expr)
    q, _ = quantum_lower_bound(operator, cap, dense)
    return BoundsReport(
        classical_min=cb.minimum,
        classical_max=cb.maximum,
        classical_witness=cb.witness_max,
        quantum_lower=q,
        rough_bound=rough,
        dichotomic_bound=dichotomic_term_bound(expr),
        sos_status=sos_status,
        seesaw_value=seesaw_value,
    ), sos_check


class _Derivation(NamedTuple):
    expression: BellExpression
    terms: list[PauliSum]       # one render per expression term, in term order
    operator: PauliSum          # the constant plus ``terms``, added in order
    check: Check                # the pipeline identity
    dense: np.ndarray | None    # the operator's dense render, if the check made one


def _derive(logical_form: PauliSum | None, spec: dict,
            symbols: dict[str, str] | None = None,
            letter_order: dict[int, list[str]] | None = None,
            cap: int = DENSE_QUBIT_CAP) -> _Derivation:
    """The pipeline from a logical form to its Bell expression, rendered back.

    ``spec`` is a decomposition: ``none`` symbolizes with ``symbols``,
    ``complementary`` labels by ``letter_order``, and ``chained`` brings its
    own logical form, 2n cos(pi/2n) times the Bell basis's logical Z. The
    pipeline identity residual is the sum over Pauli strings of |coefficient
    difference| for ``none``, else the largest entry of the dense difference,
    whose render of the operator is passed on for the bounds.
    """
    kind = spec.get("kind", "none")
    if kind == "complementary":
        dec = complementary_decompose(logical_form, spec["pivot"])
        expr, bindings = symbolize_decomposed(dec, letter_order)
    elif kind == "chained":
        check_symbol_budget(2 * spec["n"])   # before its 2n settings are built
        ch = chained_construction(spec["n"])
        expr, bindings = ch.expression, ch.bindings
        logical_form = ch.quantum_bound * bell_logical_paulis().z
    else:
        expr, bindings = symbolize(logical_form, symbols)
    check_symbol_budget(len(expr.symbols))   # no render for what cannot be enumerated
    terms = render_terms(expr, bindings)
    operator = sum_terms(expr, terms)
    dense = None
    if kind == "none":
        a, b = logical_form._terms, operator._terms
        resid = float(sum(abs(a.get(k, 0.0) - b.get(k, 0.0))
                          for k in sorted(a.keys() | b.keys())))
    else:
        dense, logical = dense_stack([operator, logical_form], cap)
        resid = float(np.max(np.abs(logical - dense)))
    check = Check("pipeline identity residual", "<= 1e-10", resid, resid <= 1e-10)
    return _Derivation(expr, terms, operator, check, dense)


# --- recipe rows --------------------------------------------------------------

def _certify(recipe: BellRecipe, cap: int, letter_order: dict[int, list[str]] | None = None,
             sos: bool = False, seesaw: tuple[int, int] | None = None
             ) -> tuple[BellExpression, BoundsReport, Check, Check | None]:
    """``_derive``, then ``_report`` claiming beta_q, or the chained bound for a
    chained recipe, whose logical form ``_derive`` makes: the expression, the
    bounds, the pipeline identity check and, when ``sos`` asks and there are
    at most ``SOS_MAX_TERMS`` terms, the SOS residual check."""
    spec = recipe.decomposition
    chained = spec.get("kind") == "chained"
    expr, terms, operator, ident, dense = _derive(
        None if chained else build_logical(recipe), spec, recipe.symbols, letter_order, cap)
    rough = chained_construction(spec["n"]).quantum_bound if chained else recipe.beta_q
    sos_terms = terms if sos and len(terms) <= SOS_MAX_TERMS else None
    report, sos_check = _report(expr, operator, rough, cap, dense, sos_terms, seesaw)
    return expr, report, ident, sos_check


class _Row(NamedTuple):
    """A recipe row. ``checks`` are in table order: ``(check, name, target,
    label, *tol)``, or ``"ident"`` and ``"sos"`` where the pipeline identity
    and SOS residual checks sit."""

    recipe: dict
    checks: tuple
    letter_order: dict[int, list[str]] | None = None
    sos: bool = False
    restarts: int | None = None


@cache
def _row_recipe(name: str) -> BellRecipe:
    """A recipe row's recipe, resolved once per process."""
    return BellRecipe.from_dict(_CASES[name].recipe)


def _case_row(config: RunConfig, name: str) -> CaseResult:
    row = _CASES[name]
    seesaw = None if row.restarts is None else (row.restarts, config.case_seed(name))
    expr, report, ident, sos_check = _certify(_row_recipe(name), config.cap_qubits,
                                              row.letter_order, row.sos, seesaw)
    made = {"ident": ident, "sos": sos_check}
    values = {"classical max": report.classical_max, "classical min": report.classical_min,
              "quantum lower bound": report.quantum_lower, "seesaw value": report.seesaw_value,
              "dichotomic term bound": report.dichotomic_bound, "term count": float(len(expr))}
    checks = [made[spec] if isinstance(spec, str) else spec[0](spec[1], values[spec[1]], *spec[2:])
              for spec in row.checks]
    return CaseResult(name, expr, report, checks)


@cache
def _loop5_code():
    """The loop-5 code: its graph-state group and the flip Z^(x5), shared."""
    return graph_state_generators(GraphSpec.loop(5)), PauliTerm.from_string("ZZZZZ")


def random_codespace_mixture(basis, rng: np.random.Generator) -> np.ndarray:
    """A random rank-2 mixed state supported on the code space."""
    zero, one = basis.zero_ket, basis.one_ket
    w = rng.dirichlet((1.0, 1.0))
    rho = np.zeros((zero.size, zero.size), dtype=complex)
    for weight in w:
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = amps[0] * zero + amps[1] * one
        psi /= np.linalg.norm(psi)
        rho += weight * np.outer(psi, psi.conj())
    return rho


def published_identity_expression() -> BellExpression:
    """The published identity-induced Bell expression on the 5-qubit loop code.

    One orbit (the A..C..C..A terms) carries a minus sign in the published
    form; the sign-exact symbolization of 16 * projector has it positive.
    """
    terms: dict = {}
    for i in range(5):
        p = [(i + k) % 5 for k in range(4)]
        for letters, coeff in (("CBBC", 1.0), ("ACCA", -1.0), ("BAAB", 1.0)):
            key = tuple(sorted((p[j], letters[j]) for j in range(4)))
            terms[key] = terms.get(key, 0.0) + coeff
    return BellExpression(5, terms, constant=1.0)


def _case_l5_identity(config: RunConfig) -> CaseResult:
    projector16 = 16.0 * _row_recipe("l5-mermin").ops.ident
    derived_expr, _ = symbolize(projector16, {"Z": "A", "X": "B", "Y": "C"})
    published = published_identity_expression()
    # one render serves the quantum lower bound and every mixture's trace
    dense = projector16.to_dense(config.cap_qubits)
    report, _ = _report(published, projector16, rough=16.0, cap=config.cap_qubits,
                        dense=dense)

    rng = np.random.default_rng(config.case_seed("l5-identity"))
    basis = basis_from_flip(*_loop5_code())
    worst = 0.0
    for _ in range(10):
        rho = random_codespace_mixture(basis, rng)
        worst = max(worst, abs(float(np.trace(rho @ dense).real) - 16.0))

    # where the published expression and the derived symbolization disagree
    diff = {k for k in set(derived_expr.terms) | set(published.terms)
            if abs(derived_expr.terms.get(k, 0.0) - published.terms.get(k, 0.0)) > 1e-12}
    checks = [
        _exact("classical min (published form)", report.classical_min, -6.0, "-6"),
        _exact("classical max (published form)", report.classical_max, 10.0, "10"),
        _close("lambda_max of 16*projector", report.quantum_lower, 16.0, "16"),
        _at_most("code-space mixture deviation", worst, 0.0, "0", tol=1e-9),
        _exact("dichotomic term bound", report.dichotomic_bound, 16.0, "16"),
        _exact("sign-flagged orbit size", float(len(diff)), 5.0, "5"),
    ]
    notes = [
        "sign flag: the derived symbolization of 16*projector has +1 on the "
        "A.CC.A orbit; the published expression carries -1 there. The "
        "classical bounds (-6, 10) belong to the published form; the quantum "
        "numbers (16, attained by every code-space state) belong to the "
        "projector operator.",
        "derived (all-plus) form enumerates to classical bounds (-8, 16): no "
        "violation; the published sign variant is the usable inequality.",
    ]
    return CaseResult("l5-identity", published, report, checks, notes)


_FAMILY_TRUE_CLASSICAL = {
    # frozen from exhaustive enumeration (see tests); the published bounds
    # 2^(n-2) / 2^(n-1) hold but stop being tight beyond small n
    "mermin": {n: float(2 ** (n // 2)) for n in range(3, 9)},
    "svetlichny": {n: float(2 ** ((n + 1) // 2)) for n in range(3, 9)},
}


def _case_family(config: RunConfig, family: str, n: int) -> CaseResult:
    if family == "mermin":
        case, published, target_q = mermin_case(n), float(2 ** (n - 2)), float(2 ** (n - 1))
        qlabel = f"2^{n - 1}"
    else:
        case, published = svetlichny_case(n), float(2 ** (n - 1))
        target_q, qlabel = float(2 ** (n - 1)) * np.sqrt(2.0), f"2^{n - 1}*sqrt(2)"
    report, _ = _report(case.expression, case.operator, rough=target_q,
                        cap=config.cap_qubits)
    true_classical = _FAMILY_TRUE_CLASSICAL[family][n]
    checks = [
        _close("quantum lower bound", report.quantum_lower, target_q, qlabel),
        _at_most("classical max within published bound", report.classical_max,
                 published, f"{published:g}", tol=0.0),
        _exact("classical max (enumerated)", report.classical_max,
               true_classical, f"{true_classical:g}"),
        _exact("term count", float(len(case.expression)),
               float(len(case.operator)), f"{len(case.operator)}"),
    ]
    notes = []
    if family == "mermin":
        # the case operator is 2^(n-1) * logical Z, so its enumerated maximum
        # is the assignment value of logical Z scaled by 2^(n-1)
        v = scaled_value_fraction(report.classical_max, 2 ** (n - 1))
        checks.append(Check("assignment value bound", "<= 1/2",
                            float(v), v <= Fraction(1, 2)))
        notes.append(f"max assignment value of the scaled operator: {v} "
                     f"(published bound 1/2 is tight only for n=3,4)")
    if true_classical != published:
        notes.append(
            f"published classical bound {published:g} holds but is not tight; "
            f"exhaustive enumeration gives {true_classical:g}")
    return CaseResult(f"{family}:{n}", case.expression, report, checks, notes)


def _case_quadratic(config: RunConfig, variant: str) -> CaseResult:
    case = quadratic_bell(variant)
    sweep = quadratic_quantum_sweep(case, seed=config.case_seed(variant))
    checks = [
        _exact("classical max of quadratic form", case.classical_max,
               case.bound, f"{case.bound:g}"),
        _at_most("quantum sweep max", sweep.max_lhs, case.bound,
                 f"{case.bound:g}"),
    ]
    notes = [f"vertices of the expectation pair: "
             f"{sorted(set((round(x, 6), round(y, 6)) for x, y in case.vertices))}"]
    if variant == "uffink":
        attained = uffink_attaining_value(case)
        checks.append(_close("attained on the Bell state", attained, 4.0, "4"))
    return CaseResult(variant, case, None, checks, notes)


def _case_uncertainty_sweep(config: RunConfig) -> CaseResult:
    sw = uncertainty_sweep(seed=config.case_seed("uncertainty-sweep"))
    lm = lemma_sweep(seed=config.case_seed("lemma-sweep"))
    ops = bell_logical_paulis()
    rho0 = np.outer(bell_basis().zero_ket, bell_basis().zero_ket.conj())
    saturation = uncertainty_lhs(rho0, 0.0, math.pi / 2, ops)
    checks = [
        _at_most("relation sweep max", sw.max_lhs, DISC_BOUND, "8"),
        _at_most("lemma sweep max", lm.max_lhs, 1.0, "1", tol=1e-10),
        _close("saturation on the Bell state", saturation, 8.0, "8", tol=1e-8),
    ]
    notes = [f"relation argmax sample: {sw.argmax}",
             f"lemma argmax sample: {lm.argmax}"]
    return CaseResult("uncertainty-sweep",
                      "(<B1>+<B2>)^2/|n1+n2|^2 + (<B1>-<B2>)^2/|n1-n2|^2 <= 8",
                      None, checks, notes)


# --- catalog ------------------------------------------------------------------

_LOOP5 = {"kind": "graph", "flip": "ZZZZZ",
          "graph": {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]}}

# each case is a recipe row or a function of the run's configuration
_CASES = {
    "chsh": _Row({"basis": {"kind": "bell"}, "beta_q": 2 * ROOT2,
                  "decomposition": {"kind": "complementary", "pivot": 1}},
                 ((_exact, "classical max", 2.0, "2"), (_exact, "classical min", -2.0, "-2"),
                  (_close, "quantum lower bound", 2 * ROOT2, "2*sqrt(2)"), "sos", "ident",
                  (_close, "seesaw value", 2 * ROOT2, "2*sqrt(2)", 1e-6)),
                 letter_order={0: ["X", "Z"]}, sos=True, restarts=8),
    "mermin3": _Row({"basis": {"kind": "ghz3"}},
                    ((_exact, "classical max", 2.0, "2"),
                     (_close, "quantum lower bound", 4.0, "4"),
                     (_exact, "dichotomic term bound", 4.0, "4"), "ident")),
    "svetlichny3": _Row({"basis": {"kind": "ghz3"}, "k": [1 / ROOT2, 0, -1 / ROOT2],
                         "beta_q": 4 * ROOT2},
                        ((_exact, "classical max", 4.0, "4"),
                         (_close, "quantum lower bound", 4 * ROOT2, "4*sqrt(2)"), "sos", "ident"),
                        sos=True),
    "l5-mermin": _Row({"basis": _LOOP5},
                      ((_exact, "classical max", 8.0, "8"), "ident",
                       (_close, "quantum lower bound", 16.0, "16"),
                       (_exact, "dichotomic term bound", 16.0, "16"),
                       (_exact, "term count", 16.0, "16"))),
    "l5-svetlichny": _Row({"basis": _LOOP5, "k": [1 / ROOT2, 0, 1 / ROOT2],
                           "beta_q": 16 * ROOT2},
                          ((_exact, "classical max", 16.0, "16"), "ident",
                           (_close, "quantum lower bound", 16 * ROOT2, "16*sqrt(2)"),
                           (_at_least, "seesaw value", 16 * ROOT2, "16*sqrt(2)")),
                          restarts=6),
    "l5-hyper": _Row({"basis": _LOOP5, "k": [1 / ROOT3] * 3, "beta_q": 16 * ROOT3},
                     ((_exact, "classical max", 24.0, "24"), "ident",
                      (_close, "quantum lower bound", 16 * ROOT3, "16*sqrt(3)"),
                      (_at_least, "seesaw value", 16 * ROOT3, "16*sqrt(3)")),
                     restarts=6),
    "l5-identity": _case_l5_identity,
    **{variant: partial(_case_quadratic, variant=variant)
       for variant in ("uffink", "nki")},
    "uncertainty-sweep": _case_uncertainty_sweep,
    **{f"chained:{n}": _Row({"basis": {"kind": "bell"},
                             "decomposition": {"kind": "chained", "n": n}},
                            ((_exact, "classical max", float(2 * n - 2), f"{2 * n - 2}"),
                             (_close, "quantum lower bound", 2 * n * math.cos(math.pi / (2 * n)),
                              f"{2 * n}*cos(pi/{2 * n})"), "ident",
                             (_exact, "term count", float(2 * n), f"{2 * n}")))
       for n in range(2, 7)},
    **{f"{family}:{n}": partial(_case_family, family=family, n=n)
       for family in ("mermin", "svetlichny") for n in range(3, 9)},
}


def case_names() -> list[str]:
    return list(_CASES)


def run_case(name: str, config: RunConfig | None = None) -> CaseResult:
    try:
        case = _CASES[name]
    except KeyError:
        raise KeyError(f"unknown case {name!r}") from None
    config = config or RunConfig()
    return _case_row(config, name) if isinstance(case, _Row) else case(config)


def run_cases(names: list[str], config: RunConfig | None = None) -> list[CaseResult]:
    config = config or RunConfig()
    return sorted((run_case(n, config) for n in names), key=lambda r: r.name)


# --- recipe builds --------------------------------------------------------------

def build_report(recipe: BellRecipe, config: RunConfig, seesaw: bool) -> dict:
    """Run a recipe through ``_certify`` and report what it certifies.

    A complementary recipe adds the SOS search, on at most ``SOS_MAX_TERMS``
    terms, and ``seesaw`` the see-saw. ``pipeline_residual`` is the
    derivation's residual. Raises ValueError when the recipe does not fit its
    decomposition and QubitCapError above ``config.cap_qubits``.
    """
    expr, report, ident, _ = _certify(
        recipe, config.cap_qubits, sos=recipe.decomposition.get("kind") == "complementary",
        seesaw=(8, config.seed) if seesaw else None)
    return {"expression": str(expr), "pipeline_residual": ident.value, **report.to_dict()}


# --- table emission -------------------------------------------------------------

_COLUMNS = ("case", "classical_min", "classical_max", "quantum_lower",
            "rough_bound", "sos", "seesaw", "violation", "pass")


def _row(result: CaseResult) -> list[str]:
    b = result.bounds

    def num(v) -> str:
        return "-" if v is None else f"{_num(v):.12g}"

    return [
        result.name,
        num(b.classical_min if b else None),
        num(b.classical_max if b else None),
        num(b.quantum_lower if b else None),
        num(b.rough_bound if b else None),
        (b.sos_status if b else "-"),
        num(b.seesaw_value if b else None),
        ("yes" if b and b.violation else "no" if b else "-"),
        "pass" if result.passed else "FAIL",
    ]


def emit_table(results: list[CaseResult], fmt: str = "md") -> str:
    results = sorted(results, key=lambda r: r.name)
    if fmt == "json":
        return json.dumps([r.to_dict() for r in results], indent=2,
                          sort_keys=True) + "\n"
    rows = [list(_COLUMNS)] + [_row(r) for r in results]
    if fmt == "csv":
        return "\n".join(",".join(cell for cell in row) for row in rows) + "\n"
    if fmt == "md":
        out = ["| " + " | ".join(rows[0]) + " |",
               "|" + "|".join("---" for _ in _COLUMNS) + "|"]
        out += ["| " + " | ".join(row) + " |" for row in rows[1:]]
        return "\n".join(out) + "\n"
    raise ValueError(f"unknown table format {fmt!r}")
