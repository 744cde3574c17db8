"""Uncertainty relation between two Bell operators and quadratic inequalities.

For two xz-plane directions the Bell operators 2*sqrt2*(sin t * X + cos t * Z)
built on the two-qubit Bell basis obey an ellipse bound on their expectation
pair over ALL two-qubit states. Specializing to orthogonal directions gives a
disc that covers the classical square, which is what turns the relation into
quadratic Bell inequalities of the known Uffink and Nagata-Koashi-Imoto forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import BellExpression, Setting, Symbol, _letter_setting, evaluate_quantum
from .bounds import _vertex_blocks
from .logical import LogicalPaulis, bell_logical_paulis
from .pauli import _PAULI_2X2, PauliSum
from .stabilizer import bell_basis

DISC_BOUND = 8.0
_DENSITY_BLOCK = 256   # samples per product block in _random_densities


@dataclass(frozen=True)
class DirectionXZ:
    """Unit vector (sin theta, cos theta) in the xz plane."""

    theta: float

    @property
    def vector(self) -> np.ndarray:
        return np.array([math.sin(self.theta), math.cos(self.theta)])


def bell_op_xz(ops: LogicalPaulis, d: DirectionXZ) -> PauliSum:
    """2*sqrt2 * (sin t * logical X + cos t * logical Z)."""
    s, c = math.sin(d.theta), math.cos(d.theta)
    return 2 * math.sqrt(2) * ops.direction((s, 0.0, c))


def _check_not_parallel(d1: DirectionXZ, d2: DirectionXZ) -> tuple[float, float]:
    plus = float(np.linalg.norm(d1.vector + d2.vector)) ** 2
    minus = float(np.linalg.norm(d1.vector - d2.vector)) ** 2
    if plus < 1e-12 or minus < 1e-12:
        raise ValueError("directions are parallel or antiparallel")
    return plus, minus


def uncertainty_lhs(rho: np.ndarray, d1: DirectionXZ, d2: DirectionXZ,
                    ops: LogicalPaulis | None = None) -> float:
    """Ellipse functional of the two Bell expectations; at most 8 for any state."""
    ops = ops or bell_logical_paulis()
    plus, minus = _check_not_parallel(d1, d2)
    b1 = bell_op_xz(ops, d1).expectation(rho)
    b2 = bell_op_xz(ops, d2).expectation(rho)
    return (b1 + b2) ** 2 / plus + (b1 - b2) ** 2 / minus


def lemma_check(a1, a2, rho: np.ndarray) -> float:
    """Single-qubit ellipse functional; at most 1 for any qubit state."""
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    if np.linalg.norm(np.cross(a1, a2)) < 1e-12:
        raise ValueError("Bloch vectors are parallel")
    op1 = PauliSum.from_strings([("X", a1[0]), ("Y", a1[1]), ("Z", a1[2])], n=1)
    op2 = PauliSum.from_strings([("X", a2[0]), ("Y", a2[1]), ("Z", a2[2])], n=1)
    e1, e2 = op1.expectation(rho), op2.expectation(rho)
    plus = float(np.linalg.norm(a1 + a2)) ** 2
    minus = float(np.linalg.norm(a1 - a2)) ** 2
    return (e1 + e2) ** 2 / plus + (e1 - e2) ** 2 / minus


@dataclass
class SweepResult:
    samples: int
    max_lhs: float
    bound: float
    argmax: dict

    @property
    def ok(self) -> bool:
        return self.max_lhs <= self.bound + 1e-9


def _random_densities(rng: np.random.Generator, samples: int, dim: int) -> np.ndarray:
    """``samples`` random dim x dim densities G G^dagger / tr(G G^dagger).

    G's real parts are drawn first, then its imaginary parts, straight into
    the second half of the output's memory: writing the densities in sample
    order reaches that half only at imaginary parts already read. Products
    are formed a block of ``_DENSITY_BLOCK`` samples at a time, and the trace
    is divided out in place, so the only sample-sized temporary is the real
    parts, half the output's size.
    """
    rhos = np.empty((samples, dim, dim), dtype=complex)
    real = rng.normal(size=rhos.shape)
    imag = rhos.reshape(-1).view(float)[real.size:].reshape(rhos.shape)
    rng.standard_normal(out=imag)    # what normal(size=...) draws, in place
    g = np.empty((min(samples, _DENSITY_BLOCK), dim, dim), dtype=complex)
    g_conj = np.empty_like(g)
    for lo in range(0, samples, _DENSITY_BLOCK):
        hi = min(lo + _DENSITY_BLOCK, samples)
        block, block_conj = g[:hi - lo], g_conj[:hi - lo]
        block.real, block.imag = real[lo:hi], imag[lo:hi]
        np.einsum("kij,klj->kil", block, np.conjugate(block, out=block_conj),
                  out=rhos[lo:hi])
    traces = np.einsum("kii->k", rhos).real
    rhos /= traces[:, None, None]
    return rhos


def uncertainty_sweep(samples: int = 10000, seed: int = 0) -> SweepResult:
    """Monte-Carlo check of the two-qubit relation over random mixed states
    and direction pairs (vectorized)."""
    rng = np.random.default_rng(seed)
    ops = bell_logical_paulis()
    b_x = (2 * math.sqrt(2) * ops.x).to_dense()
    b_z = (2 * math.sqrt(2) * ops.z).to_dense()
    rhos = _random_densities(rng, samples, 4)
    t1 = rng.uniform(0, math.pi, size=samples)
    t2 = rng.uniform(0, math.pi, size=samples)
    keep = np.abs(np.sin(t1 - t2)) > 1e-6     # drop (anti)parallel pairs
    ex = np.einsum("kij,ji->k", rhos, b_x).real
    ez = np.einsum("kij,ji->k", rhos, b_z).real
    b1 = np.sin(t1) * ex + np.cos(t1) * ez
    b2 = np.sin(t2) * ex + np.cos(t2) * ez
    plus = (np.sin(t1) + np.sin(t2)) ** 2 + (np.cos(t1) + np.cos(t2)) ** 2
    minus = (np.sin(t1) - np.sin(t2)) ** 2 + (np.cos(t1) - np.cos(t2)) ** 2
    lhs = np.where(keep, (b1 + b2) ** 2 / plus + (b1 - b2) ** 2 / minus, -np.inf)
    k = int(np.argmax(lhs))
    return SweepResult(samples, float(lhs[k]), DISC_BOUND,
                       {"sample": k, "theta1": float(t1[k]), "theta2": float(t2[k])})


def lemma_sweep(samples: int = 10000, seed: int = 1) -> SweepResult:
    """Monte-Carlo check of the single-qubit lemma (vectorized)."""
    rng = np.random.default_rng(seed)
    a1 = rng.normal(size=(samples, 3))
    a1 /= np.linalg.norm(a1, axis=1)[:, None]
    a2 = rng.normal(size=(samples, 3))
    a2 /= np.linalg.norm(a2, axis=1)[:, None]
    keep = np.linalg.norm(np.cross(a1, a2), axis=1) > 1e-8
    rhos = _random_densities(rng, samples, 2)
    paulis = np.stack([_PAULI_2X2[c] for c in "XYZ"])
    bloch = np.einsum("kij,cji->kc", rhos, paulis).real
    e1 = np.sum(a1 * bloch, axis=1)
    e2 = np.sum(a2 * bloch, axis=1)
    plus = np.sum((a1 + a2) ** 2, axis=1)
    minus = np.sum((a1 - a2) ** 2, axis=1)
    lhs = np.where(keep, (e1 + e2) ** 2 / plus + (e1 - e2) ** 2 / minus, -np.inf)
    k = int(np.argmax(lhs))
    return SweepResult(samples, float(lhs[k]), 1.0, {"sample": k})


# --- quadratic Bell inequalities ----------------------------------------------

@dataclass
class QuadraticCase:
    name: str
    expr1: BellExpression
    expr2: BellExpression
    classical_max: float           # exact max of <E1>^2 + <E2>^2 over vertices
    bound: float                   # quantum bound on the same quadratic form
    vertices: list[tuple[float, float]]


def _pair_vertices(e1: BellExpression, e2: BellExpression
                   ) -> list[tuple[float, float]]:
    """Both values at every +/-1 assignment of the symbols of either, in
    lexicographic order (symbols sorted, +1 first)."""
    symbols = sorted(set(e1.symbols) | set(e2.symbols))
    x, y = (np.concatenate([v for _, v in _vertex_blocks(e, symbols)]) + e.constant
            for e in (e1, e2))
    return list(zip(x.tolist(), y.tolist()))


def quadratic_bell(variant: str) -> QuadraticCase:
    """The published two-qubit quadratic Bell inequalities.

    "uffink": <A1 B2 + B1 A2>^2 + <A1 A2 - B1 B2>^2 <= 4.
    "nki":    <A1(A2+B2) + B1(A2-B2)>^2 + <A1(A2-B2) - B1(A2+B2)>^2 <= 8.
    """
    A = [(0, "A"), (0, "B"), (1, "A"), (1, "B")]
    a1, b1, a2, b2 = A
    if variant == "uffink":
        e1 = BellExpression(2, {(a1, b2): 1.0, (b1, a2): 1.0})
        e2 = BellExpression(2, {(a1, a2): 1.0, (b1, b2): -1.0})
        bound = 4.0
    elif variant == "nki":
        e1 = BellExpression(2, {(a1, a2): 1.0, (a1, b2): 1.0,
                                (b1, a2): 1.0, (b1, b2): -1.0})
        e2 = BellExpression(2, {(a1, a2): 1.0, (a1, b2): -1.0,
                                (b1, a2): -1.0, (b1, b2): -1.0})
        bound = 8.0
    else:
        raise ValueError(f"unknown quadratic variant {variant!r}")
    vertices = _pair_vertices(e1, e2)
    classical = max(x * x + y * y for x, y in vertices)
    return QuadraticCase(variant, e1, e2, classical, bound, vertices)


def quadratic_quantum_sweep(case: QuadraticCase, samples: int = 10000,
                            seed: int = 2) -> SweepResult:
    """Random mixed states and independent random xz-plane settings.

    Every observable gets its own angle: A or B at angle t is
    cos(t) Z + sin(t) X, which covers rotated and reflected setting pairs
    alike. Vectorized over samples; every term holds one symbol per party.
    """
    rng = np.random.default_rng(seed)
    rhos = _random_densities(rng, samples, 4)
    symbols = [(p, lab) for p in (0, 1) for lab in ("A", "B")]
    angles = np.stack([rng.uniform(-math.pi, math.pi, size=samples) for _ in symbols])
    comps = np.stack([np.cos(angles), np.sin(angles)], axis=1)   # (Z, X) components

    # T[k, i, j] = tr(rho_k sigma_i x sigma_j) for i, j in {Z, X}
    basis = [_PAULI_2X2["Z"], _PAULI_2X2["X"]]
    prods = np.stack([np.kron(p, q) for p in basis for q in basis]).reshape(2, 2, 4, 4)
    t = np.einsum("kij,abji->kab", rhos, prods).real

    def value(expr: BellExpression) -> np.ndarray:
        index, coeffs = expr.factor_table(symbols)
        if not index.all():
            raise ValueError(f"a term of {expr} lacks a factor on one party")
        out = np.full(samples, expr.constant)
        for (a, b), coeff in zip(index, coeffs):
            out = out + coeff * np.einsum("ak,bk,kab->k", comps[a - 1], comps[b - 1], t)
        return out

    lhs = value(case.expr1) ** 2 + value(case.expr2) ** 2
    k = int(np.argmax(lhs))
    return SweepResult(samples, float(lhs[k]), case.bound, {"sample": k})


def uffink_attaining_value(case: QuadraticCase | None = None) -> float:
    """The quadratic form on the Bell state with the published settings.

    Party 0 measures A = Z, B = X; party 1 measures the reflected pair
    A = X, B = Z. The form reaches its quantum bound of 4.
    """
    case = case or quadratic_bell("uffink")
    rho0 = np.outer(bell_basis().zero_ket, bell_basis().zero_ket.conj())
    bindings: dict[Symbol, Setting] = {
        (party, label): _letter_setting(party, label, letter)
        for party, label, letter in ((0, "A", "Z"), (0, "B", "X"), (1, "A", "X"), (1, "B", "Z"))
    }
    v1 = evaluate_quantum(case.expr1, bindings, rho0)
    v2 = evaluate_quantum(case.expr2, bindings, rho0)
    return v1 * v1 + v2 * v2


def square_in_disc_check(d1: DirectionXZ, d2: DirectionXZ
                         ) -> tuple[bool, float, list[tuple[float, float]]]:
    """All LHV vertices of the symbolized operator pair satisfy the ellipse bound.

    For orthogonal directions the ellipse is the disc x^2 + y^2 <= 8 and the
    extreme classical points sit exactly on the circle.
    """
    plus, minus = _check_not_parallel(d1, d2)
    root2 = math.sqrt(2)
    A = [(0, "A"), (0, "B"), (1, "A"), (1, "B")]
    a1, b1, a2, b2 = A

    def expr_for(d: DirectionXZ) -> BellExpression:
        s, c = math.sin(d.theta), math.cos(d.theta)
        # 2*sqrt2*(sin*X + cos*Z) on the Bell basis, symbols Z->A, X->B
        return BellExpression(2, {
            (a1, a2): root2 * c, (b1, b2): root2 * c,
            (a1, b2): root2 * s, (b1, a2): -root2 * s,
        })

    e1, e2 = expr_for(d1), expr_for(d2)
    vertices = _pair_vertices(e1, e2)
    worst = -math.inf
    for x, y in vertices:
        lhs = (x + y) ** 2 / plus + (x - y) ** 2 / minus
        worst = max(worst, lhs)
    return worst <= DISC_BOUND + 1e-9, worst, vertices
