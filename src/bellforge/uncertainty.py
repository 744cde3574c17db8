"""Uncertainty relation between two Bell operators and quadratic inequalities.

For two xz-plane directions the Bell operators 2*sqrt2*(sin t * X + cos t * Z)
built on the two-qubit Bell basis obey an ellipse bound on their expectation
pair over ALL two-qubit states. Specializing to orthogonal directions gives a
disc that covers the classical square, which is what turns the relation into
quadratic Bell inequalities of the known Uffink and Nagata-Koashi-Imoto forms.

The seeded Monte-Carlo sweeps check these bounds over random mixed states,
rho = G G^dagger / tr(G G^dagger) with G complex Gaussian (Hilbert-Schmidt
sampling; Zyczkowski & Sommers, J. Phys. A 34, 7111 (2001)). They need only a
few traces tr(rho O) per state, so ``_random_expectations`` reads those
straight from the Gaussian draws, in real arithmetic with samples on the last
axis, and never forms a density matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import BellExpression, Setting, Symbol, _letter_setting, evaluate_quantum
from .bounds import _vertex_blocks
from .logical import LogicalPaulis, bell_logical_paulis
from .pauli import _PAULI_2X2, BLOCH_PAULIS, PauliSum, dense_stack
from .stabilizer import bell_basis

DISC_BOUND = 8.0
_ZX_PRODUCTS = np.stack([np.kron(_PAULI_2X2[p], _PAULI_2X2[q])
                         for p in "ZX" for q in "ZX"])


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


def _ellipse(e1, e2, plus, minus):
    """The ellipse functional of an expectation pair, for floats or arrays."""
    return (e1 + e2) ** 2 / plus + (e1 - e2) ** 2 / minus


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
    return _ellipse(b1, b2, plus, minus)


@dataclass
class SweepResult:
    max_lhs: float
    argmax: dict


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")


def _random_expectations(rng: np.random.Generator, samples: int,
                         observables) -> np.ndarray:
    """tr(rho_k O) for each d x d observable O, as an (observables, samples)
    array, over ``samples`` random densities rho_k = G G^dagger / tr(G G^dagger).

    G is complex Gaussian (Hilbert-Schmidt sampling), its real parts drawn
    first, then its imaginary parts, each as ``rng.normal`` draws a
    (samples, d, d) array. No density is formed: with samples on the last
    axis, Re(G G^dagger) = R R^T + I I^T is built on and above its diagonal,
    and Im(G G^dagger) = I R^T - R I^T above it only when some observable has
    an imaginary part. One matmul contracts them with every observable, and
    the trace is divided out of the result.
    """
    obs = np.asarray(observables)
    dim = obs.shape[-1]
    rows, cols = np.triu_indices(dim)
    upper = rows < cols
    imaginary = bool(np.iscomplexobj(obs) and np.any(obs.imag))

    # h[i] is row i of G, real parts then imaginary parts; each part's raw
    # draws are freed once laid out samples-last
    h = np.empty((dim, 2, dim, samples))
    for part in range(2):
        h[:, part] = rng.standard_normal(size=(samples, dim, dim)).transpose(1, 2, 0)
    h = h.reshape(dim, 2 * dim, samples)

    # rows (i, l) of Re(G G^dagger) for i <= l, then of Im(G G^dagger) for i < l
    corr = np.empty((rows.size + (upper.sum() if imaginary else 0), samples))
    re_at, im_at = 0, rows.size
    for i in range(dim):
        np.einsum("jk,ljk->lk", h[i], h[i:], out=corr[re_at:re_at + dim - i])
        re_at += dim - i
        if imaginary and i + 1 < dim:
            im = corr[im_at:im_at + dim - 1 - i]
            np.einsum("jk,ljk->lk", h[i, dim:], h[i + 1:, :dim], out=im)
            im -= np.einsum("jk,ljk->lk", h[i, :dim], h[i + 1:, dim:])
            im_at += dim - 1 - i
    del h

    # tr(rho O) = sum_i rho_ii O_ii + 2 sum_{i<l} (Re rho_il Re O_il + Im rho_il Im O_il)
    weights = np.where(upper, 2.0, 1.0)
    coeffs = obs.real[:, rows, cols] * weights
    if imaginary:
        coeffs = np.hstack((coeffs, 2.0 * obs.imag[:, rows[upper], cols[upper]]))
    out = coeffs @ corr
    out /= corr[:rows.size][~upper].sum(axis=0)
    return out


def uncertainty_sweep(samples: int = 10000, seed: int = 0) -> SweepResult:
    """Monte-Carlo check of the two-qubit relation over random mixed states
    and direction pairs (vectorized)."""
    _check_samples(samples)
    rng = np.random.default_rng(seed)
    ops = bell_logical_paulis()
    ex, ez = _random_expectations(
        rng, samples, dense_stack([2 * math.sqrt(2) * op for op in (ops.x, ops.z)]))
    t1 = rng.uniform(0, math.pi, size=samples)
    t2 = rng.uniform(0, math.pi, size=samples)
    s1, c1, s2, c2 = np.sin(t1), np.cos(t1), np.sin(t2), np.cos(t2)
    keep = np.abs(np.sin(t1 - t2)) > 1e-6     # drop (anti)parallel pairs
    b1 = s1 * ex + c1 * ez
    b2 = s2 * ex + c2 * ez
    plus = (s1 + s2) ** 2 + (c1 + c2) ** 2
    minus = (s1 - s2) ** 2 + (c1 - c2) ** 2
    lhs = np.where(keep, _ellipse(b1, b2, plus, minus), -np.inf)
    k = int(np.argmax(lhs))
    return SweepResult(float(lhs[k]),
                       {"sample": k, "theta1": float(t1[k]), "theta2": float(t2[k])})


def lemma_sweep(samples: int = 10000, seed: int = 1) -> SweepResult:
    """Monte-Carlo check of the single-qubit lemma (vectorized)."""
    _check_samples(samples)
    rng = np.random.default_rng(seed)
    a1 = rng.normal(size=(samples, 3))
    a1 /= np.linalg.norm(a1, axis=1)[:, None]
    a2 = rng.normal(size=(samples, 3))
    a2 /= np.linalg.norm(a2, axis=1)[:, None]
    keep = np.linalg.norm(np.cross(a1, a2), axis=1) > 1e-8
    bloch = _random_expectations(rng, samples, BLOCH_PAULIS).T
    e1 = np.sum(a1 * bloch, axis=1)
    e2 = np.sum(a2 * bloch, axis=1)
    plus = np.sum((a1 + a2) ** 2, axis=1)
    minus = np.sum((a1 - a2) ** 2, axis=1)
    lhs = np.where(keep, _ellipse(e1, e2, plus, minus), -np.inf)
    k = int(np.argmax(lhs))
    return SweepResult(float(lhs[k]), {"sample": k})


# --- quadratic Bell inequalities ----------------------------------------------

@dataclass
class QuadraticCase:
    name: str
    expr1: BellExpression
    expr2: BellExpression
    classical_max: float           # exact max of <E1>^2 + <E2>^2 over vertices
    bound: float                   # quantum bound on the same quadratic form
    vertices: list[tuple[float, float]]

    def __str__(self) -> str:
        return f"<{self.expr1}>^2 + <{self.expr2}>^2 <= {self.bound:g}"


def _pair_vertices(e1: BellExpression, e2: BellExpression) -> np.ndarray:
    """Both values at every +/-1 assignment of the symbols of either, from one
    two-expression vertex pass: a (2, vertices) array, vertices in
    lexicographic order (symbols sorted, +1 first)."""
    symbols = sorted(set(e1.symbols) | set(e2.symbols))
    values = np.concatenate([v for _, v in _vertex_blocks([e1, e2], symbols)], axis=1)
    return values + np.array([[e1.constant], [e2.constant]])


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
    x, y = _pair_vertices(e1, e2)
    classical = float(np.max(x * x + y * y))
    return QuadraticCase(variant, e1, e2, classical, bound, list(zip(x.tolist(), y.tolist())))


def quadratic_quantum_sweep(case: QuadraticCase, samples: int = 10000,
                            seed: int = 2) -> SweepResult:
    """Random mixed states and independent random xz-plane settings.

    Every observable gets its own angle: A or B at angle t is
    cos(t) Z + sin(t) X, which covers rotated and reflected setting pairs
    alike. Vectorized over samples; every term holds one symbol per party.
    """
    _check_samples(samples)
    rng = np.random.default_rng(seed)
    # t[i, j, k] = tr(rho_k sigma_i x sigma_j) for i, j in {Z, X}
    t = _random_expectations(rng, samples, _ZX_PRODUCTS).reshape(2, 2, samples)
    symbols = [(p, lab) for p in (0, 1) for lab in ("A", "B")]
    angles = np.stack([rng.uniform(-math.pi, math.pi, size=samples) for _ in symbols])
    comps = np.stack([np.cos(angles), np.sin(angles)], axis=1)   # (Z, X) components

    def value(expr: BellExpression) -> np.ndarray:
        index, coeffs = expr.factor_table(symbols)
        if not index.all():
            raise ValueError(f"a term of {expr} lacks a factor on one party")
        out = np.full(samples, expr.constant)
        for (a, b), coeff in zip(index, coeffs):
            out = out + coeff * np.einsum("ak,bk,abk->k", comps[a - 1], comps[b - 1], t)
        return out

    lhs = value(case.expr1) ** 2 + value(case.expr2) ** 2
    k = int(np.argmax(lhs))
    return SweepResult(float(lhs[k]), {"sample": k})


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
