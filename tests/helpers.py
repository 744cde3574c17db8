"""Small constructions and comparisons that only the tests use."""

import json

import numpy as np

from bellforge.logical import LogicalPaulis
from bellforge.pauli import PauliSum, PauliTerm, check_hermitian
from bellforge.stabilizer import (
    GraphSpec,
    LogicalBasis,
    basis_from_flip,
    graph_state_generators,
)


def basis_from_kets(zero, one, name: str = "") -> LogicalBasis:
    """A logical basis from two kets, each normalised."""
    zero = np.asarray(zero, dtype=complex)
    n = int(round(np.log2(zero.size)))
    return LogicalBasis(n, zero / np.linalg.norm(zero),
                        np.asarray(one, dtype=complex) / np.linalg.norm(one),
                        name=name)


def loop5_basis() -> LogicalBasis:
    """Five-qubit loop-graph code basis: |0> = |L5>, |1> = Z^(x5) |L5>."""
    group = graph_state_generators(GraphSpec.loop(5))
    return basis_from_flip(group, PauliTerm.from_string("ZZZZZ"), name="loop5")


def logical_paulis_json(ops: LogicalPaulis) -> str:
    """The four logical operators as sorted JSON, coefficients to 12 places."""
    payload = {
        name: [[s, round(c, 12)] for s, c in op.to_strings()]
        for name, op in (("z", ops.z), ("x", ops.x), ("y", ops.y), ("i", ops.ident))
    }
    payload["n"] = ops.n
    return json.dumps(payload, sort_keys=True)


def rotated_z(ops: LogicalPaulis, theta: float) -> PauliSum:
    """cos(theta) * Z + sin(theta) * X, the logical Z rotated in the xz plane."""
    return ops.direction((np.sin(theta), 0.0, np.cos(theta)))


def sums_match(a: PauliSum, b: PauliSum, atol: float = 1e-12) -> bool:
    """Term-by-term agreement of two sums."""
    if a.n != b.n:
        return False
    da, db = dict(a.to_strings()), dict(b.to_strings())
    return all(abs(da.get(k, 0.0) - db.get(k, 0.0)) <= atol for k in da.keys() | db.keys())


def eig_bounds(m: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a Hermitian matrix."""
    vals = np.linalg.eigvalsh(check_hermitian(m))
    return float(vals[0]), float(vals[-1])
