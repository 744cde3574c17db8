"""Bell inequalities from logical-qubit Pauli operators on stabilizer codes.

The package synthesizes Bell operators as scaled directions in the Bloch
sphere of a logical qubit encoded in a stabilizer state pair, rewrites them
into experimental settings, and certifies the resulting inequalities:
exact classical bounds by vertex enumeration, quantum bounds by
diagonalization and sum-of-squares certificates, plus quadratic inequalities
induced by an uncertainty relation between two Bell operators.
"""

from .bell import (
    BellExpression,
    BellRecipe,
    ChainedConstruction,
    DecompositionError,
    Setting,
    build_logical,
    chained_construction,
    complementary_decompose,
    evaluate_quantum,
    render_operator,
    render_terms,
    symbolize,
    symbolize_decomposed,
)
from .bounds import (
    BoundsReport,
    BudgetError,
    SosCertificate,
    classical_bounds,
    classical_sample_bound,
    dichotomic_term_bound,
    quantum_lower_bound,
    seesaw_optimize,
    sos_pairing_search,
    sos_verify,
)
from .cases import CaseResult, RunConfig, case_names, emit_table, run_case, run_cases
from .logical import (
    LogicalPaulis,
    logical_paulis_numeric,
    logical_paulis_symbolic,
)
from .pauli import (
    DimensionError,
    PauliSum,
    PauliTerm,
    QubitCapError,
    anticommutator_sum,
    pauli_decompose,
    product,
)
from .recursive import (
    assignment_value_bound,
    build_level,
    mermin_case,
    svetlichny_case,
)
from .stabilizer import (
    GraphSpec,
    LogicalBasis,
    StabilizerGroup,
    basis_from_flip,
    bell_basis,
    expand_projector,
    ghz3_basis,
    graph_state_generators,
    state_vector,
)
from .uncertainty import (
    DirectionXZ,
    bell_op_xz,
    lemma_check,
    lemma_sweep,
    quadratic_bell,
    quadratic_quantum_sweep,
    square_in_disc_check,
    uncertainty_lhs,
    uncertainty_sweep,
)

__version__ = "0.1.0"
