"""Exact-arithmetic models of set-theoretic Yang-Baxter solutions, the
symmetric-group action they induce on words, and the graded dimensions and
defining relations of the associated Nichols algebras."""

from .exact import (
    BadPrime,
    CycloElement,
    PrimeFieldElement,
    Rational,
    cyclotomic_polynomial,
    cyclotomic_root,
    primes_for_order,
    q_analogues,
    specialize,
)
from .linalg import DimensionMismatch, MonomialOperator, RowSpace, apply, rank, rowspace_insert
from .nichols import (
    CapExceeded,
    CoefficientSystem,
    GradedDims,
    HexagonViolation,
    HypothesesNotMet,
    InhomogeneousElement,
    braiding_ops,
    canonical_coefficients,
    check_relation,
    diagonal_coefficient_check,
    graded_dims,
    orbit_count_oracle,
    symmetrizer_image,
    theorem_suite,
    validate_coefficients,
)
from .orbits import (
    MalformedBlocks,
    OrbitReport,
    Partition,
    PositionOutOfRange,
    act,
    exchange,
    is_lambda_element,
    lambda_classify,
    orbit,
    orbit_census,
    psi,
    stabilizer_check,
)
from .ybe import (
    Diagonal,
    NotInvolutive,
    NotNondegenerate,
    NotYangBaxter,
    PhiInvariant,
    SetSolution,
    TooLarge,
    decompose,
    diagonal,
    phi_invariant,
    verify_solution,
)

__version__ = "0.1.0"
