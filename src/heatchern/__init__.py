"""heatchern: heat-kernel characters and homotopy invariants.

Numerical toolkit for finite-dimensional graded spectral data: exact
simplex-transform expectations, the entire cyclic cochain complex, the
heat-kernel character and its pairing with square roots of unity,
deformation sweeps, endpoint regularization, and split structures.

All public functions are pure: they never mutate their inputs and may be
called concurrently.  Randomized routines take explicit seeds.  A
``HeatData`` caches its eigenbasis and lifts on the instance, and the
Gauss-Hermite rules and the CLI parser are cached per process; the
prepared pass of a pairing is passed as an argument and ends with its call.
"""

__version__ = "0.1.0"

from .errors import (
    BadExponent,
    ClassViolation,
    ComplexityCap,
    DimensionMismatch,
    HeatChernError,
    NoConvergence,
    NotHermitian,
    Overflow,
    PairingInputInvalid,
    PNotFixed,
    ValidationFailure,
    ZeroMomentumViolation,
)
from .linalg import (
    HermitianEigenSystem,
    eig_hermitian,
    expm,
    simplex_exp,
)
from .triples import (
    AlgebraElement,
    HeatData,
    KatoCurve,
    RegularityReport,
    SpectralTriple,
    ValidationReport,
    VertexType,
    derivative,
    interpolation_norm,
    kato_constants,
    numeric_c_mu,
    regularity_exponents,
    sobolev_norm,
    validate_triple,
)
from .expectations import (
    ExpectationValue,
    VertexSet,
    beta_fn,
    bound_expectation,
    check_cyclic,
    check_d_invariance,
    check_insert_identity,
    duhamel_commutator,
    expectation_value,
    expectation_values,
    heat_expectation,
)
from .cochains import (
    Cochain,
    CochainNormProfile,
    cocycle_residual,
    norm_profile,
    op_A,
    op_B,
    op_T,
    op_U,
    op_V,
    op_b,
    op_partial,
    random_cochain,
)
from .jlo import (
    PairingInput,
    PairingResult,
    coboundary_pairing_residual,
    equivariant_index,
    generating_functional,
    jlo_cochain,
    jlo_component,
    pairing,
    pairing_coefficient,
    pairing_gaussian,
    pairing_series,
)
from .homotopy import (
    DeformationFamily,
    SweepTable,
    beta_independence,
    coboundary_relation_residual,
    deform_triple,
    endpoint_grid,
    h_cochain,
    jlo_lambda_fd_residual,
    L_cochain,
    linear_family,
    sweep_invariant,
)
from .split import (
    SplitTriple,
    build_n2_susy_example,
    coupling_sweep,
    d1,
    split_pairing,
    validate_split,
    zero_momentum_project,
)
from .models import (
    exchange_triple,
    random_involution,
    random_triple,
    zero_mode_triple,
)
