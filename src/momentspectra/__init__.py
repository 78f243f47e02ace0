"""Spectral diagnostics for terraced (Rhaly) and Hankel moment operators.

Builds structured operator truncations from measure/weight specifications
and verifies, at finite truncation, their predicted spectral behaviour:
point-spectrum membership, adjoint eigenvalue discs, spectral regions,
numerical-range containment in the closed right half-plane, contraction
semigroups, and invariant-subspace structure.
"""

__version__ = "0.1.0"

from .measures import (
    Dirac,
    GrowthEstimate,
    Lebesgue,
    LogPowerDensity,
    MeasureParameterError,
    MeasureSpec,
    MeasureSyntaxError,
    MomentSequence,
    PowerDensity,
    growth_exponent,
    moments,
    parse_measure,
)
from .operators import (
    BoundednessReport,
    HankelMomentOperator,
    TerracedOperator,
    WeightSequence,
    boundedness_report,
    dense,
    factorization_check,
    hankel_apply,
    terraced_apply,
    terraced_apply_adjoint,
)
from .spectral import (
    ClassificationVerdict,
    DegenerateAtZeroError,
    DuplicateMomentsError,
    Eigenvector,
    HypothesesNotMetError,
    SpectralRegion,
    adjoint_disc,
    adjoint_eigenvector,
    adjoint_eigenvector_residual,
    classify_eigenvalue,
    eigenvector,
    eigenvector_residual,
    pseudospectrum_grid,
    smallest_singular_value,
    spectrum_region,
)
from .numrange import (
    ContractionResult,
    FovResult,
    contraction_check,
    fov_boundary,
    hermitian_min_eig,
    spectral_norm,
)
from .invariance import (
    cesaro_adjoint_integral_check,
    composition_matrix_phi,
    hilbert_column_check,
    kernel_span_rank,
    monomial_invariance_check,
    rhaly_adjoint_integral_check,
)
