"""Spectral diagnostics for terraced (Rhaly) and Hankel moment operators.

Builds structured operator truncations from the moments of a measure and
verifies, at finite truncation, their predicted spectral behaviour:
point-spectrum membership, adjoint eigenvalue discs, spectral regions,
numerical-range containment in the closed right half-plane, contraction
semigroups, and invariant-subspace structure.
"""

__version__ = "0.1.0"

# first, so that it sets the BLAS thread count before numpy loads
from . import _lapack  # noqa: F401
from .measures import (
    Dirac,
    Lebesgue,
    LogPowerDensity,
    MeasureParameterError,
    MeasureSpec,
    MeasureSyntaxError,
    MomentSequence,
    PowerDensity,
    moments,
    parse_measure,
)
from .operators import (
    HankelMomentOperator,
    TerracedOperator,
    WeightSequence,
    hankel_apply,
    terraced_apply,
    terraced_apply_adjoint,
)
from .spectral import (
    ClassificationVerdict,
    adjoint_eigenvector,
    adjoint_eigenvector_residual,
    classify_eigenvalue,
    eigenvector,
    eigenvector_residual,
    hankel_norm,
    pseudospectrum_grid,
    smallest_singular_value,
)
from .numrange import (
    FovResult,
    contraction_check,
    fov_boundary,
)
from .invariance import (
    composition_matrix_phi,
    hilbert_column_check,
    kernel_span_rank,
    monomial_invariance_check,
    rhaly_adjoint_integral_check,
)
