"""Spectral diagnostics for terraced (Rhaly) and Hankel moment operators.

Builds structured operator truncations from the moments of a measure and
verifies, at finite truncation, their predicted spectral behaviour:
point-spectrum membership, adjoint eigenvalue discs, spectral regions,
numerical-range containment in the closed right half-plane, contraction
semigroups, and invariant-subspace structure.
"""

# first, so that it sets the BLAS thread count before numpy loads
from . import _lapack  # noqa: F401

__version__ = "0.1.0"
