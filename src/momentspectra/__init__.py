"""Spectral diagnostics for terraced (Rhaly) and Hankel moment operators.

Builds structured operator truncations from the moments of a measure and
verifies, at finite truncation, their predicted spectral behaviour:
point-spectrum membership, adjoint eigenvalue discs, spectral regions,
numerical-range containment in the closed right half-plane, contraction
semigroups, and invariant-subspace structure.
"""

import importlib

# first, so that it sets the BLAS thread count before numpy loads
from . import _lapack  # noqa: F401

__version__ = "0.1.0"

#: each public name and the module that defines it.  The module is imported
#: at the name's lookup (PEP 562), so `import momentspectra` loads none of
#: them and a CLI process only those its command runs
_EXPORTS = {
    **dict.fromkeys(("Dirac", "Lebesgue", "LogPowerDensity", "MeasureParameterError",
                     "MeasureSpec", "MeasureSyntaxError", "MomentSequence", "PowerDensity",
                     "moments", "parse_measure"), "measures"),
    **dict.fromkeys(("HankelMomentOperator", "TerracedOperator", "WeightSequence",
                     "hankel_apply", "terraced_apply", "terraced_apply_adjoint"), "operators"),
    **dict.fromkeys(("ClassificationVerdict", "adjoint_eigenvector",
                     "adjoint_eigenvector_residual", "classify_eigenvalue", "eigenvector",
                     "eigenvector_residual", "hankel_norm", "pseudospectrum_grid",
                     "smallest_singular_value"), "spectral"),
    **dict.fromkeys(("FovResult", "contraction_check", "fov_boundary"), "numrange"),
    **dict.fromkeys(("composition_matrix_phi", "hilbert_column_check", "kernel_span_rank",
                     "monomial_invariance_check", "rhaly_adjoint_integral_check"),
                    "invariance"),
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """The exported `name`, read from its defining module at each lookup."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
