"""Field-of-values estimation and contraction-semigroup checks.

The numerical range of a matrix compression is sampled through its support
function h(theta) = lambda_max(Re(e^{i theta} A)); the minimum real part of
the range equals the smallest eigenvalue of the Hermitian part.  A matrix
whose Hermitian part is positive semidefinite generates a contraction
semigroup: ||exp(-tau A)|| <= 1 for all tau >= 0, checked with the exact
spectral norm (the largest singular value).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

class EigensolverError(RuntimeError):
    """Dense symmetric eigensolver failed to converge."""


@dataclass(frozen=True, eq=False)
class FovResult:
    """Support-function samples of the numerical range at dimension dim.

    boundary_points[j] = <A v, v> for the extreme unit eigenvector v at
    angle theta_j; min_real_part equals -h(pi), the smallest eigenvalue of
    the Hermitian part.
    """

    angles: np.ndarray
    support_values: np.ndarray
    boundary_points: np.ndarray
    min_real_part: float
    dim: int


def hermitian_part(matrix: np.ndarray) -> np.ndarray:
    m = np.asarray(matrix)
    return 0.5 * (m + m.conj().T)


def hermitian_min_eig(matrix: np.ndarray) -> float:
    """Smallest eigenvalue of (A + A*)/2."""
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    try:
        return float(np.linalg.eigvalsh(hermitian_part(m))[0])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise EigensolverError(f"symmetric eigensolver did not converge: {exc}") from exc


def fov_boundary(matrix: np.ndarray, n_angles: int = 256) -> FovResult:
    """Sample h(theta) = lambda_max(Re(e^{i theta} A)) on a uniform angle grid
    and collect the boundary points <A v, v> of the extreme eigenvectors."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if n_angles < 4:
        raise ValueError("need at least 4 angles")
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    support = np.empty(n_angles)
    boundary = np.empty(n_angles, dtype=complex)
    for j, theta in enumerate(angles):
        rotated = hermitian_part(np.exp(1j * theta) * m)
        try:
            eigvals, eigvecs = np.linalg.eigh(rotated)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise EigensolverError(f"symmetric eigensolver did not converge: {exc}") from exc
        support[j] = eigvals[-1]
        v = eigvecs[:, -1]
        boundary[j] = v.conj() @ (m @ v)
    min_real = hermitian_min_eig(m)
    return FovResult(
        angles=angles,
        support_values=support,
        boundary_points=boundary,
        min_real_part=min_real,
        dim=m.shape[0],
    )


def spectral_norm(matrix: np.ndarray) -> float:
    """Spectral norm ||A||_2: the largest singular value, exact to rounding."""
    return float(np.linalg.norm(matrix, 2))


@dataclass(frozen=True, eq=False)
class ContractionResult:
    taus: np.ndarray
    norms: np.ndarray
    max_norm: float


def contraction_check(matrix: np.ndarray, taus) -> ContractionResult:
    """||exp(-tau A)|| for each tau, via the scaling-and-squaring matrix
    exponential and the exact spectral norm; reports the max."""
    taus = np.asarray(list(taus), dtype=float)
    if taus.size == 0:
        raise ValueError("need at least one tau")
    if np.any(taus <= 0.0):
        raise ValueError("taus must be positive")
    m = np.asarray(matrix)
    norms = np.empty(taus.size)
    for i, tau in enumerate(taus):
        # an overflow is reported once, by the finiteness check below
        with np.errstate(over="ignore", invalid="ignore"):
            exp_m = scipy.linalg.expm(-tau * m)
        if not np.all(np.isfinite(exp_m)):
            raise OverflowError(f"matrix exponential overflowed at tau={tau}")
        norms[i] = spectral_norm(exp_m)
    return ContractionResult(taus=taus, norms=norms, max_norm=float(norms.max()))
