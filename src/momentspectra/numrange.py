"""Field-of-values estimation and contraction-semigroup checks.

The numerical range of a real square matrix A (every operator the package
builds is real) is sampled through its support function
h(theta) = lambda_max(Re(e^{i theta} A)); the minimum real part of the range
equals the smallest eigenvalue of the symmetric part (A + A^T)/2.  Each
matrix takes one exact path:

* A symmetric matrix (the Hankel moment matrix) is normal, so its range is
  the segment [lambda_min, lambda_max]: one eigvalsh gives
  h(theta) = cos(theta) lambda_max when cos(theta) >= 0 and
  cos(theta) lambda_min otherwise.
* Any other matrix (terraced) has a range symmetric about the real
  axis, so only the angles theta <= pi are solved; h(2 pi - theta) = h(theta)
  and the boundary point there is the conjugate.  Each solved angle takes the
  top eigenpair of cos(theta) S + sin(theta) iK, with S and K the symmetric
  and skew parts of A, and every boundary point <A v, v> comes from one
  product after the loop.

A matrix whose Hermitian part is positive semidefinite generates a
contraction semigroup: ||exp(-tau A)|| <= 1 for all tau >= 0, checked with
the exact spectral norm (the largest singular value).

scipy.linalg is imported inside the functions that call it, which keeps it
out of the CLI's start-up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class FovResult:
    """Support-function samples of the numerical range at dimension dim.

    boundary_points[j] = <A v, v> for the extreme unit eigenvector v at
    angle theta_j; min_real_part equals -h(pi), the smallest eigenvalue of
    the symmetric part.
    """

    angles: np.ndarray
    support_values: np.ndarray
    boundary_points: np.ndarray
    min_real_part: float
    dim: int


def fov_boundary(matrix: np.ndarray, n_angles: int = 256) -> FovResult:
    """Sample h(theta) = lambda_max(Re(e^{i theta} A)) on a uniform angle grid
    and collect the boundary points <A v, v> of the extreme eigenvectors.
    A must be a real square matrix: any complex array is refused."""
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if n_angles < 4:
        raise ValueError("need at least 4 angles")
    if np.iscomplexobj(m):
        raise ValueError("fov_boundary needs a real matrix, got a complex array")
    m = m.astype(np.float64, copy=False)
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    dim = m.shape[0]
    # exact test A == A^T: the Hankel moment matrix passes, a terraced one does not
    if np.array_equal(m, m.T):
        lam = np.linalg.eigvalsh(m)
        cos = np.cos(angles)
        right = cos >= 0.0
        support = np.where(right, cos * lam[-1], cos * lam[0])
        boundary = np.where(right, lam[-1], lam[0]).astype(complex)
        min_real = float(lam[0])
    else:
        import scipy.linalg

        sym, iskew = 0.5 * (m + m.T), 0.5j * (m - m.T)
        half = n_angles // 2 + 1  # theta_j <= pi; the rest mirror them
        support = np.empty(n_angles)
        vectors = np.empty((dim, half), dtype=complex)
        for j, theta in enumerate(angles[:half]):
            eigval, eigvec = scipy.linalg.eigh(np.cos(theta) * sym + np.sin(theta) * iskew,
                                               subset_by_index=[dim - 1, dim - 1])
            support[j] = eigval[0]
            vectors[:, j] = eigvec[:, 0]
        boundary = np.empty(n_angles, dtype=complex)
        boundary[:half] = np.einsum("ij,ij->j", vectors.conj(), m @ vectors)
        mirror = n_angles - np.arange(half, n_angles)
        support[half:] = support[mirror]
        boundary[half:] = boundary[mirror].conj()
        min_real = float(np.linalg.eigvalsh(sym)[0])
    return FovResult(
        angles=angles,
        support_values=support,
        boundary_points=boundary,
        min_real_part=min_real,
        dim=dim,
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
    import scipy.linalg

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
