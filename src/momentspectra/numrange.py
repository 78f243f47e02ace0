"""Field-of-values estimation and contraction-semigroup checks.

The numerical range of a real square matrix A (every operator the package
builds is real) is sampled through its support function
h(theta) = lambda_max(Re(e^{i theta} A)) on N angles theta_j = 2 pi j / N;
the minimum real part of the range equals the smallest eigenvalue of the
symmetric part (A + A^T)/2.  Each matrix takes one exact path:

* A symmetric matrix (the Hankel moment matrix) is normal, so its range is
  the segment [lambda_min, lambda_max]: one eigvalsh gives
  h(theta) = cos(theta) lambda_max when cos(theta) >= 0 and
  cos(theta) lambda_min otherwise.
* Any other matrix (terraced) has a range symmetric about the real axis:
  H(-theta) = conj H(theta) for H(theta) = Re(e^{i theta} A) =
  cos(theta) S + sin(theta) iK, with S and K the symmetric and skew parts
  of A, so h(2 pi - theta) = h(theta) and the boundary point there is the
  conjugate.  Also H(theta + pi) = -H(theta), so one Hermitian
  tridiagonalisation at theta gives h(theta) from its top eigenpair and
  h(pi - theta) from its bottom one.  An even N pairs theta_j with
  theta_{N/2 - j} and makes N//4 + 1 solves, over the angles up to pi/2; an
  odd N has no antipode on the grid and makes N//2 + 1, over the angles up
  to pi.  min_real_part is the bottom eigenvalue at theta = 0.  Every
  boundary point <A v, v> comes from one product after the loop.

A matrix whose Hermitian part is positive semidefinite generates a
contraction semigroup: ||exp(-tau A)|| <= 1 for all tau >= 0, checked with
the exact spectral norm (the largest singular value).

The LAPACK routines come from `_lapack`, which loads them at their first
use; no command imports the scipy.linalg package, and the matrix
exponential is numpy's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .spectral import _tridiagonal_eigenpairs


@dataclass(frozen=True, eq=False)
class FovResult:
    """Support-function samples of the numerical range.

    boundary_points[j] = <A v, v> for the extreme unit eigenvector v at
    angle theta_j; min_real_part is the smallest eigenvalue of the symmetric
    part, -h(pi).
    """

    angles: np.ndarray
    support_values: np.ndarray
    boundary_points: np.ndarray
    min_real_part: float


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
    # exact test A == A^T: the Hankel moment matrix passes, a terraced one does not
    if np.array_equal(m, m.T):
        lam = np.linalg.eigvalsh(m)
        cos = np.cos(angles)
        right = cos >= 0.0
        support = np.where(right, cos * lam[-1], cos * lam[0])
        boundary = np.where(right, lam[-1], lam[0]).astype(complex)
        min_real = float(lam[0])
    else:
        support, vectors, min_real = _terraced_support(m, angles)
        half = vectors.shape[1]
        boundary = np.empty(n_angles, dtype=complex)
        boundary[:half] = np.einsum("ij,ij->j", vectors.conj(), m @ vectors)
        mirror = n_angles - np.arange(half, n_angles)
        support[half:] = support[mirror]
        boundary[half:] = boundary[mirror].conj()
    return FovResult(
        angles=angles,
        support_values=support,
        boundary_points=boundary,
        min_real_part=min_real,
    )


def _terraced_support(m: np.ndarray, angles: np.ndarray):
    """(support, vectors, min_real) of a real non-symmetric A: support[j] =
    h(theta_j) and vectors[:, j] the top unit eigenvector of H(theta_j) for
    each theta_j <= pi, and min_real = lambda_min(S).

    The bottom eigenpair (lambda, v) of H(theta) is the top eigenpair
    (-lambda, conj v) of H(pi - theta) (see the module docstring).  Each
    zhetrd's real tridiagonal gives its extreme eigenpairs by bisection and
    inverse iteration; zunmqr applies the Householder reflectors to those
    vectors.
    """
    n_angles, dim = angles.size, m.shape[0]
    if not np.isfinite(m).all():
        raise ValueError("fov_boundary needs a finite matrix")
    # halved before the sum, so that a finite matrix has a finite Hermitian part
    sym, skew = 0.5 * m + 0.5 * m.T, 0.5 * m - 0.5 * m.T
    even, half = n_angles % 2 == 0, n_angles // 2 + 1
    support = np.empty(n_angles)
    vectors = np.empty((dim, half), dtype=complex)
    h = np.empty((dim, dim), dtype=complex, order="F")  # each zhetrd overwrites it
    lwork = int(_lapack.zhetrd_lwork(dim, lower=1)[0].real)
    for j in range(n_angles // 4 + 1 if even else half):
        theta = angles[j]
        np.multiply(sym, math.cos(theta), out=h.real)
        np.multiply(skew, math.sin(theta), out=h.imag)
        reflectors, d, e, tau, info = _lapack.zhetrd(h, lower=1, lwork=lwork, overwrite_a=1)
        antipode = n_angles // 2 - j  # a grid index when N is even
        # (top, bottom) eigenvalue indices; pi/2 is its own antipode
        indices = (dim, 1) if j == 0 or (even and antipode != j) else (dim,)
        if info == 0:
            entries = np.concatenate((d, e))
            w, z, info = _tridiagonal_eigenpairs(entries, indices, np.abs(entries).max())
        if info == 0:
            z = np.array(z, dtype=complex).T  # the eigenvectors as Fortran-ordered columns
            z[1:], _, info = _lapack.zunmqr("L", "N", reflectors[1:, :-1], tau, z[1:],
                                           len(indices))
        if info:
            raise np.linalg.LinAlgError(f"extreme eigenpairs of Re(e^(i theta) A) failed "
                                        f"at theta = {theta:.6g} (LAPACK info {info})")
        support[j], vectors[:, j] = w[0], z[:, 0]
        if j == 0:
            min_real = float(w[1])
        if even and len(indices) == 2:
            support[antipode], vectors[:, antipode] = -w[1], z[:, 1].conj()
    return support, vectors, min_real


#: Pade [13/13] numerator coefficients b_0..b_13, and the 1-norm bound theta_13
#: up to which its backward error is at most the unit roundoff (Higham 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(m: np.ndarray, tau: float) -> np.ndarray:
    """exp(tau M) by scaling and squaring with the Pade [13/13] approximant
    (Higham, SIAM J. Matrix Anal. Appl. 26, 2005): A = tau M is scaled by
    2^-s until ||A||_1 <= theta_13, r_13 = (V - U)^{-1} (V + U) is formed
    from the even powers A^2, A^4, A^6, and squared s times.  M and tau are
    first divided by powers of two that bring their largest entries below 1,
    so a finite M whose 1-norm overflows is still scaled; every step is
    exact, so s and the result do not depend on that division.  An overflow
    of the squarings leaves non-finite entries for the caller to check."""
    t, f = math.frexp(tau)
    e = math.frexp(np.abs(m).max(initial=0.0))[1]
    a = t * np.ldexp(m, -e)  # tau M = 2^(e+f) a, and every |a_ij| < 1
    e += f
    s = max(0, e + math.frexp(np.abs(a).sum(axis=0).max() / _THETA13)[1])
    a = np.ldexp(a, e - s)
    b = _PADE13
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def contraction_check(matrix: np.ndarray, taus) -> np.ndarray:
    """||exp(-tau A)||_2 for each tau, as a float64 array: the
    scaling-and-squaring matrix exponential (`_expm`) and its largest
    singular value."""
    taus = np.asarray(list(taus), dtype=float)
    if taus.size == 0:
        raise ValueError("need at least one tau")
    if not np.all((taus > 0.0) & np.isfinite(taus)):
        raise ValueError("taus must be positive and finite")
    m = np.asarray(matrix)
    norms = np.empty(taus.size)
    for i, tau in enumerate(taus):
        # an overflow is reported once, by the finiteness check below
        with np.errstate(over="ignore", invalid="ignore"):
            exp_m = _expm(m, -tau)
        if not np.all(np.isfinite(exp_m)):
            raise OverflowError(f"matrix exponential overflowed at tau={tau}")
        norms[i] = np.linalg.norm(exp_m, 2)
    return norms
