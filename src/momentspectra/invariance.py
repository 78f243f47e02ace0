"""Composition-operator matrices, adjoint integral representations, and
invariant-subspace diagnostics.

The affine self-maps phi_t(z) = e^{-t} z + 1 - e^{-t} of the disc induce
upper-triangular composition matrices in the monomial basis whose entries
are Bernstein polynomials b_{m,n}(u) = C(n, m) u^m (1 - u)^{n-m} at
u = e^{-t}.  Averaging them against e^{-t} dt reproduces the adjoint of the
Cesaro matrix column by column (a Beta integral after substituting
u = e^{-t}).  Monomial-tail subspaces are invariant for every terraced
truncation but not for Hankel ones; both facts are checked as entrywise
defects.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .operators import TerracedOperator, WeightSequence, check_dense_limit
from .quadrature import fixed_gauss_legendre_01

#: singular values at least this fraction of the largest count toward rank
RANK_REL_THRESHOLD = 1e-10


def _bernstein(degree: int, x):
    """Yield the Bernstein basis (b_{0,n}(x), ..., b_{n,n}(x)) for
    n = 0, ..., degree, each an array of shape (n + 1,) + x.shape.

    Built by the recurrence b_{m,n} = (1 - x) b_{m,n-1} + x b_{m-1,n-1},
    which needs no binomial coefficients and so cannot overflow.
    """
    x = np.asarray(x, dtype=float)
    basis = np.ones((1,) + x.shape)
    for n in range(degree + 1):
        if n:
            previous, basis = basis, np.zeros((n + 1,) + x.shape)
            basis[:-1] = (1.0 - x) * previous
            basis[1:] += x * previous
        yield basis


def composition_matrix_phi(t: float, dim: int) -> np.ndarray:
    """Coefficient matrix of f -> f(phi_t(z)) for phi_t(z) = e^{-t} z + 1 - e^{-t}.

    Column n holds the monomial coefficients of phi_t(z)^n, the Bernstein
    basis at p = e^{-t}: entry (m, n) = C(n, m) p^m (1 - p)^{n - m} for m <= n.
    Upper triangular, so truncations compose exactly: M(s) M(t) = M(s + t).
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    check_dense_limit(dim)
    matrix = np.zeros((dim, dim))
    for n, column in enumerate(_bernstein(dim - 1, math.exp(-t))):
        matrix[: n + 1, n] = column
    return matrix


@lru_cache(maxsize=2)
def _bernstein_integrals(degree: int) -> np.ndarray:
    """Upper-triangular matrix whose entry (m, n), m <= n <= degree, is the
    integral of b_{m,n} over [0, 1] by a Gauss-Legendre rule exact for
    polynomials of degree up to degree + 16.  Cached and read-only, so the
    Hilbert columns of one dimension share a single table."""
    check_dense_limit(degree + 1)
    u, w = fixed_gauss_legendre_01(degree // 2 + 9)
    integrals = np.zeros((degree + 1, degree + 1))
    for n, basis in enumerate(_bernstein(degree, u)):
        integrals[: n + 1, n] = basis @ w
    integrals.flags.writeable = False
    return integrals


def rhaly_adjoint_integral_check(weights: WeightSequence, dim: int) -> float:
    """Max deviation between the integral of e^{-t} C_{phi_t} D applied first
    (D = diag((n+1) a_n)) and the transpose of the real terraced matrix.

    Substituting u = e^{-t} turns entry (m, n) of the integral into the
    integral of b_{m,n}(u) on [0, 1]; both sides vanish below the diagonal.
    """
    terraced = TerracedOperator(weights, dim)  # refuses dim < 1 and short weights
    diag = (np.arange(dim) + 1.0) * terraced.row_weights()
    return float(np.max(np.abs(_bernstein_integrals(dim - 1) * diag - terraced.dense().T)))


def monomial_invariance_check(matrix: np.ndarray, k: int) -> float:
    """Defect of the monomial-tail subspace spanned by z^k, z^{k+1}, ...:
    the largest entry the operator maps from columns >= k into rows < k.
    Zero means the subspace is invariant at this truncation."""
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if not 0 <= k < m.shape[0]:
        raise ValueError(f"index {k} out of range for dim {m.shape[0]}")
    if k == 0:
        return 0.0
    block = m[:k, k:]
    return float(np.max(np.abs(block))) if block.size else 0.0


def kernel_span_rank(locations, dim: int) -> int:
    """Numeric rank of the truncated reproducing kernels 1/(1 - t z) at the
    given locations: the rank of the dim x m matrix of their coefficients
    t_i^n, n < dim.

    Singular values at least RANK_REL_THRESHOLD times the largest count
    toward the rank.  The kernels' Gram matrix would square the conditioning:
    for 8 equispaced locations in [0, 0.9] at dim 8 its smallest relative
    singular value is 6.3e-12, the kernel matrix's 2.5e-6.
    """
    t = np.asarray(locations, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("need at least one location")
    if np.any(t < 0.0) or np.any(t >= 1.0):
        raise ValueError("locations must lie in [0, 1)")
    if t.size > dim:
        raise ValueError("more locations than truncated dimensions")
    diffs = np.abs(t[:, None] - t[None, :])
    np.fill_diagonal(diffs, np.inf)
    if diffs.min() == 0.0:
        raise ValueError("duplicate locations")
    kernels = np.power(t, np.arange(dim)[:, None])
    singular = np.linalg.svd(kernels, compute_uv=False)
    return int(np.sum(singular >= RANK_REL_THRESHOLD * singular[0]))


def hilbert_column_check(dim: int) -> np.ndarray:
    """Per column n < dim, the max deviation over m < dim between the integral
    over t of the weighted-composition column expansion C(n+m, m) t^n (1-t)^m,
    the Bernstein polynomial b_{n,n+m}(t), and the Hankel entry 1/(n+m+1).
    Entry (n, n+m) of the cached Bernstein table is that integral."""
    n = np.arange(dim)[:, None]
    index = n + np.arange(dim)  # n + m
    integrals = _bernstein_integrals(2 * dim - 2)[n, index]
    return np.max(np.abs(integrals - 1.0 / (index + 1.0)), axis=1)
