"""Point-spectrum classification, eigenvector construction, and pseudospectra.

For a terraced operator built from the moments (mu_n) of a positive measure
on [0,1), the k-th moment is an eigenvalue exactly when the sequence
mu_n * exp(s_n / mu_k) is square-summable, where s_n are the moment partial
sums (Rhaly, Bull. London Math. Soc. 21, 1989; Leibowitz, J. Math. Anal.
Appl. 128, 1987).  Everything is read from the measure's weight limit
L = lim (n+1) mu_n: s_n = L log n + O(1), so the test term behaves like
n^(-1 + L/mu_k), and mu_k is an eigenvalue exactly when mu_k > 2L (L = 0
makes every moment one).  The adjoint's point spectrum contains the open
disc centered at L with radius L.  The numeric path checks the rule
without L, from the test term's chord slopes over an octave ladder of the
moments (`measures.octave_ladder`), and answers only once they settle.

Pseudospectra sample sigma_min(zI - A) on a grid, one exact path per family.
A Hermitian (Hankel) matrix costs one eigvalsh per grid.  A terraced zI - R
is lower triangular, so sigma_min = 1 / ||(zI - R)^{-1}|| comes from inverse
Lanczos: Golub-Kahan bidiagonalisation of the inverse, stopped by the
residual of the top Ritz triplet (Trefethen, "Computation of pseudospectra",
Acta Numerica 8, 1999).  Each step makes two O(n) banded solves on the
weights, one with zI - R and one with its adjoint; no matrix is formed.

One Golub-Kahan loop (`_top_singular_value`, over an apply and an adjoint
apply) serves both sigma_min and Hankel norms: `hankel_norm` runs it on
`hankel_apply`, which the real symmetric Hankel matrix uses for both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _lapack
from .measures import MomentSequence, octave_ladder
from .operators import (
    HankelMomentOperator,
    TerracedOperator,
    WeightSequence,
    hankel_apply,
    terraced_apply,
    terraced_apply_adjoint,
)

IN_L2 = "InL2"
NOT_IN_L2 = "NotInL2"
INCONCLUSIVE = "Inconclusive"
ANALYTIC = "Analytic"
NUMERIC_FIT = "NumericFit"

#: relative gap below which consecutive moments count as duplicates
DISTINCT_REL_GAP = 1e-12
#: settled chords must clear -1/2 by this margin for a NumericFit verdict
L2_MARGIN = 0.1
#: largest last chord step, over max(1, |c3 + 1/2|), of a contracting ladder
GEOMETRIC_STEP = 0.1
#: largest last chord step, on the same scale, of a flat ladder
FLAT_STEP = 1e-3
#: slowest octave ratio of chord steps: 2^(1-s) of a logpower(s >= 1.074) tail
SLOWEST_RATIO = 0.95
OVERFLOW_GUARD = 1e150


@dataclass(frozen=True)
class ClassificationVerdict:
    verdict: str
    slope: float | None
    method: str


def normal_length(values: np.ndarray) -> int:
    """Length of the leading run of positive normal floats, possibly 0; the
    rest must be an underflow tail of subnormals and zeros.  A subnormal
    moment keeps too few bits for its neighbours to be told apart: 0.75^n
    repeats values before n = 4096."""
    if np.any(values < 0.0):
        raise ValueError("moments must be nonnegative")
    normal = values >= np.finfo(float).tiny
    length = normal.size if normal.all() else int(np.argmin(normal))
    if normal[length:].any():
        raise ValueError("moments must be nonincreasing: an underflowed entry before a "
                         "normal one")
    return length


def first_coincidence(values: np.ndarray) -> int | None:
    """The first i with values[i] - values[i+1] <= DISTINCT_REL_GAP * values[i],
    or None: entries of a nonincreasing array are pairwise distinct exactly
    when no consecutive pair coincides."""
    close = values[:-1] - values[1:] <= DISTINCT_REL_GAP * values[:-1]
    return int(np.argmax(close)) if close.any() else None


def _validate_moments(ms: MomentSequence) -> int:
    if ms.n_terms >= 2 and ms.values[0] > 0.0 and np.all(ms.values[1:] == 0.0):
        raise ValueError("measure concentrated at 0: moments vanish past index 0")
    active = normal_length(ms.values)
    if active < 2:
        raise ValueError("need at least two positive moments")
    bad = first_coincidence(ms.values[:active])
    if bad is not None:
        raise ValueError(
            f"moments {bad} and {bad + 1} coincide within relative gap {DISTINCT_REL_GAP}"
        )
    return active


def _settled_side(c1: float, c2: float, c3: float) -> str:
    """The verdict of the test term's chord slopes over three successive
    octaves, Inconclusive unless the steps d2 = c2 - c1, d3 = c3 - c2 are
    flat or contract.  The limit may lie as far as c3 + d3 r/(1 - r), r the
    larger of SLOWEST_RATIO and d3/d2 (a fast first step can hide a slow
    tail), and c3 and that end must clear -1/2 by L2_MARGIN on one side."""
    d2, d3 = c2 - c1, c3 - c2
    scale = max(1.0, abs(c3 + 0.5))
    contracting = d2 * d3 > 0.0 and abs(d3) < abs(d2) and abs(d3) <= GEOMETRIC_STEP * scale
    if not (contracting or abs(d3) <= FLAT_STEP * scale):
        return INCONCLUSIVE
    r = max(SLOWEST_RATIO, d3 / d2) if contracting else SLOWEST_RATIO
    ends = (c3, c3 + d3 * r / (1.0 - r))
    if max(ends) < -0.5 - L2_MARGIN:
        return IN_L2
    if min(ends) > -0.5 + L2_MARGIN:
        return NOT_IN_L2
    return INCONCLUSIVE


def classify_eigenvalue(ms: MomentSequence, limit: float, ks,
                        method: str) -> list[ClassificationVerdict]:
    """Decide, for each index k in ks, whether the k-th moment is an
    eigenvalue of the terraced operator; one verdict per index, in order.

    The analytic path reads the measure's weight limit L: InL2 exactly when
    mu_k > 2L, reporting the test term's exponent -1 + L/mu_k.  The numeric
    path takes one octave ladder over t = active - 1: with p_j and q_j the
    slopes of log mu_n and s_n over octave j, the test term's chord slope is
    c_j = p_j + q_j/mu_k, O(1) per index.  Only an index below t/8 whose
    chords have settled (`_settled_side`) gets a verdict.  The slope is c_3,
    or None when the ladder does not reach past k.
    """
    if method not in ("analytic", "numeric"):
        raise ValueError(f"unknown classification method {method!r}")
    active = _validate_moments(ms)
    if method == "numeric":
        t = active - 1
        p, q = (slopes.tolist() for slopes in octave_ladder(ms, t))
    verdicts = []
    for k in ks:
        if not 0 <= k < ms.n_terms:
            raise ValueError(f"eigenvalue index {k} out of range")
        if k >= active:
            raise ValueError(f"moment {k} underflowed below the normal range; "
                             f"choose a smaller index")
        mu_k = float(ms.values[k])
        if method == "analytic":
            verdict = ClassificationVerdict(IN_L2 if mu_k > 2.0 * limit else NOT_IN_L2,
                                            -1.0 + limit / mu_k, ANALYTIC)
        elif k >= t:
            verdict = ClassificationVerdict(INCONCLUSIVE, None, NUMERIC_FIT)
        else:
            chords = [p_j + q_j / mu_k for p_j, q_j in zip(p, q)]
            side = _settled_side(*chords) if 8 * k < t else INCONCLUSIVE
            verdict = ClassificationVerdict(side, chords[2], NUMERIC_FIT)
        verdicts.append(verdict)
    return verdicts


def eigenvector(ms: MomentSequence, k: int, dim: int) -> np.ndarray:
    """Eigenvector for the k-th moment as a float64 array: zeros below k,
    x_k = 1, then x_{n+1} = mu_{n+1} mu_k / (mu_n (mu_k - mu_{n+1})) x_n.

    Whenever an entry exceeds OVERFLOW_GUARD, the entries so far are divided
    by it, so the vector is the eigenvector up to a positive scale.
    """
    active = _validate_moments(ms)
    if not 0 <= k < dim:
        raise ValueError(f"index {k} out of range for dim {dim}")
    if ms.values.size < dim:
        raise ValueError(f"need {dim} moments, have {ms.values.size}")
    if active < dim:
        raise ValueError(
            f"moments underflow below the normal range at index {active}; the recurrence "
            f"needs dim <= {active}"
        )
    mu = ms.values[:dim]
    mu_k = float(mu[k])
    # mu_k / gap first: mu_{n+1} mu_k underflows where the ratio does not
    ratio = mu[k + 1:] / mu[k:-1] * (mu_k / (mu_k - mu[k + 1:]))
    x = np.zeros(dim)
    x[k] = 1.0
    start = k
    while start < dim - 1:
        # no ratio is negative (the moments decrease strictly) and x[start] is
        # exactly 1 (x_k, or an entry divided by itself), so the running product
        # repeats the one-entry-at-a-time recurrence bit for bit.  Entries past
        # the first one above the guard may overflow (inf, or inf * 0 = nan
        # against an underflowed ratio); they are discarded and redone from there
        with np.errstate(over="ignore", invalid="ignore"):
            segment = np.cumprod(ratio[start - k:])
        above = np.flatnonzero(segment > OVERFLOW_GUARD)
        if above.size == 0:
            x[start + 1:] = segment
            break
        end = start + 1 + int(above[0])
        x[start + 1:end + 1] = segment[:above[0] + 1]
        x[:end + 1] /= x[end]
        start = end
    return x


def eigenvector_residual(ms: MomentSequence, k: int, dim: int,
                         embed_factor: int = 1) -> float:
    """Relative residual ||R x - mu_k x|| / ||x|| of the truncated eigenvector.

    embed_factor > 1 pads the vector with zeros and applies the operator at
    the larger truncation, so the residual also sees the rows the smaller
    truncation would cut off.  OverflowError if the residual is not finite.
    """
    if embed_factor < 1:
        raise ValueError("embed_factor must be at least 1")
    big = embed_factor * dim
    if ms.values.size < big:
        raise ValueError(f"need {big} moments for the embedded residual")
    x = np.zeros(big)
    x[:dim] = eigenvector(ms, k, dim)
    op = TerracedOperator(WeightSequence(ms.values), big)
    r = terraced_apply(op, x) - ms.values[k] * x
    # pairwise sums of squares: a BLAS dot over 32768 entries near 1 drops
    # their low bits and put ||x|| 27 eps off an exactly summed norm
    with np.errstate(over="ignore"):
        residual = math.sqrt(np.sum(r * r)) / math.sqrt(np.sum(x * x))
    if not math.isfinite(residual):
        raise OverflowError(f"eigenvector residual at k = {k} overflows")
    return residual


def adjoint_eigenvector(ms: MomentSequence, nu: complex, dim: int) -> np.ndarray:
    """Adjoint eigenvector for eigenvalue 1/nu: x_0 = 1 and
    x_n = prod(1 - mu_j nu for j < n).

    When nu = 1/mu_k the factor at j = k vanishes, so the vector is
    supported on indices 0..k and satisfies the eigenvalue equation
    exactly at any truncation beyond k.
    """
    if nu == 0:
        raise ValueError("nu must be nonzero (eigenvalue 0 admits only the trivial solution)")
    if ms.values.size < dim:
        raise ValueError(f"need {dim} moments, have {ms.values.size}")
    factors = 1.0 - ms.values[: dim - 1] * nu
    x = np.ones(dim, dtype=complex)
    x[1:] = np.cumprod(factors)
    return x


def adjoint_eigenvector_residual(ms: MomentSequence, nu: complex, dim: int) -> float:
    """Relative residual ||R* x - x/nu|| / ||x|| via the suffix-sum kernel."""
    x = adjoint_eigenvector(ms, nu, dim)
    op = TerracedOperator(WeightSequence(ms.values), dim)
    r = terraced_apply_adjoint(op, x) - x / nu
    return float(np.linalg.norm(r) / np.linalg.norm(x))


# --------------------------------------------------------------------------
# pseudospectrum

@dataclass(frozen=True, eq=False)
class PseudospectrumGrid:
    """sigma_min(z I - A) sampled on a rectangular grid; sigma_min is indexed
    [imag, real] and the CSV layout iterates the real axis fastest."""

    re_axis: np.ndarray
    im_axis: np.ndarray
    sigma_min: np.ndarray


@lru_cache(maxsize=2)
def _start_vector(n: int) -> np.ndarray:
    """Fixed unit start vector of the bidiagonalisation: seeded, so repeated
    runs are byte-identical."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    v.flags.writeable = False
    return v


#: absolute tolerance of the bisection: the smallest LAPACK recommends, for
#: the highest relative accuracy
_BISECTION_TOL = 2 * np.finfo(float).tiny


def _tridiagonal_eigenpairs(entries: np.ndarray, indices, largest: float):
    """(values, vectors, info) of the m x m real symmetric tridiagonal whose
    2m - 1 entries are `entries`, the diagonal and then the off-diagonal:
    values[j] is its indices[j]-th smallest eigenvalue (from 1), a float,
    and vectors[j] a unit eigenvector for it.

    Each pair costs O(m): bisection (dstebz) to _BISECTION_TOL, then
    inverse iteration (dstein).  The bisection squares the entries, so they
    are first scaled in place to order 1 by the exact power of two that
    takes `largest`, the largest modulus among them, into [1/2, 1); the
    values are scaled back.  info is LAPACK's, 0 on success; a failure ends
    the lists at the pair that failed.
    """
    exponent = math.frexp(largest)[1]
    np.ldexp(entries, -exponent, out=entries)
    m = (entries.size + 1) // 2
    d, e = entries[:m], entries[m:]
    values, vectors, info = [], [], 0
    for index in indices:
        # info 0 means exactly the one eigenvalue asked for was found
        _, w, block, split, info = _lapack.dstebz(d, e, 2, 0.0, 0.0, index, index,
                                                  _BISECTION_TOL, "B")
        if info == 0:
            vector, info = _lapack.dstein(d, e, w[:1], block, split)
        if info:
            break
        values.append(math.ldexp(w[0], exponent))
        vectors.append(vector[:, 0])
    return values, vectors, info


def _top_ritz(alphas: np.ndarray, betas: np.ndarray) -> tuple[float, float]:
    """(theta_1, |e_k^T y_1|) of the k x k upper bidiagonal with diagonal
    alphas and superdiagonal betas: its largest singular value and the last
    entry of its top left singular vector.

    They come from the 2k x 2k Golub-Kahan tridiagonal, zero diagonal and
    off-diagonal (alpha_1, beta_1, ..., alpha_k), whose eigenvalues are
    +-theta_i and whose top eigenvector interleaves (z_1, y_1)/sqrt(2).
    Its top eigenpair costs O(k), where a dense SVD of the bidiagonal costs
    O(k^3), and bisection to the smallest absolute tolerance gives theta_1
    to high relative accuracy.  The alphas and betas are norms, so the
    largest entry is the off-diagonal's max.
    """
    k = alphas.size
    entries = np.zeros(4 * k - 1)  # the zero diagonal, then the off-diagonal
    off = entries[2 * k:]
    off[0::2], off[1::2] = alphas, betas
    w, vectors, info = _tridiagonal_eigenpairs(entries, (2 * k,), off.max())
    if info:
        raise np.linalg.LinAlgError(f"top singular triplet of the {k} x {k} bidiagonal "
                                    f"did not converge")
    return w[0], math.sqrt(2.0) * abs(vectors[0][-1])


def _top_singular_value(apply, apply_adjoint, start: np.ndarray, method: str) -> float:
    """||A|| = theta_1 by Golub-Kahan bidiagonalisation of A, given only
    apply(x) = A x and apply_adjoint(x) = A* x on vectors of start's dtype
    (Golub & Kahan, SIAM J. Numer. Anal. 2, 1965).  start is the unit first
    right vector v_1; the same start gives byte-identical runs.  A result of
    apply or apply_adjoint may be a buffer that the next call overwrites.

    Step k applies A and A* once each, reorthogonalises the new right vector
    against the whole right basis, and takes the top singular triplet (theta_1,
    y_1) of the k x k upper bidiagonal (`_top_ritz`); with V orthogonal it is
    accurate without a left basis (Simon & Zha, SIAM J. Sci. Comput. 21, 2000).
    Some singular value of A lies within the residual beta_k |e_k^T y_1| of
    theta_1.  The run stops when the residual is at most 2 eps theta_1, which
    also covers beta_k <= eps theta_1 (an invariant subspace).  A test on
    residual^2 / (theta_1 - theta_2) stops sooner but is fooled by a pair of
    close singular values that the Krylov space has not yet split, as repeated
    weights give.  By step n the Krylov space is the whole space, so a run that
    has not stopped by then raises ArithmeticError naming the method: no
    unconverged estimate is returned.
    """
    n = start.size
    eps = np.finfo(float).eps
    nrm2 = _lapack.dznrm2 if np.iscomplexobj(start) else _lapack.dnrm2
    # row k of vs is v_{k+1}, grown by doubling: a short run never allocates n rows
    vs = np.empty((min(n, 16), n), dtype=start.dtype)
    alphas, betas = np.empty(n), np.empty(n)  # diagonal and superdiagonal
    v = vs[0] = start
    p = apply(v)
    for k in range(1, n + 1):
        alpha = alphas[k - 1] = nrm2(p)
        # alpha = 0 (a rank-one Hankel matrix gives it at step 2): A maps the v's into
        # the u's so far, theta_1 is exact and y_1 ends in 0, so u_k = p = 0 gives beta_k = 0
        u = p / alpha if alpha else p
        r = apply_adjoint(u) - alpha * v
        r -= (vs[:k] @ r.conj()).conj() @ vs[:k]
        beta = betas[k - 1] = nrm2(r)
        theta, last = _top_ritz(alphas[:k], betas[:k - 1])
        if beta * last <= 2.0 * eps * theta:
            return theta
        if k == n:
            break
        if k == vs.shape[0]:
            vs = np.concatenate([vs, np.empty((min(k, n - k), n), dtype=vs.dtype)])
        v = vs[k] = r / beta
        p = apply(v) - beta * u
    raise ArithmeticError(f"{method} did not converge in {n} steps")


def _norm_of_inverse(diagonal: np.ndarray, weights: np.ndarray) -> float:
    """||T^{-1}|| of the nonsingular lower triangular T = diag(d) - L(a),
    where L(a) holds a_m at every (m, n) with n < m (T = zI - R for d = z - a),
    by Golub-Kahan bidiagonalisation of T^{-1} (inverse Lanczos,
    `_top_singular_value`).

    T is never formed.  With S_m = x_0 + ... + x_m, T x = b is the banded
    lower triangular system d_m x_m - a_m S_{m-1} = b_m, S_m - S_{m-1} - x_m
    = 0 in the unknowns interleaved as (x_0, S_0, x_1, S_1, ...), bandwidth 2.
    One ztbsv solves it in O(n): b goes into the even slots and x comes back
    from them.  The same band with trans=2 gives T^{-*} b exactly, since
    T^{-1} = P M^{-1} P* for the band M and P* putting b into the even slots.
    A solve that overflows raises ArithmeticError, as does a run that has
    not converged by step n.
    """
    n = diagonal.size
    # Fortran order: f2py copies a C-ordered band on every call
    band = np.zeros((3, 2 * n), dtype=complex, order="F")
    band[0, 0::2], band[0, 1::2] = diagonal, 1.0
    band[1, 0::2], band[1, 1:-1:2] = -1.0, -weights[1:]
    band[2, 1:-1:2] = -1.0
    # each solve overwrites the one right-hand side and returns its even slots
    rhs = np.empty(2 * n, dtype=complex)

    def solve(b: np.ndarray, trans: int) -> np.ndarray:
        rhs[0::2], rhs[1::2] = b, 0.0
        _lapack.ztbsv(2, band, rhs, lower=1, trans=trans, overwrite_x=1)
        if not math.isfinite(_lapack.dznrm2(rhs, n=n, incx=2)):
            raise ArithmeticError("sigma_min below the float range: a triangular solve "
                                  "overflowed")
        return rhs[0::2]

    return _top_singular_value(lambda b: solve(b, 0), lambda b: solve(b, 2),
                               _start_vector(n), "inverse Lanczos for sigma_min")


def smallest_singular_value(diagonal: np.ndarray, weights: np.ndarray | None = None) -> float:
    """sigma_min of T = diag(d) - L(a), where L(a) holds the weight a_m at
    every (m, n) with n < m; for d = z - a this is zI - R of a terraced R.

    Without weights T is the diagonal matrix diag(d), whose singular values
    are the moduli of its entries.  With weights, a d_m of exactly 0 gives
    0.0, and otherwise the result is 1 / ||T^{-1}|| by inverse Lanczos on
    banded O(n) solves (`_norm_of_inverse`), with no matrix formed.  It is
    within about 2 eps relative of the exact sigma_min of the system the
    solves see, so within the Weyl bound dim eps ||T|| of a dense SVD.  A
    diagonal that is not 1-D, or weights of another shape, are refused
    (ValueError)."""
    diagonal = np.asarray(diagonal)
    if diagonal.ndim != 1:
        raise ValueError(f"sigma_min needs a 1-D diagonal, got shape {diagonal.shape}")
    if weights is None:
        return float(np.min(np.abs(diagonal)))
    if np.shape(weights) != diagonal.shape:
        raise ValueError(f"weights of shape {np.shape(weights)} do not match the diagonal's "
                         f"{diagonal.shape}")
    if not diagonal.all():
        return 0.0
    return 1.0 / _norm_of_inverse(diagonal, np.asarray(weights))


def hankel_norm(op: HankelMomentOperator) -> float:
    """||H_N|| of a Hankel moment truncation, by Golub-Kahan bidiagonalisation
    on `hankel_apply` with no matrix formed (`_top_singular_value`).

    The real symmetric H_N is its own adjoint, so one apply serves both
    sides, and the start is the normalised real part of `_start_vector`:
    the run stays in float64 and repeated runs are byte-identical.  The
    result is within a few ulps of the largest |eigenvalue| of the dense
    matrix; each step costs two O(N log N) applies.
    """
    start = _start_vector(op.dim).real
    apply = lambda x: hankel_apply(op, x)
    return _top_singular_value(apply, apply, start / np.linalg.norm(start),
                               "Lanczos for the Hankel norm")


def pseudospectrum_grid(op, window: tuple[float, float, float, float],
                        resolution: int, dim: int) -> PseudospectrumGrid:
    """Evaluate sigma_min(z I - A_dim) on a resolution x resolution grid over
    the window (re0, re1, im0, im1); rows follow im_axis, columns re_axis.
    dim must equal the operator's dim.
    A terraced A = R takes one inverse Lanczos run per point on its weights
    a: zI - R = diag(z - a) - L(a), solved banded with no matrix formed and
    no dense limit.  A Hankel A = Q diag(lam) Q* takes one eigvalsh of its
    dense matrix per grid: the unitary Q keeps sigma_min = min |z - lam|.
    Any other operator is refused (ValueError)."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if not isinstance(op, (TerracedOperator, HankelMomentOperator)):
        raise ValueError(f"pseudospectra need a terraced or Hankel operator, "
                         f"got {type(op).__name__}")
    if op.dim != dim:
        raise ValueError(f"dim {dim} does not match the operator's dimension {op.dim}")
    re0, re1, im0, im1 = window
    re_axis = np.linspace(re0, re1, resolution)
    im_axis = np.linspace(im0, im1, resolution)
    if isinstance(op, TerracedOperator):
        a = op.row_weights()
        point = lambda z: (z - a, a)
    else:
        lam = np.linalg.eigvalsh(op.dense())
        point = lambda z: (z - lam, None)
    # one call per grid point on both paths: perfbench times sigma_min per point
    values = [smallest_singular_value(*point(complex(re, im)))
              for im in im_axis for re in re_axis]
    grid = np.array(values).reshape(resolution, resolution)
    return PseudospectrumGrid(re_axis=re_axis, im_axis=im_axis, sigma_min=grid)
