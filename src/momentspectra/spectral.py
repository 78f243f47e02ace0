"""Point-spectrum classification, eigenvector construction, and spectral regions.

For a terraced operator built from the moments (mu_n) of a positive measure
on [0,1), the k-th moment is an eigenvalue exactly when the sequence
mu_n * exp(s_n / mu_k) is square-summable, where s_n are the moment partial
sums.  With s_n ~ beta*log n the test term behaves like mu_n * n^(beta/mu_k),
so membership reduces to a power-law exponent threshold at -1/2; bounded
partial sums make every moment an eigenvalue.  The adjoint's point spectrum
contains the open disc centered at beta with radius beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import GrowthEstimate, MomentSequence, fit_line
from .operators import (
    VERDICT_COMPACT,
    TerracedOperator,
    WeightSequence,
    dense,
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
#: a fitted slope must clear -1/2 by this margin for a NumericFit verdict
L2_MARGIN = 0.1
#: growth fits with rms residual below this support the analytic path
ANALYTIC_GROWTH_RESIDUAL = 1e-3
#: eigenvector recurrence guard
RECURRENCE_GAP_FLOOR = 1e-14
OVERFLOW_GUARD = 1e150


class DuplicateMomentsError(ValueError):
    """Moments are not pairwise distinct; the eigenvector recurrence degenerates."""


class DegenerateAtZeroError(ValueError):
    """All mass sits at 0: every moment past the first vanishes."""


class HypothesesNotMetError(ValueError):
    """Weights are not positive/distinct or no weight limit exists."""


@dataclass(frozen=True)
class ClassificationVerdict:
    verdict: str
    slope: float | None
    method: str


@dataclass(frozen=True, eq=False)
class SpectralRegion:
    """A point set plus an optional closed disc |z - c| <= c on the real axis."""

    points: np.ndarray
    disc_center: float | None = None
    disc_radius: float | None = None


@dataclass(frozen=True, eq=False)
class Eigenvector:
    """Truncated eigenvector; values may carry a factored-out log scale."""

    values: np.ndarray
    log_scale: float = 0.0


def _active_length(values: np.ndarray) -> int:
    """Length of the strictly positive prefix; the rest must be an all-zero
    underflow tail."""
    if np.any(values < 0.0):
        raise ValueError("moments must be nonnegative")
    positive = values > 0.0
    if positive.all():
        return values.size
    first_zero = int(np.argmin(positive))
    if np.any(values[first_zero:] > 0.0):
        raise ValueError("moments must be nonincreasing: zero entry before a positive one")
    return first_zero


def _validate_moments(ms: MomentSequence) -> int:
    if ms.degenerate:
        raise DegenerateAtZeroError(
            "measure concentrated at 0: moments vanish past index 0"
        )
    active = _active_length(ms.values)
    if active < 2:
        raise ValueError("need at least two positive moments")
    vals = ms.values[:active]
    gaps = vals[:-1] - vals[1:]
    if np.any(gaps <= DISTINCT_REL_GAP * vals[:-1]):
        bad = int(np.argmax(gaps <= DISTINCT_REL_GAP * vals[:-1]))
        raise DuplicateMomentsError(
            f"moments {bad} and {bad + 1} coincide within relative gap {DISTINCT_REL_GAP}"
        )
    return active


def _tail_window(n_terms: int) -> np.ndarray:
    return np.arange(n_terms // 2, n_terms)


def _numeric_term_slope(ms: MomentSequence, k: int, active: int) -> float | None:
    """LS slope of log(mu_n exp(s_n/mu_k)) against log(n+1) over the tail
    window, restricted to entries with finite logs."""
    idx = _tail_window(ms.n_terms)
    idx = idx[idx < active]
    if idx.size < 8:
        return None
    x = np.log(idx + 1.0)
    y = np.log(ms.values[idx]) + ms.partial_sums[idx] / ms.values[k]
    slope, _, _ = fit_line(x, y)
    return slope


def classify_eigenvalue(ms: MomentSequence, growth: GrowthEstimate, k: int,
                        method: str = "auto") -> ClassificationVerdict:
    """Decide whether the k-th moment is an eigenvalue of the terraced operator.

    The analytic path uses the growth fit: bounded partial sums give InL2
    outright; with s_n ~ beta*log n the test term is a power law whose
    exponent p + beta/mu_k is compared against -1/2 (p fitted from the
    moment decay).  The numeric path fits the test term's log-log slope
    directly and returns Inconclusive within L2_MARGIN of -1/2.
    """
    if method not in ("auto", "analytic", "numeric"):
        raise ValueError(f"unknown classification method {method!r}")
    if not 0 <= k < ms.n_terms:
        raise ValueError(f"eigenvalue index {k} out of range")
    active = _validate_moments(ms)
    if k >= active:
        raise ValueError(f"moment {k} underflowed to zero; choose a smaller index")

    analytic_ok = growth.bounded or growth.fit_residual < ANALYTIC_GROWTH_RESIDUAL
    use_analytic = method == "analytic" or (method == "auto" and analytic_ok)

    if use_analytic:
        if growth.bounded:
            # summable moments: the exponential factor is bounded and the
            # moment sequence itself is square-summable
            slope = _numeric_term_slope(ms, k, active)
            return ClassificationVerdict(IN_L2, slope, ANALYTIC)
        idx = _tail_window(ms.n_terms)
        idx = idx[idx < active]
        p, _, _ = fit_line(np.log(idx + 1.0), np.log(ms.values[idx]))
        exponent = p + growth.beta / float(ms.values[k])
        verdict = IN_L2 if exponent < -0.5 else NOT_IN_L2
        return ClassificationVerdict(verdict, float(exponent), ANALYTIC)

    slope = _numeric_term_slope(ms, k, active)
    if slope is None:
        return ClassificationVerdict(INCONCLUSIVE, None, NUMERIC_FIT)
    if slope < -0.5 - L2_MARGIN:
        return ClassificationVerdict(IN_L2, float(slope), NUMERIC_FIT)
    if slope > -0.5 + L2_MARGIN:
        return ClassificationVerdict(NOT_IN_L2, float(slope), NUMERIC_FIT)
    return ClassificationVerdict(INCONCLUSIVE, float(slope), NUMERIC_FIT)


def eigenvector(ms: MomentSequence, k: int, dim: int) -> Eigenvector:
    """Eigenvector for the k-th moment: zeros below k, x_k = 1, then
    x_{n+1} = mu_{n+1} mu_k / (mu_n (mu_k - mu_{n+1})) x_n.

    Renormalizes when entries exceed the overflow guard, accumulating the
    factored scale in log_scale.
    """
    active = _validate_moments(ms)
    if not 0 <= k < dim:
        raise ValueError(f"index {k} out of range for dim {dim}")
    if ms.values.size < dim:
        raise ValueError(f"need {dim} moments, have {ms.values.size}")
    if active < dim:
        raise ValueError(
            f"moments underflow to zero at index {active}; the recurrence needs dim <= {active}"
        )
    mu = ms.values[:dim]
    mu_k = float(mu[k])
    gap = mu_k - mu[k + 1:]
    small = np.abs(gap) < RECURRENCE_GAP_FLOOR
    if small.any():
        raise ZeroDivisionError(
            f"recurrence blow-up: |mu_{k} - mu_{k + 1 + int(np.argmax(small))}| "
            f"< {RECURRENCE_GAP_FLOOR}"
        )
    ratio = mu[k + 1:] * mu_k / (mu[k:-1] * gap)
    x = np.zeros(dim)
    x[k] = 1.0
    log_scale = 0.0
    start = k
    while start < dim - 1:
        # x[start] is exactly 1 or -1 (x_k, or an entry divided by its own
        # modulus), so scaling the running product by it repeats the
        # one-entry-at-a-time recurrence bit for bit.  Entries past the first
        # one above the guard may overflow (inf, or inf * 0 = nan against an
        # underflowed ratio); they are discarded and redone from there
        with np.errstate(over="ignore", invalid="ignore"):
            segment = np.cumprod(ratio[start - k:]) * x[start]
        above = np.flatnonzero(np.abs(segment) > OVERFLOW_GUARD)
        if above.size == 0:
            x[start + 1:] = segment
            break
        end = start + 1 + int(above[0])
        x[start + 1:end + 1] = segment[:above[0] + 1]
        factor = abs(x[end])
        x[:end + 1] /= factor
        log_scale += float(np.log(factor))
        start = end
    return Eigenvector(values=x, log_scale=log_scale)


def eigenvector_residual(ms: MomentSequence, k: int, dim: int,
                         embed_factor: int = 1) -> float:
    """Relative residual ||R x - mu_k x|| / ||x|| of the truncated eigenvector.

    embed_factor > 1 pads the vector with zeros and applies the operator at
    the larger truncation, so the residual also sees the rows the smaller
    truncation would cut off.
    """
    if embed_factor < 1:
        raise ValueError("embed_factor must be at least 1")
    big = embed_factor * dim
    if ms.values.size < big:
        raise ValueError(f"need {big} moments for the embedded residual")
    vec = eigenvector(ms, k, dim)
    x = np.zeros(big)
    x[:dim] = vec.values
    op = TerracedOperator(WeightSequence.from_moments(ms), big)
    r = terraced_apply(op, x) - ms.values[k] * x
    return float(np.linalg.norm(r) / np.linalg.norm(x))


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
    op = TerracedOperator(WeightSequence.from_moments(ms), dim)
    r = terraced_apply_adjoint(op, x) - x / nu
    return float(np.linalg.norm(r) / np.linalg.norm(x))


def adjoint_disc(growth: GrowthEstimate) -> SpectralRegion | None:
    """Largest disc guaranteed inside the adjoint's point spectrum.

    With s_n ~ beta*log n the summability condition exp(-(1+eps)*gamma*s_n)
    in l^1 holds exactly for gamma >= 1/beta, so the best disc has center
    and radius beta.  Bounded partial sums admit no such gamma: None.
    """
    if growth.bounded or growth.beta <= 0.0:
        return None
    return SpectralRegion(
        points=np.array([], dtype=complex),
        disc_center=float(growth.beta),
        disc_radius=float(growth.beta),
    )


def spectrum_region(weights: WeightSequence, report) -> SpectralRegion:
    """Predicted spectrum of a terraced operator with positive distinct
    weights converging to a limit L: the weights plus the closed disc
    |z - L| <= L; L = 0 degenerates to the weights plus {0}."""
    vals = weights.values
    if np.any(vals <= 0.0):
        raise HypothesesNotMetError("weights must be real and positive")
    desc = np.sort(vals)[::-1]
    gaps = desc[:-1] - desc[1:]
    if np.any(gaps <= DISTINCT_REL_GAP * desc[:-1]):
        raise HypothesesNotMetError("weights must be pairwise distinct")
    if report.limit_estimate is None:
        raise HypothesesNotMetError("no limit of (n+1) a_n was witnessed")
    if report.verdict == VERDICT_COMPACT:
        return SpectralRegion(points=np.append(vals, 0.0))
    limit = float(report.limit_estimate)
    return SpectralRegion(points=vals, disc_center=limit, disc_radius=limit)


# --------------------------------------------------------------------------
# pseudospectrum

@dataclass(frozen=True, eq=False)
class PseudospectrumGrid:
    """sigma_min(z I - A) sampled on a rectangular grid; sigma_min is indexed
    [imag, real] and the CSV layout iterates the real axis fastest."""

    re_axis: np.ndarray
    im_axis: np.ndarray
    sigma_min: np.ndarray


def smallest_singular_value(matrix: np.ndarray) -> float:
    """sigma_min of a square matrix by a full SVD, exact to rounding at every
    dim.  A 1-D argument is read as the diagonal of a diagonal matrix, whose
    singular values are the moduli of its entries."""
    if matrix.ndim == 1:
        return float(np.min(np.abs(matrix)))
    return float(np.linalg.svd(matrix, compute_uv=False)[-1])


def pseudospectrum_grid(op, window: tuple[float, float, float, float],
                        resolution: int, dim: int) -> PseudospectrumGrid:
    """Evaluate sigma_min(z I - A_dim) on a resolution x resolution grid over
    the window (re0, re1, im0, im1); rows follow im_axis, columns re_axis.
    dim must equal the side of A's dense matrix.
    A Hermitian A = Q diag(lam) Q* (Hankel) takes one eigvalsh per grid: the
    unitary Q keeps sigma_min = min |z - lam|.  Others (terraced) take an SVD per point."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    re0, re1, im0, im1 = window
    re_axis = np.linspace(re0, re1, resolution)
    im_axis = np.linspace(im0, im1, resolution)
    matrix = dense(op)
    if matrix.shape[0] != dim:
        raise ValueError(f"dim {dim} does not match the operator's dimension {matrix.shape[0]}")
    if np.array_equal(matrix, matrix.conj().T):
        lam = np.linalg.eigvalsh(matrix)
        shifted = lambda z: z - lam
    else:
        identity = np.eye(dim, dtype=complex)
        shifted = lambda z: z * identity - matrix
    # one call per grid point on both paths: perfbench times sigma_min per point
    values = [smallest_singular_value(shifted(complex(re, im)))
              for im in im_axis for re in re_axis]
    grid = np.array(values).reshape(resolution, resolution)
    return PseudospectrumGrid(re_axis=re_axis, im_axis=im_axis, sigma_min=grid)
