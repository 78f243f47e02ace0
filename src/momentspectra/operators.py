"""Structured operator kernels: terraced (Rhaly) and Hankel-moment truncations.

A terraced matrix has constant rows below the diagonal, entry (m, n) = a_m
for n <= m; applying it reduces to one prefix-sum pass.  A Hankel moment
matrix has entry (m, n) = mu_{m+n}; applying it is a convolution, done via
an FFT circulant embedding above a size threshold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .measures import MomentSequence

#: largest dimension materialized as a dense matrix
DENSE_LIMIT = 8192
#: below this size a direct Hankel multiply beats the FFT path
FFT_THRESHOLD = 64

VERDICT_BOUNDED = "Bounded"
VERDICT_COMPACT = "CompactIndicated"
VERDICT_INAPPLICABLE = "TestInapplicable"

#: tail-window oscillation below this fraction of the sup reports a limit
LIMIT_OSCILLATION_TOL = 1e-3


class DimensionMismatchError(ValueError):
    pass


class InsufficientMomentsError(ValueError):
    pass


class DenseLimitError(ValueError):
    pass


def check_dense_limit(side: int, limit: int = DENSE_LIMIT) -> None:
    """Refuse a side x side dense matrix above the limit, before allocating it."""
    if side > limit:
        raise DenseLimitError(f"dim {side} exceeds dense limit {limit}")


def prefix_sums(x: np.ndarray) -> np.ndarray:
    """Running sums of x, accumulated left to right in the dtype of x.

    Recursive summation: entry i errs by at most (i+1) eps sum|x[:i+1]|
    per component, the bound the dense product is held to as well.
    """
    return np.cumsum(x)


def suffix_sums(x: np.ndarray) -> np.ndarray:
    """Running sums of x accumulated right to left: out[m] = sum(x[m:])."""
    return prefix_sums(x[::-1])[::-1]


@dataclass(frozen=True, eq=False)
class WeightSequence:
    """Row weights a_n of a terraced matrix: one real float64 vector, as for
    moments of a positive measure and the Cesaro, power-law and Leibowitz
    families.  A complex array is refused, not cast."""

    values: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.values):
            raise ValueError("weights must be real, got a complex array")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("weight sequence must be a nonempty vector")

    @classmethod
    def cesaro(cls, n: int) -> "WeightSequence":
        return cls(1.0 / (np.arange(n) + 1.0))

    @classmethod
    def power_law(cls, s: float, n: int) -> "WeightSequence":
        return cls(np.power(np.arange(n) + 1.0, -s))

    @classmethod
    def leibowitz_squares(cls, n: int) -> "WeightSequence":
        # n^(-7/8) at perfect squares, 0 otherwise; index 0 maps to 0
        vals = np.zeros(n)
        k = 1
        while k * k < n:
            vals[k * k] = float(k * k) ** -0.875
            k += 1
        return cls(vals)

    @classmethod
    def from_moments(cls, ms: MomentSequence) -> "WeightSequence":
        return cls(ms.values)


@dataclass(frozen=True, eq=False)
class TerracedOperator:
    """Truncation of the terraced matrix built from a weight sequence."""

    weights: WeightSequence
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if self.weights.values.size < self.dim:
            raise ValueError("weight sequence shorter than the requested dimension")

    def row_weights(self) -> np.ndarray:
        return self.weights.values[: self.dim]

    def dense(self, limit: int = DENSE_LIMIT) -> np.ndarray:
        check_dense_limit(self.dim, limit)
        a = self.row_weights()
        return np.tril(np.ones((self.dim, self.dim))) * a[:, None]


@dataclass(frozen=True, eq=False)
class HankelMomentOperator:
    """Truncation of the Hankel matrix (mu_{m+n}) of a moment sequence."""

    moments: np.ndarray
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if self.moments.ndim != 1 or self.moments.size < 2 * self.dim - 1:
            raise InsufficientMomentsError(
                f"need at least {2 * self.dim - 1} moments for dim {self.dim}"
            )

    @classmethod
    def from_moments(cls, ms: MomentSequence, dim: int) -> "HankelMomentOperator":
        return cls(np.asarray(ms.values, dtype=float), dim)

    def dense(self, limit: int = DENSE_LIMIT) -> np.ndarray:
        check_dense_limit(self.dim, limit)
        idx = np.add.outer(np.arange(self.dim), np.arange(self.dim))
        return np.asarray(self.moments)[idx]


def terraced_apply(op: TerracedOperator, x: np.ndarray) -> np.ndarray:
    """y_n = a_n * sum(x[:n+1]); one prefix-sum pass, left-to-right order."""
    x = np.asarray(x)
    if x.shape != (op.dim,):
        raise DimensionMismatchError(f"expected a vector of length {op.dim}, got {x.shape}")
    return op.row_weights() * prefix_sums(x.astype(complex))


def terraced_apply_adjoint(op: TerracedOperator, x: np.ndarray) -> np.ndarray:
    """y_m = sum(a_k x_k for k >= m): the transpose of the real terraced
    matrix, which is its adjoint; one suffix-sum pass, right to left."""
    x = np.asarray(x)
    if x.shape != (op.dim,):
        raise DimensionMismatchError(f"expected a vector of length {op.dim}, got {x.shape}")
    return suffix_sums(op.row_weights() * x.astype(complex))


def hankel_apply(op: HankelMomentOperator, x: np.ndarray) -> np.ndarray:
    """y_m = sum(mu_{m+n} x_n); FFT convolution above the size threshold."""
    x = np.asarray(x)
    n = op.dim
    if x.shape != (n,):
        raise DimensionMismatchError(f"expected a vector of length {n}, got {x.shape}")
    mu = np.asarray(op.moments)[: 2 * n - 1]
    xc = x.astype(complex)
    if n < FFT_THRESHOLD:
        windows = np.lib.stride_tricks.sliding_window_view(mu, n)
        return windows @ xc
    length = scipy.fft.next_fast_len(3 * n - 2)
    conv = scipy.fft.ifft(scipy.fft.fft(mu, length) * scipy.fft.fft(xc[::-1], length))
    y = conv[n - 1 : 2 * n - 1]
    if np.isrealobj(mu) and np.isrealobj(x):
        return y.real.astype(complex)
    return y


def dense(op, limit: int = DENSE_LIMIT) -> np.ndarray:
    """Dense materialization of a structured operator (or a matrix as-is)."""
    if isinstance(op, (TerracedOperator, HankelMomentOperator)):
        return op.dense(limit)
    m = np.asarray(op)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    check_dense_limit(m.shape[0], limit)
    return m


@dataclass(frozen=True)
class BoundednessReport:
    """Diagnostics from the (n+1)|a_n| boundedness test.

    sup_weight is the observed sup of (n+1)|a_n|.  limit_estimate is the
    tail-window mean when the window oscillation is small enough to witness
    a limit, else None.  rhaly_norm_bound = sup_weight + sup sqrt(n(n+1))|a_n|
    is reported whenever the test applies.  Verdicts: Bounded when the sup
    stays finite over the window, CompactIndicated when the limit is
    indistinguishable from zero, TestInapplicable when the sup is still
    growing through the tail window.
    """

    sup_weight: float
    limit_estimate: float | None
    rhaly_norm_bound: float | None
    verdict: str


def boundedness_report(weights: WeightSequence, n_terms: int) -> BoundednessReport:
    if n_terms < 64:
        raise ValueError("boundedness test needs at least 64 weights")
    a = weights.values[:n_terms]
    if a.size < n_terms:
        raise ValueError("weight sequence shorter than n_terms")
    n = np.arange(n_terms)
    w = (n + 1.0) * np.abs(a)
    sup_weight = float(w.max())
    norm_bound = sup_weight + float(np.max(np.sqrt(n * (n + 1.0)) * np.abs(a)))
    if sup_weight == 0.0:
        return BoundednessReport(0.0, 0.0, norm_bound, VERDICT_COMPACT)
    half = n_terms // 2
    tail = w[half:]
    oscillation = float(tail.max() - tail.min())
    if oscillation < LIMIT_OSCILLATION_TOL * sup_weight:
        limit = float(tail.mean())
        if limit <= LIMIT_OSCILLATION_TOL * sup_weight:
            return BoundednessReport(sup_weight, limit, norm_bound, VERDICT_COMPACT)
        return BoundednessReport(sup_weight, limit, norm_bound, VERDICT_BOUNDED)
    # no limit witnessed: a tail sup still above the head sup indicates growth
    if float(tail.max()) > float(w[:half].max()):
        return BoundednessReport(sup_weight, None, None, VERDICT_INAPPLICABLE)
    return BoundednessReport(sup_weight, None, norm_bound, VERDICT_BOUNDED)


def benchmark_apply(kernel: str, dim: int, repeats: int = 5) -> dict:
    """Time one structured or dense apply; returns {dim, kernel, ns_per_apply}.

    Kernels: terraced (Cesaro weights), hankel (Hilbert moments) and their
    -dense variants, all applied to one fixed random complex x.  A -dense
    variant builds the real matrix once with the operator's dense() and times
    only its products with the real and imaginary parts of x: no cast is timed.
    """
    rng = np.random.default_rng(0)
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    xr, xi = x.real.copy(), x.imag.copy()
    if kernel in ("terraced", "terraced-dense"):
        op, apply = TerracedOperator(WeightSequence.cesaro(dim), dim), terraced_apply
    elif kernel in ("hankel", "hankel-dense"):
        op, apply = HankelMomentOperator(1.0 / (np.arange(2 * dim - 1) + 1.0), dim), hankel_apply
    else:
        raise ValueError(f"unknown benchmark kernel {kernel!r}")
    if kernel.endswith("-dense"):
        mat = op.dense(limit=max(DENSE_LIMIT, dim))
        fn = lambda: mat @ xr + 1j * (mat @ xi)
    else:
        fn = lambda: apply(op, x)
    fn()  # warm up
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    elapsed = (time.perf_counter() - start) / repeats
    return {"dim": dim, "kernel": kernel, "ns_per_apply": int(elapsed * 1e9)}
