"""Structured operator kernels: terraced (Rhaly) and Hankel-moment truncations.

A terraced matrix has constant rows below the diagonal, entry (m, n) = a_m
for n <= m; applying it reduces to one prefix-sum pass.  A Hankel moment
matrix has entry (m, n) = mu_{m+n}; applying it is a convolution of the
real moments with the reversed vector.  Above a size threshold that
convolution is circular, on numpy's real FFT at the smallest 5-smooth
length L >= 2N-1: the wrap-around lands only in entries the apply discards.
A real vector gives a real result for both families.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .measures import MomentSequence

#: largest dimension materialized as a dense matrix
DENSE_LIMIT = 8192
#: below this size a direct Hankel multiply beats the FFT path
FFT_THRESHOLD = 64

def check_dense_limit(side: int) -> None:
    """Refuse a side x side dense matrix above DENSE_LIMIT, before allocating it."""
    if side > DENSE_LIMIT:
        raise ValueError(f"dim {side} exceeds dense limit {DENSE_LIMIT}")


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
    """Row weights a_n of a terraced matrix: one real, finite float64 vector,
    such as the moments of a positive measure; Cesaro's 1/(n+1) are those of
    Lebesgue measure.  A complex array is refused, not cast, and so is an
    infinite or nan weight."""

    values: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.values):
            raise ValueError("weights must be real, got a complex array")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("weight sequence must be a nonempty vector")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("weights must be finite")

    @classmethod
    def cesaro(cls, n: int) -> "WeightSequence":
        return cls(1.0 / (np.arange(n) + 1.0))


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

    def dense(self) -> np.ndarray:
        check_dense_limit(self.dim)
        a = self.row_weights()
        return np.tril(np.ones((self.dim, self.dim))) * a[:, None]


@dataclass(frozen=True, eq=False)
class HankelMomentOperator:
    """Truncation of the Hankel matrix (mu_{m+n}) of a moment sequence.  The
    moments are one real float64 vector; a complex array is refused, not
    cast, so the dense matrix is real symmetric."""

    moments: np.ndarray
    dim: int

    def __post_init__(self):
        if np.iscomplexobj(self.moments):
            raise ValueError("Hankel moments must be real, got a complex array")
        object.__setattr__(self, "moments", np.asarray(self.moments, dtype=np.float64))
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if self.moments.ndim != 1 or self.moments.size < 2 * self.dim - 1:
            raise ValueError(f"need at least {2 * self.dim - 1} moments for dim {self.dim}")

    @classmethod
    def from_moments(cls, ms: MomentSequence, dim: int) -> "HankelMomentOperator":
        return cls(ms.values, dim)

    def dense(self) -> np.ndarray:
        check_dense_limit(self.dim)
        idx = np.add.outer(np.arange(self.dim), np.arange(self.dim))
        return self.moments[idx]

    @cached_property
    def _moment_spectrum(self) -> np.ndarray:
        """rfft of mu[:2N-1] at the FFT path's length, computed once per
        operator: every `hankel_apply` on it reuses the spectrum."""
        length = _fast_len(2 * self.dim - 1)
        return np.fft.rfft(self.moments[: 2 * self.dim - 1], length)


def terraced_apply(op: TerracedOperator, x: np.ndarray) -> np.ndarray:
    """y_n = a_n * sum(x[:n+1]); one prefix-sum pass, left-to-right order.
    A real x gives a real result."""
    x = np.asarray(x)
    if x.shape != (op.dim,):
        raise ValueError(f"expected a vector of length {op.dim}, got {x.shape}")
    return op.row_weights() * prefix_sums(x)


def terraced_apply_adjoint(op: TerracedOperator, x: np.ndarray) -> np.ndarray:
    """y_m = sum(a_k x_k for k >= m): the transpose of the real terraced
    matrix, which is its adjoint; one suffix-sum pass, right to left."""
    x = np.asarray(x)
    if x.shape != (op.dim,):
        raise ValueError(f"expected a vector of length {op.dim}, got {x.shape}")
    return suffix_sums(op.row_weights() * x)


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n, for n >= 1: a length numpy's FFT
    factors into radix-2, 3 and 5 passes."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # the least power-of-two multiple of odd that reaches n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def hankel_apply(op: HankelMomentOperator, x: np.ndarray) -> np.ndarray:
    """y_m = sum(mu_{m+n} x_n), m < N; a real x gives a float64 result, a
    complex x a complex one.

    Below FFT_THRESHOLD the product is direct.  Above it y is entries
    N-1..2N-2 of the convolution of mu[:2N-1] with reversed x, taken
    circularly by rfft/irfft at the length L = _fast_len(2N-1), against the
    moments' spectrum the operator computes once.  The linear
    convolution has 3N-2 entries, so wrap-around adds entry j + L into entry
    j only for j <= 3N-3-L <= N-2, below the entries kept.  A complex x is
    split into its real and imaginary parts, transformed as one batch.
    """
    x = np.asarray(x)
    n = op.dim
    if x.shape != (n,):
        raise ValueError(f"expected a vector of length {n}, got {x.shape}")
    if n < FFT_THRESHOLD:
        mu = op.moments[: 2 * n - 1]
        return np.lib.stride_tricks.sliding_window_view(mu, n) @ x
    length = _fast_len(2 * n - 1)
    parts = np.stack((x.real, x.imag)) if np.iscomplexobj(x) else x
    spectrum = op._moment_spectrum * np.fft.rfft(parts[..., ::-1], length)
    y = np.fft.irfft(spectrum, length)[..., n - 1 : 2 * n - 1]
    return y[0] + 1j * y[1] if y.ndim == 2 else y
