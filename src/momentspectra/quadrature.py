"""Adaptive Gauss-Legendre integration of a vectorized scalar integrand over [0, 1].

`invariance` imports it, and `measures` inside `_density_moments`: a CLI
process loads it, and numpy.polynomial, only for `moments --quadrature`,
`invariance` or `hilbert`."""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss


class QuadratureError(ArithmeticError):
    """Requested tolerance was not reached, or the integrand was not finite."""


# the 15-point Gauss-Legendre nodes and weights on [-1, 1]
_NODES, _WEIGHTS = leggauss(15)
# bisections per integrate call: bounds the work an unreachable tolerance can cost
MAX_PANELS = 4096
# a tol below this many eps times |first panel estimate| is under the
# rounding of the panel sums themselves, so no bisection can certify it
TOL_FLOOR_EPS = 4
# bisection depth: keeps the recursion within Python's limit, and below
# 2**-52 of the interval halving gains nothing in double precision
_MAX_DEPTH = 52


def _panel(f, a: float, b: float):
    mid = 0.5 * (a + b)
    rad = 0.5 * (b - a)
    # an overflow (inf, or inf * 0 = nan) is refused here rather than summed
    with np.errstate(over="ignore", invalid="ignore"):
        values = f(mid + rad * _NODES)
    if not np.all(np.isfinite(values)):
        raise QuadratureError("adaptive quadrature integrand is not finite")
    return rad * (values @ _WEIGHTS)


def _refine(f, a, b, whole, tol, depth, splits):
    mid = 0.5 * (a + b)
    left = _panel(f, a, mid)
    right = _panel(f, mid, b)
    splits[0] += 1
    err = abs(whole - left - right)
    if err <= tol or depth <= 0 or splits[0] >= MAX_PANELS:
        return left + right, err
    lv, lb = _refine(f, a, mid, left, 0.5 * tol, depth - 1, splits)
    rv, rb = _refine(f, mid, b, right, 0.5 * tol, depth - 1, splits)
    return lv + rv, lb + rb


def integrate(f, tol: float):
    """Integrate a vectorized integrand over [0, 1] to absolute tolerance tol.

    f maps an array of nodes to its values.  A panel is bisected while the
    discrepancy between it and the sum of its halves exceeds the panel's
    share of tol, and the summed discrepancies are the error bound.
    Refinement stops after MAX_PANELS bisections; a tol below TOL_FLOOR_EPS
    eps times |first panel estimate| is refused before any.  Returns (value,
    error_bound).  Raises QuadratureError on a bound above tol, or on any
    value of f that is not finite.
    """
    whole = _panel(f, 0.0, 1.0)
    floor = TOL_FLOOR_EPS * np.finfo(float).eps * abs(whole)
    if tol < floor:
        raise QuadratureError(f"adaptive quadrature stalled before refining: tol {tol:.3e} is "
                              f"below the rounding floor {floor:.3e} ({TOL_FLOOR_EPS} eps |value|)")
    value, bound = _refine(f, 0.0, 1.0, whole, tol, _MAX_DEPTH, [0])
    if bound > tol:
        raise QuadratureError(
            f"adaptive quadrature stalled at error bound {bound:.3e} (tol {tol:.3e})")
    return value, bound


def fixed_gauss_legendre_01(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the order-point Gauss-Legendre rule on [0, 1].

    Exact for polynomials of degree <= 2*order - 1.
    """
    x, w = leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w
