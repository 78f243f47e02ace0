"""Adaptive Gauss-Legendre integration on finite intervals."""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss


class QuadratureError(RuntimeError):
    """Requested tolerance was not reached; carries the achieved bound."""

    def __init__(self, message: str, achieved_bound: float):
        super().__init__(message)
        self.achieved_bound = achieved_bound


_ORDER = 15
_NODES, _WEIGHTS = leggauss(_ORDER)
# bisections per integral: bounds the work an unreachable tolerance can cost
MAX_PANELS = 4096
# a tol below this many eps times |first panel estimate| is under the
# rounding of the panel sums themselves, so no bisection can certify it
TOL_FLOOR_EPS = 4
# bisection depth: keeps the recursion within Python's limit where the budget
# alone would not (a slow decay such as power(0.001) near 0), and below
# 2**-52 of the interval halving gains nothing in double precision
_MAX_DEPTH = 52


def _panel(f, a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    rad = 0.5 * (b - a)
    return rad * float(np.sum(_WEIGHTS * f(mid + rad * _NODES)))


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


def integrate(f, a: float, b: float, tol: float = 1e-13) -> tuple[float, float]:
    """Integrate a vectorized callable over [a, b] to absolute tolerance tol.

    Panels are bisected until the discrepancy between a panel estimate and
    the sum of its halves drops below the panel's share of the tolerance;
    accumulated discrepancies form the reported error bound.  Refinement
    stops after MAX_PANELS bisections, so an unreachable tol costs bounded
    work, and a tol below TOL_FLOOR_EPS eps |first panel estimate| is
    refused before any bisection.

    Returns (value, error_bound).  Raises QuadratureError when the bound
    cannot be pushed below tol within that budget; the exception reports
    the achieved bound (the rounding floor when tol is refused up front).
    """
    if b <= a:
        return 0.0, 0.0
    whole = _panel(f, a, b)
    floor = TOL_FLOOR_EPS * np.finfo(float).eps * abs(whole)
    if tol < floor:
        raise QuadratureError(
            f"adaptive quadrature stalled before refining: tol {tol:.3e} is below the "
            f"rounding floor {floor:.3e} ({TOL_FLOOR_EPS} eps |value|)",
            floor,
        )
    value, bound = _refine(f, a, b, whole, tol, _MAX_DEPTH, [0])
    if bound > tol:
        raise QuadratureError(
            f"adaptive quadrature stalled at error bound {bound:.3e} (tol {tol:.3e})",
            bound,
        )
    return value, bound


def fixed_gauss_legendre_01(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the order-point Gauss-Legendre rule on [0, 1].

    Exact for polynomials of degree <= 2*order - 1.
    """
    x, w = leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w
