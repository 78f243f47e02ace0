"""Measure specifications, their moment sequences, and their octave ladders.

A measure on [0,1) is written in a small mini-language:

    spec  := term ('+' term)*
    term  := (number '*')? atom
    atom  := 'dirac' '(' number ')'
           | 'lebesgue' [ '(' number ')' ]
           | 'power' '(' number ')'
           | 'logpower' '(' number ')'

Numbers are unsigned decimal literals, whitespace is insignificant, and
'lebesgue' defaults to the full interval (r = 1).  One regular expression
tokenises the text and one loop walks the grammar.  Examples:

    dirac(0.5)                point mass at 1/2
    dirac(0)+0.5*lebesgue     unit atom at 0 plus half the uniform density
    power(2)                  density t^2 dt
    logpower(3)               density (-log t)^2 / Gamma(3) dt

The n-th moment of a measure is the integral of t^n against it.  All four
atoms admit closed-form moments.  In x = -log t each density atom is
e^{-(n+c)x} (x-x0)^{s-1} / Gamma(s) on [x0, inf) and gives only its Laplace
triple (c, s, x0); quadrature integrates that one form, once per term.

The triples also give the weight limit L = lim (n+1) mu_n exactly: an atom
with s = 1 and x0 = 0 (`lebesgue` on [0, 1], `power`) has moments
~ w/n, and every other atom has summable moments.  So the partial sums grow
like s_n = L log n + O(1).  The octave ladder reads the growth of log mu_n
and s_n without L, as slopes against log(n+1) over the octaves between
t/8, t/4, t/2 and t.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

#: the one quadrature tolerance, relative to each moment
MOMENT_TOL = 1e-13
#: fewest moments whose octave ladder starts past index 0
LADDER_MIN_TERMS = 9


class MeasureSyntaxError(ValueError):
    """Input does not conform to the measure mini-language; the message names the position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")


class MeasureParameterError(ValueError):
    """Weight or atom parameter outside its admissible range."""


@dataclass(frozen=True)
class Dirac:
    """Point mass at t, 0 <= t < 1; its moments t^n stay closed under quadrature."""

    t: float

    def __post_init__(self):
        if not (0.0 <= self.t < 1.0) or not math.isfinite(self.t):
            raise MeasureParameterError(f"dirac location must lie in [0,1), got {self.t}")

    def closed_moments(self, ns: np.ndarray) -> np.ndarray:
        return np.power(self.t, ns.astype(float))


@dataclass(frozen=True)
class Lebesgue:
    """Uniform density on [0, r], 0 < r <= 1; Laplace triple (1, 1, -log r)."""

    r: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.r <= 1.0) or not math.isfinite(self.r):
            raise MeasureParameterError(f"lebesgue endpoint must lie in (0,1], got {self.r}")

    def closed_moments(self, ns: np.ndarray) -> np.ndarray:
        n = ns.astype(float)
        return np.power(self.r, n + 1.0) / (n + 1.0)

    def laplace(self) -> tuple[float, float, float]:
        return 1.0, 1.0, -math.log(self.r)


@dataclass(frozen=True)
class PowerDensity:
    """Density t^alpha dt on [0,1), alpha > 0; Laplace triple (alpha+1, 1, 0)."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha > 0.0) or not math.isfinite(self.alpha):
            raise MeasureParameterError(f"power exponent must be positive, got {self.alpha}")

    def closed_moments(self, ns: np.ndarray) -> np.ndarray:
        return 1.0 / (ns.astype(float) + self.alpha + 1.0)

    def laplace(self) -> tuple[float, float, float]:
        return self.alpha + 1.0, 1.0, 0.0


@dataclass(frozen=True)
class LogPowerDensity:
    """Density (-log t)^(s-1) / Gamma(s) dt on (0,1), s > 1; Laplace triple (1, s, 0)."""

    s: float

    def __post_init__(self):
        if not (self.s > 1.0) or not math.isfinite(self.s):
            raise MeasureParameterError(f"logpower exponent must exceed 1, got {self.s}")

    def closed_moments(self, ns: np.ndarray) -> np.ndarray:
        return np.power(ns.astype(float) + 1.0, -self.s)

    def laplace(self) -> tuple[float, float, float]:
        return 1.0, self.s, 0.0


Atom = Union[Dirac, Lebesgue, PowerDensity, LogPowerDensity]


@dataclass(frozen=True)
class MeasureSpec:
    """Positive linear combination of measure atoms on [0,1)."""

    terms: tuple[tuple[float, Atom], ...]

    def __post_init__(self):
        if not self.terms:
            raise MeasureParameterError("a measure needs at least one term")
        for weight, _ in self.terms:
            if not (weight > 0.0) or not math.isfinite(weight):
                raise MeasureParameterError(f"term weights must be positive, got {weight}")
        # every moment is at most this sum, summed in the order moments adds
        # the terms, so a finite sum keeps every moment finite
        total = sum(weight for weight, _ in self.terms)
        if not math.isfinite(total):
            raise MeasureParameterError(f"term weights must have a finite sum, got {total}")

    def weight_limit(self) -> float:
        """L = lim (n+1) mu_n: the summed weights of the atoms whose Laplace
        triple has s = 1 and x0 = 0, whose moments are ~ w/n.  Point masses
        and the other densities have summable moments and add nothing."""
        return sum((weight for weight, atom in self.terms
                    if not isinstance(atom, Dirac) and atom.laplace()[1:] == (1.0, 0.0)), 0.0)


# --------------------------------------------------------------------------
# parsing

#: a number, a name or any other non-space character; finditer skips the
#: whitespace between tokens (\s is exactly str.isspace)
_TOKEN_RE = re.compile(r"(?P<number>\d+\.?\d*|\.\d+)|(?P<name>[a-zA-Z]+)|\S")
_ATOMS = {"dirac": Dirac, "lebesgue": Lebesgue, "power": PowerDensity,
          "logpower": LogPowerDensity}


def parse_measure(text: str) -> MeasureSpec:
    """Parse a measure mini-language string into a MeasureSpec.

    Raises MeasureSyntaxError (naming the position) on malformed input and
    MeasureParameterError when a weight or atom parameter is out of range.
    """
    # (kind, value, start): kind is "number", "name" or the character itself,
    # and an "end" token sits at len(text)
    tokens = [(m.lastgroup or m.group(), m.group(), m.start()) for m in _TOKEN_RE.finditer(text)]
    tokens.append(("end", "", len(text)))
    at = 0

    def take(kind: str, what: str) -> str:
        nonlocal at
        token_kind, value, start = tokens[at]
        if token_kind != kind:
            raise MeasureSyntaxError(f"expected {what}", start)
        at += 1
        return value

    terms = []
    while True:
        kind, value, start = tokens[at]
        if kind == "end":
            raise MeasureSyntaxError("expected a term", start)
        weight = 1.0
        # any str.isdigit character (wider than \d) or '.' starts a weight
        if value[0].isdigit() or value[0] == ".":
            weight = float(take("number", "a number"))
            take("*", "'*'")
            start = tokens[at][2]
        name = take("name", "an atom name")
        if name not in _ATOMS:
            raise MeasureSyntaxError(f"unknown atom '{name}'", start)
        params = ()
        # only lebesgue may omit its (number), for r = 1
        if name != "lebesgue" or tokens[at][0] == "(":
            take("(", "'('")
            params = (float(take("number", "a number")),)
            take(")", "')'")
        terms.append((weight, _ATOMS[name](*params)))
        if tokens[at][0] == "end":
            return MeasureSpec(terms=tuple(terms))
        take("+", "'+' between terms")


# --------------------------------------------------------------------------
# moments

def _density_moments(c: float, s: float, x0: float, ns: np.ndarray):
    """Quadrature moments of the density with Laplace triple (c, s, x0) and
    their error bounds, each relative to its entry.

    With v = (n+c)(x - x0), entry n is its closed form (n+c)^{-s} e^{-(n+c)x0}
    times the integral of W/Gamma(s) e^{-Wu} (Wu)^{s-1} on [0, 1], W = 120+20s,
    which is P(s, W) ~ 1 (Chernoff: the cut tail is at most e^{-120}).  That
    profile is integrated once, to MOMENT_TOL, and the closed form scales its
    value and its bound; so the check tests closed_moments against the triple
    and Gamma(s).
    """
    from .quadrature import integrate

    width = 120.0 + 20.0 * s
    scale = width / math.gamma(s)

    def profile(u):
        y = width * u
        return scale * np.exp(-y) * np.power(y, s - 1.0)
    value, bound = integrate(profile, MOMENT_TOL)
    closed = np.power(ns + c, -s) * np.exp(-(ns + c) * x0)
    return closed * value, closed * bound


@dataclass(eq=False)
class MomentSequence:
    """Moments mu_0..mu_{n-1} and their partial sums s_n = mu_0 + ... + mu_n.

    error_bounds holds each entry's quadrature error bound (its terms' summed
    bisection discrepancies) when any density term was integrated, and is
    None when every entry is a closed form.
    """

    values: np.ndarray
    error_bounds: np.ndarray | None = None

    @property
    def n_terms(self) -> int:
        return self.values.size

    @property
    def partial_sums(self) -> np.ndarray:
        """s_0..s_{n-1}, summed when read.  Finite moments can still sum past
        float64: OverflowError names the first index whose sum is not finite."""
        with np.errstate(over="ignore"):
            sums = np.cumsum(self.values)
        finite = np.isfinite(sums)
        if not finite.all():
            raise OverflowError(f"partial sums overflow from index {int(np.argmin(finite))}")
        return sums


def moments(spec: MeasureSpec, n_terms: int, method: str = "closed") -> MomentSequence:
    """Moment sequence of a measure: entry n integrates t^n against it.

    method="closed" evaluates the per-atom closed forms; method="quadrature"
    forces adaptive integration of the density terms, one integrate call per
    term (point masses stay closed), and records an error bound per entry.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    if method not in ("closed", "quadrature"):
        raise ValueError(f"unknown moment method {method!r}")
    ns = np.arange(n_terms)
    values = np.zeros(n_terms)
    bounds = None
    for weight, atom in spec.terms:
        if method == "closed" or isinstance(atom, Dirac):
            values += weight * atom.closed_moments(ns)
            continue
        if bounds is None:
            bounds = np.zeros(n_terms)
        v, b = _density_moments(*atom.laplace(), ns)
        values += weight * v
        bounds += weight * b
    return MomentSequence(values, bounds)


# --------------------------------------------------------------------------
# octave ladder

def octave_ladder(ms: MomentSequence, t: int) -> tuple[np.ndarray, np.ndarray]:
    """(p, q): the slopes of log mu_m and of s_m against log(m+1) over the
    three octaves of the ladder m = t/8, t/4, t/2, t (only the last when
    t < 8).  Each step of s_m sums its octave's moments: a difference of
    partial sums loses every digit once s_m has converged."""
    m = np.array([t // 8, t // 4, t // 2, t])
    with np.errstate(divide="ignore", invalid="ignore"):
        dlog_mu = np.diff(np.log(ms.values[m]))
        dlog_m = np.diff(np.log(m + 1.0))
        return dlog_mu / dlog_m, np.add.reduceat(ms.values[:t + 1], m[:3] + 1) / dlog_m
