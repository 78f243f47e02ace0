"""Shared builders for the measure/operator catalog used across tests."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from momentspectra import (
    Dirac,
    HankelMomentOperator,
    Lebesgue,
    LogPowerDensity,
    MeasureSpec,
    PowerDensity,
    TerracedOperator,
    WeightSequence,
    moments,
    parse_measure,
)
from momentspectra.measures import fit_line
from momentspectra.spectral import (
    ANALYTIC,
    IN_L2,
    INCONCLUSIVE,
    L2_MARGIN,
    NOT_IN_L2,
    NUMERIC_FIT,
    ClassificationVerdict,
)

CATALOG_MEASURES = {
    "lebesgue": "lebesgue",
    "power-0.5": "power(0.5)",
    "power-2": "power(2)",
    "delta0-plus-half-lebesgue": "dirac(0)+0.5*lebesgue",
}

#: measures of one to three weighted atoms of every kind
MEASURE_SPECS = st.lists(
    st.tuples(
        st.floats(0.1, 4.0),
        st.one_of(
            st.builds(Dirac, st.floats(0.0, 0.9)),
            # r = 1 gives a nonzero weight limit; r < 1 summable moments
            st.just(Lebesgue()),
            st.builds(Lebesgue, st.floats(0.1, 1.0)),
            st.builds(PowerDensity, st.floats(0.25, 6.0)),
            st.builds(LogPowerDensity, st.floats(1.1, 5.0)),
        ),
    ),
    min_size=1,
    max_size=3,
).map(lambda terms: MeasureSpec(tuple(terms)))


def measure_moments(text: str, n_terms: int):
    return moments(parse_measure(text), n_terms)


def terraced_from_measure(text: str, dim: int) -> TerracedOperator:
    ms = measure_moments(text, dim)
    return TerracedOperator(WeightSequence.from_moments(ms), dim)


def hankel_from_measure(text: str, dim: int) -> HankelMomentOperator:
    ms = measure_moments(text, 2 * dim - 1)
    return HankelMomentOperator.from_moments(ms, dim)


def tail_window(ms) -> np.ndarray:
    """Indices [n/2, active) of the classification fits, active being the
    length of the normal-float prefix of a valid moment sequence."""
    return np.arange(ms.n_terms // 2, int(np.count_nonzero(ms.values >= np.finfo(float).tiny)))


def reference_classification(ms, limit: float, k: int, method: str) -> ClassificationVerdict:
    """Reference verdict for one index of a valid moment sequence.  The
    analytic one is the rule mu_k > 2L with exponent -1 + L/mu_k; the
    numeric one a direct least-squares fit of the test term
    log(mu_n exp(s_n/mu_k)) against log(n+1) over tail_window, made for
    this index alone."""
    mu_k = float(ms.values[k])
    if method == "analytic":
        return ClassificationVerdict(IN_L2 if mu_k > 2 * limit else NOT_IN_L2,
                                     -1.0 + limit / mu_k, ANALYTIC)
    idx = tail_window(ms)
    if idx.size < 8:
        return ClassificationVerdict(INCONCLUSIVE, None, NUMERIC_FIT)
    x = np.log(idx + 1.0)
    slope = fit_line(x, np.log(ms.values[idx]) + ms.partial_sums[idx] / mu_k)[0]
    if slope < -0.5 - L2_MARGIN:
        return ClassificationVerdict(IN_L2, slope, NUMERIC_FIT)
    if slope > -0.5 + L2_MARGIN:
        return ClassificationVerdict(NOT_IN_L2, slope, NUMERIC_FIT)
    return ClassificationVerdict(INCONCLUSIVE, slope, NUMERIC_FIT)


def rhp_catalog_matrices(dim: int) -> dict[str, np.ndarray]:
    """Dense matrices whose numerical range should sit in the closed right
    half-plane: terraced operators of the measure catalog plus the Hilbert
    matrix and a rank-one Hankel example."""
    matrices = {
        name: terraced_from_measure(text, dim).dense()
        for name, text in CATALOG_MEASURES.items()
    }
    matrices["hilbert"] = hankel_from_measure("lebesgue", dim).dense()
    matrices["hankel-dirac-0.5"] = hankel_from_measure("dirac(0.5)", dim).dense()
    return matrices


def symmetric_min_eig(matrix: np.ndarray) -> float:
    """The smallest eigenvalue of the symmetric part (A + A^T)/2 of a real
    matrix: the minimum real part of its numerical range."""
    return float(np.linalg.eigvalsh(0.5 * (matrix + matrix.T))[0])


def random_complex(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def format_float(x: float) -> str:
    """Reference renderer of a CSV or JSON number: the shortest round-trip repr."""
    return repr(float(x))


def format_complex(z: complex) -> str:
    """Reference renderer of a matrix.csv entry: 're+imi', e.g. '1.5+0.25i'
    or '0.5-2.0i'; a -0.0 or nan imaginary part writes '+'."""
    z = complex(z)
    sign = "+" if z.imag >= 0 or np.isnan(z.imag) else "-"
    return f"{format_float(z.real)}{sign}{format_float(abs(z.imag))}i"


def region_payload_lists(region) -> dict:
    """Reference form of serialize.region_payload: one [re, im] list per point."""
    return {
        "points": [[float(p.real), float(p.imag)] for p in region.points],
        "disc_center": region.disc_center,
        "disc_radius": region.disc_radius,
    }


def parse_complex(text: str) -> complex:
    """Inverse of format_complex: 're+imi' back to a complex."""
    body = text.strip()
    if not body.endswith("i"):
        raise ValueError(f"not a complex entry: {text!r}")
    body = body[:-1]
    split = max(body.rfind("+"), body.rfind("-"))
    if split <= 0:
        raise ValueError(f"not a complex entry: {text!r}")
    return complex(float(body[:split]), float(body[split:]))


def _number_text(x: float) -> str:
    """Shortest digits that parse back to x, never repr's 1e-05 exponents;
    abs drops the sign of -0.0, the one negative value an atom accepts."""
    return np.format_float_positional(abs(x), trim="-")


def _atom_text(atom) -> str:
    if isinstance(atom, Dirac):
        return f"dirac({_number_text(atom.t)})"
    if isinstance(atom, Lebesgue):
        return "lebesgue" if atom.r == 1.0 else f"lebesgue({_number_text(atom.r)})"
    if isinstance(atom, PowerDensity):
        return f"power({_number_text(atom.alpha)})"
    return f"logpower({_number_text(atom.s)})"


def measure_text(spec: MeasureSpec) -> str:
    """Inverse of parse_measure: the mini-language text of a MeasureSpec."""
    return "+".join(("" if weight == 1.0 else f"{_number_text(weight)}*") + _atom_text(atom)
                    for weight, atom in spec.terms)
