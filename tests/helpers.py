"""Shared builders for the measure/operator catalog used across tests."""

from __future__ import annotations

import json
import math
import shlex
import time
from pathlib import Path

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
    hankel_apply,
    moments,
    parse_measure,
    terraced_apply,
)
from momentspectra.cli import main
from momentspectra.spectral import (
    ANALYTIC,
    FLAT_STEP,
    GEOMETRIC_STEP,
    IN_L2,
    INCONCLUSIVE,
    L2_MARGIN,
    NOT_IN_L2,
    NUMERIC_FIT,
    SLOWEST_RATIO,
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


def sparse_squares(n: int) -> np.ndarray:
    """Leibowitz's weights: k^(-7/8) at the perfect squares k = 1, 4, 9, ...
    below n and 0 elsewhere, index 0 included; no measure has these moments."""
    weights = np.zeros(n)
    squares = np.arange(1, math.isqrt(n - 1) + 1) ** 2
    weights[squares] = squares ** -0.875
    return weights


def readme_commands() -> list[list[str]]:
    """The argv of each `momentspectra ...` line of the README's CLI block,
    continuations joined and the program name dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("momentspectra ")]


def region_json(tmp_path, *args: str) -> dict:
    """The region.json that `region *args` writes under tmp_path."""
    out = tmp_path / "region"
    assert main(["region", *args, "--out", str(out)]) == 0
    return json.loads((out / "region.json").read_text())


def terraced_from_measure(text: str, dim: int) -> TerracedOperator:
    ms = measure_moments(text, dim)
    return TerracedOperator(WeightSequence(ms.values), dim)


def hankel_from_measure(text: str, dim: int) -> HankelMomentOperator:
    ms = measure_moments(text, 2 * dim - 1)
    return HankelMomentOperator.from_moments(ms, dim)


def ladder_chords(ms, k: int) -> tuple[list[int], list[float]]:
    """(ladder, chords) of index k: the ladder t/8, t/4, t/2, t over the
    normal-float prefix (t = active - 1) and the test term's chord slopes
    over each octave (a, b] of it, log(mu_b exp(s_b/mu_k) / (mu_a
    exp(s_a/mu_k))) / log((b+1)/(a+1)), with s_b - s_a an exact math.fsum of
    the octave's moments.  Only the octaves that hold an index are given."""
    mu = ms.values
    t = int(np.count_nonzero(mu >= np.finfo(float).tiny)) - 1
    ladder = [t // 8, t // 4, t // 2, t]
    mu_k = float(mu[k])
    chords = [(math.log(mu[b]) - math.log(mu[a]) + math.fsum(mu[a + 1:b + 1]) / mu_k)
              / math.log((b + 1) / (a + 1))
              for a, b in zip(ladder, ladder[1:]) if a < b]
    return ladder, chords


def reference_classification(ms, limit: float, k: int, method: str) -> ClassificationVerdict:
    """Reference verdict for one index of a valid moment sequence.  The
    analytic one is the rule mu_k > 2L with exponent -1 + L/mu_k; the
    numeric one reads the chords of ladder_chords, made for this index
    alone: below t/8, once the last step is flat or contracting, a verdict
    when the last chord and its extrapolation by the slower of the ladder's
    ratio and SLOWEST_RATIO clear -1/2 by L2_MARGIN on one side, with slope
    the last chord (None when k >= t)."""
    mu_k = float(ms.values[k])
    if method == "analytic":
        return ClassificationVerdict(IN_L2 if mu_k > 2 * limit else NOT_IN_L2,
                                     -1.0 + limit / mu_k, ANALYTIC)
    ladder, chords = ladder_chords(ms, k)
    t = ladder[-1]
    if k >= t:
        return ClassificationVerdict(INCONCLUSIVE, None, NUMERIC_FIT)
    last = chords[-1]
    if 8 * k >= t:
        return ClassificationVerdict(INCONCLUSIVE, last, NUMERIC_FIT)
    first_step, last_step = chords[1] - chords[0], chords[2] - chords[1]
    size = max(1.0, abs(last + 0.5))
    ratio = SLOWEST_RATIO
    if (first_step * last_step > 0 and abs(last_step) < abs(first_step)
            and abs(last_step) <= GEOMETRIC_STEP * size):
        ratio = max(ratio, last_step / first_step)
    elif abs(last_step) > FLAT_STEP * size:
        return ClassificationVerdict(INCONCLUSIVE, last, NUMERIC_FIT)
    far = last + last_step * ratio / (1 - ratio)
    verdict = INCONCLUSIVE
    if last < -0.5 - L2_MARGIN and far < -0.5 - L2_MARGIN:
        verdict = IN_L2
    elif last > -0.5 + L2_MARGIN and far > -0.5 + L2_MARGIN:
        verdict = NOT_IN_L2
    return ClassificationVerdict(verdict, last, NUMERIC_FIT)


def ns_per_apply(kernel: str, dim: int, repeats: int) -> int:
    """Nanoseconds per apply of one structured or dense kernel, the mean of
    `repeats` calls after one warm-up call.  Kernels: terraced (Cesaro
    weights), hankel (Hilbert moments) and their -dense variants, all applied
    to one fixed random complex x.  A -dense variant builds the real matrix
    once with the operator's dense() and times only its products with the
    real and imaginary parts of x: no cast is timed."""
    rng = np.random.default_rng(0)
    x = random_complex(rng, dim)
    xr, xi = x.real.copy(), x.imag.copy()
    if kernel.startswith("terraced"):
        op, apply = TerracedOperator(WeightSequence.cesaro(dim), dim), terraced_apply
    else:
        op, apply = HankelMomentOperator(1.0 / (np.arange(2 * dim - 1) + 1.0), dim), hankel_apply
    if kernel.endswith("-dense"):
        mat = op.dense()
        fn = lambda: mat @ xr + 1j * (mat @ xi)
    else:
        fn = lambda: apply(op, x)
    fn()  # warm up
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return int((time.perf_counter() - start) / repeats * 1e9)


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


def reference_matrix_csv(matrix) -> str:
    """Reference matrix.csv: each cell of a real matrix formatted on its own
    as '%r+0.0i', one line per row; a matrix without rows is one newline."""
    rows = np.asarray(matrix, dtype=float).tolist()
    return "".join(",".join("%r+0.0i" % x for x in row) + "\n" for row in rows) or "\n"


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
