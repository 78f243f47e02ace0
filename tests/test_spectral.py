import json
import math
import re
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    CATALOG_MEASURES,
    MEASURE_SPECS,
    hankel_from_measure,
    ladder_chords,
    measure_moments,
    measure_text,
    reference_classification,
    region_json,
    sparse_squares,
    terraced_from_measure,
)
from momentspectra import (
    Lebesgue,
    LogPowerDensity,
    MeasureSpec,
    TerracedOperator,
    WeightSequence,
    adjoint_eigenvector,
    adjoint_eigenvector_residual,
    classify_eigenvalue,
    eigenvector,
    eigenvector_residual,
    hankel_norm,
    parse_measure,
    pseudospectrum_grid,
    smallest_singular_value,
    terraced_apply,
    terraced_apply_adjoint,
)
from momentspectra import spectral
from momentspectra.cli import main
from momentspectra.measures import MomentSequence, moments, octave_ladder
from momentspectra.operators import DENSE_LIMIT
from momentspectra.spectral import ANALYTIC, IN_L2, INCONCLUSIVE, NOT_IN_L2, NUMERIC_FIT

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from oracles import log_growth  # noqa: E402


def _handmade_moments(values) -> MomentSequence:
    return MomentSequence(np.asarray(values, dtype=float))


def _classified(text: str, n: int, ks, method="analytic"):
    spec = parse_measure(text)
    return classify_eigenvalue(moments(spec, n), spec.weight_limit(), ks, method)


# --------------------------------------------------------------------------
# point-spectrum classification

def test_lebesgue_moments_never_eigenvalues():
    for verdict in _classified("lebesgue", 4096, range(21)):
        assert verdict.verdict == NOT_IN_L2


def test_dirac_moments_always_eigenvalues():
    for verdict in _classified("dirac(0.5)", 4096, range(11)):
        assert verdict.verdict == IN_L2
        assert verdict.method == ANALYTIC


def test_atom_plus_half_lebesgue_keeps_only_the_first_moment():
    verdicts = _classified("dirac(0)+0.5*lebesgue", 4096, range(11))
    assert verdicts[0].verdict == IN_L2
    for verdict in verdicts[1:]:
        assert verdict.verdict == NOT_IN_L2


def test_power_densities_have_empty_point_spectrum():
    for alpha in ("0.5", "2"):
        for verdict in _classified(f"power({alpha})", 2048, range(6)):
            assert verdict.verdict == NOT_IN_L2


def test_logpower_is_summable_so_every_moment_is_an_eigenvalue():
    for verdict in _classified("logpower(2)", 512, range(6)):
        assert verdict.verdict == IN_L2


def test_numeric_fit_near_threshold_is_inconclusive():
    # first moment of the c = 0.75 mixture sits 0.07 inside the margin
    verdicts = _classified("dirac(0)+0.75*lebesgue", 4096, [0], method="numeric")
    assert verdicts[0].verdict == INCONCLUSIVE
    assert verdicts[0].method == NUMERIC_FIT


def _contradictions(ms, limit: float, ks) -> list[int]:
    """The indices whose numeric verdict contradicts the analytic one, the
    rule mu_k > 2L, which never abstains."""
    analytic = classify_eigenvalue(ms, limit, ks, "analytic")
    numeric = classify_eigenvalue(ms, limit, ks, "numeric")
    assert INCONCLUSIVE not in {v.verdict for v in analytic}
    return [k for k, a, b in zip(ks, analytic, numeric)
            if b.verdict != INCONCLUSIVE and b.verdict != a.verdict]


#: the catalog the numeric path is checked on: L > 0 and L = 0, atoms
#: only, and three slowly convergent logpower densities on which the
#: least-squares tail fits gave hundreds of wrong verdicts
_NUMERIC_CATALOG = [*CATALOG_MEASURES.values(), "power(2.5)", "dirac(0)+0.75*lebesgue",
                    "dirac(0.5)", "dirac(0.99)+0.01*lebesgue", "logpower(1.2)+0.3*lebesgue",
                    "logpower(2)", "lebesgue(0.5)", "dirac(0.9)+logpower(2)", "logpower(1.5)",
                    "logpower(1.2)", "logpower(3)+0.25*lebesgue(0.9)"]


@pytest.mark.parametrize(
    "text,n",
    [
        ("lebesgue", 512),
        ("dirac(0.5)", 512),
        ("power(0.5)", 512),
        ("power(2)", 512),
        ("logpower(2)", 512),
        ("dirac(0)+0.25*lebesgue", 512),
        ("dirac(0)+0.5*lebesgue", 512),
        ("dirac(0)+0.75*lebesgue", 512),
        *((text, n) for n in (4096, 65536) for text in _NUMERIC_CATALOG),
        # wrong with exit 0: a point mass near 1 still dominates the ladder's
        # first octaves, and the chords settle on NotInL2 where L = 0 makes
        # every index InL2
        *(pytest.param(text, n, marks=pytest.mark.xfail(strict=True, raises=AssertionError))
          for text, n in [("dirac(0.9)+logpower(2)", 9),  # k = 0
                          ("dirac(0.99)+logpower(1.2)", 4096),  # k = 169..180
                          ("dirac(0.99)+0.25*logpower(1.2)", 4096)]),  # k = 394..411
    ],
)
def test_analytic_and_numeric_paths_never_contradict(text, n):
    spec = parse_measure(text)
    ms = moments(spec, n)
    ks = range(min(800, int(np.count_nonzero(ms.values >= np.finfo(float).tiny))))
    assert _contradictions(ms, spec.weight_limit(), ks) == []


def test_numeric_path_is_exact_on_the_benchmark_classify_job():
    # the classify-numeric job: dirac(0)+0.5*lebesgue, k = 0..31
    spec = parse_measure("dirac(0)+0.5*lebesgue")
    for n in (4096, 262144):
        ms = moments(spec, n)
        verdicts = [v.verdict for v in classify_eigenvalue(ms, 0.5, range(32), "numeric")]
        assert verdicts == [IN_L2] + [NOT_IN_L2] * 31


@pytest.mark.parametrize("method", ["analytic", "numeric"])
@pytest.mark.parametrize("text", [*CATALOG_MEASURES.values(), "logpower(3)+0.25*lebesgue(0.9)",
                                  "dirac(0.5)"])  # dirac(0.5): 1022 normal moments
def test_shared_tail_fits_match_the_per_index_fit(text, method):
    # the one octave ladder shared by every index against ladder_chords,
    # made per index with exact octave sums
    spec = parse_measure(text)
    ms, limit = moments(spec, 4096), spec.weight_limit()
    ks = range(600)
    for k, verdict in zip(ks, classify_eigenvalue(ms, limit, ks, method)):
        reference = reference_classification(ms, limit, k, method)
        assert (verdict.verdict, verdict.method) == (reference.verdict, reference.method)
        assert (verdict.slope is None) == (reference.slope is None)
        if method == "analytic":
            assert verdict.slope == reference.slope
        elif reference.slope is not None:
            # a recursive sum of t/2 positive terms is within (t/2) eps of
            # exact, and each log and quotient adds a few eps
            ladder = ladder_chords(ms, k)[0]
            a, t = ladder[2], ladder[3]
            octave_sum = math.fsum(ms.values[a + 1:t + 1]) / ms.values[k]
            scale = abs(math.log(ms.values[a])) + abs(math.log(ms.values[t])) + t * octave_sum
            bound = 4 * np.finfo(float).eps * scale / math.log((t + 1) / (a + 1))
            assert abs(verdict.slope - reference.slope) <= bound


@pytest.mark.parametrize("method", ["analytic", "numeric"])
def test_classification_fits_once_whatever_the_number_of_indices(monkeypatch, method):
    ms = measure_moments("dirac(0)+0.5*lebesgue", 4096)
    ladders = []

    def counted(ms, t):
        ladders.append(t)
        return octave_ladder(ms, t)

    monkeypatch.setattr(spectral, "octave_ladder", counted)
    counts = []
    for ks in (range(2), range(64)):
        ladders.clear()
        classify_eigenvalue(ms, 0.5, ks, method)
        counts.append(len(ladders))
    # the analytic path reads L and takes no ladder; the numeric path takes
    # one for all its indices
    expected = {"analytic": 0, "numeric": 1}[method]
    assert counts == [expected, expected]


def test_duplicate_moments_rejected():
    ms = _handmade_moments([1.0, 0.5, 0.5, 0.25])
    with pytest.raises(ValueError, match="moments 1 and 2 coincide"):
        classify_eigenvalue(ms, 0.0, [0], "analytic")


def test_degenerate_measure_rejected():
    ms = measure_moments("dirac(0)", 64)
    with pytest.raises(ValueError, match="measure concentrated at 0"):
        classify_eigenvalue(ms, 0.0, [0], "analytic")


def test_classify_index_out_of_range():
    ms = measure_moments("lebesgue", 64)
    with pytest.raises(ValueError):
        classify_eigenvalue(ms, 1.0, [64], "analytic")


#: the catalog, a slowly decaying point mass beside a small L, a logpower
#: density beside lebesgue, and a summable logpower whose tail fit once
#: looked unbounded
_LIMIT_RULE_MEASURES = [*CATALOG_MEASURES.values(), "dirac(0.99)+0.01*lebesgue",
                        "logpower(1.2)+0.3*lebesgue", "logpower(1.5)"]


@pytest.mark.parametrize("text", _LIMIT_RULE_MEASURES)
@pytest.mark.parametrize("n", [1024, 4096, 65536])
def test_analytic_verdicts_follow_the_weight_limit_rule(text, n):
    spec = parse_measure(text)
    limit, ms = spec.weight_limit(), moments(spec, n)
    verdicts = classify_eigenvalue(ms, limit, range(800), "analytic")
    expected = [IN_L2 if mu > 2 * limit else NOT_IN_L2 for mu in ms.values[:800]]
    assert [v.verdict for v in verdicts] == expected
    assert [v.slope for v in verdicts] == [-1.0 + limit / mu for mu in ms.values[:800]]


@settings(deadline=None)
@given(MEASURE_SPECS)
def test_analytic_verdicts_are_stable_in_n(spec):
    # the verdict is a property of the measure, not of the truncation: at
    # every index valid at both lengths, n = 1024 and n = 4096 agree with
    # each other and with the rule mu_k > 2L
    limit = spec.weight_limit()
    small, large = moments(spec, 1024), moments(spec, 4096)
    ks = range(min(512, int(np.count_nonzero(small.values >= np.finfo(float).tiny))))
    try:
        first = classify_eigenvalue(small, limit, ks, "analytic")
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            classify_eigenvalue(large, limit, ks, "analytic")
        return
    second = classify_eigenvalue(large, limit, ks, "analytic")
    expected = [IN_L2 if mu > 2 * limit else NOT_IN_L2 for mu in small.values[ks]]
    assert [v.verdict for v in first] == [v.verdict for v in second] == expected


@settings(deadline=None)
@given(MEASURE_SPECS, st.sampled_from([1024, 4096]))
@example(MeasureSpec(((1.0, LogPowerDensity(2.0)), (1.0, LogPowerDensity(1.125)))), 1024)
@example(MeasureSpec(((2.53, Lebesgue(0.99127)), (2.49, LogPowerDensity(1.1897)),
                      (2.2, LogPowerDensity(1.342)))), 1024)
def test_numeric_verdicts_never_contradict_the_rule_on_random_measures(spec, n):
    # the two examples fooled the bare geometric extrapolation: a slow
    # logpower(1.125) tail, and a lebesgue(0.99127) atom fading beside two
    # logpower densities.  A lebesgue(r) atom that has not decayed by the
    # ladder's first point (n-1)/8 is the uniform density to every moment
    # the truncation holds (lebesgue(1 - 2^-53) above all), so no ladder can
    # tell its L = 0 from L > 0: such measures are outside what n moments
    # decide
    first = (n - 1) // 8
    assume(all(atom.r == 1.0 or atom.r ** first <= 0.5
               for _, atom in spec.terms if isinstance(atom, Lebesgue)))
    ms = moments(spec, n)
    ks = range(min(512, int(np.count_nonzero(ms.values >= np.finfo(float).tiny))))
    try:
        assert _contradictions(ms, spec.weight_limit(), ks) == []
    except ValueError:
        # moments that coincide within DISTINCT_REL_GAP fail the hypotheses
        # on both paths; test_analytic_verdicts_are_stable_in_n covers that
        pass


@given(MEASURE_SPECS)
def test_weight_limit_matches_the_benchmark_oracle(spec):
    # perfbench/oracles.log_growth reads L from the spec text on its own
    assert spec.weight_limit() == log_growth(measure_text(spec))[0]


# --------------------------------------------------------------------------
# eigenvectors

def test_eigenvector_vanishes_below_k():
    ms = measure_moments("dirac(0)+0.5*lebesgue", 64)
    vec = eigenvector(ms, 3, 32)
    assert np.all(vec[:3] == 0.0)
    assert vec[3] == 1.0


def test_dirac_eigenvector_matches_product_formula():
    # specialize the recurrence at k = 0 for the point mass at t:
    # x_{m+1} = t^{m+1} * prod_{n<=m} 1/(1 - t^{n+1})
    t = 0.5
    dim = 60
    ms = measure_moments("dirac(0.5)", dim)
    vec = eigenvector(ms, 0, dim)
    expected = np.empty(dim)
    expected[0] = 1.0
    product = 1.0
    for m in range(dim - 1):
        product /= 1.0 - t ** (m + 1)
        expected[m + 1] = t ** (m + 1) * product
    assert np.max(np.abs(vec - expected)) <= 1e-12 * np.max(expected)


def test_eigenvector_residuals_small_for_dirac():
    ms = measure_moments("dirac(0.5)", 400)
    for k in range(4):
        assert eigenvector_residual(ms, k, 400) <= 1e-8


def test_embedded_residuals_decrease_for_square_summable_verdicts():
    # truncation residual seen by the doubled operator; strict decrease is
    # required above the rounding floor
    floor = 1e-13
    cases = [("dirac(0.5)", [0, 1, 2, 3, 4, 5]),
             ("logpower(2)", [0, 1, 2, 3, 4, 5]),
             ("dirac(0)+0.25*lebesgue", [0]),
             ("dirac(0)+0.5*lebesgue", [0]),
             ("dirac(0)+0.75*lebesgue", [0])]
    for text, ks in cases:
        ms = measure_moments(text, 1600)
        for k in ks:
            residuals = [eigenvector_residual(ms, k, dim, embed_factor=2)
                         for dim in (200, 400, 800)]
            for before, after in zip(residuals, residuals[1:]):
                assert after < before or before <= floor


def test_embedded_residual_norm_matches_a_compensated_sum_at_dim_32768():
    # the eigencheck-lebesgue job of the benchmark: k = 0, embed 2, where
    # x is 32768 entries near 1 and a BLAS dot norm was 27 eps off
    dim, k = 32768, 0
    ms = measure_moments("lebesgue", 2 * dim)
    x = np.zeros(2 * dim)
    x[:dim] = eigenvector(ms, k, dim)
    r = terraced_apply(TerracedOperator(WeightSequence(ms.values), 2 * dim), x) \
        - ms.values[k] * x
    compensated = math.sqrt(math.fsum(r * r)) / math.sqrt(math.fsum(x * x))
    residual = eigenvector_residual(ms, k, dim, embed_factor=2)
    assert abs(residual - compensated) <= 2 * np.finfo(float).eps * compensated


def test_eigenvector_overflow_guard_renormalizes():
    # growing (non-square-summable) vectors are rescaled past 1e150
    ms = measure_moments("lebesgue", 4096)
    vec = eigenvector(ms, 100, 4096)
    assert np.all(np.isfinite(vec))
    assert np.max(np.abs(vec)) <= 1e150


def test_eigenvector_rejects_underflowed_range():
    ms = measure_moments("dirac(0.5)", 1200)  # powers of 1/2 leave the normal range at 1023
    with pytest.raises(ValueError):
        eigenvector(ms, 0, 1200)


def _reference_eigenvector(ms: MomentSequence, k: int, dim: int) -> np.ndarray:
    """The recurrence one entry at a time, renormalizing past the overflow
    guard: the oracle the vectorized eigenvector must match bit for bit."""
    active = spectral._validate_moments(ms)
    if not 0 <= k < dim:
        raise ValueError(f"index {k} out of range for dim {dim}")
    if ms.values.size < dim:
        raise ValueError(f"need {dim} moments, have {ms.values.size}")
    if active < dim:
        raise ValueError(
            f"moments underflow below the normal range at index {active}; the recurrence "
            f"needs dim <= {active}"
        )
    mu = ms.values
    mu_k = float(mu[k])
    x = np.zeros(dim)
    x[k] = 1.0
    for n in range(k, dim - 1):
        x[n + 1] = mu[n + 1] / mu[n] * (mu_k / (mu_k - mu[n + 1])) * x[n]
        if abs(x[n + 1]) > spectral.OVERFLOW_GUARD:
            factor = abs(x[n + 1])
            x[: n + 2] /= factor
    return x


def _outcome(fn, ms, k, dim):
    # floating-point warnings are not part of the contract; values and
    # exceptions are
    try:
        with np.errstate(all="ignore"):
            vec = fn(ms, k, dim)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return vec.tobytes()


@pytest.mark.parametrize("text, k", [("lebesgue", 100), ("lebesgue", 300), ("lebesgue", 1000),
                                     ("dirac(0)+0.5*lebesgue", 200)])
def test_eigenvector_renormalizations_match_the_loop_bit_for_bit(text, k):
    ms = measure_moments(text, 4096)
    assert _reference_eigenvector(ms, k, 4096)[k] < 1.0  # the case renormalizes
    assert _outcome(eigenvector, ms, k, 4096) == _outcome(_reference_eigenvector, ms, k, 4096)


def _assert_finite_near_degenerate_eigenvector(values, k):
    # absolute gaps of 4e-15 to 5e-15, relative gaps above DISTINCT_REL_GAP:
    # the recurrence runs on the ratio mu_k / gap, with no absolute floor
    ms = _handmade_moments(values)
    vec = eigenvector(ms, k, len(values))
    assert np.all(np.isfinite(vec)) and vec[k] == 1.0
    assert _outcome(eigenvector, ms, k, len(values)) == \
        _outcome(_reference_eigenvector, ms, k, len(values))
    assert eigenvector_residual(ms, k, len(values)) <= 1e-12


def test_eigenvector_recurrence_guard():
    # a gap of 5e-15 just after k once tripped an absolute floor; now it runs
    _assert_finite_near_degenerate_eigenvector([1.0, 1e-3, 1e-3 - 5e-15, 1e-4], 1)


def test_eigenvector_guard_names_the_first_degenerate_index():
    # two near-equal gaps past k: neither is refused, and the loop agrees
    _assert_finite_near_degenerate_eigenvector(
        [1.0, 0.5, 1e-3 + 5e-15, 1e-3, 1e-3 - 4e-15, 1e-5], 2)


@settings(max_examples=60, deadline=None)
@given(MEASURE_SPECS, st.integers(2, 3000), st.floats(0.0, 1.0, exclude_max=True))
def test_eigenvector_matches_the_loop_bit_for_bit(spec, dim, k_fraction):
    ms = moments(spec, dim)
    k = int(k_fraction * dim)
    assert _outcome(eigenvector, ms, k, dim) == _outcome(_reference_eigenvector, ms, k, dim)


# --------------------------------------------------------------------------
# adjoint eigenvectors

def test_adjoint_eigenvector_matches_direct_product_oracle():
    ms = measure_moments("power(1.5)", 40)
    nu = 0.8 + 0.1j
    vec = adjoint_eigenvector(ms, nu, 40)
    product = 1.0 + 0.0j
    expected = [product]
    for j in range(39):
        product *= 1.0 - ms.values[j] * nu
        expected.append(product)
    assert np.max(np.abs(vec - np.array(expected))) == 0.0


@pytest.mark.parametrize("text", ["lebesgue", "power(2)", "dirac(0)+0.5*lebesgue"])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_reciprocal_moment_gives_finitely_supported_exact_adjoint_eigenvector(text, k):
    dim = 50
    ms = measure_moments(text, dim)
    nu = 1.0 / ms.values[k]
    vec = adjoint_eigenvector(ms, nu, dim)
    assert np.all(vec[k + 1 :] == 0.0)
    assert vec[k] != 0.0
    assert adjoint_eigenvector_residual(ms, nu, dim) <= 1e-12


def test_cesaro_adjoint_unit_eigenvalue_residual():
    ms = measure_moments("lebesgue", 2000)
    assert adjoint_eigenvector_residual(ms, 1.0, 2000) <= 1e-3


def test_adjoint_eigenvector_rejects_zero():
    ms = measure_moments("lebesgue", 16)
    with pytest.raises(ValueError):
        adjoint_eigenvector(ms, 0.0, 16)


# --------------------------------------------------------------------------
# adjoint discs and spectral regions

def _disc(tmp_path, text: str):
    """The disc that adjoint-disc writes for the measure `text`."""
    out = tmp_path / text
    assert main(["adjoint-disc", "--measure", text, "--n", "64", "--out", str(out)]) == 0
    return json.loads((out / "adjoint_disc.json").read_text())["disc"]


def test_adjoint_disc_cesaro(tmp_path):
    assert _disc(tmp_path, "lebesgue") == {"center": 1.0, "radius": 1.0}


def test_adjoint_disc_power_density_family(tmp_path):
    assert _disc(tmp_path, "power(1)") == {"center": 1.0, "radius": 1.0}


def test_adjoint_disc_atom_plus_half_lebesgue(tmp_path):
    assert _disc(tmp_path, "dirac(0)+0.5*lebesgue") == {"center": 0.5, "radius": 0.5}


def test_adjoint_disc_absent_for_summable_moments(tmp_path):
    assert _disc(tmp_path, "lebesgue(0.5)") is None
    assert _disc(tmp_path, "dirac(0.5)") is None
    assert _disc(tmp_path, "logpower(1.5)") is None


def test_spectrum_region_cesaro(tmp_path):
    region = region_json(tmp_path, "--weights", "cesaro", "--n", "256")["region"]
    assert region["disc_center"] == 1.0
    assert region["disc_radius"] == 1.0
    # every weight sits inside the closed disc
    assert all(abs(complex(re, im) - 1.0) <= 1.0 for re, im in region["points"])


def test_spectrum_region_dirac_weights_degenerate_to_points(tmp_path):
    region = region_json(tmp_path, "--measure", "dirac(0.5)", "--n", "128")["region"]
    assert region["disc_center"] is None
    assert [0.0, 0.0] in region["points"]
    assert all([0.5 ** k, 0.0] in region["points"] for k in range(4))


def test_spectrum_region_rejects_leibowitz(tmp_path):
    # zero weights, like Leibowitz's off the squares: 1e-320 / (n+1) starts
    # subnormal and rounds to 0 from n = 4047, an underflow from index 0
    subnormal = "0." + "0" * 319 + "1"
    payload = region_json(tmp_path, "--measure", f"{subnormal}*lebesgue", "--n", "8192")
    assert not payload["hypotheses_met"] and "region" not in payload
    assert payload["reason"] == "weights underflow below the normal range from index 0"


# --------------------------------------------------------------------------
# pseudospectrum

def test_sigma_min_vanishes_at_diagonal_entries():
    a = terraced_from_measure("lebesgue", 64).row_weights()
    sigma = smallest_singular_value(0.5 - a, a)  # 0.5 is a weight
    assert sigma <= 1e-12


def test_sigma_min_large_far_outside():
    a = terraced_from_measure("lebesgue", 128).row_weights()
    sigma = smallest_singular_value(10.0 - a, a)
    assert sigma >= 8.0


def test_resolvent_grows_at_interior_points():
    # surrogate for the filled-disc spectrum: sigma_min at non-eigenvalue
    # interior points decreases as the truncation grows.  R is lower
    # triangular, so (zI - R_N)^{-1} is a section of (zI - R_M)^{-1} for
    # N < M and sigma_min never increases in N; the oracle is a direct SVD
    # at each size up to 512, and the engine runs on to 65536
    weights = terraced_from_measure("lebesgue", 65536).row_weights()
    for z in (1.0 + 0.5j, 0.5 + 0.75j):
        direct, engine = [], []
        for n in 2 ** np.arange(6, 17):
            engine.append(smallest_singular_value(z - weights[:n], weights[:n]))
            if n <= 512:
                matrix = terraced_from_measure("lebesgue", n).dense().astype(complex)
                direct.append(np.linalg.svd(z * np.eye(n) - matrix, compute_uv=False)[-1])
                assert abs(engine[-1] - direct[-1]) <= _weyl_tolerance(matrix, z)
        assert all(a > b for a, b in zip(direct, direct[1:]))
        assert all(a > b for a, b in zip(engine, engine[1:]))


def test_sigma_min_of_a_diagonal_given_as_a_vector():
    d = np.array([3.0 - 4.0j, -0.25 + 0.5j, 2.0, 1e-300j])
    for diag in (d, d[:3], d[:1]):
        direct = np.linalg.svd(np.diag(diag), compute_uv=False)[-1]
        assert smallest_singular_value(diag) == pytest.approx(direct, rel=1e-15)


def test_pseudospectrum_grid_layout_and_values():
    op = terraced_from_measure("lebesgue", 32)
    grid = pseudospectrum_grid(op, (-0.5, 2.5, -1.0, 1.0), 8, 32)
    assert grid.sigma_min.shape == (8, 8)
    # spot check one grid point against a direct SVD
    z = complex(grid.re_axis[3], grid.im_axis[5])
    direct = np.linalg.svd(z * np.eye(32) - op.dense().astype(complex),
                           compute_uv=False)[-1]
    assert grid.sigma_min[5, 3] == pytest.approx(direct, rel=1e-10)


def test_pseudospectrum_grid_validates_inputs():
    op = terraced_from_measure("lebesgue", 16)
    with pytest.raises(ValueError):
        pseudospectrum_grid(op, (0, 1, 0, 1), 1, 16)
    # the Hankel grid's eigvalsh needs the dense matrix, and dense() refuses
    # before it allocates, so the oversized operator is cheap
    big = DENSE_LIMIT + 1
    with pytest.raises(ValueError, match=f"dim {big} exceeds dense limit"):
        pseudospectrum_grid(hankel_from_measure("lebesgue", big), (0, 1, 0, 1), 4, big)


def test_pseudospectrum_grid_rejects_a_dim_other_than_the_operators():
    op = TerracedOperator(WeightSequence.cesaro(16), 16)
    for dim in (1, 8, 17):
        with pytest.raises(ValueError, match="does not match"):
            pseudospectrum_grid(op, (0.4, 0.6, 0.7, 0.8), 2, dim)


def test_pseudospectrum_grid_terraced_above_dim_512_matches_svd():
    # the terraced family takes one inverse Lanczos run per point at every dim
    op = terraced_from_measure("lebesgue", 544)
    grid = pseudospectrum_grid(op, (0.4, 0.6, 0.7, 0.8), 2, 544)
    z = complex(grid.re_axis[0], grid.im_axis[0])
    direct = np.linalg.svd(z * np.eye(544) - op.dense().astype(complex),
                           compute_uv=False)[-1]
    assert grid.sigma_min[0, 0] == pytest.approx(direct, rel=1e-13)


EPS = np.finfo(float).eps
CESARO_WINDOW = (-0.25, 2.25, -1.25, 1.25)


def _weyl_tolerance(matrix: np.ndarray, z: complex) -> float:
    # a backward-stable solver is off by at most about dim eps ||zI - A||
    return matrix.shape[0] * EPS * (np.linalg.norm(matrix) + abs(z))


def _assert_grid_matches_svd(grid, matrix: np.ndarray):
    dim = matrix.shape[0]
    for i, im in enumerate(grid.im_axis):
        for j, re in enumerate(grid.re_axis):
            z = complex(re, im)
            direct = np.linalg.svd(z * np.eye(dim) - matrix, compute_uv=False)[-1]
            assert abs(grid.sigma_min[i, j] - direct) <= _weyl_tolerance(matrix, z), z


@pytest.mark.parametrize("op, window, res", [
    (TerracedOperator(WeightSequence.cesaro(128), 128), CESARO_WINDOW, 9),
    (terraced_from_measure("dirac(0)+0.5*lebesgue", 96), CESARO_WINDOW, 7),
    # zero weights: those rows of zI - R are z e_n, and z = 0 is a grid point
    (TerracedOperator(WeightSequence(sparse_squares(100)), 100), (-0.5, 1.5, -1.0, 1.0), 9),
], ids=["cesaro128", "atom-plus-lebesgue96", "leibowitz100"])
def test_pseudospectrum_grid_terraced_matches_svd_at_every_point(op, window, res):
    grid = pseudospectrum_grid(op, window, res, op.dim)
    _assert_grid_matches_svd(grid, op.dense())


def test_sigma_min_is_exactly_zero_where_z_is_a_weight():
    op = TerracedOperator(WeightSequence.cesaro(64), 64)
    grid = pseudospectrum_grid(op, (0.0, 2.0, -1.0, 1.0), 3, 64)  # centre z = 1 = a_0
    assert grid.sigma_min[1, 1] == 0.0
    assert np.all(np.delete(grid.sigma_min.ravel(), 4) > 0.0)
    leibowitz = sparse_squares(50)
    assert smallest_singular_value(0j - leibowitz, leibowitz) == 0.0  # z = 0 = a_0


def test_sigma_min_refuses_a_matrix_or_weights_of_another_shape():
    # a matrix is no longer an argument: read as a diagonal it would give
    # min |entries| and pass a vanishing test vacuously
    a = WeightSequence.cesaro(12).values
    matrix = 0.5j * np.eye(12) - TerracedOperator(WeightSequence(a), 12).dense()
    for weights in (None, a):
        with pytest.raises(ValueError, match="1-D diagonal"):
            smallest_singular_value(matrix, weights)
    for weights in (a[:11], np.tril(np.ones((12, 12))) * a[:, None]):
        with pytest.raises(ValueError, match="do not match"):
            smallest_singular_value(0.5j - a, weights)
    with pytest.raises(ValueError, match="terraced or Hankel"):
        pseudospectrum_grid(matrix, (0, 1, 0, 1), 2, 12)


def test_sigma_min_overflow_raises_instead_of_returning_an_estimate():
    # T = [[1e-300, 0], [1, 1e-300]] (weight a_1 = -1 below the diagonal):
    # sigma_min is about 1e-600, and the second solve entry overflows
    with pytest.raises(ArithmeticError, match="overflowed"):
        smallest_singular_value(np.full(2, 1e-300 + 0j), np.array([0.0, -1.0]))


def test_sigma_min_work_is_bounded_by_dim_steps(monkeypatch):
    # a Ritz residual that never falls: the run stops after dim steps and
    # raises instead of returning its estimate
    steps = []

    def never_converged(alphas, betas):
        steps.append(alphas.size)
        return 1.0, math.inf

    monkeypatch.setattr(spectral, "_top_ritz", never_converged)
    a = WeightSequence.cesaro(24).values
    with pytest.raises(ArithmeticError, match="did not converge in 24 steps"):
        smallest_singular_value(0.5j - a, a)
    assert steps == list(range(1, 25))


def test_long_sigma_min_run_keeps_one_lanczos_basis(monkeypatch):
    # z = -0.3 on Cesaro weights at dim 1024 takes 552 steps, so the right
    # basis doubles to 1024 rows of 16 KB: 16.8 MB, and 33.6 MB during the
    # last copy.  A reorthogonalised left basis would double alongside it.
    steps = []
    top_ritz = spectral._top_ritz

    def counted(alphas, betas):
        steps.append(alphas.size)
        return top_ritz(alphas, betas)

    monkeypatch.setattr(spectral, "_top_ritz", counted)
    a = WeightSequence.cesaro(1024).values
    smallest_singular_value(-0.3 - a, a)  # warm-up: loading _lapack is not counted
    tracemalloc.start()
    try:
        sigma = smallest_singular_value(-0.3 - a, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(steps) > 512 and sigma > 0.0
    assert peak <= 40e6, f"peak {peak / 1e6:.1f} MB"


def test_sigma_min_is_byte_identical_across_calls():
    op = TerracedOperator(WeightSequence.cesaro(96), 96)
    first = pseudospectrum_grid(op, CESARO_WINDOW, 4, 96).sigma_min
    second = pseudospectrum_grid(op, CESARO_WINDOW, 4, 96).sigma_min
    assert first.tobytes() == second.tobytes()
    a = op.row_weights()
    diagonal = (0.3 + 0.4j) - a
    assert smallest_singular_value(diagonal, a) == smallest_singular_value(diagonal.copy(),
                                                                           a.copy())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(1e-3, 2.0), min_size=2, max_size=200),
       st.floats(-1.0, 3.0), st.floats(-2.0, 2.0))
# real-axis points left of the Cesaro weights take 175 and 170 steps, longer
# than any point of the benchmark and README grids
@example(WeightSequence.cesaro(200).values.tolist(), -0.3, 0.0)
@example(WeightSequence.cesaro(200).values.tolist(), -0.05, 0.0)
def test_sigma_min_matches_svd_for_random_positive_weights(weights, re, im):
    dim = len(weights)
    a = np.array(weights)
    matrix = TerracedOperator(WeightSequence(a), dim).dense()
    z = complex(re, im)
    direct = np.linalg.svd(z * np.eye(dim) - matrix, compute_uv=False)[-1]
    try:
        sigma = smallest_singular_value(z - a, a)
    except ArithmeticError:
        # a solve overflowed, so sigma_min is below the float range: the SVD
        # must see zero to rounding there
        sigma = 0.0
    # both the engine and the LAPACK oracle are within the Weyl bound of the
    # exact value, so they may differ by twice it (at dim 2 with weights
    # 2^-4, 0.001 and z = 1.328125i they err by -1.6 and +1.4 ulp against a
    # 40-digit SVD, 3 ulp apart where the bound is 2.8 ulp)
    assert abs(sigma - direct) <= 2 * _weyl_tolerance(matrix, z)


def test_pseudospectrum_grid_hankel_matches_svd_at_every_point():
    # the Hilbert matrix is real symmetric: one eigvalsh serves the grid
    op = hankel_from_measure("lebesgue", 128)
    grid = pseudospectrum_grid(op, (-0.5, 2.0, -1.0, 1.0), 8, 128)
    _assert_grid_matches_svd(grid, op.dense())


def test_terraced_pseudo_never_materialises_the_matrix(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("a terraced grid built the dense matrix")

    monkeypatch.setattr(TerracedOperator, "dense", refuse)
    grid = pseudospectrum_grid(terraced_from_measure("lebesgue", 64), CESARO_WINDOW, 3, 64)
    assert grid.sigma_min.shape == (3, 3)
    assert main(["pseudo", "--weights", "cesaro", f"--window={','.join(map(str, CESARO_WINDOW))}",
                 "--res", "3", "--dim", "64", "--out", str(tmp_path / "p")]) == 0


@pytest.mark.parametrize("build", [terraced_from_measure, hankel_from_measure])
def test_pseudospectrum_grid_calls_sigma_min_once_per_point(build, monkeypatch):
    # the perfbench traced run reads per-point sigma_min timings from these
    # calls (spectral.smallest_singular_value.*.s_per_point), for both families
    calls = []

    def counting(diagonal, weights=None):
        calls.append(diagonal.shape)
        return original(diagonal, weights)

    original = spectral.smallest_singular_value
    monkeypatch.setattr(spectral, "smallest_singular_value", counting)
    grid = pseudospectrum_grid(build("lebesgue", 16), (-0.5, 2.0, -1.0, 1.0), 5, 16)
    assert len(calls) == grid.sigma_min.size == 25


#: float.hex of sigma_min at fixed points of each terraced family: every
#: input that reaches dstebz, dstein and ztbsv fixes these bits, so a change
#: to the Golub-Kahan step that moves any of them shows here
SIGMA_MIN_BITS = [
    ("cesaro", 96, 0.3 + 0.4j, "0x1.97179fb9e7bffp-6"),
    ("cesaro", 96, 1.5 - 0.75j, "0x1.d725bcf0189c3p-2"),
    ("cesaro", 96, -0.1 + 1.0j, "0x1.39c360e7360bdp-1"),
    ("power:2", 64, 0.5 + 0.25j, "0x1.1b9d1074c10fep-2"),
    ("power:2", 64, 0.05 + 0.1j, "0x1.ba7490af6eb3fp-5"),
    # 175 steps: the longest run of the hypothesis examples above
    ("cesaro", 200, -0.3 + 0.0j, "0x1.35c77953ae127p-2"),
    ("dirac(0)+0.5*lebesgue", 640, 0.25 + 0.5j, "0x1.5bd95fff94ca0p-3"),
]


@pytest.mark.parametrize("family, dim, z, bits", SIGMA_MIN_BITS)
def test_sigma_min_keeps_its_exact_bits(family, dim, z, bits):
    if family == "cesaro":
        a = WeightSequence.cesaro(dim).values
    elif family == "power:2":
        # logpower(2)'s moments are the power law (n+1)^-2
        a = measure_moments("logpower(2)", dim).values
    else:
        a = measure_moments(family, dim).values
    assert smallest_singular_value(z - a, a).hex() == bits


# --------------------------------------------------------------------------
# Hankel norms

@pytest.mark.parametrize("dim", [1, 8, 64, 1000])
@pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 0.9, 0.99, 0.999])
def test_hankel_norm_of_a_dirac_is_the_rank_one_norm(t, dim):
    # (mu_{m+n}) = (t^m t^n) is rank one with norm sum t^(2n) =
    # (1 - t^(2N)) / (1 - t^2), here exact in the float t; at t = 0 the
    # second step's alpha is exactly 0
    op = hankel_from_measure(f"dirac({t})", dim)
    exact = float((1 - Fraction(t) ** (2 * dim)) / (1 - Fraction(t) ** 2))
    assert abs(hankel_norm(op) - exact) <= 8 * np.finfo(float).eps * exact


@pytest.mark.parametrize("dim", [1, 2, 16, 63, 64, 65, 256, 1000, 2048])
def test_hankel_norm_of_hilbert_matches_the_dense_norm(dim):
    # both sides of FFT_THRESHOLD in hankel_apply
    op = hankel_from_measure("lebesgue", dim)
    dense = np.linalg.norm(op.dense(), 2)
    assert abs(hankel_norm(op) - dense) <= 4 * dim * np.finfo(float).eps * dense


def test_hilbert_norms_increase_below_pi():
    # Rosenblum, Proc. Amer. Math. Soc. 9 (1958): ||H_N|| increases to pi
    norms = [hankel_norm(hankel_from_measure("lebesgue", 2 ** j)) for j in range(14)]
    assert all(a <= b for a, b in zip(norms, norms[1:]))
    assert norms[-1] < math.pi


def test_hankel_norm_of_hilbert_keeps_its_exact_bits():
    assert hankel_norm(hankel_from_measure("lebesgue", 512)).hex() == "0x1.308d4ff8b4160p+1"


def test_hankel_norm_work_is_bounded_by_dim_steps(monkeypatch):
    # the same Golub-Kahan loop as sigma_min: an unconverged run raises
    # after dim steps, naming its method
    steps = []

    def never_converged(alphas, betas):
        steps.append(alphas.size)
        return 1.0, math.inf

    monkeypatch.setattr(spectral, "_top_ritz", never_converged)
    with pytest.raises(ArithmeticError,
                       match="^Lanczos for the Hankel norm did not converge in 12 steps$"):
        hankel_norm(hankel_from_measure("lebesgue", 12))
    assert steps == list(range(1, 13))


# --------------------------------------------------------------------------
# Rhaly truncation norms through the same Golub-Kahan loop

#: ROADMAP's item-9 measures: L = 1, 1, 0.5, 0 and 0.01
RHALY_NORM_MEASURES = ("lebesgue", "power(2.5)", "dirac(0)+0.5*lebesgue", "logpower(1.5)",
                       "dirac(0.99)+0.01*lebesgue")


def _rhaly_norm(op: TerracedOperator) -> float:
    """||R_N|| from terraced_apply and its adjoint, started as hankel_norm is."""
    start = spectral._start_vector(op.dim).real
    return spectral._top_singular_value(
        lambda x: terraced_apply(op, x), lambda x: terraced_apply_adjoint(op, x),
        start / np.linalg.norm(start), "Lanczos for the Rhaly norm")


@pytest.mark.parametrize("dim", [1, 16, 256, 1024])
@pytest.mark.parametrize("text", [*RHALY_NORM_MEASURES, "cesaro"])
def test_rhaly_norm_matches_the_dense_norm(text, dim):
    op = (TerracedOperator(WeightSequence.cesaro(dim), dim) if text == "cesaro"
          else terraced_from_measure(text, dim))
    dense = np.linalg.norm(op.dense(), 2)
    assert abs(_rhaly_norm(op) - dense) <= 4 * np.finfo(float).eps * dense


def test_cesaro_truncation_norms_increase_below_two():
    # Hardy's inequality: the Cesaro operator has norm 2 on l^2
    norms = [_rhaly_norm(TerracedOperator(WeightSequence.cesaro(n), n))
             for n in (256, 4096, 65536)]
    assert norms == sorted(norms) and norms[-1] < 2.0


@pytest.mark.parametrize("text", RHALY_NORM_MEASURES)
def test_rhaly_norms_increase_between_the_largest_weight_and_the_bound(tmp_path, text):
    # R_N is the leading block of R_M for N < M, so its norm cannot fall; a
    # unit vector e_n gives ||R_N|| >= a_n, and Rhaly's bound caps it
    norms = []
    for n in (256, 4096, 65536):
        op = terraced_from_measure(text, n)
        norms.append(_rhaly_norm(op))
        bound = region_json(tmp_path, "--measure", text, "--n", str(n))["rhaly_norm_bound"]
        assert op.row_weights().max() <= norms[-1] <= bound
    assert norms == sorted(norms)
