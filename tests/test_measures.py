import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import MEASURE_SPECS, measure_text
from momentspectra import quadrature
from momentspectra.measures import (
    Dirac,
    Lebesgue,
    LogPowerDensity,
    MeasureParameterError,
    MeasureSpec,
    MeasureSyntaxError,
    PowerDensity,
    moments,
    parse_measure,
)
from momentspectra.quadrature import TOL_FLOOR_EPS, QuadratureError, integrate


# --------------------------------------------------------------------------
# parsing

def test_parse_single_dirac():
    spec = parse_measure("dirac(0.5)")
    assert spec.terms == ((1.0, Dirac(0.5)),)


def test_parse_atom_plus_weighted_lebesgue():
    spec = parse_measure("dirac(0)+0.5*lebesgue")
    assert spec.terms == ((1.0, Dirac(0.0)), (0.5, Lebesgue(1.0)))


def test_parse_power_density():
    assert parse_measure("power(2)").terms == ((1.0, PowerDensity(2.0)),)


def test_parse_logpower_and_partial_lebesgue():
    spec = parse_measure("logpower(2.5) + 2*lebesgue(0.75)")
    assert spec.terms == ((1.0, LogPowerDensity(2.5)), (2.0, Lebesgue(0.75)))


def test_parse_whitespace_insignificant():
    a = parse_measure(" 2 * dirac( 0.25 )   +lebesgue ( 0.8 ) ")
    b = parse_measure("2*dirac(0.25)+lebesgue(0.8)")
    assert a == b


def test_parse_text_round_trip():
    for text in ("dirac(0.5)", "dirac(0)+0.5*lebesgue", "power(2)", "3.5*logpower(1.25)",
                 "0.00001*dirac(0.00001)"):
        spec = parse_measure(text)
        assert parse_measure(measure_text(spec)) == spec


def test_text_round_trips_numbers_repr_writes_with_exponents():
    # repr gives 1e-05, 5e-324 and 1e+16; the grammar has no exponent syntax
    for x in (1e-05, 5e-324, 1e16):
        spec = MeasureSpec(((x, PowerDensity(x)),))
        assert parse_measure(measure_text(spec)) == spec
    # the grammar has no signs either
    spec = MeasureSpec(((1.0, Dirac(-0.0)),))
    assert parse_measure(measure_text(spec)) == spec


@pytest.mark.parametrize(
    "text,position",
    [
        ("dirac(0.5", 9),        # missing closing paren
        ("dirac 0.5)", 6),       # missing opening paren
        ("spike(0.5)", 0),       # unknown atom
        ("dirac(0.2)~rest", 10), # junk instead of '+'
        ("+dirac(0.1)", 0),      # missing first term
        ("-1*dirac(0.2)", 0),    # no signed numbers in the grammar
        ("2*", 2),               # weight without atom
    ],
)
def test_parse_syntax_errors_carry_position(text, position):
    with pytest.raises(MeasureSyntaxError) as err:
        parse_measure(text)
    assert str(err.value).endswith(f"(at position {position})")


@pytest.mark.parametrize(
    "text",
    [
        "dirac(1)",
        "dirac(1.5)",
        "lebesgue(0)",
        "lebesgue(1.5)",
        "power(0)",
        "logpower(1)",
        "logpower(0.5)",
        "0*lebesgue",
    ],
)
def test_parse_parameter_errors(text):
    with pytest.raises(MeasureParameterError):
        parse_measure(text)


# --------------------------------------------------------------------------
# closed-form moments

def test_dirac_moments_are_powers():
    ms = moments(parse_measure("dirac(0.5)"), 20)
    assert np.allclose(ms.values, 0.5 ** np.arange(20), rtol=0, atol=0)


def test_lebesgue_moments():
    ms = moments(parse_measure("lebesgue"), 8)
    assert np.allclose(ms.values, 1.0 / (np.arange(8) + 1.0))
    ms_half = moments(parse_measure("lebesgue(0.5)"), 8)
    n = np.arange(8)
    assert np.allclose(ms_half.values, 0.5 ** (n + 1) / (n + 1))


def test_power_density_moments():
    ms = moments(parse_measure("power(2)"), 8)
    assert np.allclose(ms.values, 1.0 / (np.arange(8) + 3.0))


def test_logpower_moments():
    ms = moments(parse_measure("logpower(2.5)"), 8)
    assert np.allclose(ms.values, (np.arange(8) + 1.0) ** -2.5)


def test_atom_plus_density_mixture_moments():
    # unit atom at zero plus half the uniform density: mu_0 = 1.5,
    # mu_n = 0.5/(n+1) afterwards
    ms = moments(parse_measure("dirac(0)+0.5*lebesgue"), 16)
    assert ms.values[0] == 1.5
    assert np.allclose(ms.values[1:], 0.5 / (np.arange(1, 16) + 1.0))


def test_partial_sums_are_prefix_sums():
    ms = moments(parse_measure("power(1.5)"), 64)
    assert np.allclose(ms.partial_sums, np.cumsum(ms.values), rtol=0, atol=0)


def test_moments_require_positive_count():
    with pytest.raises(ValueError):
        moments(parse_measure("lebesgue"), 0)


def test_dirac_at_zero_is_degenerate():
    ms = moments(parse_measure("dirac(0)"), 16)
    assert ms.values[0] == 1.0
    assert np.all(ms.values[1:] == 0.0)


# --------------------------------------------------------------------------
# quadrature cross-check

@pytest.mark.parametrize(
    "text",
    ["lebesgue", "lebesgue(0.6)", "power(0.5)", "power(3)", "logpower(1.5)",
     "logpower(4)", "dirac(0.3)+0.25*power(2)+lebesgue(0.9)", "4*power(2)", "120*lebesgue"],
)
def test_quadrature_matches_closed_forms(text):
    spec = parse_measure(text)
    closed = moments(spec, 32)
    quad = moments(spec, 32, method="quadrature")
    assert np.max(np.abs(closed.values - quad.values)) <= 1e-12
    assert closed.error_bounds is None
    assert quad.error_bounds.shape == (32,)
    # each bound is relative to its moment, whatever the weights
    assert np.all(quad.error_bounds <= 1e-13 * quad.values)


def test_tolerance_below_rounding_is_refused_before_refining():
    calls = []

    def f(t):
        calls.append(t.size)
        return t ** 2

    floor = TOL_FLOOR_EPS * np.finfo(float).eps / 3.0
    with pytest.raises(QuadratureError, match=f"below the rounding floor {floor:.3e} "):
        integrate(f, tol=1e-18)
    assert len(calls) == 1  # the first panel only: no bisection was spent
    # just above the floor the refinement runs and meets the tolerance
    value, bound = integrate(lambda t: t ** 2, tol=1.001 * floor)
    assert abs(value - 1.0 / 3.0) <= 1e-16 and bound <= 1.001 * floor


def test_unreachable_tolerance_stalls_at_its_error_bound():
    # an oscillation far finer than 2**-12 of the interval exhausts MAX_PANELS
    with pytest.raises(QuadratureError, match="stalled at error bound") as info:
        integrate(lambda t: np.cos(1e5 * t), 1e-13)
    bound, tol = re.fullmatch(r".* bound (\S+) \(tol (\S+)\)", str(info.value)).groups()
    assert 0.1 < float(bound) < 1.0 and tol == "1.000e-13"  # finite, far above tol


def test_non_finite_integrand_is_refused_without_a_warning():
    # exp(1000 t) overflows to inf above t = 0.71, and inf * 0 is nan; no
    # RuntimeWarning escapes either (the test config makes one an error)
    for f in (lambda t: np.exp(1000.0 * t), lambda t: np.exp(1000.0 * t) * (t < 0.5)):
        with pytest.raises(QuadratureError, match="integrand is not finite"):
            integrate(f, 1e-13)


def test_scalar_integrands_within_their_bounds():
    for n in range(64):
        value, bound = integrate(lambda t: np.power(t, n), 1e-13)
        # rounding adds the argument rounding of t^n (n eps) and the rule's sum
        exact = 1.0 / (n + 1.0)
        assert abs(value - exact) <= bound + (n + 15) * np.finfo(float).eps * exact
        assert bound <= 1e-13


def test_moments_integrate_once_per_density_term(monkeypatch):
    calls = []

    def counting(f, tol):
        calls.append(tol)
        return integrate(f, tol)

    monkeypatch.setattr(quadrature, "integrate", counting)
    quad = moments(parse_measure("dirac(0.3)+0.25*power(2)+lebesgue(0.9)+logpower(2)"), 512,
                   method="quadrature")
    assert quad.values.shape == quad.error_bounds.shape == (512,)
    # one call per density term, each to the relative MOMENT_TOL; the atom stays closed
    assert calls == [1e-13] * 3


def test_quadrature_work_does_not_grow_with_n(monkeypatch):
    def evaluations(n):
        counts = []

        def counting(f, tol):
            def g(u):
                values = f(u)
                counts.append(np.size(values))
                return values
            return integrate(g, tol)

        monkeypatch.setattr(quadrature, "integrate", counting)
        moments(parse_measure("logpower(3)+0.25*lebesgue(0.9)"), n, method="quadrature")
        return sum(counts)

    # entry n is a scaled copy of entry 0: one profile is integrated per term
    assert evaluations(8) == evaluations(65536)


@pytest.mark.parametrize("text, n", [
    # the last entries hold their mass within about 5/n of t = 1, where no
    # node of the first panels lies
    ("lebesgue", 8339),
    ("power(2.5)", 8339),
    # each entry keeps its own interval in x = -log t, mapped onto [0, 1]
    ("logpower(5)", 4096),
    ("logpower(3)+0.25*lebesgue(0.9)", 2048),
    # mass within about 1/alpha of t = 1: in t the first panels saw none of it
    ("power(10000)", 4),
    ("power(100000)", 4),
    # r^(n+1)/(n+1) falls through the subnormal range and underflows to 0
    ("lebesgue(0.9)", 8192),
])
def test_long_quadrature_sequences_within_the_oracle_bound(text, n):
    spec = parse_measure(text)
    closed = moments(spec, n).values
    quad = moments(spec, n, method="quadrature")
    # the benchmark oracle's rule: the bound printed to 4 digits, plus rounding,
    # plus one subnormal ulp, which no relative allowance can express
    allowance = ((np.arange(n) + 267) * np.finfo(float).eps * np.abs(closed)
                 + np.finfo(float).smallest_subnormal)
    assert np.all(np.abs(quad.values - closed) <= quad.error_bounds * (1 + 1e-3) + allowance)


def test_pure_dirac_quadrature_stays_closed_form():
    quad = moments(parse_measure("dirac(0.4)"), 8, method="quadrature")
    assert quad.error_bounds is None


# --------------------------------------------------------------------------
# sequence invariants (property-based)

#: whitespace the parser skips: ASCII and Unicode str.isspace characters
WHITESPACE = st.text(" \t\n\r\f\v\x1c\xa0\u2003\u3000", max_size=3)


@settings(max_examples=100, deadline=None)
@given(MEASURE_SPECS, st.data())
def test_text_round_trips_through_the_parser(spec, data):
    text = measure_text(spec)
    assert parse_measure(text) == spec
    # rendered numbers and names only ever meet at punctuation, so splitting
    # there finds every token boundary
    pieces = re.split(r"([()*+])", text)
    spaced = "".join(data.draw(WHITESPACE) + piece for piece in pieces) + data.draw(WHITESPACE)
    assert parse_measure(spaced) == spec


@settings(max_examples=200, deadline=None)
@given(MEASURE_SPECS, st.data())
def test_one_character_edit_parses_or_raises_a_measure_error(spec, data):
    text = measure_text(spec)
    edit = data.draw(st.sampled_from(("delete", "replace", "insert")))
    at = data.draw(st.integers(0, len(text) - (edit != "insert")))
    char = data.draw(st.one_of(st.sampled_from("0123456789.()+*- \tx\xb2\u0663"),
                               st.characters()))
    text = text[:at] + ("" if edit == "delete" else char) + text[at + (edit != "insert"):]
    try:
        parse_measure(text)
    except MeasureSyntaxError as err:
        position = int(re.fullmatch(r".* \(at position (\d+)\)", str(err), re.S).group(1))
        assert 0 <= position <= len(text)
    except MeasureParameterError:
        pass


@settings(max_examples=25, deadline=None)
@given(MEASURE_SPECS)
def test_moments_nonincreasing_and_sums_nondecreasing(spec):
    ms = moments(spec, 48)
    assert np.all(np.diff(ms.values) <= 1e-15)
    assert np.all(np.diff(ms.partial_sums) >= -1e-15)


@settings(max_examples=25, deadline=None)
@given(MEASURE_SPECS)
def test_moment_hankel_matrices_positive_semidefinite(spec):
    ms = moments(spec, 31)
    for k in (4, 16):
        hankel = ms.values[np.add.outer(np.arange(k), np.arange(k))]
        assert np.linalg.eigvalsh(hankel)[0] >= -1e-10


@settings(max_examples=25, deadline=None)
@given(MEASURE_SPECS, MEASURE_SPECS, st.floats(0.25, 3.0), st.floats(0.25, 3.0))
def test_moments_linear_in_the_measure(spec_a, spec_b, a, b):
    combined = MeasureSpec(
        tuple((a * w, atom) for w, atom in spec_a.terms)
        + tuple((b * w, atom) for w, atom in spec_b.terms)
    )
    lhs = moments(combined, 24).values
    rhs = a * moments(spec_a, 24).values + b * moments(spec_b, 24).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


@settings(max_examples=25, deadline=None)
@given(MEASURE_SPECS, st.integers(1, 32))
def test_quadrature_within_its_bounds_of_the_closed_form(spec, n):
    # the reported bound covers discretisation only; rounding adds the
    # (n + 267) eps |mu_n| allowance the benchmark's moments oracle uses
    closed = moments(spec, n).values
    quad = moments(spec, n, method="quadrature")
    bounds = np.zeros(n) if quad.error_bounds is None else quad.error_bounds
    allowance = (np.arange(n) + 267) * np.finfo(float).eps * np.abs(closed)
    assert np.all(np.abs(quad.values - closed) <= bounds + allowance)


# --------------------------------------------------------------------------
# the weight limit L and the partial sums

@pytest.mark.parametrize("text, limit", [
    ("lebesgue", 1.0),
    ("power(2.5)", 1.0),
    ("dirac(0)+0.5*lebesgue", 0.5),
    ("dirac(0.99)+0.01*lebesgue", 0.01),
    ("logpower(1.2)+0.3*lebesgue", 0.3),
    ("2*power(1)+0.5*lebesgue+lebesgue(0.9)", 2.5),
    ("logpower(1.5)", 0.0),
    ("dirac(0.5)+lebesgue(0.999)", 0.0),
])
def test_weight_limit_sums_the_atoms_with_moments_like_one_over_n(text, limit):
    value = parse_measure(text).weight_limit()
    assert type(value) is float and value == limit


def test_lebesgue_growth_is_logarithmic_with_unit_slope():
    # oracle: the partial sums are harmonic numbers, summed directly
    ms = moments(parse_measure("lebesgue"), 4096)
    direct = np.cumsum(1.0 / (np.arange(4096) + 1.0))
    assert np.allclose(ms.partial_sums, direct, rtol=0, atol=1e-12)
    assert parse_measure("lebesgue").weight_limit() == 1.0


def test_dirac_growth_is_bounded():
    spec = parse_measure("dirac(0.5)")
    assert spec.weight_limit() == 0.0
    assert moments(spec, 4096).partial_sums[-1] == 2.0


def test_atom_plus_half_lebesgue_growth():
    spec = parse_measure("dirac(0)+0.5*lebesgue")
    assert spec.weight_limit() == 0.5
    # oracle: the unit atom at 0 plus half the harmonic numbers
    direct = 1.0 + 0.5 * np.cumsum(1.0 / (np.arange(4096) + 1.0))
    assert np.allclose(moments(spec, 4096).partial_sums, direct, rtol=0, atol=1e-12)


def test_truncated_lebesgue_growth_is_bounded():
    spec = parse_measure("lebesgue(0.5)")
    assert spec.weight_limit() == 0.0
    # sum of 0.5^(n+1)/(n+1) is log 2
    assert moments(spec, 4096).partial_sums[-1] == pytest.approx(np.log(2.0), abs=1e-15)


def test_logpower_growth_is_bounded():
    spec = parse_measure("logpower(2)")
    assert spec.weight_limit() == 0.0
    # sum of (n+1)^-2 is pi^2/6; the first 512 terms fall short by about 1/512
    assert abs(moments(spec, 512).partial_sums[-1] - np.pi**2 / 6) <= 1.0 / 512
