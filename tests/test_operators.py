import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    MEASURE_SPECS,
    format_complex,
    measure_moments,
    ns_per_apply,
    parse_complex,
    random_complex,
    region_json,
    sparse_squares,
    terraced_from_measure,
)
from momentspectra.measures import moments, parse_measure
from momentspectra.operators import (
    DENSE_LIMIT,
    FFT_THRESHOLD,
    HankelMomentOperator,
    TerracedOperator,
    WeightSequence,
    _fast_len,
    hankel_apply,
    terraced_apply,
    terraced_apply_adjoint,
)
from momentspectra.serialize import matrix_csv


# --------------------------------------------------------------------------
# weight sequences

@pytest.mark.parametrize("values,message", [
    (np.array([]), "nonempty vector"),
    (np.array([1.0, np.inf]), "weights must be finite"),
])
def test_weight_sequence_refusals(values, message):
    with pytest.raises(ValueError, match=message):
        WeightSequence(values)


def test_operator_dimension_refusals():
    with pytest.raises(ValueError, match="dim must be at least 1"):
        TerracedOperator(WeightSequence.cesaro(4), 0)
    with pytest.raises(ValueError, match="weight sequence shorter than the requested dimension"):
        TerracedOperator(WeightSequence.cesaro(4), 5)
    with pytest.raises(ValueError, match="dim must be at least 1"):
        HankelMomentOperator(np.ones(3), 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hankel_operator_refuses_non_finite_moments(bad):
    with pytest.raises(ValueError, match="Hankel moments must be finite"):
        HankelMomentOperator(np.array([1.0, bad, 0.3, 0.2, 0.1]), 3)


def test_weight_sequence_refuses_a_complex_array():
    for values in (np.zeros(4, dtype=complex), 1.0 / (np.arange(4) + 1.0) + 0j):
        with pytest.raises(ValueError, match="real"):
            WeightSequence(values)


def test_weights_and_the_terraced_matrix_are_float64():
    ms = moments(parse_measure("dirac(0)+0.5*lebesgue"), 32)
    for weights in (WeightSequence.cesaro(32), WeightSequence(sparse_squares(32)),
                    WeightSequence(ms.values), WeightSequence(np.arange(32))):
        assert weights.values.dtype == np.float64
        assert TerracedOperator(weights, 32).dense().dtype == np.float64


# --------------------------------------------------------------------------
# prefix/suffix sums: the terraced applies on unit weights

def _unit_weights(n: int) -> TerracedOperator:
    return TerracedOperator(WeightSequence(np.ones(n)), n)


def test_prefix_sums_match_fsum_oracle():
    rng = np.random.default_rng(11)
    x = random_complex(rng, 5000) * np.logspace(0, 8, 5000)
    ours = terraced_apply(_unit_weights(5000), x)
    for idx in (0, 1, 4096, 4999):
        exact = complex(math.fsum(x[: idx + 1].real), math.fsum(x[: idx + 1].imag))
        assert abs(ours[idx] - exact) <= 1e-9 * max(1.0, abs(exact))


def test_prefix_sums_within_recursive_summation_bound_at_two_to_the_twenty():
    # recursive summation of i+1 terms errs by at most (i+1) eps sum|x_k|
    # per component
    n = 2**20
    rng = np.random.default_rng(13)
    x = random_complex(rng, n) * np.logspace(0, 8, n)
    eps = np.finfo(np.float64).eps
    sums = terraced_apply(_unit_weights(n), x)
    for idx in (0, 4095, 4096, 65535, 2**19, *rng.integers(0, n, 3), n - 1):
        for part in (np.real, np.imag):
            values = part(x[: idx + 1])
            exact = math.fsum(values.tolist())
            bound = (idx + 1) * eps * float(np.sum(np.abs(values)))
            assert abs(part(sums[idx]) - exact) <= bound, idx


def test_suffix_sums_reverse_prefix():
    rng = np.random.default_rng(12)
    x = random_complex(rng, 300)
    ours = terraced_apply_adjoint(_unit_weights(300), x)
    direct = np.array([x[m:].sum() for m in range(300)])
    assert np.max(np.abs(ours - direct)) <= 1e-12


# --------------------------------------------------------------------------
# terraced apply

def test_cesaro_on_first_basis_vector():
    op = TerracedOperator(WeightSequence.cesaro(64), 64)
    e0 = np.zeros(64)
    e0[0] = 1.0
    assert np.allclose(terraced_apply(op, e0), 1.0 / (np.arange(64) + 1.0), rtol=0, atol=0)


def test_terraced_apply_zero_vector():
    op = TerracedOperator(WeightSequence.cesaro(16), 16)
    assert np.all(terraced_apply(op, np.zeros(16)) == 0.0)


def test_terraced_apply_matches_dense_oracle():
    rng = np.random.default_rng(21)
    for n in (16, 256, 1024):
        op = terraced_from_measure("dirac(0)+0.5*lebesgue", n)
        matrix = op.dense()
        x = random_complex(rng, n)
        fast = terraced_apply(op, x)
        slow = matrix @ x
        assert np.linalg.norm(fast - slow) <= 1e-12 * np.linalg.norm(slow)


@pytest.mark.parametrize("apply", [terraced_apply, terraced_apply_adjoint])
def test_real_terraced_apply_is_the_real_part_of_the_complex_apply(apply):
    rng = np.random.default_rng(22)
    op = terraced_from_measure("dirac(0)+0.5*lebesgue", 257)
    x = random_complex(rng, 257)
    real = apply(op, x.real)
    assert real.dtype == np.float64
    assert np.array_equal(real, apply(op, x).real)


def test_terraced_apply_dimension_mismatch():
    op = TerracedOperator(WeightSequence.cesaro(8), 8)
    with pytest.raises(ValueError, match="expected a vector of length 8"):
        terraced_apply(op, np.zeros(9))
    with pytest.raises(ValueError, match="expected a vector of length 8"):
        terraced_apply_adjoint(op, np.zeros(7))


def test_adjoint_on_last_basis_vector():
    n = 32
    op = terraced_from_measure("power(2)", n)
    e_last = np.zeros(n)
    e_last[-1] = 1.0
    result = terraced_apply_adjoint(op, e_last)
    expected = np.conj(op.row_weights()[-1]) * np.ones(n)
    assert np.allclose(result, expected, rtol=0, atol=1e-16)


def test_adjoint_matches_dense_conjugate_transpose():
    rng = np.random.default_rng(22)
    for n in (16, 256, 1024):
        op = TerracedOperator(WeightSequence.cesaro(n), n)
        matrix = op.dense()
        x = random_complex(rng, n)
        fast = terraced_apply_adjoint(op, x)
        slow = matrix.conj().T @ x
        assert np.linalg.norm(fast - slow) <= 1e-12 * np.linalg.norm(slow)


def test_adjoint_zero_weights():
    op = TerracedOperator(WeightSequence(np.zeros(16)), 16)
    assert np.all(terraced_apply_adjoint(op, np.ones(16)) == 0.0)


# --------------------------------------------------------------------------
# hankel apply

def test_hankel_dirac_is_rank_one():
    t = 0.5
    n = 128
    mu = t ** np.arange(2 * n - 1)
    op = HankelMomentOperator(mu, n)
    rng = np.random.default_rng(23)
    x = random_complex(rng, n)
    expected = (t ** np.arange(n) * x).sum() * t ** np.arange(n)
    assert np.linalg.norm(hankel_apply(op, x) - expected) <= 1e-12 * np.linalg.norm(expected)


def test_hankel_hilbert_two_by_two():
    mu = 1.0 / (np.arange(3) + 1.0)
    op = HankelMomentOperator(mu, 2)
    y = hankel_apply(op, np.ones(2))
    assert np.allclose(y, [1.5, 1.0 / 2.0 + 1.0 / 3.0])


def test_fast_len_is_the_smallest_five_smooth_length():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    lengths = [m for m in range(1, 5400) if smooth(m)]
    for n in range(1, 5001):
        assert _fast_len(n) == next(m for m in lengths if m >= n), n


def test_hankel_apply_matches_dense_both_paths():
    rng = np.random.default_rng(24)
    # 16 exercises the direct path, the others FFT.  At 68, 113 and 122,
    # 2n - 1 (135, 225, 243) is 5-smooth: the circular convolution is not
    # padded, and its wrap-around ends on entry n - 2, the last discarded
    for n in (16, 68, 113, 122, 256, 1024):
        mu = 1.0 / (np.arange(2 * n - 1) + 1.0)
        op = HankelMomentOperator(mu, n)
        matrix = op.dense()
        for x in (rng.standard_normal(n), random_complex(rng, n)):
            fast = hankel_apply(op, x)
            # a real x gives a real result
            assert fast.dtype == (np.complex128 if np.iscomplexobj(x) else np.float64)
            slow = matrix @ x
            assert np.linalg.norm(fast - slow) <= 1e-11 * np.linalg.norm(slow)


def test_hankel_apply_transforms_the_moments_once_per_operator(monkeypatch):
    transformed = []

    def counting(a, *args, **kwargs):
        transformed.append(np.shape(a))
        return rfft(a, *args, **kwargs)

    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", counting)
    n = 256
    op = HankelMomentOperator(1.0 / (np.arange(2 * n - 1) + 1.0), n)
    for _ in range(3):
        hankel_apply(op, np.ones(n))
    # the moments once, then one transform of x per apply
    assert transformed == [(2 * n - 1,)] + [(n,)] * 3


def test_hankel_operator_refuses_complex_moments_and_stores_float64():
    # eigvalsh on the dense matrix reads one triangle, so a complex
    # symmetric (not Hermitian) matrix would be silently misread
    for values in (np.zeros(11, dtype=complex), 1.0 / (np.arange(11) + 1.0) + 0j):
        with pytest.raises(ValueError, match="real"):
            HankelMomentOperator(values, 6)
    op = HankelMomentOperator(np.arange(11), 6)
    assert op.moments.dtype == np.float64
    assert op.dense().dtype == np.float64


def test_hankel_needs_enough_moments():
    with pytest.raises(ValueError, match="need at least 11 moments for dim 6"):
        HankelMomentOperator(np.ones(10), 6)
    op = HankelMomentOperator(np.ones(11), 6)
    with pytest.raises(ValueError, match="expected a vector of length 6"):
        hankel_apply(op, np.zeros(5))


# --------------------------------------------------------------------------
# structured applies against dense products (property-based)

def _dense_rows(kind: str, coeffs: np.ndarray, n: int, r0: int, r1: int) -> np.ndarray:
    """Rows r0..r1-1 of the dense matrix, so that n above 4096 stays small."""
    r, c = np.arange(r0, r1)[:, None], np.arange(n)[None, :]
    if kind == "hankel":
        return coeffs[r + c]
    if kind == "terraced":
        return np.where(c <= r, coeffs[r], 0.0)
    return np.where(c >= r, np.conj(coeffs[c]), 0.0)  # adjoint: row m holds conj(a_k), k >= m


_APPLIES = {"terraced": terraced_apply, "adjoint": terraced_apply_adjoint,
            "hankel": hankel_apply}


@settings(max_examples=30, deadline=None)
@given(MEASURE_SPECS,
       st.one_of(st.integers(1, 2 * FFT_THRESHOLD), st.integers(4090, 4100)),
       st.sampled_from(sorted(_APPLIES)),
       st.integers(0, 2**32 - 1))
def test_structured_applies_match_dense_within_summation_bound(spec, n, kind, seed):
    # recursive summation errs by at most n eps |A||x| per row, for the
    # structured pass and the dense product alike; the FFT convolution adds
    # O(eps log2 L) ||mu|| ||x||.  Below the normal range rounding is absolute,
    # half a subnormal ulp per operation, so each side may also lose
    # n * smallest_subnormal: the moments t^n of a pure Dirac measure pass
    # through the subnormal range on their way to zero
    ms = moments(spec, 2 * n - 1)
    if kind == "hankel":
        op, coeffs = HankelMomentOperator.from_moments(ms, n), ms.values
    else:
        op = TerracedOperator(WeightSequence(ms.values), n)
        coeffs = op.row_weights()
    x = random_complex(np.random.default_rng(seed), n)
    y = _APPLIES[kind](op, x)
    eps = np.finfo(float).eps
    fft_term = 0.0
    if kind == "hankel" and n >= FFT_THRESHOLD:
        fft_term = 8 * eps * math.log2(3 * n) * np.linalg.norm(ms.values) * np.linalg.norm(x)
    for r0 in range(0, n, 512):
        block = _dense_rows(kind, coeffs, n, r0, min(n, r0 + 512))
        reference = block @ x
        bound = (4 * n * eps * (np.abs(block) @ np.abs(x)) + fft_term
                 + 4 * n * np.finfo(float).smallest_subnormal)
        assert np.all(np.abs(y[r0:r0 + 512] - reference) <= bound)


# --------------------------------------------------------------------------
# dense materialization

def test_dense_cesaro_two_by_two():
    matrix = TerracedOperator(WeightSequence.cesaro(2), 2).dense()
    assert np.array_equal(matrix, np.array([[1.0, 0.0], [0.5, 0.5]]))


def test_dense_hilbert_two_by_two():
    op = HankelMomentOperator(1.0 / (np.arange(3) + 1.0), 2)
    assert np.array_equal(op.dense(), np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]]))


def test_dense_zero_weights_is_zero_matrix():
    matrix = TerracedOperator(WeightSequence(np.zeros(4)), 4).dense()
    assert np.all(matrix == 0.0)


def test_dense_respects_limit():
    # refused before the 8193 x 8193 matrix is allocated
    big = DENSE_LIMIT + 1
    with pytest.raises(ValueError, match=f"dim {big} exceeds dense limit {DENSE_LIMIT}"):
        TerracedOperator(WeightSequence.cesaro(big), big).dense()


@pytest.mark.parametrize("build", [
    lambda n: TerracedOperator(WeightSequence.cesaro(n), n),
    lambda n: HankelMomentOperator(1.0 / (np.arange(2 * n - 1) + 1.0), n),
], ids=["terraced", "hankel"])
def test_dense_is_one_allocation(build):
    # no index array, ones matrix or product beside the returned matrix
    op = build(1024)
    tracemalloc.start()
    try:
        matrix = op.dense()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * matrix.nbytes, f"peak {peak / matrix.nbytes:.2f} x the matrix"


def test_hankel_dense_is_exactly_symmetric():
    ms = moments(parse_measure("power(1.5)"), 63)
    matrix = HankelMomentOperator.from_moments(ms, 32).dense()
    assert np.array_equal(matrix, matrix.T)


def test_weighted_composition_matrix_is_terraced_with_power_weights():
    # f -> f(tz)/(1-tz) maps z^n to t^n z^n * sum_j (tz)^j; column n of the
    # coefficient matrix is t^n shifted by the geometric series
    t = 0.4
    n = 24
    column_built = np.zeros((n, n))
    for col in range(n):
        column_built[col:, col] = t**col * t ** np.arange(n - col)
    terraced = TerracedOperator(WeightSequence(t ** np.arange(n)), n).dense()
    assert np.allclose(column_built, terraced, rtol=0, atol=1e-15)


def test_truncation_spectrum_is_exactly_the_weights():
    for n in (8, 64):
        op = terraced_from_measure("lebesgue", n)
        assert np.array_equal(np.diag(op.dense()), op.row_weights())


# --------------------------------------------------------------------------
# factorization and boundedness diagnostics

def _factorization_deviation(weights: WeightSequence, dim: int) -> float:
    """Max entry of D_a C - R_a with D_a = diag((n+1) a_n): exact but for rounding."""
    terraced = TerracedOperator(weights, dim).dense()
    cesaro = TerracedOperator(WeightSequence.cesaro(dim), dim).dense()
    d = (np.arange(dim) + 1.0) * weights.values[:dim]
    return float(np.max(np.abs(d[:, None] * cesaro - terraced)))


def test_factorization_identity_cesaro():
    assert _factorization_deviation(WeightSequence.cesaro(64), 64) <= 1e-15


def test_factorization_identity_power_law():
    weights = WeightSequence(measure_moments("logpower(2)", 64).values)
    assert _factorization_deviation(weights, 64) <= 1e-15


def test_factorization_identity_leibowitz():
    assert _factorization_deviation(WeightSequence(sparse_squares(64)), 64) <= 1e-15


def test_boundedness_cesaro(tmp_path):
    payload = region_json(tmp_path, "--weights", "cesaro", "--n", "256")
    assert payload["sup_weight"] == 1.0
    assert payload["rhaly_norm_bound"] < 2.0
    assert payload["verdict"] == "Bounded"


def test_boundedness_power_law_indicates_compact(tmp_path):
    # logpower(2)'s moments are the power law (n+1)^-2
    payload = region_json(tmp_path, "--measure", "logpower(2)", "--n", "4096")
    assert payload["verdict"] == "CompactIndicated"
    assert payload["rhaly_norm_bound"] is not None


@pytest.mark.parametrize("s, limit", [(1.0, 1.0), (1.001, 0.0), (2.0, 0.0)])
def test_power_law_limit(tmp_path, s, limit):
    # L = lim (n+1)^(1-s) of the moments (n+1)^-s: lebesgue's at s = 1, 1;
    # logpower(s)'s above, 0
    text = "lebesgue" if s == 1.0 else f"logpower({s})"
    assert region_json(tmp_path, "--measure", text, "--n", "64")["limit_estimate"] == limit


# --------------------------------------------------------------------------
# serialization round trip

def test_complex_csv_round_trip():
    rng = np.random.default_rng(31)
    matrix = random_complex(rng, 9).reshape(3, 3)
    # dense matrices are real: a complex one is refused, not formatted
    with pytest.raises(ValueError, match="got a complex one"):
        matrix_csv(matrix)
    text = matrix_csv(matrix.real)
    rows = [line.split(",") for line in text.strip().splitlines()]
    parsed = np.array([[parse_complex(cell) for cell in row] for row in rows])
    assert np.array_equal(parsed, matrix.real)
    assert format_complex(1.5 + 0.25j) == "1.5+0.25i"
    assert format_complex(1.5 - 0.25j) == "1.5-0.25i"


# --------------------------------------------------------------------------
# performance (soft): structured apply beats dense by a wide margin

def test_structured_apply_at_least_twenty_times_faster_than_dense():
    for kernel in ("terraced", "hankel"):
        structured = ns_per_apply(kernel, 8192, repeats=3)
        dense_run = ns_per_apply(f"{kernel}-dense", 8192, repeats=1)
        assert structured * 20 <= dense_run, kernel
