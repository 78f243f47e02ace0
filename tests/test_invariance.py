import json
import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import hankel_from_measure, random_complex, terraced_from_measure
from momentspectra import (
    WeightSequence,
    composition_matrix_phi,
    hilbert_column_check,
    kernel_span_rank,
    monomial_invariance_check,
    rhaly_adjoint_integral_check,
)
from momentspectra.cli import main
from momentspectra.invariance import _bernstein


# --------------------------------------------------------------------------
# exact identities behind the integral checks (rational arithmetic oracles)

def test_beta_integral_identity_for_adjoint_columns():
    # integrating u^m (1-u)^(n-m) against C(n, m) must give 1/(n+1)
    for n in range(33):
        for m in range(n + 1):
            value = (
                Fraction(math.comb(n, m))
                * Fraction(math.factorial(m) * math.factorial(n - m), math.factorial(n + 1))
            )
            assert value == Fraction(1, n + 1)


def test_beta_integral_identity_for_hilbert_entries():
    # C(n+m, m) * B(n+1, m+1) must give 1/(n+m+1)
    for n in range(17):
        for m in range(17):
            value = (
                Fraction(math.comb(n + m, m))
                * Fraction(math.factorial(n) * math.factorial(m), math.factorial(n + m + 1))
            )
            assert value == Fraction(1, n + m + 1)


def test_bernstein_recurrence_matches_exact_binomial_form():
    # b_{m,n}(x) = C(n, m) x^m (1-x)^(n-m) in rational arithmetic at the
    # float inputs; the recurrence adds only positive terms, so each entry
    # carries a relative error of a few eps per degree
    nodes = [0.0, 0.3, 0.5, 0.91, 1.0]
    for n, basis in enumerate(_bernstein(60, nodes)):
        for j, x in enumerate(nodes):
            p = Fraction(x)
            for m in range(n + 1):
                exact = float(Fraction(math.comb(n, m)) * p**m * (1 - p) ** (n - m))
                assert basis[m, j] == pytest.approx(exact, rel=1e-13, abs=1e-300), (n, m, x)


def test_bernstein_past_the_binomial_overflow_range():
    # C(1100, 550) overflows a float; the recurrence never forms it
    *_, basis = _bernstein(1100, np.linspace(0.0, 1.0, 11))
    assert basis.shape == (1101, 11)
    assert np.all(np.isfinite(basis)) and np.all(basis >= 0.0)
    assert np.max(np.abs(basis.sum(axis=0) - 1.0)) <= 1e-12


# --------------------------------------------------------------------------
# composition matrices of the affine flow

def test_composition_at_zero_is_identity():
    assert np.array_equal(composition_matrix_phi(0.0, 16), np.eye(16))


def test_composition_large_time_collapses_to_constants():
    matrix = composition_matrix_phi(50.0, 16)
    expected = np.zeros((16, 16))
    expected[0, :] = 1.0
    assert np.max(np.abs(matrix - expected)) <= 1e-12


def test_composition_matrices_upper_triangular():
    matrix = composition_matrix_phi(0.7, 24)
    assert np.array_equal(np.tril(matrix, -1), np.zeros((24, 24)))


@pytest.mark.parametrize("dim", [32, 64])
def test_composition_semigroup_law(dim):
    s, t = 0.3, 0.9
    product = composition_matrix_phi(s, dim) @ composition_matrix_phi(t, dim)
    direct = composition_matrix_phi(s + t, dim)
    assert np.max(np.abs(product - direct)) <= 1e-13


def test_composition_rejects_negative_time():
    with pytest.raises(ValueError):
        composition_matrix_phi(-0.1, 8)


# --------------------------------------------------------------------------
# integral representations

def test_cesaro_adjoint_integral_small_columns():
    # column 0 integrates e^{-t} to 1; column 1 reproduces (1/2, 1/2)
    assert rhaly_adjoint_integral_check(WeightSequence.cesaro(1), 1) <= 1e-15
    assert rhaly_adjoint_integral_check(WeightSequence.cesaro(2), 2) <= 1e-12


def test_cesaro_adjoint_integral_at_dim_32(tmp_path):
    # the invariance command records the Rhaly check on the Cesaro weights
    out = tmp_path / "inv"
    assert main(["invariance", "--measure", "lebesgue", "--dim", "32", "--out", str(out)]) == 0
    [row] = [c for c in json.loads((out / "invariance.json").read_text())
             if c["check"] == "cesaro-adjoint-integral"]
    deviation = rhaly_adjoint_integral_check(WeightSequence.cesaro(32), 32)
    assert row["deviation_or_defect"] == deviation <= 1e-11


def test_rhaly_adjoint_integral_power_law():
    # logpower(2)'s moments are the power law (n+1)^-2
    weights = terraced_from_measure("logpower(2)", 32).weights
    assert rhaly_adjoint_integral_check(weights, 32) <= 1e-12


def test_rhaly_adjoint_integral_cesaro_reduces_to_cesaro_check():
    assert rhaly_adjoint_integral_check(WeightSequence.cesaro(32), 32) <= 1e-11


def test_rhaly_adjoint_integral_zero_weights():
    assert rhaly_adjoint_integral_check(WeightSequence(np.zeros(16)), 16) == 0.0


def test_rhaly_adjoint_integral_from_moments():
    op = terraced_from_measure("dirac(0)+0.5*lebesgue", 32)
    assert rhaly_adjoint_integral_check(op.weights, 32) <= 1e-11


# --------------------------------------------------------------------------
# monomial-tail invariance

def test_terraced_operators_leave_monomial_tails_invariant():
    for text in ("lebesgue", "dirac(0.5)", "dirac(0)+0.5*lebesgue", "power(2)", "logpower(2)"):
        matrix = terraced_from_measure(text, 32).dense()
        for k in range(9):
            assert monomial_invariance_check(matrix, k) == 0.0


def test_hankel_dirac_defect_is_the_second_moment():
    matrix = hankel_from_measure("dirac(0.5)", 16).dense()
    assert monomial_invariance_check(matrix, 1) == 0.5  # entry (0, 1) = t
    assert monomial_invariance_check(matrix, 0) == 0.0


def test_every_nontrivial_hankel_has_positive_defect():
    for text in ("lebesgue", "lebesgue(0.5)", "power(2)", "logpower(2)", "dirac(0.3)"):
        matrix = hankel_from_measure(text, 16).dense()
        assert monomial_invariance_check(matrix, 1) > 0.0


def test_monomial_check_validates_index():
    with pytest.raises(ValueError):
        monomial_invariance_check(np.eye(4), 4)


# --------------------------------------------------------------------------
# reproducing-kernel spans

def test_single_kernel_has_rank_one():
    assert kernel_span_rank([0.5], 64) == 1


def test_equispaced_kernels_span_their_count():
    locations = np.linspace(0.0, 0.9, 8)
    assert kernel_span_rank(locations, 64) == 8
    # oracle: Gram matrix assembled by direct summation of coefficient
    # inner products, then a plain SVD rank count
    gram = np.zeros((8, 8))
    for i, ti in enumerate(locations):
        for j, tj in enumerate(locations):
            gram[i, j] = sum((ti * tj) ** n for n in range(64))
    singular = np.linalg.svd(gram, compute_uv=False)
    assert int(np.sum(singular >= 1e-10 * singular[0])) == 8


@pytest.mark.parametrize("dim", [8, 9, 10, 256, 100_000])
def test_equispaced_kernels_span_their_count_at_every_dim(dim):
    # the rank is read from the dim x 8 kernel matrix, whose smallest
    # relative singular value is 2.5e-6 at dim 8; its Gram matrix's is
    # 6.3e-12, below RANK_REL_THRESHOLD, and gave rank 7 at dims 8 and 9
    locations = np.linspace(0.0, 0.9, 8)
    assert kernel_span_rank(locations, dim) == 8
    # rows past 4096 are below 0.9^4096 < 1e-187 and move no singular value
    kernels = np.array([[t ** n for t in locations] for n in range(min(dim, 4096))])
    singular = np.linalg.svd(kernels, compute_uv=False)
    assert singular[-1] >= 1e-6 * singular[0]


def test_kernel_span_rejects_duplicates_and_bad_locations():
    with pytest.raises(ValueError):
        kernel_span_rank([0.5, 0.5], 16)
    with pytest.raises(ValueError):
        kernel_span_rank([0.2, 1.0], 16)
    with pytest.raises(ValueError):
        kernel_span_rank([0.1, 0.2, 0.3], 2)


# --------------------------------------------------------------------------
# Hilbert-matrix columns

def test_hilbert_column_corner_cases():
    assert hilbert_column_check(1)[0] <= 1e-15  # integral of 1 equals 1
    # m = 1 row of column 0: integral of (1 - t) equals the (1, 0) entry 1/2
    assert hilbert_column_check(2)[0] <= 1e-15


def test_hilbert_columns_up_to_sixteen():
    deviations = hilbert_column_check(17)
    assert deviations.shape == (17,) and deviations.max() <= 1e-12


# --------------------------------------------------------------------------
# rank-one quadratic forms

def test_rank_one_hankel_quadratic_form_is_point_evaluation():
    t = 0.5
    matrix = hankel_from_measure("dirac(0.5)", 32).dense()
    rng = np.random.default_rng(41)
    for _ in range(100):
        coeffs = random_complex(rng, 32)
        coeffs /= np.linalg.norm(coeffs)
        quad = (coeffs.conj() @ (matrix @ coeffs)).real
        value = np.polynomial.polynomial.polyval(t, coeffs)
        assert abs(quad - abs(value) ** 2) <= 1e-12
