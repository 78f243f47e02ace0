import numpy as np
import pytest
import scipy.linalg

from helpers import hankel_from_measure, random_complex, rhp_catalog_matrices, terraced_from_measure
from momentspectra import (
    contraction_check,
    fov_boundary,
    hermitian_min_eig,
    spectral_norm,
)


# --------------------------------------------------------------------------
# hermitian part

def test_cesaro_two_by_two_closed_form():
    matrix = terraced_from_measure("lebesgue", 2).dense()
    # Hermitian part [[1, 1/4], [1/4, 1/2]]: smallest root of the
    # characteristic polynomial via trace and determinant
    trace = 1.5
    det = 0.5 - 0.0625
    expected = (trace - np.sqrt(trace**2 - 4 * det)) / 2
    assert hermitian_min_eig(matrix) == pytest.approx(expected, abs=1e-14)
    assert expected == pytest.approx(0.39645, abs=1e-5)


def test_hilbert_one_by_one():
    assert hermitian_min_eig(np.array([[1.0]])) == 1.0


@pytest.mark.parametrize("dim", [4, 32])
def test_rank_one_hankel_is_positive(dim):
    matrix = hankel_from_measure("dirac(0.5)", dim).dense()
    assert hermitian_min_eig(matrix) >= -1e-12


def test_hermitian_min_eig_rejects_non_square():
    with pytest.raises(ValueError):
        hermitian_min_eig(np.ones((2, 3)))


# --------------------------------------------------------------------------
# field of values

def test_fov_identity_degenerates_to_a_point():
    result = fov_boundary(np.eye(8, dtype=complex), n_angles=16)
    assert np.allclose(result.boundary_points, 1.0, atol=1e-12)
    assert result.min_real_part == pytest.approx(1.0, abs=1e-12)


def test_fov_nilpotent_shift_is_the_half_disc():
    # classical example: W([[0,1],[0,0]]) is the closed disc of radius 1/2
    matrix = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    result = fov_boundary(matrix, n_angles=32)
    assert np.allclose(result.support_values, 0.5, atol=1e-12)
    assert np.allclose(np.abs(result.boundary_points), 0.5, atol=1e-10)
    # brute-force lower bound: no random quadratic form value escapes
    rng = np.random.default_rng(5)
    best = 0.0
    for _ in range(2000):
        v = random_complex(rng, 2)
        v /= np.linalg.norm(v)
        value = v.conj() @ (matrix @ v)
        assert abs(value) <= 0.5 + 1e-12
        best = max(best, abs(value))
    assert best >= 0.5 - 0.01


def test_fov_cesaro_stays_in_right_half_plane():
    matrix = terraced_from_measure("lebesgue", 64).dense()
    result = fov_boundary(matrix, n_angles=64)
    assert result.min_real_part >= -1e-10
    assert result.min_real_part == pytest.approx(hermitian_min_eig(matrix), abs=1e-12)


def test_fov_boundary_points_inside_norm_disc():
    matrix = hankel_from_measure("lebesgue", 32).dense()
    result = fov_boundary(matrix, n_angles=32)
    radius = spectral_norm(matrix) + 1e-8
    assert np.all(np.abs(result.boundary_points) <= radius)


def test_fov_needs_enough_angles():
    with pytest.raises(ValueError):
        fov_boundary(np.eye(2), n_angles=3)


def test_fov_support_at_pi_matches_min_real_part():
    matrix = terraced_from_measure("power(2)", 24).dense()
    result = fov_boundary(matrix, n_angles=16)  # even count puts pi on the grid
    pi_index = 8
    assert result.angles[pi_index] == pytest.approx(np.pi)
    assert result.support_values[pi_index] == pytest.approx(-result.min_real_part, abs=1e-12)


@pytest.mark.parametrize("name", ["lebesgue", "hilbert"])
def test_support_function_monotone_under_compression(name):
    if name == "hilbert":
        small = hankel_from_measure("lebesgue", 32).dense()
        large = hankel_from_measure("lebesgue", 64).dense()
    else:
        small = terraced_from_measure("lebesgue", 32).dense()
        large = terraced_from_measure("lebesgue", 64).dense()
    h_small = fov_boundary(small, n_angles=64).support_values
    h_large = fov_boundary(large, n_angles=64).support_values
    assert np.all(h_small <= h_large + 1e-10)


def test_quadratic_forms_respect_the_support_minimum():
    matrix = terraced_from_measure("dirac(0)+0.5*lebesgue", 48).dense().astype(complex)
    result = fov_boundary(matrix, n_angles=32)
    rng = np.random.default_rng(6)
    for _ in range(200):
        v = random_complex(rng, 48)
        v /= np.linalg.norm(v)
        assert (v.conj() @ (matrix @ v)).real >= result.min_real_part - 1e-10


def test_equivalence_of_min_eig_and_fov_min_on_catalog():
    for matrix in rhp_catalog_matrices(64).values():
        result = fov_boundary(matrix, n_angles=16)
        assert result.min_real_part == pytest.approx(hermitian_min_eig(matrix), abs=1e-10)


# --------------------------------------------------------------------------
# spectral norm

def test_spectral_norm_matches_svd_oracle():
    rng = np.random.default_rng(7)
    # exp(-0.1 A) for the Cesaro matrix has a tight top singular-value
    # cluster, where a power iteration stops short of the norm
    cesaro = terraced_from_measure("lebesgue", 64).dense()
    for matrix in (random_complex(rng, 2500).reshape(50, 50), scipy.linalg.expm(-0.1 * cesaro)):
        exact = np.linalg.svd(matrix, compute_uv=False)[0]
        assert spectral_norm(matrix) == pytest.approx(exact, rel=1e-13)


def test_spectral_norm_diagonal_and_zero():
    assert spectral_norm(np.diag([3.0, 1.0, 0.5])) == pytest.approx(3.0, rel=1e-12)
    assert spectral_norm(np.zeros((4, 4))) == 0.0


# --------------------------------------------------------------------------
# contraction semigroup

def test_zero_generator_gives_the_identity_semigroup():
    result = contraction_check(np.zeros((8, 8)), [0.1, 1.0, 10.0])
    assert np.allclose(result.norms, 1.0, atol=1e-12)


@pytest.mark.parametrize("name", ["lebesgue", "hilbert"])
def test_catalog_generators_are_contractive(name):
    if name == "hilbert":
        matrix = hankel_from_measure("lebesgue", 64).dense()
    else:
        matrix = terraced_from_measure("lebesgue", 64).dense()
    result = contraction_check(matrix, [0.1, 1.0, 10.0])
    assert result.max_norm <= 1.0 + 1e-10
    # oracle: singular values of the same exponentials
    for tau, norm in zip(result.taus, result.norms):
        exact = np.linalg.svd(scipy.linalg.expm(-tau * matrix), compute_uv=False)[0]
        assert norm == pytest.approx(exact, rel=1e-13)


def test_shifted_matrix_violates_contraction_and_dissipativity():
    matrix = terraced_from_measure("lebesgue", 64).dense() - 0.1 * np.eye(64)
    assert hermitian_min_eig(matrix) < 0.0
    result = contraction_check(matrix, [0.1, 1.0, 10.0])
    assert result.max_norm > 1.0 + 1e-9


def test_dissipativity_implies_contraction_on_catalog():
    for matrix in rhp_catalog_matrices(32).values():
        if hermitian_min_eig(matrix) >= 0.0:
            assert contraction_check(matrix, [0.5, 2.0]).max_norm <= 1.0 + 1e-9


def test_contraction_overflow_reported():
    with np.errstate(over="ignore"):
        with pytest.raises(OverflowError):
            contraction_check(np.array([[-200.0]]), [10.0])


def test_contraction_validates_taus():
    with pytest.raises(ValueError):
        contraction_check(np.eye(2), [])
    with pytest.raises(ValueError):
        contraction_check(np.eye(2), [0.0])
