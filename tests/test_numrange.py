import math

import numpy as np
import pytest
import scipy.linalg

from helpers import (
    CATALOG_MEASURES,
    hankel_from_measure,
    random_complex,
    rhp_catalog_matrices,
    symmetric_min_eig,
    terraced_from_measure,
)
from momentspectra import _lapack, contraction_check, fov_boundary
from momentspectra.numrange import _expm


# --------------------------------------------------------------------------
# symmetric part

def test_cesaro_two_by_two_closed_form():
    matrix = terraced_from_measure("lebesgue", 2).dense()
    # Hermitian part [[1, 1/4], [1/4, 1/2]]: smallest root of the
    # characteristic polynomial via trace and determinant
    trace = 1.5
    det = 0.5 - 0.0625
    expected = (trace - np.sqrt(trace**2 - 4 * det)) / 2
    assert fov_boundary(matrix).min_real_part == pytest.approx(expected, abs=1e-14)
    assert expected == pytest.approx(0.39645, abs=1e-5)


def test_hilbert_one_by_one():
    assert fov_boundary(np.array([[1.0]])).min_real_part == 1.0


@pytest.mark.parametrize("dim", [4, 32])
def test_rank_one_hankel_is_positive(dim):
    matrix = hankel_from_measure("dirac(0.5)", dim).dense()
    assert fov_boundary(matrix).min_real_part >= -1e-12


def test_fov_rejects_non_square():
    with pytest.raises(ValueError):
        fov_boundary(np.ones((2, 3)))


# --------------------------------------------------------------------------
# field of values

def test_fov_identity_degenerates_to_a_point():
    result = fov_boundary(np.eye(8), n_angles=16)
    assert np.allclose(result.boundary_points, 1.0, atol=1e-12)
    assert result.min_real_part == pytest.approx(1.0, abs=1e-12)


def test_fov_nilpotent_shift_is_the_half_disc():
    # classical example: W([[0,1],[0,0]]) is the closed disc of radius 1/2
    matrix = np.array([[0.0, 1.0], [0.0, 0.0]])
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
    assert result.min_real_part == pytest.approx(symmetric_min_eig(matrix), abs=1e-12)


def test_fov_boundary_points_inside_norm_disc():
    matrix = hankel_from_measure("lebesgue", 32).dense()
    result = fov_boundary(matrix, n_angles=32)
    radius = np.linalg.norm(matrix, 2) + 1e-8
    assert np.all(np.abs(result.boundary_points) <= radius)


def test_fov_needs_enough_angles():
    with pytest.raises(ValueError):
        fov_boundary(np.eye(2), n_angles=3)


def test_fov_support_at_pi_matches_min_real_part():
    matrix = terraced_from_measure("power(2)", 24).dense()
    result = fov_boundary(matrix, n_angles=16)  # even count puts pi on the grid
    pi_index = 8
    assert result.angles[pi_index] == pytest.approx(np.pi)
    # both are the bottom eigenvalue of the symmetric part, from one solve at theta = 0
    assert result.support_values[pi_index] == -result.min_real_part


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
    matrix = terraced_from_measure("dirac(0)+0.5*lebesgue", 48).dense()
    result = fov_boundary(matrix, n_angles=32)
    rng = np.random.default_rng(6)
    for _ in range(200):
        v = random_complex(rng, 48)
        v /= np.linalg.norm(v)
        assert (v.conj() @ (matrix @ v)).real >= result.min_real_part - 1e-10


def test_equivalence_of_min_eig_and_fov_min_on_catalog():
    for matrix in rhp_catalog_matrices(64).values():
        result = fov_boundary(matrix, n_angles=16)
        assert result.min_real_part == pytest.approx(symmetric_min_eig(matrix), abs=1e-10)


EPS = np.finfo(float).eps


def dense_support_oracle(matrix: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """h(theta) by a full complex eigh of Re(e^{i theta} A) at every angle."""
    values = []
    for theta in angles:
        rotated = np.exp(1j * theta) * matrix.astype(complex)
        values.append(np.linalg.eigvalsh(0.5 * (rotated + rotated.conj().T))[-1])
    return np.array(values)


@pytest.mark.parametrize("kind, measure, dim", [
    ("terraced", "lebesgue", 128),
    ("terraced", "power(2)", 64),
    ("terraced", "dirac(0)+0.5*lebesgue", 96),
    ("hankel", "lebesgue", 128),
    ("hankel", "dirac(0.5)", 64),
])
@pytest.mark.parametrize("n_angles", [48, 50, 37])
def test_fov_paths_match_the_per_angle_dense_oracle(kind, measure, dim, n_angles):
    build = terraced_from_measure if kind == "terraced" else hankel_from_measure
    matrix = build(measure, dim).dense()
    result = fov_boundary(matrix, n_angles=n_angles)
    tol = 2 * dim * EPS * np.linalg.norm(matrix, 2)
    oracle = dense_support_oracle(matrix, result.angles)
    assert np.max(np.abs(result.support_values - oracle)) <= tol
    # each boundary point attains the support value: Re(e^{i theta} <Av, v>) = h(theta)
    attained = (np.exp(1j * result.angles) * result.boundary_points).real
    assert np.max(np.abs(attained - result.support_values)) <= tol
    assert result.min_real_part == pytest.approx(symmetric_min_eig(matrix), abs=tol)


@pytest.mark.parametrize("n_angles", [16, 17, 18, 50, 512, 513])
def test_terraced_support_is_mirrored_exactly(n_angles):
    matrix = terraced_from_measure("dirac(0)+0.5*lebesgue", 24).dense()
    result = fov_boundary(matrix, n_angles=n_angles)
    j = np.arange(1, (n_angles + 1) // 2)  # theta_j < pi; pi itself is its own mirror
    assert np.array_equal(result.support_values[n_angles - j], result.support_values[j])
    assert np.array_equal(result.boundary_points[n_angles - j], result.boundary_points[j].conj())


@pytest.mark.parametrize("n_angles, solves", [(512, 129), (16, 5), (18, 5), (17, 9)])
def test_terraced_fov_tridiagonalises_once_per_antipodal_pair(monkeypatch, n_angles, solves):
    # an even count pairs theta with pi - theta: N//4 + 1 solves; an odd one N//2 + 1
    calls = []
    zhetrd = _lapack.zhetrd

    def counted(*args, **kwargs):
        calls.append(1)
        return zhetrd(*args, **kwargs)

    monkeypatch.setattr(_lapack, "zhetrd", counted)
    fov_boundary(terraced_from_measure("lebesgue", 16).dense(), n_angles=n_angles)
    assert len(calls) == solves


@pytest.mark.parametrize("exponent", [600, -600])
def test_terraced_support_scales_exactly_by_a_power_of_two(exponent):
    matrix = terraced_from_measure("dirac(0)+0.5*lebesgue", 32).dense()
    base = fov_boundary(matrix, n_angles=18)
    scaled = fov_boundary(np.ldexp(matrix, exponent), n_angles=18)
    assert np.array_equal(scaled.support_values, np.ldexp(base.support_values, exponent))
    assert scaled.min_real_part == np.ldexp(base.min_real_part, exponent)


def test_terraced_fov_at_the_top_of_float64():
    # the Hermitian part is halved before the sum: 2^1023 + 2^1023 would overflow
    matrix = terraced_from_measure("lebesgue", 8).dense()
    base = fov_boundary(matrix, n_angles=8)
    scaled = fov_boundary(np.ldexp(matrix, 1023), n_angles=8)
    assert scaled.min_real_part == np.ldexp(base.min_real_part, 1023)
    # LAPACK's norms may take their overflow-safe path here: rounding, not bits
    reference = np.ldexp(base.support_values, 1023)
    assert np.allclose(scaled.support_values, reference, rtol=0,
                       atol=32 * np.finfo(float).eps * np.abs(reference).max())


def test_terraced_fov_refuses_a_non_finite_matrix():
    matrix = terraced_from_measure("lebesgue", 8).dense()
    matrix[5, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        fov_boundary(matrix, n_angles=8)


def test_fov_refuses_a_complex_matrix():
    with pytest.raises(ValueError, match="real matrix"):
        fov_boundary(np.array([[1.0, 1j], [0.0, 1.0]]), n_angles=8)


# --------------------------------------------------------------------------
# contraction semigroup

@pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, np.inf])
def test_contraction_check_refuses_a_tau_that_is_not_positive_and_finite(tau):
    with pytest.raises(ValueError, match="taus must be positive and finite"):
        contraction_check(np.eye(2), [0.5, tau])


def test_zero_generator_gives_the_identity_semigroup():
    norms = contraction_check(np.zeros((8, 8)), [0.1, 1.0, 10.0])
    assert norms.dtype == np.float64 and norms.shape == (3,)
    assert np.allclose(norms, 1.0, atol=1e-12)


@pytest.mark.parametrize("name", ["lebesgue", "hilbert"])
def test_catalog_generators_are_contractive(name):
    if name == "hilbert":
        matrix = hankel_from_measure("lebesgue", 64).dense()
    else:
        matrix = terraced_from_measure("lebesgue", 64).dense()
    taus = [0.1, 1.0, 10.0]
    norms = contraction_check(matrix, taus)
    assert norms.max() <= 1.0 + 1e-10
    # oracle: singular values of the same exponentials
    for tau, norm in zip(taus, norms):
        exact = np.linalg.svd(scipy.linalg.expm(-tau * matrix), compute_uv=False)[0]
        assert norm == pytest.approx(exact, rel=1e-13)


def test_shifted_matrix_violates_contraction_and_dissipativity():
    matrix = terraced_from_measure("lebesgue", 64).dense() - 0.1 * np.eye(64)
    assert symmetric_min_eig(matrix) < 0.0
    assert contraction_check(matrix, [0.1, 1.0, 10.0]).max() > 1.0 + 1e-9


def test_dissipativity_implies_contraction_on_catalog():
    for matrix in rhp_catalog_matrices(32).values():
        if symmetric_min_eig(matrix) >= 0.0:
            assert contraction_check(matrix, [0.5, 2.0]).max() <= 1.0 + 1e-9


@pytest.mark.parametrize("measure, shift", [("lebesgue", 0.0), ("lebesgue", 0.1),
                                            ("dirac(0.5)", 0.0), ("power(2)", 0.3)])
def test_hankel_contraction_matches_expm_and_svd_norm(measure, shift):
    dim = 48
    matrix = hankel_from_measure(measure, dim).dense() - shift * np.eye(dim)
    taus = [0.1, 1.0, 10.0]
    norms = contraction_check(matrix, taus)
    for tau, norm in zip(taus, norms):
        exact = np.linalg.svd(scipy.linalg.expm(-tau * matrix), compute_uv=False)[0]
        assert abs(norm - exact) <= 4 * dim * EPS * exact
    assert (norms.max() > 1.0 + 1e-9) == (shift > 0.0)


@pytest.mark.parametrize("name", ["lebesgue", "power-0.5", "power-2",
                                  "delta0-plus-half-lebesgue", "hilbert", "hankel-dirac-0.5"])
def test_expm_norms_match_scipy_on_the_catalog(name):
    dim = 32
    matrix = rhp_catalog_matrices(dim)[name]
    for tau in (0.1, 1.0, 10.0):
        ours = np.linalg.norm(_expm(matrix, -tau), 2)
        theirs = np.linalg.norm(scipy.linalg.expm(-tau * matrix), 2)
        assert abs(ours - theirs) <= 4 * dim * EPS * theirs


@pytest.mark.parametrize("kind", ["terraced", "hankel"])
@pytest.mark.parametrize("shift", [0.0, 0.1, 0.2, 0.3])
def test_expm_norms_match_scipy_on_shifted_catalog_generators(kind, shift):
    # at the README's --dim 64
    dim = 64
    build = terraced_from_measure if kind == "terraced" else hankel_from_measure
    for text in CATALOG_MEASURES.values():
        matrix = build(text, dim).dense() - shift * np.eye(dim)
        for tau in (0.1, 1.0, 10.0):
            ours = np.linalg.norm(_expm(matrix, -tau), 2)
            theirs = np.linalg.norm(scipy.linalg.expm(-tau * matrix), 2)
            assert abs(ours - theirs) <= 4 * dim * EPS * theirs, (text, tau)


@pytest.mark.parametrize("dim", [32, 48, 64])
@pytest.mark.parametrize("shift", [0.0, 0.1, 0.3])
def test_expm_of_a_symmetric_hankel_matrix_has_the_exact_norm(dim, shift):
    # ||exp(-tau (H - sI))|| = exp(-tau (lambda_min - s)) for the symmetric H
    for text in CATALOG_MEASURES.values():
        matrix = hankel_from_measure(text, dim).dense() - shift * np.eye(dim)
        low = np.linalg.eigvalsh(matrix)[0]
        for tau in (0.1, 1.0, 10.0):
            exact = math.exp(-tau * low)
            assert abs(np.linalg.norm(_expm(matrix, -tau), 2) - exact) <= 4 * dim * EPS * exact


def test_expm_does_not_depend_on_a_power_of_two_moved_from_tau_to_the_generator():
    # exp(tau M) = exp((2^k tau)(2^-k M)): every scaling step of _expm is exact
    matrix = terraced_from_measure("dirac(0)+0.5*lebesgue", 32).dense() - 0.1 * np.eye(32)
    for tau in (-0.1, -1.0, -10.0):
        base = _expm(matrix, tau)
        for k in (-900, -40, 40, 900):
            assert np.array_equal(_expm(np.ldexp(matrix, -k), math.ldexp(tau, k)), base)


def test_contraction_overflow_reported():
    with np.errstate(over="ignore"):
        with pytest.raises(OverflowError):
            contraction_check(np.array([[-200.0]]), [10.0])


def test_contraction_validates_taus():
    with pytest.raises(ValueError):
        contraction_check(np.eye(2), [])
    with pytest.raises(ValueError):
        contraction_check(np.eye(2), [0.0])
