import numpy as np
import pytest

from helpers import measure_moments, terraced_from_measure
from momentspectra import (
    DegenerateAtZeroError,
    DuplicateMomentsError,
    HypothesesNotMetError,
    WeightSequence,
    adjoint_disc,
    adjoint_eigenvector,
    adjoint_eigenvector_residual,
    boundedness_report,
    classify_eigenvalue,
    eigenvector,
    eigenvector_residual,
    growth_exponent,
    pseudospectrum_grid,
    smallest_singular_value,
    spectrum_region,
)
from momentspectra.measures import MomentProvenance, MomentSequence
from momentspectra.spectral import ANALYTIC, IN_L2, INCONCLUSIVE, NOT_IN_L2, NUMERIC_FIT


def _handmade_moments(values) -> MomentSequence:
    values = np.asarray(values, dtype=float)
    return MomentSequence(
        values=values,
        partial_sums=np.cumsum(values),
        provenance=tuple(MomentProvenance("closed-form") for _ in values),
        n_terms=values.size,
        degenerate=False,
    )


def _classified(text: str, n: int, ks, method="auto"):
    ms = measure_moments(text, n)
    growth = growth_exponent(ms)
    return [classify_eigenvalue(ms, growth, k, method=method) for k in ks]


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
    ],
)
def test_analytic_and_numeric_paths_never_contradict(text, n):
    ms = measure_moments(text, n)
    growth = growth_exponent(ms)
    for k in range(11):
        analytic = classify_eigenvalue(ms, growth, k, method="analytic")
        numeric = classify_eigenvalue(ms, growth, k, method="numeric")
        assert analytic.verdict != INCONCLUSIVE  # analytic never abstains
        if numeric.verdict != INCONCLUSIVE:
            assert analytic.verdict == numeric.verdict


def test_duplicate_moments_rejected():
    ms = _handmade_moments([1.0, 0.5, 0.5, 0.25])
    growth = growth_exponent(measure_moments("lebesgue", 64))
    with pytest.raises(DuplicateMomentsError):
        classify_eigenvalue(ms, growth, 0)


def test_degenerate_measure_rejected():
    ms = measure_moments("dirac(0)", 64)
    growth = growth_exponent(measure_moments("lebesgue", 64))
    with pytest.raises(DegenerateAtZeroError):
        classify_eigenvalue(ms, growth, 0)


def test_classify_index_out_of_range():
    ms = measure_moments("lebesgue", 64)
    growth = growth_exponent(ms)
    with pytest.raises(ValueError):
        classify_eigenvalue(ms, growth, 64)


# --------------------------------------------------------------------------
# eigenvectors

def test_eigenvector_vanishes_below_k():
    ms = measure_moments("dirac(0)+0.5*lebesgue", 64)
    vec = eigenvector(ms, 3, 32)
    assert np.all(vec.values[:3] == 0.0)
    assert vec.values[3] == 1.0


def test_dirac_eigenvector_matches_product_formula():
    # specialize the recurrence at k = 0 for the point mass at t:
    # x_{m+1} = t^{m+1} * prod_{n<=m} 1/(1 - t^{n+1})
    t = 0.5
    dim = 60
    ms = measure_moments("dirac(0.5)", dim)
    vec = eigenvector(ms, 0, dim).values
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


def test_eigenvector_recurrence_guard():
    ms = _handmade_moments([1.0, 1e-3, 1e-3 - 5e-15, 1e-4])
    with pytest.raises(ZeroDivisionError):
        eigenvector(ms, 1, 3)


def test_eigenvector_overflow_guard_renormalizes():
    # growing (non-square-summable) vectors are rescaled past 1e150 and the
    # factored-out magnitude lands in log_scale
    ms = measure_moments("lebesgue", 4096)
    vec = eigenvector(ms, 100, 4096)
    assert np.all(np.isfinite(vec.values))
    assert np.max(np.abs(vec.values)) <= 1e150
    assert vec.log_scale > 0.0


def test_eigenvector_rejects_underflowed_range():
    ms = measure_moments("dirac(0.5)", 1200)  # powers of 1/2 underflow at 1075
    with pytest.raises(ValueError):
        eigenvector(ms, 0, 1200)


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

def test_adjoint_disc_cesaro():
    region = adjoint_disc(growth_exponent(measure_moments("lebesgue", 4096)))
    assert region is not None
    assert region.disc_center == pytest.approx(1.0, abs=0.05)
    assert region.disc_radius == region.disc_center


def test_adjoint_disc_power_density_family():
    region = adjoint_disc(growth_exponent(measure_moments("power(1)", 4096)))
    assert region is not None
    assert region.disc_center == pytest.approx(1.0, abs=0.05)


def test_adjoint_disc_atom_plus_half_lebesgue():
    region = adjoint_disc(growth_exponent(measure_moments("dirac(0)+0.5*lebesgue", 4096)))
    assert region is not None
    assert region.disc_center == pytest.approx(0.5, abs=0.05)


def test_adjoint_disc_absent_for_summable_moments():
    assert adjoint_disc(growth_exponent(measure_moments("lebesgue(0.5)", 4096))) is None
    assert adjoint_disc(growth_exponent(measure_moments("dirac(0.5)", 4096))) is None


def test_spectrum_region_cesaro():
    weights = WeightSequence.cesaro(256)
    region = spectrum_region(weights, boundedness_report(weights, 256))
    assert region.disc_center == pytest.approx(1.0, abs=1e-12)
    assert region.disc_radius == pytest.approx(1.0, abs=1e-12)
    # every weight sits inside the closed disc
    assert np.all(np.abs(region.points - region.disc_center) <= region.disc_radius + 1e-12)


def test_spectrum_region_dirac_weights_degenerate_to_points():
    weights = WeightSequence.custom(0.5 ** np.arange(128))
    region = spectrum_region(weights, boundedness_report(weights, 128))
    assert region.disc_center is None
    assert 0.0 in region.points
    assert np.isin(0.5 ** np.arange(4), region.points).all()


def test_spectrum_region_rejects_leibowitz():
    weights = WeightSequence.leibowitz_squares(256)
    report = boundedness_report(weights, 256)
    with pytest.raises(HypothesesNotMetError):
        spectrum_region(weights, report)


def test_spectrum_region_requires_a_limit():
    n = np.arange(512)
    weights = WeightSequence.custom((2.0 + (-1.0) ** n) / (n + 1.0))
    report = boundedness_report(weights, 512)
    with pytest.raises(HypothesesNotMetError):
        spectrum_region(weights, report)


# --------------------------------------------------------------------------
# pseudospectrum

def test_sigma_min_vanishes_at_diagonal_entries():
    op = terraced_from_measure("lebesgue", 64)
    matrix = op.dense().astype(complex)
    sigma = smallest_singular_value(0.5 * np.eye(64) - matrix)  # 0.5 is a weight
    assert sigma <= 1e-12


def test_sigma_min_large_far_outside():
    op = terraced_from_measure("lebesgue", 128)
    matrix = op.dense().astype(complex)
    sigma = smallest_singular_value(10.0 * np.eye(128) - matrix)
    assert sigma >= 8.0


def test_resolvent_grows_at_interior_points():
    # surrogate for the filled-disc spectrum: sigma_min at non-eigenvalue
    # interior points decreases as the truncation grows; oracle is a direct
    # SVD at each size
    for z in (1.0 + 0.5j, 0.5 + 0.75j):
        values = []
        for n in (64, 128, 256, 512):
            matrix = terraced_from_measure("lebesgue", n).dense().astype(complex)
            values.append(np.linalg.svd(z * np.eye(n) - matrix, compute_uv=False)[-1])
        assert all(a > b for a, b in zip(values, values[1:]))


def test_inverse_iteration_agrees_with_svd_at_crossover():
    matrix = terraced_from_measure("lebesgue", 512).dense().astype(complex)
    shifted = (0.5 + 0.75j) * np.eye(512) - matrix
    via_svd = smallest_singular_value(shifted, method="svd")
    via_iteration = smallest_singular_value(shifted, method="inverse-iteration")
    assert via_iteration == pytest.approx(via_svd, rel=1e-8)


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
    with pytest.raises(ValueError):
        pseudospectrum_grid(op, (0, 1, 0, 1), 4, 16, dense_limit=8)


def test_pseudospectrum_grid_beyond_svd_crossover():
    # above the SVD limit the grid runs on shifted inverse iteration
    op = terraced_from_measure("lebesgue", 544)
    grid = pseudospectrum_grid(op, (0.4, 0.6, 0.7, 0.8), 2, 544)
    z = complex(grid.re_axis[0], grid.im_axis[0])
    direct = np.linalg.svd(z * np.eye(544) - op.dense().astype(complex),
                           compute_uv=False)[-1]
    assert grid.sigma_min[0, 0] == pytest.approx(direct, rel=1e-8)
