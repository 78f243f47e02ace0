import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import MEASURE_SPECS, hankel_from_measure, measure_moments, terraced_from_measure
from momentspectra import (
    DegenerateAtZeroError,
    DuplicateMomentsError,
    HypothesesNotMetError,
    TerracedOperator,
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
from momentspectra import spectral
from momentspectra.measures import MomentSequence, moments
from momentspectra.operators import DENSE_LIMIT, DenseLimitError
from momentspectra.spectral import ANALYTIC, IN_L2, INCONCLUSIVE, NOT_IN_L2, NUMERIC_FIT


def _handmade_moments(values) -> MomentSequence:
    return MomentSequence(np.asarray(values, dtype=float))


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


def _reference_eigenvector(ms: MomentSequence, k: int, dim: int) -> spectral.Eigenvector:
    """The recurrence one entry at a time, renormalizing past the overflow
    guard: the oracle the vectorized eigenvector must match bit for bit."""
    active = spectral._validate_moments(ms)
    if not 0 <= k < dim:
        raise ValueError(f"index {k} out of range for dim {dim}")
    if ms.values.size < dim:
        raise ValueError(f"need {dim} moments, have {ms.values.size}")
    if active < dim:
        raise ValueError(
            f"moments underflow to zero at index {active}; the recurrence needs dim <= {active}"
        )
    mu = ms.values
    mu_k = float(mu[k])
    x = np.zeros(dim)
    x[k] = 1.0
    log_scale = 0.0
    for n in range(k, dim - 1):
        gap = mu_k - mu[n + 1]
        if abs(gap) < spectral.RECURRENCE_GAP_FLOOR:
            raise ZeroDivisionError(
                f"recurrence blow-up: |mu_{k} - mu_{n + 1}| < {spectral.RECURRENCE_GAP_FLOOR}"
            )
        x[n + 1] = mu[n + 1] * mu_k / (mu[n] * gap) * x[n]
        if abs(x[n + 1]) > spectral.OVERFLOW_GUARD:
            factor = abs(x[n + 1])
            x[: n + 2] /= factor
            log_scale += float(np.log(factor))
    return spectral.Eigenvector(values=x, log_scale=log_scale)


def _outcome(fn, ms, k, dim):
    # floating-point warnings are not part of the contract; values and
    # exceptions are
    try:
        with np.errstate(all="ignore"):
            vec = fn(ms, k, dim)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return vec.values.tobytes(), vec.log_scale


@pytest.mark.parametrize("text, k", [("lebesgue", 100), ("lebesgue", 300), ("lebesgue", 1000),
                                     ("dirac(0)+0.5*lebesgue", 200)])
def test_eigenvector_renormalizations_match_the_loop_bit_for_bit(text, k):
    ms = measure_moments(text, 4096)
    expected = _outcome(_reference_eigenvector, ms, k, 4096)
    assert expected[1] > 0.0  # the case renormalizes
    assert _outcome(eigenvector, ms, k, 4096) == expected


def test_eigenvector_guard_names_the_first_degenerate_index():
    ms = _handmade_moments([1.0, 0.5, 1e-3 + 5e-15, 1e-3, 1e-3 - 4e-15, 1e-5])
    with pytest.raises(ZeroDivisionError, match=r"\|mu_2 - mu_3\|"):
        eigenvector(ms, 2, 6)
    assert _outcome(eigenvector, ms, 2, 6) == _outcome(_reference_eigenvector, ms, 2, 6)


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
    weights = WeightSequence(0.5 ** np.arange(128))
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
    weights = WeightSequence((2.0 + (-1.0) ** n) / (n + 1.0))
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
    # dense() refuses before it allocates, so the oversized operator is cheap
    big = DENSE_LIMIT + 1
    with pytest.raises(DenseLimitError):
        pseudospectrum_grid(terraced_from_measure("lebesgue", big), (0, 1, 0, 1), 4, big)


def test_pseudospectrum_grid_rejects_a_dim_other_than_the_operators():
    # z * eye(dim) - A with dim 1 would broadcast, subtracting every entry from z
    op = TerracedOperator(WeightSequence.cesaro(16), 16)
    for dim in (1, 8, 17):
        with pytest.raises(ValueError, match="does not match"):
            pseudospectrum_grid(op, (0.4, 0.6, 0.7, 0.8), 2, dim)


def test_pseudospectrum_grid_terraced_above_dim_512_matches_svd():
    # the terraced family takes a full SVD per point at every dim
    op = terraced_from_measure("lebesgue", 544)
    grid = pseudospectrum_grid(op, (0.4, 0.6, 0.7, 0.8), 2, 544)
    z = complex(grid.re_axis[0], grid.im_axis[0])
    direct = np.linalg.svd(z * np.eye(544) - op.dense().astype(complex),
                           compute_uv=False)[-1]
    assert grid.sigma_min[0, 0] == pytest.approx(direct, rel=1e-13)


def test_pseudospectrum_grid_hankel_matches_svd_at_every_point():
    # the Hilbert matrix is real symmetric: one eigvalsh serves the grid
    op = hankel_from_measure("lebesgue", 128)
    grid = pseudospectrum_grid(op, (-0.5, 2.0, -1.0, 1.0), 8, 128)
    matrix = op.dense()
    for i, im in enumerate(grid.im_axis):
        for j, re in enumerate(grid.re_axis):
            z = complex(re, im)
            direct = np.linalg.svd(z * np.eye(128) - matrix, compute_uv=False)[-1]
            # Weyl: a backward-stable solver is off by at most about dim eps ||zI - H||
            tol = 128 * np.finfo(float).eps * (np.linalg.norm(matrix) + abs(z))
            assert abs(grid.sigma_min[i, j] - direct) <= tol


@pytest.mark.parametrize("build", [terraced_from_measure, hankel_from_measure])
def test_pseudospectrum_grid_calls_sigma_min_once_per_point(build, monkeypatch):
    # the perfbench traced run reads per-point sigma_min timings from these
    # calls (spectral.smallest_singular_value.*.s_per_point), for both families
    calls = []

    def counting(matrix):
        calls.append(matrix.shape)
        return original(matrix)

    original = spectral.smallest_singular_value
    monkeypatch.setattr(spectral, "smallest_singular_value", counting)
    grid = pseudospectrum_grid(build("lebesgue", 16), (-0.5, 2.0, -1.0, 1.0), 5, 16)
    assert len(calls) == grid.sigma_min.size == 25
