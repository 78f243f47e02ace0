"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities (run pytest with -s to see them inline)."""

import json
import time

import numpy as np

from helpers import (
    hankel_from_measure,
    measure_moments,
    random_complex,
    rhp_catalog_matrices,
    symmetric_min_eig,
    terraced_from_measure,
)
from momentspectra import (
    WeightSequence,
    classify_eigenvalue,
    contraction_check,
    eigenvector_residual,
    hankel_apply,
    hilbert_column_check,
    monomial_invariance_check,
    parse_measure,
    rhaly_adjoint_integral_check,
    terraced_apply,
    terraced_apply_adjoint,
)
from momentspectra.cli import main
from momentspectra.spectral import IN_L2, NOT_IN_L2


def _report(number: int, message: str):
    print(f"[acceptance] criterion {number:02d} PASS: {message}")


def _limit(text: str) -> float:
    return parse_measure(text).weight_limit()


def test_01_cesaro_point_spectrum_empty():
    start = time.perf_counter()
    ms = measure_moments("lebesgue", 4096)
    verdicts = [v.verdict for v in classify_eigenvalue(ms, _limit("lebesgue"), range(21),
                                                       "analytic")]
    elapsed = time.perf_counter() - start
    assert all(v == NOT_IN_L2 for v in verdicts)
    assert elapsed < 5.0
    _report(1, f"lebesgue k=0..20 all NotInL2 in {elapsed:.2f}s")


def test_02_dirac_moments_are_eigenvalues_with_small_residuals():
    ms = measure_moments("dirac(0.5)", 4096)
    verdicts = [v.verdict for v in classify_eigenvalue(ms, _limit("dirac(0.5)"), range(11),
                                                       "analytic")]
    assert all(v == IN_L2 for v in verdicts)
    ms400 = measure_moments("dirac(0.5)", 400)
    residuals = [eigenvector_residual(ms400, k, 400) for k in range(6)]
    assert max(residuals) <= 1e-8
    _report(2, f"dirac(0.5) k=0..10 InL2; max residual at dim 400 = {max(residuals):.2e}")


def test_03_atom_plus_half_lebesgue_keeps_only_mu0():
    text = "dirac(0)+0.5*lebesgue"
    ms = measure_moments(text, 4096)
    first = classify_eigenvalue(ms, _limit(text), [0], "analytic")[0]
    assert first.verdict == IN_L2
    assert float(ms.values[0]) == 1.5
    rest = [v.verdict for v in classify_eigenvalue(ms, _limit(text), range(1, 11), "analytic")]
    assert all(v == NOT_IN_L2 for v in rest)
    _report(3, "point spectrum of delta_0 + 0.5*lebesgue is exactly {1.5}")


def test_04_adjoint_discs(tmp_path):
    discs = {}
    for text in ("lebesgue", "dirac(0)+0.5*lebesgue", "lebesgue(0.5)"):
        out = tmp_path / text
        assert main(["adjoint-disc", "--measure", text, "--out", str(out)]) == 0
        discs[text] = json.loads((out / "adjoint_disc.json").read_text())["disc"]
    assert discs == {"lebesgue": {"center": 1.0, "radius": 1.0},
                     "dirac(0)+0.5*lebesgue": {"center": 0.5, "radius": 0.5},
                     "lebesgue(0.5)": None}
    _report(4, "adjoint-disc writes discs (1.000) and (0.500); none for lebesgue(0.5)")


def test_05_numerical_range_in_right_half_plane():
    worst = {}
    for name, matrix in rhp_catalog_matrices(256).items():
        worst[name] = symmetric_min_eig(matrix)
        assert worst[name] >= -1e-10, name
    _report(5, "min Hermitian eigenvalue at N=256 over catalog = "
               f"{min(worst.values()):.2e}")


def test_06_contraction_semigroups():
    start = time.perf_counter()
    taus = [0.1, 1.0, 10.0]
    worst = 0.0
    for name, matrix in rhp_catalog_matrices(64).items():
        norms = contraction_check(matrix, taus)
        worst = max(worst, norms.max())
        assert norms.max() <= 1.0 + 1e-9, name
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(6, f"max ||exp(-tau A)|| over catalog = {worst:.12f} in {elapsed:.2f}s")


def test_07_integral_representations():
    cesaro_dev = rhaly_adjoint_integral_check(WeightSequence.cesaro(32), 32)
    assert cesaro_dev <= 1e-11
    power = terraced_from_measure("logpower(2)", 32)
    power_dev = rhaly_adjoint_integral_check(power.weights, 32)
    assert power_dev <= 1e-11
    mixed = terraced_from_measure("dirac(0)+0.5*lebesgue", 32)
    mixed_dev = rhaly_adjoint_integral_check(mixed.weights, 32)
    assert mixed_dev <= 1e-11
    hilbert_dev = hilbert_column_check(17).max()
    assert hilbert_dev <= 1e-12
    _report(7, f"integral deviations: cesaro {cesaro_dev:.1e}, rhaly {power_dev:.1e}, "
               f"hilbert {hilbert_dev:.1e}")


def test_08_invariance_dichotomy():
    for text in ("lebesgue", "dirac(0.5)", "dirac(0)+0.5*lebesgue", "power(2)",
                 "logpower(2)"):
        matrix = terraced_from_measure(text, 32).dense()
        for k in range(9):
            assert monomial_invariance_check(matrix, k) == 0.0, (text, k)
    hankel_defect = monomial_invariance_check(hankel_from_measure("dirac(0.5)", 16).dense(), 1)
    assert hankel_defect > 0.1
    _report(8, f"terraced defects all 0 for k<=8; hankel dirac defect = {hankel_defect}")


def test_09_oracle_equivalence_and_exact_truncation_spectra():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in (16, 256, 1024):
        terraced = terraced_from_measure("dirac(0)+0.5*lebesgue", n)
        hankel = hankel_from_measure("lebesgue", n)
        t_dense = terraced.dense()
        t_adjoint = t_dense.conj().T
        h_dense = hankel.dense()
        for _ in range(50):
            x = random_complex(rng, n)
            scale = np.linalg.norm(x)
            pairs = (
                (terraced_apply(terraced, x), t_dense @ x),
                (terraced_apply_adjoint(terraced, x), t_adjoint @ x),
                (hankel_apply(hankel, x), h_dense @ x),
            )
            for fast, slow in pairs:
                worst = max(worst, float(np.linalg.norm(fast - slow) / scale))
        assert worst <= 1e-11
        assert np.array_equal(np.diag(t_dense), terraced.row_weights())
    _report(9, f"structured vs dense worst relative deviation = {worst:.2e}; "
               "triangular eigenvalues equal weights exactly")


def test_10_pseudospectrum_trend_at_disc_center():
    # z = 1 + 0.1i lies inside the Cesaro spectrum disc |z - 1| <= 1 next to
    # its centre; z = 1 itself is the first weight, an exact eigenvalue of
    # every truncation, where sigma_min is rounding noise.  Off the weights
    # sigma_min(zI - A_N) falls like N^-(Re(1/z) - 1/2), 0.49 per octave here
    z = 1 + 0.1j
    values = []
    for n in (64, 128, 256, 512):
        matrix = terraced_from_measure("lebesgue", n).dense().astype(complex)
        sigma = np.linalg.svd(z * np.eye(n) - matrix, compute_uv=False)[-1]
        values.append(sigma)
    slopes = np.log2(np.divide(values[:-1], values[1:]))
    print(f"[acceptance] criterion 10 sigma_min(zI - A_N) at z = {z} = "
          f"{[f'{v:.4e}' for v in values]}, octave slopes {np.round(slopes, 4).tolist()}")
    assert all(a > b for a, b in zip(values, values[1:]))
    assert np.allclose(slopes, (1 / z).real - 0.5, atol=5e-3)
    _report(10, "sigma_min near the disc center strictly decreasing at slope Re(1/z) - 1/2")


def test_11_hilbert_norm_growth():
    norms = []
    for n in (64, 128, 256):
        matrix = hankel_from_measure("lebesgue", n).dense()
        norms.append(np.linalg.norm(matrix, 2))
    assert all(a <= b for a, b in zip(norms, norms[1:]))
    assert all(norm <= 3.1416 for norm in norms)
    _report(11, f"hilbert norms {[f'{v:.6f}' for v in norms]} nondecreasing, below 3.1416")


def test_12_repeated_runs_byte_identical(tmp_path):
    commands = [
        ["classify", "--measure", "lebesgue", "--k", "0..20", "--n", "4096"],
        ["eigencheck", "--measure", "dirac(0.5)", "--k", "0..5", "--dim", "400"],
        ["classify", "--measure", "dirac(0)+0.5*lebesgue", "--k", "0..10", "--n", "4096"],
        ["adjoint-disc", "--measure", "dirac(0)+0.5*lebesgue", "--n", "4096"],
        ["fov", "--measure", "lebesgue", "--dim", "64", "--angles", "32"],
        ["contraction", "--measure", "lebesgue", "--dim", "64", "--taus", "0.1,1,10"],
        ["invariance", "--measure", "dirac(0)+0.5*lebesgue", "--dim", "32"],
        ["pseudo", "--measure", "lebesgue", "--window", "0,2,-1,1", "--res", "8",
         "--dim", "64"],
        ["hilbert", "--max-index", "8", "--dims", "64,128"],
        # the norms come from an iterative run on hankel_apply
        ["hilbert", "--max-index", "8", "--dims", "64,128,256"],
        ["region", "--weights", "cesaro", "--n", "256"],
        ["moments", "--measure", "logpower(2)", "--n", "64"],
    ]
    compared = 0
    for i, command in enumerate(commands):
        first = tmp_path / f"run-{i}-a"
        second = tmp_path / f"run-{i}-b"
        assert main(command + ["--out", str(first)]) == 0
        assert main(command + ["--out", str(second)]) == 0
        names = {p.name for p in first.iterdir()} - {"manifest.json"}
        assert names == {p.name for p in second.iterdir()} - {"manifest.json"}
        for name in sorted(names):
            assert (first / name).read_bytes() == (second / name).read_bytes(), \
                (command[0], name)
            compared += 1
    _report(12, f"{compared} artifacts byte-identical across repeated runs")
