import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import momentspectra
from momentspectra import _lapack, cli, invariance, numrange, operators, spectral
from momentspectra.measures import MeasureSpec, parse_measure

from helpers import measure_text, parse_complex, readme_commands
from momentspectra.cli import main
from momentspectra.numrange import fov_boundary
from momentspectra.svg import boundary_svg, heatmap_svg, region_svg


def read_json(path: Path):
    return json.loads(path.read_text())


def artifact_bytes(out: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }


#: term weights that sum past float64: 1e308 written out, twice
OVERFLOWING_MEASURE = "+".join(["1" + "0" * 308 + "*lebesgue"] * 2)
#: finite moments 1e308/(n+1) whose partial sums pass float64 at s_2
LARGE_MEASURE = "1" + "0" * 308 + "*lebesgue"
#: the weight 1e-320 written out: every moment of it over lebesgue is subnormal
SUBNORMAL = "0." + "0" * 319 + "1"
OVERFLOWING_SUM = "measure error: term weights must have a finite sum, got inf"


# --------------------------------------------------------------------------
# subcommands

def test_moments_command(tmp_path):
    out = tmp_path / "m"
    code = main(["moments", "--measure", "lebesgue", "--n", "8", "--out", str(out)])
    assert code == 0
    lines = (out / "moments.csv").read_text().strip().splitlines()
    assert lines[0] == "n,mu_n,s_n,provenance"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 1.0
    assert first[3] == "closed-form"
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "moments"
    assert manifest["inputs"]["n"] == 8
    assert set(manifest["outputs"]) == {name.name for name in out.iterdir()}


def test_moments_refuses_overflowing_partial_sums(tmp_path, capsys):
    out = tmp_path / "m"
    assert main(["moments", "--measure", LARGE_MEASURE, "--n", "2", "--out", str(out)]) == 0
    assert (out / "moments.csv").read_text().splitlines()[2] == "1,5e+307,1.5e+308,closed-form"
    out = tmp_path / "m4"
    assert main(["moments", "--measure", LARGE_MEASURE, "--n", "4", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "numeric error: partial sums overflow from index 2\n"
    assert read_json(out / "manifest.json")["status"] == "error"
    assert not (out / "moments.csv").exists()


@pytest.mark.parametrize("flags", [[], ["--quadrature"]], ids=["closed", "quadrature"])
@pytest.mark.parametrize("measure", ["logpower(3)+0.25*lebesgue(0.9)", "power(2.5)+dirac(0.5)",
                                     "lebesgue", "120*lebesgue", "60*lebesgue+dirac(0.5)"])
def test_moments_commute_with_scaling_by_a_power_of_two(tmp_path, measure, flags):
    # 2^k times every term weight scales each moment, its partial sum and its
    # quadrature bound (relative to the moment) by 2^k, exactly in float64;
    # so a heavy measure runs at the one tolerance
    spec = parse_measure(measure)

    def run(exponent: int):
        scaled = MeasureSpec(tuple((math.ldexp(w, exponent), atom) for w, atom in spec.terms))
        out = tmp_path / str(exponent)
        assert main(["moments", "--measure", measure_text(scaled), "--n", "2048", *flags,
                     "--out", str(out)]) == 0
        rows = [row.split(",") for row in (out / "moments.csv").read_text().splitlines()[1:]]
        bounds = [float(r[3][len("quadrature("):-1]) for r in rows if r[3] != "closed-form"]
        assert len(bounds) == (len(rows) if flags else 0)
        return np.array([[float(r[1]), float(r[2])] for r in rows]), np.array(bounds)

    values, bounds = run(0)
    for exponent in (20, -20):
        scaled_values, scaled_bounds = run(exponent)
        assert np.array_equal(scaled_values, np.ldexp(values, exponent))
        # each bound is printed to 4 digits
        assert np.allclose(scaled_bounds, np.ldexp(bounds, exponent), rtol=1e-3, atol=0)


def test_classify_never_sums_the_moments(tmp_path):
    # classify reads no partial sum, so one past float64 neither fails nor warns
    assert main(["classify", "--measure", LARGE_MEASURE, "--k", "0..1", "--n", "8",
                 "--out", str(tmp_path / "c")]) == 0


def test_moments_quadrature_provenance(tmp_path):
    out = tmp_path / "mq"
    assert main(["moments", "--measure", "power(2)", "--n", "4",
                 "--quadrature", "--out", str(out)]) == 0
    rows = (out / "moments.csv").read_text().strip().splitlines()[1:]
    assert all(row.split(",")[3].startswith("quadrature(") for row in rows)


def test_classify_command_schema(tmp_path):
    out = tmp_path / "c"
    code = main(["classify", "--measure", "dirac(0.5)", "--k", "0..5",
                 "--n", "4096", "--out", str(out)])
    assert code == 0
    rows = read_json(out / "verdicts.json")
    assert [row["k"] for row in rows] == list(range(6))
    for row in rows:
        assert set(row) == {"k", "mu_k", "verdict", "slope", "method"}
        assert row["verdict"] == "InL2"


def test_eigencheck_pass_and_fail(tmp_path):
    ok = main(["eigencheck", "--measure", "dirac(0.5)", "--k", "0..3",
               "--dim", "200", "--out", str(tmp_path / "e1")])
    assert ok == 0
    # negative control: Lebesgue moments are not eigenvalues, which only an
    # embedding shows (a truncation's own recurrence is exact)
    control = main(["eigencheck", "--measure", "lebesgue", "--k", "0..3",
                    "--dim", "200", "--embed", "2", "--out", str(tmp_path / "e2")])
    assert control == 2
    assert all(not row["pass"] for row in read_json(tmp_path / "e2" / "eigencheck.json"))


def test_eigencheck_accepts_what_classify_confirms(tmp_path):
    # mu_46 of dirac(0.5) is 1.4e-14: classify calls it InL2, and the
    # recurrence needs only the relative gaps, not an absolute floor
    out = tmp_path / "e"
    assert main(["classify", "--measure", "dirac(0.5)", "--k", "46", "--out", str(out)]) == 0
    assert read_json(out / "verdicts.json")[0]["verdict"] == "InL2"
    assert main(["eigencheck", "--measure", "dirac(0.5)", "--k", "45..47", "--dim", "400",
                 "--out", str(out)]) == 0
    assert all(row["pass"] for row in read_json(out / "eigencheck.json"))


def test_adjoint_disc_command(tmp_path):
    out = tmp_path / "a"
    assert main(["adjoint-disc", "--measure", "dirac(0)+0.5*lebesgue",
                 "--n", "4096", "--out", str(out)]) == 0
    payload = read_json(out / "adjoint_disc.json")
    # beta is the exact weight limit; the octave slopes of s_n are only
    # reported beside it, within the O(1/n) harmonic correction of L
    assert payload["beta"] == payload["disc"]["center"] == payload["disc"]["radius"] == 0.5
    assert not payload["bounded"]
    assert list(payload) == ["beta", "bounded", "beta_octaves", "disc"]
    assert payload["beta_octaves"] == pytest.approx([0.5] * 3, abs=1e-3)
    none_out = tmp_path / "a2"
    assert main(["adjoint-disc", "--measure", "lebesgue(0.5)", "--n", "4096",
                 "--out", str(none_out)]) == 0
    payload = read_json(none_out / "adjoint_disc.json")
    assert (payload["beta"], payload["bounded"], payload["disc"]) == (0.0, True, None)
    assert max(payload["beta_octaves"]) < 1e-100


def test_region_command_cesaro(tmp_path):
    out = tmp_path / "r"
    assert main(["region", "--weights", "cesaro", "--n", "256", "--out", str(out)]) == 0
    payload = read_json(out / "region.json")
    assert payload["hypotheses_met"]
    assert payload["region"]["disc_center"] == pytest.approx(1.0)
    svg = (out / "region.svg").read_text()
    assert svg.startswith("<svg") and "circle" in svg


@pytest.mark.parametrize("args", [
    ["region", "--n", "4096"],
    ["pseudo", "--window=-0.25,2.25,-1.25,1.25", "--res", "8", "--dim", "256"],
], ids=["region", "pseudo"])
def test_weights_cesaro_writes_the_bytes_of_measure_lebesgue(tmp_path, args):
    # Cesaro's weights 1/(n+1) are the moments of Lebesgue measure, bit for bit
    outs = []
    for source in (["--weights", "cesaro"], ["--measure", "lebesgue"]):
        outs.append(tmp_path / source[1])
        assert main([*args, *source, "--out", str(outs[-1])]) == 0
    assert artifact_bytes(outs[0]) == artifact_bytes(outs[1])
    assert len(artifact_bytes(outs[0])) == 2


def test_region_command_hypotheses_not_met(tmp_path):
    out = tmp_path / "rl"
    # moments 1e-13 apart coincide within DISTINCT_REL_GAP, though L = 0 exists
    assert main(["region", "--measure", "dirac(0.9999999999999)", "--n", "8",
                 "--out", str(out)]) == 0
    payload = read_json(out / "region.json")
    assert (payload["verdict"], payload["hypotheses_met"]) == ("CompactIndicated", False)
    assert payload["reason"] == "weights must be pairwise distinct"
    # a positive normal run of weights followed by subnormals or zeros is an
    # underflow, not a sign error; 0.5^n leaves the normal range at n = 1023
    for source, n, first in ((["--measure", "dirac(0.5)"], "1024", 1023),
                             (["--measure", "dirac(0.5)"], "1076", 1023),
                             (["--measure", "logpower(1000)"], "8", 2)):
        assert main(["region", *source, "--n", n, "--out", str(out)]) == 0
        payload = read_json(out / "region.json")
        assert not payload["hypotheses_met"]
        assert payload["reason"] == f"weights underflow below the normal range from index {first}"
    assert main(["region", "--measure", "dirac(0.5)", "--n", "1023", "--out", str(out)]) == 0
    assert read_json(out / "region.json")["hypotheses_met"]
    # weights subnormal from index 0, with or without zeros after them: an
    # underflow from index 0, and no region is drawn
    for n in ("8", "8192"):
        out = tmp_path / f"subnormal{n}"
        assert main(["region", "--measure", f"{SUBNORMAL}*lebesgue", "--n", n,
                     "--out", str(out)]) == 0
        payload = read_json(out / "region.json")
        assert not payload["hypotheses_met"]
        assert payload["reason"] == "weights underflow below the normal range from index 0"
        assert not (out / "region.svg").exists()


@pytest.mark.parametrize("n", ["1024", "4096"])
def test_classify_small_limit_beside_a_slow_point_mass(tmp_path, n):
    # L = 0.01: every mu_k above 0.02 is an eigenvalue and no other is; the
    # slowly decaying point mass keeps mu_k above 0.02 up to k = 389
    out = tmp_path / "c"
    assert main(["classify", "--measure", "dirac(0.99)+0.01*lebesgue", "--k", "0..799",
                 "--n", n, "--out", str(out)]) == 0
    rows = read_json(out / "verdicts.json")
    assert [row["verdict"] for row in rows] == [
        "InL2" if row["mu_k"] > 0.02 else "NotInL2" for row in rows]
    assert {row["verdict"] for row in rows} == {"InL2", "NotInL2"}
    assert {row["method"] for row in rows} == {"Analytic"}


def test_classify_summable_logpower_is_in_l2_at_every_index(tmp_path):
    out = tmp_path / "c"
    assert main(["classify", "--measure", "logpower(1.5)", "--k", "0..799", "--n", "1024",
                 "--out", str(out)]) == 0
    rows = read_json(out / "verdicts.json")
    assert all(row["verdict"] == "InL2" and row["slope"] == -1.0 for row in rows)


def test_classify_method_auto_is_a_usage_error(tmp_path, capsys):
    assert main(["classify", "--measure", "lebesgue", "--k", "0", "--method", "auto",
                 "--out", str(tmp_path / "c")]) == 1
    assert "invalid choice: 'auto'" in capsys.readouterr().err


def test_region_below_the_fit_floor_reads_the_exact_limit(tmp_path):
    # region fits nothing, so 32 weights give their points and the disc (1, 1)
    out = tmp_path / "r"
    assert main(["region", "--weights", "cesaro", "--n", "32", "--out", str(out)]) == 0
    payload = read_json(out / "region.json")
    assert payload["hypotheses_met"] and payload["limit_estimate"] == 1.0
    region = payload["region"]
    assert region["points"] == [[1.0 / (n + 1.0), 0.0] for n in range(32)]
    assert region["disc_center"] == region["disc_radius"] == 1.0


def test_analytic_classify_below_the_fit_floor(tmp_path):
    # the analytic verdict reads L = 0 and fits nothing: every moment is InL2
    out = tmp_path / "c"
    assert main(["classify", "--measure", "dirac(0.5)", "--k", "0..5", "--n", "32",
                 "--out", str(out)]) == 0
    rows = read_json(out / "verdicts.json")
    assert [row["k"] for row in rows] == list(range(6))
    assert all(row["verdict"] == "InL2" for row in rows)


@pytest.mark.parametrize("args, verdict, limit", [
    (["--measure", "power(2.5)", "--n", "1024"], "Bounded", 1.0),
    (["--measure", "dirac(0.99)+0.01*lebesgue"], "Bounded", 0.01),
    (["--measure", "logpower(2)"], "CompactIndicated", 0.0),
    (["--measure", "logpower(1.5)"], "CompactIndicated", 0.0),
])
def test_region_reads_the_exact_weight_limit(tmp_path, args, verdict, limit):
    out = tmp_path / "r"
    assert main(["region", *args, "--out", str(out)]) == 0
    payload = read_json(out / "region.json")
    assert (payload["verdict"], payload["limit_estimate"]) == (verdict, limit)
    assert payload["hypotheses_met"] and payload["rhaly_norm_bound"] is not None
    region = payload["region"]
    if limit:
        assert region["disc_center"] == region["disc_radius"] == limit
    else:
        assert region["disc_center"] is None and [0.0, 0.0] in region["points"]


def test_pseudo_command(tmp_path):
    out = tmp_path / "p"
    code = main(["pseudo", "--measure", "lebesgue", "--window=-0.5,2.5,-1.5,1.5",
                 "--res", "8", "--dim", "32", "--dump-matrix", "--out", str(out)])
    assert code == 0
    lines = (out / "pseudo.csv").read_text().strip().splitlines()
    assert lines[0] == "re,im,sigma_min"
    assert len(lines) == 65
    cells = (out / "matrix.csv").read_text().strip().splitlines()[0].split(",")
    assert parse_complex(cells[0]) == 1.0 + 0.0j
    assert (out / "pseudo.svg").read_text().startswith("<svg")


def test_fov_command_with_rhp_gate(tmp_path):
    out = tmp_path / "f"
    code = main(["fov", "--measure", "lebesgue", "--dim", "16", "--angles", "16",
                 "--require-rhp", "--out", str(out)])
    assert code == 0
    payload = read_json(out / "fov.json")
    assert payload["min_real_part"] >= -1e-10
    header = (out / "fov.csv").read_text().splitlines()[0]
    assert header == "theta,re,im,h"


def test_rhp_gate_scales_with_the_operator(tmp_path):
    # the Hankel matrix of 2^20 lebesgue is a positive semidefinite Gram
    # matrix: its min Re W of about -9e-10 is rounding at a numerical radius
    # of about 3e6, inside the gate dim eps w, but below an absolute 1e-10
    out = tmp_path / "big"
    assert main(["fov", "--kind", "hankel", "--require-rhp", "--dim", "1024", "--angles", "8",
                 "--measure", "1048576*lebesgue", "--out", str(out)]) == 0
    payload = read_json(out / "fov.json")
    support = [float(row.split(",")[3]) for row in
               (out / "fov.csv").read_text().splitlines()[1:]]
    gate = cli.RHP_ROUNDING * 1024 * np.finfo(float).eps * max(support)
    assert -gate < payload["min_real_part"] < -1e-10
    assert read_json(out / "manifest.json")["tolerances"] == {"rhp_tol": gate}


def test_readme_fov_passes_the_rhp_gate(tmp_path):
    (args,) = [argv for argv in readme_commands() if argv[0] == "fov"]
    assert "--require-rhp" in args
    assert main(args[:args.index("--out")] + ["--out", str(tmp_path / "f")]) == 0


def test_rhp_gate_fails_a_clearly_negative_minimum(tmp_path, monkeypatch):
    def shifted(matrix, n_angles):
        result = fov_boundary(matrix, n_angles)
        return dataclasses.replace(result, min_real_part=-1e-3 * result.support_values.max())

    monkeypatch.setattr(numrange, "fov_boundary", shifted)
    out = tmp_path / "neg"
    assert main(["fov", "--measure", "lebesgue", "--dim", "64", "--require-rhp",
                 "--out", str(out)]) == 2
    manifest = read_json(out / "manifest.json")
    assert (manifest["status"], manifest["exit_code"]) == ("ok", 2)
    assert 0.0 < manifest["tolerances"]["rhp_tol"] < 1e-12


def test_fov_hankel_reports_one_hermitian_minimum(tmp_path):
    out = tmp_path / "fh"
    assert main(["fov", "--kind", "hankel", "--measure", "lebesgue", "--dim", "64",
                 "--out", str(out)]) == 0
    payload = read_json(out / "fov.json")
    assert payload["hermitian_min_eig"] == payload["min_real_part"]


def test_contraction_command_and_negative_control(tmp_path):
    ok = main(["contraction", "--measure", "lebesgue", "--dim", "32",
               "--taus", "0.1,1,10", "--out", str(tmp_path / "k1")])
    assert ok == 0
    rows = read_json(tmp_path / "k1" / "contraction.json")
    assert [set(row) for row in rows] == [{"tau", "norm"}] * 3
    assert all(row["norm"] <= 1.0 + 1e-9 for row in rows)
    shifted = main(["contraction", "--measure", "lebesgue", "--dim", "32",
                    "--taus", "0.1,1,10", "--shift", "0.1", "--out", str(tmp_path / "k2")])
    assert shifted == 2


def test_invariance_command(tmp_path):
    out = tmp_path / "i"
    code = main(["invariance", "--measure", "dirac(0)+0.5*lebesgue", "--dim", "32",
                 "--out", str(out)])
    assert code == 0
    checks = read_json(out / "invariance.json")
    assert all(
        set(c) == {"check", "params", "deviation_or_defect", "tolerance", "pass"}
        for c in checks
    )
    assert all(c["pass"] for c in checks)
    names = {c["check"] for c in checks}
    assert {"composition-semigroup", "cesaro-adjoint-integral", "rhaly-adjoint-integral",
            "terraced-monomial-defect", "hankel-monomial-defect", "kernel-span-rank"} <= names


@pytest.mark.parametrize("dim", ["8", "9"])
def test_invariance_passes_at_its_least_dims(tmp_path, dim):
    # --dim 8 is the floor that the 8 kernel locations allow
    out = tmp_path / "i"
    assert main(["invariance", "--measure", "lebesgue", "--dim", dim, "--out", str(out)]) == 0
    rank = next(c for c in read_json(out / "invariance.json") if c["check"] == "kernel-span-rank")
    assert rank["deviation_or_defect"] == 8.0 and rank["pass"]


#: 2^20 and 2^-40, each exact in the measure grammar's decimal notation
POWER_OF_TWO_SCALES = ["1048576", "0.0000000000009094947017729282"]


def _invariance_checks(out: Path, measure: str) -> tuple[int, dict]:
    code = main(["invariance", "--measure", measure, "--dim", "32", "--out", str(out)])
    return code, {c["check"]: c for c in read_json(out / "invariance.json")}


@pytest.mark.parametrize("scale", POWER_OF_TWO_SCALES)
def test_invariance_verdicts_do_not_move_with_the_measure_scale(tmp_path, scale):
    # the Rhaly deviation is relative to the largest weight and the Hankel
    # floor to mu_0, so a power-of-two twin reads the same relative numbers
    code, unit = _invariance_checks(tmp_path / "unit", "lebesgue")
    twin_code, twin = _invariance_checks(tmp_path / "twin", f"{scale}*lebesgue")
    assert code == twin_code == 0
    rhaly = "rhaly-adjoint-integral"
    assert twin[rhaly]["deviation_or_defect"] == unit[rhaly]["deviation_or_defect"]
    hankel = twin["hankel-monomial-defect"]
    assert hankel["tolerance"] == cli.HANKEL_DEFECT_FLOOR * float(scale)
    assert hankel["deviation_or_defect"] == 0.5 * float(scale)


@pytest.mark.parametrize("scale", ["1", *POWER_OF_TWO_SCALES])
def test_rhaly_check_fails_a_perturbed_bernstein_table_at_every_scale(tmp_path, monkeypatch,
                                                                      scale):
    exact = invariance._bernstein_integrals
    monkeypatch.setattr(invariance, "_bernstein_integrals",
                        lambda degree: exact(degree) * (1.0 + 1e-9))
    code, checks = _invariance_checks(tmp_path / "i", f"{scale}*lebesgue")
    assert code == 2
    assert not checks["rhaly-adjoint-integral"]["pass"]


def test_hilbert_norm_bound_is_pi(tmp_path):
    # Hilbert's inequality: ||H_N|| < pi at every N
    out = tmp_path / "h"
    assert main(["hilbert", "--max-index", "2", "--dims", "64,1024", "--out", str(out)]) == 0
    payload = read_json(out / "hilbert.json")
    assert payload["norm_bound"] == cli.HILBERT_NORM_BOUND == math.pi
    assert all(entry["norm"] < math.pi for entry in payload["norms"])


def test_hilbert_command(tmp_path):
    out = tmp_path / "h"
    code = main(["hilbert", "--max-index", "8", "--dims", "16,32", "--out", str(out)])
    assert code == 0
    payload = read_json(out / "hilbert.json")
    assert payload["norms_nondecreasing"] and payload["norms_within_bound"]
    assert all(col["pass"] for col in payload["columns"])


def test_hilbert_norms_form_no_dense_matrix(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Hilbert norms formed a dense matrix")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(operators.HankelMomentOperator, "dense", refuse)
    out = tmp_path / "h"
    # past the dense limit: a dense eigvalsh at 8192 alone takes tens of seconds
    assert main(["hilbert", "--max-index", "8", "--dims", "16,64,256,8192,65536",
                 "--out", str(out)]) == 0
    payload = read_json(out / "hilbert.json")
    assert [entry["dim"] for entry in payload["norms"]] == [16, 64, 256, 8192, 65536]
    assert payload["norms_nondecreasing"] and payload["norms_within_bound"]


# --------------------------------------------------------------------------
# error handling and exit codes

def test_unknown_subcommand_is_usage_error(tmp_path):
    assert main(["frobnicate", "--out", str(tmp_path)]) == 1


def test_bad_measure_is_input_error(tmp_path):
    assert main(["moments", "--measure", "spike(3)", "--n", "4",
                 "--out", str(tmp_path / "x")]) == 1
    assert main(["moments", "--measure", "dirac(2)", "--n", "4",
                 "--out", str(tmp_path / "y")]) == 1


def test_numeric_failure_exits_two_with_one_line(tmp_path, capsys):
    # exp(-1e6 (A - 5I)) overflows: a numeric failure, not an input error
    code = main(["contraction", "--measure", "lebesgue", "--dim", "64", "--taus", "1e6",
                 "--shift", "5", "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric error: ") and err.count("\n") == 1


def _failing_eigensolver(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _failing_bisection(d, e, *args):
    # dstebz's outputs (m, w, iblock, isplit) with info 3: not every eigenvalue found
    n = d.size
    return 0, np.zeros(n), np.zeros(n, np.int32), np.zeros(n, np.int32), 3


def test_eigensolver_failure_exits_two_with_one_line(tmp_path, capsys, monkeypatch):
    # the terraced fov path bisects each tridiagonal with LAPACK dstebz
    monkeypatch.setattr(_lapack, "dstebz", _failing_bisection)
    code = main(["fov", "--measure", "lebesgue", "--dim", "8", "--out", str(tmp_path / "f")])
    assert code == 2
    assert capsys.readouterr().err == ("numeric error: extreme eigenpairs of Re(e^(i theta) A) "
                                       "failed at theta = 0 (LAPACK info 3)\n")


def test_hankel_eigensolver_failure_exits_two_with_one_line(tmp_path, capsys, monkeypatch):
    # the Hankel fov path takes one np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", _failing_eigensolver)
    code = main(["fov", "--kind", "hankel", "--measure", "lebesgue", "--dim", "8",
                 "--out", str(tmp_path / "f")])
    assert code == 2
    assert capsys.readouterr().err == "numeric error: Eigenvalues did not converge\n"


def test_import_loads_no_scipy():
    # _lapack loads scipy's routines at their first lookup, not at import, so
    # start-up pays for numpy alone
    src = Path(momentspectra.__file__).resolve().parents[1]
    probe = ("import sys\n"
             "def scipy_modules():\n"
             "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
             "import momentspectra\n"
             "print(scipy_modules())\n"
             "import momentspectra.cli\n"
             "print(scipy_modules())\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n[]\n"


def test_commands_load_only_the_compiled_routines(tmp_path):
    # every command that calls BLAS or LAPACK takes it from momentspectra._lapack,
    # which loads scipy's two extension modules and never the scipy.linalg package
    src = Path(momentspectra.__file__).resolve().parents[1]
    runs = [["pseudo", "--measure", "lebesgue", "--window=-0.5,1.5,-1,1", "--res", "2",
             "--dim", "8"],
            ["fov", "--measure", "lebesgue", "--dim", "8", "--angles", "8"],
            ["contraction", "--measure", "lebesgue", "--dim", "8"],
            ["hilbert", "--max-index", "2", "--dims", "4,8"]]
    probe = ("import sys\n"
             "from momentspectra import cli\n"
             f"for i, args in enumerate({runs!r}):\n"
             f"    assert cli.main(args + ['--out', {str(tmp_path)!r} + f'/{{i}}']) == 0, args\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "['scipy.linalg._fblas', 'scipy.linalg._flapack']\n"


@pytest.mark.parametrize("args", [
    ["pseudo", "--measure", "lebesgue", "--kind", "hankel", "--window=-0.5,2.5,-1.5,1.5",
     "--res", "16", "--dim", "256"],
    ["fov", "--kind", "hankel", "--measure", "dirac(0)+0.5*lebesgue", "--dim", "256",
     "--angles", "64"],
])
def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path, args):
    # _lapack pins numpy's and scipy's OpenBLAS to one thread whatever count
    # the process starts with; two threads split the dense products another
    # way and move the last bits of these grids and boundaries; unset, the
    # package sets the variable to 1 itself and records the caller's None
    src = Path(momentspectra.__file__).resolve().parents[1]
    runs = []
    for threads in (None, "1", "2"):
        out = tmp_path / str(threads)
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        subprocess.run([sys.executable, "-m", "momentspectra", *args, "--out", str(out)],
                       env=env, check=True)
        environment = read_json(out / "manifest.json")["environment"]
        assert environment["caller_openblas_num_threads"] == threads
        blas = environment["blas"]
        assert blas and all(copy["threads"] == 1 for copy in blas.values())
        runs.append(artifact_bytes(out))
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize(
    "args, side",
    [
        (["invariance", "--measure", "lebesgue", "--dim", "8193"], 8193),
        # a terraced grid has no dense limit, but the dumped matrix has
        (["pseudo", "--weights", "cesaro", "--window=0,2,-1,1", "--res", "2", "--dim", "8193",
          "--dump-matrix"], 8193),
        # the Hankel grid's eigvalsh takes the dense matrix
        (["pseudo", "--kind", "hankel", "--measure", "lebesgue", "--window=0,2,-1,1",
          "--res", "2", "--dim", "8193"], 8193),
    ],
)
def test_dense_limit_refused_before_allocating(tmp_path, capsys, args, side):
    assert main(args + ["--out", str(tmp_path / "d")]) == 1
    assert capsys.readouterr().err == f"input error: dim {side} exceeds dense limit 8192\n"
    assert sorted(path.name for path in (tmp_path / "d").iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("max_index", [4096, 8191])
def test_hilbert_max_index_beyond_the_dense_limit_names_the_flag(tmp_path, capsys, max_index):
    # the Bernstein table of the Hilbert columns has side 2 max-index + 1,
    # so 4095 is the largest index whose table fits the dense limit 8192
    assert main(["hilbert", "--max-index", str(max_index), "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"input error: --max-index {max_index} exceeds 4095")
    assert err.count("\n") == 1


@pytest.mark.parametrize("args, line", [
    (["classify", "--measure", "lebesgue", "--n", "64"],
     "input error: eigenvalue index 64 out of range"),
    (["eigencheck", "--measure", "dirac(0.5)", "--dim", "8"],
     "input error: index 8 out of range for dim 8"),
    # refused before the residuals of the 4096 valid indices below it
    (["eigencheck", "--measure", "lebesgue", "--dim", "4096"],
     "input error: index 4096 out of range for dim 4096"),
])
def test_huge_index_range_is_refused_without_building_it(tmp_path, args, line):
    # the first refused index ends the run: no list of 10^9 indices is built.
    # The child reports its own peak RSS (VmHWM, in kB): a spawned child's
    # ru_maxrss also counts the memory of the process that spawned it
    src = Path(momentspectra.__file__).resolve().parents[1]
    probe = ("import sys\n"
             "from momentspectra.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "with open('/proc/self/status') as status:\n"
             "    print(next(row.split()[1] for row in status if row.startswith('VmHWM:')))\n"
             "sys.exit(code)\n")
    command = [sys.executable, "-c", probe, *args, "--k", "0..1000000000",
               "--out", str(tmp_path / "k")]
    start = time.perf_counter()
    done = subprocess.run(command, env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    assert time.perf_counter() - start < 1.0
    assert (done.returncode, done.stderr) == (1, line + "\n")
    assert int(done.stdout) < 100 * 1024


def test_non_finite_quadrature_integrand_exits_two(tmp_path, capsys):
    # (-log t)^169 overflows float64 on the mapped interval
    code = main(["moments", "--measure", "logpower(170)", "--quadrature", "--n", "4",
                 "--out", str(tmp_path / "q")])
    assert code == 2
    line = "numeric error: adaptive quadrature integrand is not finite"
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize(
    "args",
    [
        ["classify", "--measure", "dirac(0.5)", "--k", "5..2", "--n", "64"],
        ["eigencheck", "--measure", "dirac(0.5)", "--k", "5..2", "--dim", "16"],
        ["hilbert", "--max-index", "2", "--dims", ""],
    ],
)
def test_empty_list_argument_is_input_error(tmp_path, capsys, args):
    assert main(args + ["--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.startswith("input error: empty")


def test_missing_required_flag_is_usage_error(tmp_path):
    assert main(["moments", "--n", "4"]) == 1
    # flags must be spelt in full: a prefix of --measure is not --measure
    assert main(["moments", "--meas", "lebesgue", "--n", "4", "--out", str(tmp_path)]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "momentspectra" in capsys.readouterr().out


# --------------------------------------------------------------------------
# bare flags

@pytest.mark.parametrize("args, flag, given", [
    (["fov", "--measure", "lebesgue", "--dim", "8", "--angles", "8", "--require-rhp"],
     "require_rhp", True),
    (["fov", "--measure", "lebesgue", "--dim", "8", "--angles", "8"], "require_rhp", False),
    (["pseudo", "--measure", "lebesgue", "--window=-0.5,2.5,-1.5,1.5", "--res", "4",
      "--dim", "8", "--dump-matrix"], "dump_matrix", True),
    (["pseudo", "--measure", "lebesgue", "--window=0,1,0,1", "--res", "4", "--dim", "8"],
     "dump_matrix", False),
], ids=["require-rhp", "no-require-rhp", "dump-matrix", "no-dump-matrix"])
def test_bare_flags_are_recorded_as_booleans(tmp_path, args, flag, given):
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 0
    inputs = read_json(out / "manifest.json")["inputs"]
    assert inputs[flag] is given
    # matrix.csv exists exactly when --dump-matrix is given
    assert (out / "matrix.csv").exists() == (inputs.get("dump_matrix") is True)


# --------------------------------------------------------------------------
# determinism

@pytest.mark.parametrize(
    "args",
    [
        ["moments", "--measure", "logpower(2)", "--n", "16"],
        ["classify", "--measure", "lebesgue", "--k", "0..3", "--n", "512"],
        ["region", "--weights", "cesaro", "--n", "128"],
        ["pseudo", "--measure", "lebesgue", "--window", "0,2,-1,1", "--res", "6",
         "--dim", "24"],
        ["fov", "--measure", "power(2)", "--dim", "12", "--angles", "8"],
        ["contraction", "--measure", "lebesgue", "--dim", "16", "--taus", "0.5,2"],
    ],
)
def test_repeated_runs_are_byte_identical(tmp_path, args):
    main(args + ["--out", str(tmp_path / "run1")])
    main(args + ["--out", str(tmp_path / "run2")])
    first = artifact_bytes(tmp_path / "run1")
    second = artifact_bytes(tmp_path / "run2")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"


def test_manifest_written_last_and_lists_everything(tmp_path):
    out = tmp_path / "mf"
    main(["fov", "--measure", "lebesgue", "--dim", "8", "--angles", "8",
          "--out", str(out)])
    manifest = read_json(out / "manifest.json")
    on_disk = {p.name for p in out.iterdir()}
    assert set(manifest["outputs"]) == on_disk
    assert manifest["tool_version"]
    assert isinstance(manifest["wall_time_ms"], int)
    assert manifest["status"] == "ok" and manifest["exit_code"] == 0
    assert "error" not in manifest
    # a terraced fov runs scipy's zhetrd, so both BLAS copies are loaded
    environment = manifest["environment"]
    assert environment["numpy"] == np.__version__
    assert environment["blas"].keys() == {"numpy", "scipy"}


def test_manifest_records_every_gate_its_run_applied(tmp_path):
    def tolerances(args):
        out = tmp_path / args[0] / str(len(args))
        assert main(args + ["--out", str(out)]) == 0
        return read_json(out / "manifest.json")["tolerances"], out

    recorded, out = tolerances(["invariance", "--measure", "lebesgue", "--dim", "8"])
    assert recorded == {"semigroup_tol": cli.SEMIGROUP_TOL, "integral_tol": cli.INTEGRAL_TOL,
                        "terraced_defect_tol": cli.TERRACED_DEFECT_TOL,
                        "hankel_defect_floor": cli.HANKEL_DEFECT_FLOOR}
    # every tolerance a row was checked against, but the kernel rank's location count
    rows = read_json(out / "invariance.json")
    assert {row["tolerance"] for row in rows[:-1]} == set(recorded.values())
    recorded, _ = tolerances(["hilbert", "--max-index", "2", "--dims", "4,8"])
    assert recorded == {"column_tol": cli.COLUMN_TOL, "norm_bound": cli.HILBERT_NORM_BOUND}
    # the settle constants gate only the numeric chords
    recorded, _ = tolerances(["classify", "--measure", "lebesgue", "--k", "0", "--n", "64"])
    assert recorded == {"distinct_rel_gap": spectral.DISTINCT_REL_GAP}
    recorded, _ = tolerances(["classify", "--measure", "lebesgue", "--k", "0", "--n", "64",
                              "--method", "numeric"])
    assert recorded == {"l2_margin": spectral.L2_MARGIN, "geometric_step": spectral.GEOMETRIC_STEP,
                        "flat_step": spectral.FLAT_STEP, "slowest_ratio": spectral.SLOWEST_RATIO,
                        "distinct_rel_gap": spectral.DISTINCT_REL_GAP}


def test_contraction_of_a_generator_whose_one_norm_overflows(tmp_path):
    # the terraced matrix of 1e308 lebesgue is finite, but its first column
    # sums past float64; exp(-tau A) underflows to 0 at every tau
    out = tmp_path / "big"
    assert main(["contraction", "--measure", LARGE_MEASURE, "--dim", "8",
                 "--out", str(out)]) == 0
    assert read_json(out / "contraction.json") == [{"tau": tau, "norm": 0.0}
                                                    for tau in (0.1, 1.0, 10.0)]


def test_failed_check_is_status_ok_with_its_exit_code(tmp_path):
    # the handler ran to the end; only its contraction gate failed
    out = tmp_path / "neg"
    assert main(["contraction", "--measure", "lebesgue", "--dim", "16", "--shift", "0.1",
                 "--out", str(out)]) == 2
    manifest = read_json(out / "manifest.json")
    assert (manifest["status"], manifest["exit_code"]) == ("ok", 2)


@pytest.mark.parametrize("args, code, line", [
    (["contraction", "--measure", "lebesgue", "--dim", "64", "--taus", "1e6", "--shift", "5"],
     2, "numeric error: matrix exponential overflowed at tau=1000000.0"),
    (["moments", "--measure", "logpower(170)", "--quadrature", "--n", "4"],
     2, "numeric error: adaptive quadrature integrand is not finite"),
    (["moments", "--measure", "dirac(2)", "--n", "4"],
     1, "measure error: "),
    (["hilbert", "--max-index", "2", "--dims", ""], 1, "input error: empty"),
    # nested sections: only increasing dims make the norm check an oracle
    (["hilbert", "--max-index", "4", "--dims", "256,64"], 1, "input error: --dims 256,64 "),
    (["hilbert", "--max-index", "4", "--dims", "0,64"], 1, "input error: --dims 0,64 "),
    # refused before the column checks build their 8191 x 8191 table
    (["hilbert", "--max-index", "4095", "--dims", "64,64"], 1, "input error: --dims 64,64 "),
    # the numeric classification runs at any --n, and refuses what the
    # analytic one refuses: an index past --n, after the indices before it
    (["classify", "--measure", "dirac(0.5)", "--k", "0..40", "--n", "32", "--method", "numeric"],
     1, "input error: eigenvalue index 32 out of range"),
    # and a moment that underflowed below the normal range
    (["classify", "--measure", "dirac(0.5)", "--k", "2000", "--method", "numeric"],
     1, "input error: moment 2000 underflowed below the normal range"),
    # (-log t)^149 overflows float64 on the mapped interval: refused, not summed as nan
    (["moments", "--measure", "logpower(150)", "--quadrature", "--n", "8"],
     2, "numeric error: adaptive quadrature integrand is not finite"),
    # term weights that sum past float64: refused before any moment is built
    (["moments", "--measure", OVERFLOWING_MEASURE, "--n", "3"], 1, OVERFLOWING_SUM),
    (["classify", "--measure", OVERFLOWING_MEASURE, "--k", "0"], 1, OVERFLOWING_SUM),
    (["region", "--measure", OVERFLOWING_MEASURE, "--n", "16"], 1, OVERFLOWING_SUM),
    (["pseudo", "--measure", OVERFLOWING_MEASURE, "--window=0,1,0,1", "--res", "2",
      "--dim", "16"], 1, OVERFLOWING_SUM),
    # one operator source: --measure and --weights exclude each other
    (["region", "--measure", "lebesgue", "--weights", "cesaro", "--n", "8"],
     1, "input error: give --measure or --weights, not both"),
    (["pseudo", "--measure", "lebesgue", "--weights", "cesaro", "--window=0,1,0,1",
      "--res", "2", "--dim", "8"], 1, "input error: give --measure or --weights, not both"),
    (["pseudo", "--measure", "lebesgue", "--weights", "cesaro", "--kind", "hankel",
      "--window=0,1,0,1", "--res", "2", "--dim", "8"],
     1, "input error: give --measure or --weights, not both"),
    # --measure is parsed before any other input of the run
    (["pseudo", "--window=bad", "--measure", "bad(", "--dim", "8"], 1, "measure error: "),
    # the overflowing sum on fov too
    (["fov", "--measure", OVERFLOWING_MEASURE, "--dim", "16", "--angles", "8"],
     1, OVERFLOWING_SUM),
    # finite moments whose Rhaly bound or eigenvector residual passes float64
    (["region", "--measure", LARGE_MEASURE, "--n", "8"],
     2, "numeric error: Rhaly's norm bound overflows"),
    (["eigencheck", "--measure", LARGE_MEASURE, "--k", "0", "--dim", "8"],
     2, "numeric error: eigenvector residual at k = 0 overflows"),
    # the first index past --dim ends the run, however far the range reaches
    (["eigencheck", "--measure", "dirac(0.5)", "--k", "0..1000000000000", "--dim", "8"],
     1, "input error: index 8 out of range for dim 8"),
    (["pseudo", "--measure", "lebesgue", "--window=0,1,2", "--res", "2", "--dim", "4"],
     1, "input error: window must be re0,re1,im0,im1"),
    (["pseudo", "--window=0,1,0,1", "--res", "2", "--dim", "4"],
     1, "input error: provide --measure or --weights"),
])
def test_failed_run_leaves_a_manifest_with_status_error(tmp_path, capsys, args, code, line):
    out = tmp_path / "err"
    assert main(args + ["--out", str(out)]) == code
    printed = capsys.readouterr().err
    manifest = read_json(out / "manifest.json")
    assert manifest["status"] == "error" and manifest["exit_code"] == code
    assert manifest["error"] == printed.rstrip("\n") and manifest["error"].startswith(line)
    assert manifest["command"] == args[0] and manifest["tolerances"] == {}
    assert set(manifest["outputs"]) == {p.name for p in out.iterdir()}


@pytest.mark.parametrize("args, line", [
    # moments' one number is its count of terms, --quadrature or not
    (["moments", "--measure", "lebesgue", "--n", "nan", "--quadrature"],
     "usage error: argument --n: invalid int value: 'nan'"),
    (["moments", "--measure", "lebesgue", "--n", "inf", "--quadrature"],
     "usage error: argument --n: invalid int value: 'inf'"),
    (["contraction", "--measure", "lebesgue", "--dim", "8", "--shift=-inf"],
     "usage error: argument --shift: expected a finite number, got '-inf'"),
    # a non-finite number is no integer either
    (["hilbert", "--max-index", "nan", "--dims", "8"],
     "usage error: argument --max-index: invalid int value: 'nan'"),
    (["fov", "--measure", "lebesgue", "--dim", "8", "--angles", "inf"],
     "usage error: argument --angles: invalid int value: 'inf'"),
    (["pseudo", "--measure", "lebesgue", "--window=0,1,0,1", "--res", "nan", "--dim", "8"],
     "usage error: argument --res: invalid int value: 'nan'"),
    (["contraction", "--measure", "lebesgue", "--dim", "8", "--taus", "0.1,inf"],
     "input error: --taus: expected a finite number, got 'inf'"),
    (["contraction", "--measure", "lebesgue", "--dim", "8", "--shift", "nan"],
     "usage error: argument --shift: expected a finite number, got 'nan'"),
    (["pseudo", "--measure", "lebesgue", "--window=0,1,0,nan", "--res", "2", "--dim", "8"],
     "input error: --window: expected a finite number, got 'nan'"),
    (["region", "--weights", "power:nan", "--n", "64"],
     "usage error: argument --weights: invalid choice: 'power:nan' (choose from 'cesaro')"),
    (["hilbert", "--max-index", "-1", "--dims", "8"],
     "usage error: argument --max-index: -1 is below 0"),
    (["fov", "--measure", "lebesgue", "--dim", "8", "--angles", "3"],
     "usage error: argument --angles: 3 is below 4"),
    (["eigencheck", "--measure", "dirac(0.5)", "--k", "0", "--dim", "8", "--embed", "0"],
     "usage error: argument --embed: 0 is below 1"),
    (["moments", "--measure", "lebesgue", "--n", "0", "--quadrature"],
     "usage error: argument --n: 0 is below 1"),
    # every --dim needs one row and every --res two points per axis
    (["eigencheck", "--measure", "dirac(0.5)", "--k", "0", "--dim", "0"],
     "usage error: argument --dim: 0 is below 1"),
    (["pseudo", "--measure", "lebesgue", "--window=0,1,0,1", "--res", "1", "--dim", "8"],
     "usage error: argument --res: 1 is below 2"),
    (["pseudo", "--measure", "lebesgue", "--window=0,1,0,1", "--dim", "0"],
     "usage error: argument --dim: 0 is below 1"),
    (["fov", "--measure", "lebesgue", "--dim", "0"],
     "usage error: argument --dim: 0 is below 1"),
    (["contraction", "--measure", "lebesgue", "--dim", "-2"],
     "usage error: argument --dim: -2 is below 1"),
    # every --n needs at least one term, a tail fit or not
    (["region", "--weights", "cesaro", "--n", "0"],
     "usage error: argument --n: 0 is below 1"),
    (["classify", "--measure", "lebesgue", "--k", "0", "--n", "-5"],
     "usage error: argument --n: -5 is below 1"),
    # adjoint-disc's beta_octaves needs four distinct ladder points, the
    # first past index 0: 9 terms
    (["adjoint-disc", "--measure", "lebesgue", "--n", "0"],
     "usage error: argument --n: 0 is below 9"),
    (["adjoint-disc", "--measure", "dirac(0.5)", "--n", "8"],
     "usage error: argument --n: 8 is below 9"),
    # the kernel-span check places 8 locations in the truncated dimensions
    (["invariance", "--measure", "lebesgue", "--dim", "7"],
     "usage error: argument --dim: 7 is below 8"),
    # an entry of a list or range that is not an integer names its flag
    (["classify", "--measure", "lebesgue", "--k", "abc"],
     "input error: --k: invalid int value: 'abc'"),
    (["eigencheck", "--measure", "lebesgue", "--k", "0..x"],
     "input error: --k: invalid int value: 'x'"),
    (["hilbert", "--dims", "64,x"],
     "input error: --dims: invalid int value: 'x'"),
    # --weights names one measure's moments, cesaro's, and no other family
    (["region", "--weights", "power:2", "--n", "64"],
     "usage error: argument --weights: invalid choice: 'power:2' (choose from 'cesaro')"),
    (["pseudo", "--weights", "leibowitz", "--window=0,1,0,1", "--res", "2", "--dim", "8"],
     "usage error: argument --weights: invalid choice: 'leibowitz' (choose from 'cesaro')"),
    # a word is no number either
    (["contraction", "--measure", "lebesgue", "--shift", "abc"],
     "usage error: argument --shift: expected a finite number, got 'abc'"),
])
def test_non_finite_or_out_of_range_number_is_an_input_error(tmp_path, capsys, args, line):
    assert main(args + ["--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize("args, rest", [
    (["eigencheck", "--measure", "dirac(0.5)", "--k", "0", "--tol", "1e-30"], "--tol 1e-30"),
    (["contraction", "--measure", "lebesgue", "--tol", "1"], "--tol 1"),
    (["invariance", "--measure", "lebesgue", "--tol", "1"], "--tol 1"),
    (["invariance", "--measure", "lebesgue", "--k-max", "3"], "--k-max 3"),
    (["hilbert", "--tol", "1"], "--tol 1"),
    # --require-rhp is a bare flag: the number after it is left over
    (["fov", "--measure", "lebesgue", "--require-rhp", "0.5"], "0.5"),
    # nor does a file: there is no --config, in either form
    (["moments", "--measure", "lebesgue", "--n", "4", "--config", "run.conf"],
     "--config run.conf"),
    (["fov", "--measure", "lebesgue", "--config=run.conf"], "--config=run.conf"),
    # contraction builds the terraced matrix of --measure and takes no other source
    (["contraction", "--measure", "lebesgue", "--weights", "cesaro"], "--weights cesaro"),
    (["contraction", "--measure", "lebesgue", "--kind", "hankel"], "--kind hankel"),
    # fov takes --measure only
    (["fov", "--measure", "lebesgue", "--weights", "cesaro"], "--weights cesaro"),
    # the quadrature's tolerance is MOMENT_TOL, relative to each moment
    (["moments", "--measure", "lebesgue", "--n", "4", "--tol", "1e-9"], "--tol 1e-9"),
])
def test_no_run_sets_its_own_gate(tmp_path, capsys, args, rest):
    # every gate is a fixed constant of cli, recorded in the manifest's tolerances
    assert main(args + ["--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"usage error: unrecognized arguments: {rest}\n"
    assert not (tmp_path / "o").exists()


def test_readme_commands_parse():
    # every command of the README's CLI block, parsed but not run
    commands = readme_commands()
    assert {argv[0] for argv in commands} == set(cli._COMMANDS)
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_allocation_failure_exits_two_with_a_manifest(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 1.00 TiB for an array with shape (2**35, 2**2)")

    # the name the pseudo handler calls, looked up in its defining module
    monkeypatch.setattr(spectral, "pseudospectrum_grid", out_of_memory)
    out = tmp_path / "m"
    assert main(["pseudo", "--weights", "cesaro", "--window=0.2,0.4,0.1,0.3", "--res", "2",
                 "--dim", "16", "--out", str(out)]) == 2
    line = "memory error: Unable to allocate 1.00 TiB for an array with shape (2**35, 2**2)"
    assert capsys.readouterr().err == line + "\n"
    manifest = read_json(out / "manifest.json")
    assert manifest["status"] == "error" and manifest["exit_code"] == 2
    assert manifest["error"] == line


def test_unconverged_sigma_min_exits_two_with_a_manifest(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(spectral, "_top_ritz", lambda alphas, betas: (1.0, np.inf))
    out = tmp_path / "p"
    assert main(["pseudo", "--weights", "cesaro", "--window=0.2,0.4,0.1,0.3", "--res", "2",
                 "--dim", "16", "--out", str(out)]) == 2
    line = "numeric error: inverse Lanczos for sigma_min did not converge in 16 steps"
    assert capsys.readouterr().err == line + "\n"
    assert read_json(out / "manifest.json")["error"] == line


def test_unconverged_top_singular_triplet_exits_two_with_a_manifest(tmp_path, capsys,
                                                                    monkeypatch):
    # LAPACK info 1 from the bisection: _top_ritz raises LinAlgError
    monkeypatch.setattr(spectral, "_tridiagonal_eigenpairs",
                        lambda entries, indices, largest: ([], [], 1))
    out = tmp_path / "p"
    assert main(["pseudo", "--weights", "cesaro", "--window=0.2,0.4,0.1,0.3", "--res", "2",
                 "--dim", "16", "--out", str(out)]) == 2
    line = "numeric error: top singular triplet of the 1 x 1 bidiagonal did not converge"
    assert capsys.readouterr().err == line + "\n"
    manifest = read_json(out / "manifest.json")
    assert manifest["status"] == "error" and manifest["error"] == line


def test_usage_error_writes_no_manifest(tmp_path):
    out = tmp_path / "usage"
    assert main(["pseudo", "--measure", "lebesgue", "--res", "4", "--out", str(out)]) == 1
    assert not out.exists()


# --------------------------------------------------------------------------
# svg building blocks

def test_heatmap_checkerboard_two_fill_levels():
    svg = heatmap_svg(np.array([[0.0, 1.0], [1.0, 0.0]]), (0, 1, 0, 1))
    fills = {
        line.split('fill="')[1].split('"')[0]
        for line in svg.splitlines()
        if line.startswith("<rect")
    }
    assert len(fills) == 2


def test_heatmap_draws_zeros_black_and_scales_over_the_positive_values(tmp_path):
    # z = 0 is a weight of dirac(0), whose moments are 1, 0, 0, ..., so
    # sigma_min is exactly 0 there; floored at 1e-300 it once stretched the
    # scale so far that 79 of 81 cells drew within two gray levels of white
    out = tmp_path / "dirac0"
    assert main(["pseudo", "--measure", "dirac(0)", "--window=-0.5,1.5,-1,1", "--res", "9",
                 "--dim", "100", "--out", str(out)]) == 0
    values = [float(line.split(",")[2])
              for line in (out / "pseudo.csv").read_text().splitlines()[1:]]
    # the rects follow the CSV order: rows by imaginary part, real axis fastest
    levels = [int(line.split('fill="#')[1][:2], 16)
              for line in (out / "pseudo.svg").read_text().splitlines()
              if line.startswith("<rect")]
    assert len(levels) == len(values) == 81
    assert values[4 * 9 + 2] == 0.0  # z = 0
    assert all(level == 0 for value, level in zip(values, levels) if value == 0.0)
    positive = [level for value, level in zip(values, levels) if value > 0.0]
    assert min(positive) == 0 and max(positive) == 255


def test_heatmap_rejects_empty():
    with pytest.raises(ValueError):
        heatmap_svg(np.zeros((0, 0)), (0, 1, 0, 1))


def test_boundary_svg_degenerate_point():
    svg = boundary_svg(np.ones(8, dtype=complex))
    assert "polyline" in svg and svg.startswith("<svg")
    with pytest.raises(ValueError):
        boundary_svg(np.array([], dtype=complex))


@pytest.mark.parametrize("render", [boundary_svg, lambda pts: region_svg(pts, None)])
def test_plane_plots_refuse_a_nan_imaginary_part_after_the_first_point(render):
    # a nan that is not first escapes Python's min and max, so each part is checked
    with pytest.raises(ValueError, match="non-finite data"):
        render(np.array([2 + 1j, complex(1, np.nan), 0.5 + 0.2j]))


def test_region_svg_disc_and_points():
    points = 1.0 / (np.arange(1, 6, dtype=float))
    svg = region_svg(points.astype(complex), 1.0)
    assert svg.count("<circle") == 6  # disc outline plus five points
