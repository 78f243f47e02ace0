import json
from pathlib import Path

import numpy as np
import pytest

from helpers import parse_complex
from momentspectra.cli import main
from momentspectra.svg import boundary_svg, heatmap_svg, region_svg


def read_json(path: Path):
    return json.loads(path.read_text())


def artifact_bytes(out: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }


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
    strict = main(["eigencheck", "--measure", "dirac(0.5)", "--k", "0..3",
                   "--dim", "200", "--tol", "1e-30", "--out", str(tmp_path / "e2")])
    assert strict == 2


def test_adjoint_disc_command(tmp_path):
    out = tmp_path / "a"
    assert main(["adjoint-disc", "--measure", "dirac(0)+0.5*lebesgue",
                 "--n", "4096", "--out", str(out)]) == 0
    payload = read_json(out / "adjoint_disc.json")
    assert payload["disc"]["center"] == pytest.approx(0.5, abs=0.05)
    none_out = tmp_path / "a2"
    assert main(["adjoint-disc", "--measure", "lebesgue(0.5)", "--n", "4096",
                 "--out", str(none_out)]) == 0
    assert read_json(none_out / "adjoint_disc.json")["disc"] is None


def test_region_command_cesaro(tmp_path):
    out = tmp_path / "r"
    assert main(["region", "--weights", "cesaro", "--n", "256", "--out", str(out)]) == 0
    payload = read_json(out / "region.json")
    assert payload["hypotheses_met"]
    assert payload["region"]["disc_center"] == pytest.approx(1.0)
    svg = (out / "region.svg").read_text()
    assert svg.startswith("<svg") and "circle" in svg


def test_region_command_hypotheses_not_met(tmp_path):
    # the sparse-squares weights need a long window before the sup's growth
    # becomes visible
    out = tmp_path / "rl"
    assert main(["region", "--weights", "leibowitz", "--n", "4096", "--out", str(out)]) == 0
    payload = read_json(out / "region.json")
    assert not payload["hypotheses_met"]
    assert payload["verdict"] == "TestInapplicable"


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


def test_hilbert_command(tmp_path):
    out = tmp_path / "h"
    code = main(["hilbert", "--max-index", "8", "--dims", "16,32", "--out", str(out)])
    assert code == 0
    payload = read_json(out / "hilbert.json")
    assert payload["norms_nondecreasing"] and payload["norms_within_bound"]
    assert all(col["pass"] for col in payload["columns"])


def test_bench_command(tmp_path):
    out = tmp_path / "b"
    code = main(["bench", "--dim", "128", "--kernels", "terraced,hankel",
                 "--repeats", "2", "--out", str(out)])
    assert code == 0
    rows = read_json(out / "bench.json")
    assert [row["kernel"] for row in rows] == ["terraced", "hankel"]
    assert all(row["dim"] == 128 and row["ns_per_apply"] >= 0 for row in rows)


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


def test_eigensolver_failure_exits_two_with_one_line(tmp_path, capsys, monkeypatch):
    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    code = main(["fov", "--measure", "lebesgue", "--dim", "8", "--out", str(tmp_path / "f")])
    assert code == 2
    assert capsys.readouterr().err == "numeric error: Eigenvalues did not converge\n"


@pytest.mark.parametrize(
    "args, side",
    [
        (["invariance", "--measure", "lebesgue", "--dim", "8193"], 8193),
    ],
)
def test_dense_limit_refused_before_allocating(tmp_path, capsys, args, side):
    assert main(args + ["--out", str(tmp_path / "d")]) == 1
    assert capsys.readouterr().err == f"input error: dim {side} exceeds dense limit 8192\n"


@pytest.mark.parametrize("max_index", [4096, 8191])
def test_hilbert_max_index_beyond_the_dense_limit_names_the_flag(tmp_path, capsys, max_index):
    # the Bernstein table of the Hilbert columns has side 2 max-index + 1,
    # so 4095 is the largest index whose table fits the dense limit 8192
    assert main(["hilbert", "--max-index", str(max_index), "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"input error: --max-index {max_index} exceeds 4095")
    assert err.count("\n") == 1


def test_unreachable_quadrature_tolerance_exits_two(tmp_path, capsys):
    code = main(["moments", "--measure", "power(2.5)", "--quadrature", "--n", "8",
                 "--tol", "1e-18", "--out", str(tmp_path / "q")])
    assert code == 2
    assert capsys.readouterr().err.startswith("numeric error: adaptive quadrature stalled")


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
# config file and environment

def test_config_file_provides_defaults_and_flags_override(tmp_path):
    config = tmp_path / "defaults.conf"
    config.write_text("n = 6\n# comment line\nmeasure = lebesgue\n")
    out1 = tmp_path / "c1"
    assert main(["moments", "--config", str(config), "--out", str(out1)]) == 0
    assert len((out1 / "moments.csv").read_text().strip().splitlines()) == 7
    out2 = tmp_path / "c2"
    assert main(["moments", "--config", str(config), "--n", "3", "--out", str(out2)]) == 0
    assert len((out2 / "moments.csv").read_text().strip().splitlines()) == 4


@pytest.mark.parametrize(
    "lines, argv, code, expect",
    [
        # an unknown key is an unrecognized flag
        ("measure = lebesgue\nn = 4\nfoo = 1\n", ["moments", "--config", "{config}"], 1, {}),
        # keys must be spelt in full: a prefix of measure is not measure
        ("meas = lebesgue\nn = 4\n", ["moments", "--config", "{config}"], 1, {}),
        ("measure = lebesgue\nn = 4\n", ["moments", "--config={config}"], 0, {"n": 4}),
        # choices, types and required apply to config values
        ("measure = lebesgue\nkind = spiral\n", ["fov", "--config", "{config}"], 1, {}),
        ("measure = lebesgue\nn = four\n", ["moments", "--config", "{config}"], 1, {}),
        ("n = 4\n", ["moments", "--config", "{config}"], 1, {}),
        # true is the bare flag, so --require-rhp takes its const; false adds nothing
        ("measure = lebesgue\nrequire_rhp = true\n",
         ["fov", "--config", "{config}", "--dim", "8", "--angles", "8"],
         0, {"require_rhp": 1e-10}),
        ("measure = lebesgue\nrequire_rhp = false\n",
         ["fov", "--config", "{config}", "--dim", "8", "--angles", "8"],
         0, {"require_rhp": None}),
        ("measure = lebesgue\ndump_matrix = true\nwindow = -0.5,2.5,-1.5,1.5\n",
         ["pseudo", "--config", "{config}", "--res", "4", "--dim", "8"],
         0, {"dump_matrix": True, "window": "-0.5,2.5,-1.5,1.5"}),
        ("measure = lebesgue\ndump_matrix = false\nwindow = 0,1,0,1\n",
         ["pseudo", "--config", "{config}", "--res", "4", "--dim", "8"],
         0, {"dump_matrix": False}),
    ],
    ids=["unknown-key", "abbreviated-key", "config-equals-path", "bad-choice", "bad-type",
         "missing-required", "true-is-bare-flag", "false-adds-nothing", "dump-matrix-negative-window",
         "dump-matrix-false"],
)
def test_config_lines_are_parsed_as_flags(tmp_path, capsys, lines, argv, code, expect):
    config = tmp_path / "run.conf"
    config.write_text(lines)
    out = tmp_path / "out"
    argv = [arg.format(config=config) for arg in argv] + ["--out", str(out)]
    assert main(argv) == code
    if code == 1:
        assert capsys.readouterr().err.startswith("usage error: ")
        return
    inputs = read_json(out / "manifest.json")["inputs"]
    assert {key: inputs[key] for key in expect} == expect
    assert (out / "matrix.csv").exists() == bool(inputs.get("dump_matrix"))


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


def test_heatmap_rejects_empty():
    with pytest.raises(ValueError):
        heatmap_svg(np.zeros((0, 0)), (0, 1, 0, 1))


def test_boundary_svg_degenerate_point():
    svg = boundary_svg(np.ones(8, dtype=complex))
    assert "polyline" in svg and svg.startswith("<svg")
    with pytest.raises(ValueError):
        boundary_svg(np.array([], dtype=complex))


def test_region_svg_disc_and_points():
    points = 1.0 / (np.arange(1, 6, dtype=float))
    svg = region_svg(points.astype(complex), 1.0, 1.0)
    assert svg.count("<circle") == 6  # disc outline plus five points
