"""The process entry, `python -m momentspectra` and the `momentspectra`
script: what a CLI process imports, and its exit contract.

Each command imports only the modules it runs, so `import momentspectra.cli`
loads numpy and the moment and serialisation modules alone.  The entry
freezes the collector after the command, so the interpreter's last
collection skips what the process made; `cli.main` itself leaves the
collector alone."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import momentspectra
from momentspectra import __main__ as entry
from momentspectra import cli

ROOT = Path(__file__).resolve().parents[1]

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

#: the modules every command loads: the front end, the BLAS set-up, the
#: measure parser and the writers
BASE = {"_lapack", "cli", "measures", "serialize"}

#: the further modules each subcommand loads
COMMAND_MODULES = {
    "moments": set(),
    "classify": {"operators", "spectral"},
    "eigencheck": {"operators", "spectral"},
    "adjoint-disc": set(),
    "region": {"operators", "spectral", "svg"},
    "pseudo": {"operators", "spectral", "svg"},
    "fov": {"numrange", "operators", "spectral", "svg"},
    "contraction": {"numrange", "operators", "spectral"},
    "invariance": {"invariance", "operators", "quadrature"},
    "hilbert": {"invariance", "operators", "quadrature", "spectral"},
}

#: a measure whose moments 1e308/(n+1) have partial sums past float64 at s_2
LARGE_MEASURE = "1" + "0" * 308 + "*lebesgue"


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(momentspectra.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def _assert_complete_manifest(out: Path, status: str, exit_code: int) -> None:
    """The manifest is written last and lists every file of the directory."""
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["status"], manifest["exit_code"]) == (status, exit_code)
    assert sorted(manifest["outputs"]) == sorted(path.name for path in out.iterdir())


def test_importing_the_package_loads_only_the_blas_set_up():
    probe = ("import sys\n"
             "import momentspectra\n"
             "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'momentspectra'))\n")
    done = _python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['momentspectra', 'momentspectra._lapack']\n"


def test_importing_the_cli_loads_no_command_module():
    probe = ("import sys\n"
             "import momentspectra.cli\n"
             "print(sorted(m for m in sys.modules if m.startswith('momentspectra.')\n"
             "             or m == 'numpy.polynomial' or m.split('.')[0] == 'scipy'))\n")
    done = _python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout == repr(sorted(f"momentspectra.{name}" for name in BASE)) + "\n"


@pytest.mark.parametrize("job", workloads.readme_jobs(), ids=lambda job: job["id"])
def test_each_command_loads_only_its_modules(tmp_path, job):
    # a fresh interpreter per job, as the readme-cli workload runs them
    probe = ("import sys\n"
             "from momentspectra import cli\n"
             "code = cli.main(sys.argv[1:])\n"
             "print(sorted(m.partition('.')[2] for m in sys.modules\n"
             "             if m.startswith('momentspectra.')))\n"
             "sys.exit(code)\n")
    done = _python("-c", probe, *job["argv"], "--out", str(tmp_path / "out"))
    assert done.returncode == job["expect"], done.stderr
    assert done.stdout == repr(sorted(BASE | COMMAND_MODULES[job["argv"][0]])) + "\n"


@pytest.mark.parametrize("args, code, status, err", [
    (["moments", "--measure", "lebesgue", "--n", "4"], 0, "ok", ""),
    (["moments", "--measure", "bad(", "--n", "4"], 1, "error", "measure error: "),
    (["moments", "--measure", LARGE_MEASURE, "--n", "4"], 2, "error",
     "numeric error: partial sums overflow from index 2\n"),
], ids=["ok", "measure-error", "overflow"])
def test_module_entry_exits_with_the_command_code(tmp_path, args, code, status, err):
    out = tmp_path / "out"
    done = _python("-m", "momentspectra", *args, "--out", str(out))
    assert done.returncode == code
    assert done.stderr.startswith(err) and done.stderr.count("\n") == (code != 0)
    _assert_complete_manifest(out, status, code)


def test_module_entry_help_exits_zero():
    done = _python("-m", "momentspectra", "--help")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: momentspectra")


def test_entry_freezes_the_collector_once_after_the_command(monkeypatch):
    # gc.freeze is replaced: freezing the test process would keep its garbage
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    with pytest.raises(SystemExit) as exit_info:
        entry.main()
    assert exit_info.value.code == 3
    assert calls == ["main", "freeze"]


def test_cli_main_leaves_the_collector_alone(tmp_path):
    before = gc.isenabled(), gc.get_freeze_count()
    assert cli.main(["moments", "--measure", "lebesgue", "--n", "4",
                     "--out", str(tmp_path / "m")]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before
