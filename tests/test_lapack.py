"""momentspectra._lapack loads scipy's compiled BLAS and LAPACK wrappers
without the scipy.linalg package: each routine it binds must give the same
bits as its scipy.linalg.blas or scipy.linalg.lapack namesake.  It also pins
numpy's and scipy's OpenBLAS to one thread and records both."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import momentspectra
from momentspectra import _lapack


def assert_same_outputs(ours, theirs):
    ours = ours if isinstance(ours, tuple) else (ours,)
    theirs = theirs if isinstance(theirs, tuple) else (theirs,)
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert np.asarray(a).dtype == np.asarray(b).dtype
        assert np.array_equal(a, b)


@pytest.fixture
def rng():
    return np.random.default_rng(20240807)


def test_nrm2_matches_blas(rng):
    real = rng.standard_normal(257)
    both = real + 1j * rng.standard_normal(257)
    assert_same_outputs(_lapack.dnrm2(real), scipy.linalg.blas.dnrm2(real))
    assert_same_outputs(_lapack.dznrm2(both), scipy.linalg.blas.dznrm2(both))


@pytest.mark.parametrize("trans", [0, 2])
def test_ztbsv_matches_blas(rng, trans):
    # the banded lower triangular layout of spectral._norm_of_inverse, bandwidth 2
    n = 64
    band = np.asfortranarray(rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n)))
    band[0] += 4.0
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert_same_outputs(_lapack.ztbsv(2, band, rhs, lower=1, trans=trans),
                        scipy.linalg.blas.ztbsv(2, band, rhs, lower=1, trans=trans))


def test_dstebz_and_dstein_match_lapack(rng):
    d, e = rng.standard_normal(40), rng.standard_normal(39)
    tol = 2 * np.finfo(float).tiny
    for index in (1, 17, 40):
        ours = _lapack.dstebz(d, e, 2, 0.0, 0.0, index, index, tol, "B")
        theirs = scipy.linalg.lapack.dstebz(d, e, 2, 0.0, 0.0, index, index, tol, "B")
        assert_same_outputs(ours, theirs)
        _, w, block, split, _ = ours
        assert_same_outputs(_lapack.dstein(d, e, w[:1], block, split),
                            scipy.linalg.lapack.dstein(d, e, w[:1], block, split))


def test_zhetrd_and_zunmqr_match_lapack(rng):
    n = 24
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = np.asfortranarray(a + a.conj().T)
    lwork = _lapack.zhetrd_lwork(n, lower=1)
    assert_same_outputs(lwork, scipy.linalg.lapack.zhetrd_lwork(n, lower=1))
    lwork = int(lwork[0].real)
    ours = _lapack.zhetrd(h, lower=1, lwork=lwork)
    assert_same_outputs(ours, scipy.linalg.lapack.zhetrd(h, lower=1, lwork=lwork))
    reflectors, _, _, tau, _ = ours
    z = np.asfortranarray(rng.standard_normal((n - 1, 2)) + 0j)
    assert_same_outputs(_lapack.zunmqr("L", "N", reflectors[1:, :-1], tau, z, 2),
                        scipy.linalg.lapack.zunmqr("L", "N", reflectors[1:, :-1], tau, z, 2))


@pytest.mark.parametrize("trans", [0, 2])
def test_ztbsv_in_place_matches_the_copying_call(rng, trans):
    # the interleaved band of spectral._norm_of_inverse: T = diag(d) - L(a)
    # in the unknowns (x_0, S_0, x_1, S_1, ...), b in the even slots
    n = 48
    a = 1.0 / np.arange(1.0, n + 1.0)
    d = (0.3 + 0.4j) - a
    band = np.zeros((3, 2 * n), dtype=complex, order="F")
    band[0, 0::2], band[0, 1::2] = d, 1.0
    band[1, 0::2], band[1, 1:-1:2] = -1.0, -a[1:]
    band[2, 1:-1:2] = -1.0
    rhs = np.empty(2 * n, dtype=complex)
    for _ in range(3):
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rhs[0::2], rhs[1::2] = b, 0.0
        expected = _lapack.ztbsv(2, band, rhs, lower=1, trans=trans)
        solved = _lapack.ztbsv(2, band, rhs, lower=1, trans=trans, overwrite_x=1)
        assert solved is rhs or np.shares_memory(solved, rhs)
        assert_same_outputs(rhs, expected)
    # the solve leaves the partial sums in the odd slots: a right-hand side
    # that does not zero them again solves another system
    assert np.any(rhs[1::2] != 0.0)
    rhs[0::2] = b
    stale = _lapack.ztbsv(2, band, rhs, lower=1, trans=trans)
    rhs[1::2] = 0.0
    assert not np.array_equal(stale, _lapack.ztbsv(2, band, rhs, lower=1, trans=trans))


def _probe(source: str, threads: str | None) -> str:
    """stdout of a fresh interpreter running `source` with the package on its
    path and OPENBLAS_NUM_THREADS set to `threads`, or unset for None."""
    src = Path(momentspectra.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.run([sys.executable, "-c", source], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_import_pins_numpy_blas_and_first_lookup_pins_scipy_blas():
    # a process started with two BLAS threads: importing the package pins
    # numpy's copy before any scipy module is loaded, the first routine
    # lookup loads scipy's copy and pins it too
    probe = ("import json\n"
             "import momentspectra\n"
             "from momentspectra import _lapack\n"
             "before = _lapack.environment()['blas']\n"
             "_lapack.dstebz\n"
             "print(json.dumps([before, _lapack.environment()['blas']]))\n")
    before, after = json.loads(_probe(probe, "2"))
    assert before.keys() == {"numpy"} and after.keys() == {"numpy", "scipy"}
    for copy in (before["numpy"], after["numpy"], after["scipy"]):
        assert copy["pinned"] and copy["threads"] == 1
        assert copy["config"].startswith("OpenBLAS ")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                    reason="needs /proc/self/task and at least two cores")
def test_a_process_that_imports_the_package_first_starts_no_blas_thread():
    # unset, each OpenBLAS copy would start one thread per core when it
    # loads: numpy's at the import, scipy's at the first lookup
    probe = ("import os\n"
             "import momentspectra\n"
             "from momentspectra import _lapack\n"
             "print(len(os.listdir('/proc/self/task')))\n"
             "_lapack.dstebz\n"
             "print(len(os.listdir('/proc/self/task')))\n")
    assert _probe(probe, None).split() == ["1", "1"]


def test_a_process_that_imports_numpy_first_keeps_its_environment_and_the_pin():
    probe = ("import json, os\n"
             "import numpy\n"
             "before = dict(os.environ)\n"
             "import momentspectra\n"
             "from momentspectra import _lapack\n"
             "_lapack.dstebz\n"
             "print(json.dumps([dict(os.environ) == before, _lapack.environment()]))\n")
    unchanged, environment = json.loads(_probe(probe, "2"))
    assert unchanged and environment["caller_openblas_num_threads"] == "2"
    assert environment["blas"].keys() == {"numpy", "scipy"}
    for copy in environment["blas"].values():
        assert copy["pinned"] and copy["threads"] == 1


@pytest.mark.parametrize("threads", [None, "2"])
def test_environment_records_the_callers_blas_thread_variable(threads):
    # the package sets the variable to 1 in its own process and records the
    # value it found, None where it was unset
    probe = ("import json, os\n"
             "import momentspectra\n"
             "from momentspectra import _lapack\n"
             "print(json.dumps([os.environ['OPENBLAS_NUM_THREADS'],\n"
             "                  _lapack.environment()['caller_openblas_num_threads']]))\n")
    assert json.loads(_probe(probe, threads)) == ["1", threads]


def test_environment_reads_the_installed_versions():
    environment = _lapack.environment()
    assert (environment["numpy"], environment["scipy"]) == (np.__version__, scipy.__version__)


def test_a_blas_without_a_known_setter_is_recorded_unpinned(monkeypatch, tmp_path):
    # another vendor's BLAS, or none in a <package>.libs directory: left as
    # it is, with no error
    monkeypatch.setattr(_lapack, "_BLAS", {})
    monkeypatch.setattr(_lapack, "_OPENBLAS_SYMBOLS",
                        (("no_such_set_num_threads", "no_such_get_num_threads",
                          "no_such_get_config"),))
    _lapack._pin_blas("numpy", os.path.dirname(np.__file__))
    _lapack._pin_blas("scipy", str(tmp_path / "scipy"))
    assert _lapack.environment()["blas"] == {"numpy": {"pinned": False},
                                             "scipy": {"pinned": False}}
