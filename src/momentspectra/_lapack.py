"""The compiled BLAS and LAPACK routines the package calls, taken straight
from scipy's f2py extension modules `scipy.linalg._fblas` and `_flapack`,
and the thread count of the BLAS behind them and behind numpy.

Importing the `scipy.linalg` package takes longer than most commands;
loading the two extension modules takes a small fraction of that, and only
the first lookup of a routine (`_lapack.dstebz`) pays for it, never an
import.  find_spec("scipy") locates the package without running its code,
and each module is registered in sys.modules under its own name, so a
later `import scipy.linalg` reuses it.

numpy's and scipy's wheels each bundle their own OpenBLAS, which starts one
thread per core when it loads.  On the small products and eigensolves of
this package a second thread adds CPU time and no speed, and its blocking
moves the last bits of the results, so every artifact's bytes are made
independent of the thread count the process started with, in two steps:

* When this module is imported before numpy, as it is by `python -m
  momentspectra` and the console script (the package imports it first), it
  sets `OPENBLAS_NUM_THREADS=1` in its own process, so neither OpenBLAS
  copy starts a thread pool.  The caller's value is kept for the manifest.
  A process that imported numpy first keeps its environment untouched.
* Both copies are pinned to one thread through the setter the library
  exports: numpy's when this module is imported (numpy has loaded it by
  then), scipy's right after the first lookup loads scipy's modules.  This
  covers a library caller who imported numpy first.

A BLAS without a known setter is left as it is and recorded as unpinned;
`environment()` reports both, and the caller's `OPENBLAS_NUM_THREADS`, for
the run manifest.
"""

import ctypes
import glob
import importlib.machinery
import importlib.util
import os
import sys
from functools import lru_cache

#: the caller's OPENBLAS_NUM_THREADS, or None where it was unset
_CALLER_THREADS = os.environ.get("OPENBLAS_NUM_THREADS")
if "numpy" not in sys.modules:
    # read by each OpenBLAS copy when it loads: numpy's at the import below,
    # scipy's at the first routine lookup
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402  (after the variable is set)

_ROUTINES = {"_fblas": ("dnrm2", "dznrm2", "ztbsv"),
             "_flapack": ("dstebz", "dstein", "zhetrd", "zhetrd_lwork", "zunmqr")}

#: (setter, getter, configuration) symbols of the OpenBLAS builds that the
#: numpy and scipy wheels bundle: numpy's with 64-bit integers, scipy's not
_OPENBLAS_SYMBOLS = (("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_",
                      "scipy_openblas_get_config64_"),
                     ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads",
                      "scipy_openblas_get_config"))

#: each package's BLAS looked at so far: its (thread-count getter,
#: configuration getter), or None where no known setter was found
_BLAS = {}


def _pin_blas(package: str, package_dir: str) -> None:
    """Pins to one thread the OpenBLAS that `package`'s wheel bundles in
    `<package>.libs`, beside the package's directory `package_dir`."""
    _BLAS[package] = None
    for path in sorted(glob.glob(os.path.join(os.path.dirname(package_dir),
                                              f"{package}.libs", "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for setter, getter, config in _OPENBLAS_SYMBOLS:
            if hasattr(lib, setter):
                set_threads, get_threads, get_config = lib[setter], lib[getter], lib[config]
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                set_threads(1)
                _BLAS[package] = (get_threads, get_config)
                return


def _scipy_dir() -> str:
    return importlib.util.find_spec("scipy").submodule_search_locations[0]


@lru_cache(maxsize=1)
def _scipy_version() -> str | None:
    """scipy's version, read once per process from the name of its
    dist-info directory, which imports nothing; None where that is not one
    directory."""
    versions = [os.path.basename(path)[len("scipy-"):-len(".dist-info")] for path in
                glob.glob(os.path.join(os.path.dirname(_scipy_dir()), "scipy-*.dist-info"))]
    return versions[0] if len(versions) == 1 else None


def environment() -> dict:
    """numpy's and scipy's versions, the caller's `OPENBLAS_NUM_THREADS`
    (None where unset) and, for each BLAS looked at so far, whether it is
    pinned and, if so, its configuration and the thread count in effect."""
    blas = {}
    for package, getters in _BLAS.items():
        blas[package] = {"pinned": getters is not None}
        if getters is not None:
            threads, config = getters
            blas[package].update(config=config().decode(), threads=threads())
    return {"numpy": np.__version__,
            "scipy": _scipy_version(),
            "blas": blas,
            "caller_openblas_num_threads": _CALLER_THREADS}


def __getattr__(name: str):
    """Module attribute hook (PEP 562): loads both modules, pins scipy's
    BLAS and binds every routine as a plain attribute, so it runs at the
    first lookup only."""
    if not any(name in routines for routines in _ROUTINES.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    scipy_dir = _scipy_dir()
    finder = importlib.machinery.FileFinder(
        os.path.join(scipy_dir, "linalg"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    for module_name, routines in _ROUTINES.items():
        spec = finder.find_spec(f"scipy.linalg.{module_name}")
        if spec is None:
            raise ImportError(f"no scipy.linalg.{module_name} extension module in {finder.path}")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        globals().update((routine, getattr(module, routine)) for routine in routines)
    _pin_blas("scipy", scipy_dir)
    return globals()[name]


_pin_blas("numpy", os.path.dirname(np.__file__))
