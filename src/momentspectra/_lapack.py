"""The compiled BLAS and LAPACK routines the package calls, taken straight
from scipy's f2py extension modules `scipy.linalg._fblas` and `_flapack`.

Importing the `scipy.linalg` package takes longer than most commands;
loading the two extension modules takes a small fraction of that.
find_spec("scipy") locates the package without running its code, and each
module is registered in sys.modules under its own name, so a later
`import scipy.linalg` reuses it.  Import this module inside the functions
that need it, never at module level, so that start-up does not pay for it.
"""

import importlib.machinery
import importlib.util
import os
import sys

_FINDER = importlib.machinery.FileFinder(
    os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], "linalg"),
    (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))


def _load(name: str):
    spec = _FINDER.find_spec(f"scipy.linalg.{name}")
    if spec is None:
        raise ImportError(f"no scipy.linalg.{name} extension module in {_FINDER.path}")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_fblas, _flapack = _load("_fblas"), _load("_flapack")
dnrm2, dznrm2, ztbsv = _fblas.dnrm2, _fblas.dznrm2, _fblas.ztbsv
dstebz, dstein = _flapack.dstebz, _flapack.dstein
zhetrd, zhetrd_lwork, zunmqr = _flapack.zhetrd, _flapack.zhetrd_lwork, _flapack.zunmqr
