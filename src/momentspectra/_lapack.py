"""The compiled BLAS and LAPACK routines the package calls, taken straight
from scipy's f2py extension modules `scipy.linalg._fblas` and `_flapack`.

Importing the `scipy.linalg` package takes longer than most commands;
loading the two extension modules takes a small fraction of that, and only
the first lookup of a routine (`_lapack.dstebz`) pays for it, never an
import.  find_spec("scipy") locates the package without running its code,
and each module is registered in sys.modules under its own name, so a
later `import scipy.linalg` reuses it.
"""

import importlib.machinery
import importlib.util
import os
import sys

_ROUTINES = {"_fblas": ("dnrm2", "dznrm2", "ztbsv"),
             "_flapack": ("dstebz", "dstein", "zhetrd", "zhetrd_lwork", "zunmqr")}


def __getattr__(name: str):
    """Module attribute hook (PEP 562): loads both modules and binds every
    routine as a plain attribute, so it runs at the first lookup only."""
    if not any(name in routines for routines in _ROUTINES.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    finder = importlib.machinery.FileFinder(
        os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], "linalg"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    for module_name, routines in _ROUTINES.items():
        spec = finder.find_spec(f"scipy.linalg.{module_name}")
        if spec is None:
            raise ImportError(f"no scipy.linalg.{module_name} extension module in {finder.path}")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        globals().update((routine, getattr(module, routine)) for routine in routines)
    return globals()[name]
