"""The benchmark tracer (perfbench/tracing.py) reads attributes of the
package's arguments and return values in its HOOKS.  These tests apply each
hook to real values, so a record change that would break a traced benchmark
run fails here.  No tracer is installed: the hooks are called directly."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import hankel_from_measure, measure_moments, random_complex, terraced_from_measure
from momentspectra import (
    fov_boundary,
    hankel_apply,
    pseudospectrum_grid,
    terraced_apply,
    terraced_apply_adjoint,
)
from momentspectra.operators import FFT_THRESHOLD

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import HOOKS  # noqa: E402


def test_hooks_name_public_functions_of_the_package():
    for name in HOOKS:
        layer, attr = name.split(".")
        module = importlib.import_module(f"momentspectra.{layer}")
        # the tracer puts the operators.dense hook on each operator class's dense()
        holders = ((module.TerracedOperator, module.HankelMomentOperator)
                   if name == "operators.dense" else (module,))
        for holder in holders:
            assert callable(getattr(holder, attr))


def test_moments_hook_counts_entries():
    ms = measure_moments("lebesgue", 48)
    assert HOOKS["measures.moments"]((None, 48), {}, ms) == {"entries": 48}


@pytest.mark.parametrize("apply", [terraced_apply, terraced_apply_adjoint])
def test_terraced_hooks_read_the_result_length(apply):
    op = terraced_from_measure("lebesgue", 48)
    y = apply(op, random_complex(np.random.default_rng(0), 48))
    assert HOOKS[f"operators.{apply.__name__}"]((op, None), {}, y) == {"n": 48}


@pytest.mark.parametrize("n", [FFT_THRESHOLD - 1, FFT_THRESHOLD])
def test_hankel_hook_on_both_sides_of_the_fft_threshold(n):
    op = hankel_from_measure("lebesgue", n)
    x = random_complex(np.random.default_rng(0), n)
    attrs = HOOKS["operators.hankel_apply"]((op, x), {}, hankel_apply(op, x))
    assert attrs["n"] == n
    if n < FFT_THRESHOLD:
        # the direct path reads an n x n window of float64 moments
        assert attrs["bytes"] == 8 * n * n + 32 * n
    else:
        # three complex transforms of at least the 3n - 2 embedding length
        assert attrs["bytes"] >= 3 * 2 * 16 * (3 * n - 2) + 32 * n


@pytest.mark.parametrize("build, kind", [(terraced_from_measure, "terraced"),
                                         (hankel_from_measure, "hankel")])
def test_pseudospectrum_grid_hook_keys_by_family_and_dim(build, kind):
    # positional, as the pseudo subcommand calls it
    args = (build("lebesgue", 8), (0.0, 1.0, -0.5, 0.5), 3, 8)
    attrs = HOOKS["spectral.pseudospectrum_grid"](args, {}, pseudospectrum_grid(*args))
    assert attrs == {"key": f"{kind}8", "points": 9}


def test_fov_hook_counts_angles():
    matrix = terraced_from_measure("lebesgue", 8).dense()
    result = fov_boundary(matrix, n_angles=16)
    assert HOOKS["numrange.fov_boundary"]((matrix,), {"n_angles": 16}, result) == {"angles": 16}


@pytest.mark.parametrize("build", [terraced_from_measure, hankel_from_measure])
def test_dense_hook_counts_bytes(build):
    op = build("lebesgue", 8)
    matrix = op.dense()
    assert HOOKS["operators.dense"]((op,), {}, matrix) == {"bytes": matrix.nbytes}
