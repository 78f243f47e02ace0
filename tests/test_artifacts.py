"""The bulk artifact writers against per-entry reference renderers, byte for
byte, and the memory they take on a large region."""

import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    format_float,
    hankel_from_measure,
    reference_matrix_csv,
    terraced_from_measure,
)
from momentspectra import serialize
from momentspectra.cli import main
from momentspectra.measures import MomentSequence
from momentspectra.numrange import FovResult
from momentspectra.serialize import (
    _PLACEHOLDER,
    CHUNK,
    fov_csv,
    grid_csv,
    matrix_csv,
    moments_csv,
    write_json,
)
from momentspectra.spectral import PseudospectrumGrid
from momentspectra.svg import MARGIN, SIZE, boundary_svg, heatmap_svg, region_svg

# --------------------------------------------------------------------------
# per-entry reference renderers: one Python call per number

def reference_moments_csv(ms):
    lines = ["n,mu_n,s_n,provenance"]
    for n in range(ms.n_terms):
        label = ("closed-form" if ms.error_bounds is None
                 else f"quadrature({ms.error_bounds[n]:.3e})")
        lines.append(
            f"{n},{format_float(ms.values[n])},{format_float(ms.partial_sums[n])},{label}")
    return "\n".join(lines) + "\n"


def reference_grid_csv(grid):
    lines = ["re,im,sigma_min"]
    for i, im in enumerate(grid.im_axis):
        for j, re in enumerate(grid.re_axis):
            lines.append(
                f"{format_float(re)},{format_float(im)},{format_float(grid.sigma_min[i, j])}")
    return "\n".join(lines) + "\n"


def reference_fov_csv(result):
    lines = ["theta,re,im,h"]
    for theta, point, h in zip(result.angles, result.boundary_points, result.support_values):
        lines.append(f"{format_float(theta)},{format_float(point.real)},"
                     f"{format_float(point.imag)},{format_float(h)}")
    return "\n".join(lines) + "\n"


def _fmt(x):
    return f"{x:.4f}"


def _reference_document(body):
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
            f'viewBox="0 0 {SIZE} {SIZE}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"


def reference_heatmap_svg(values, extent):
    grid = np.asarray(values, dtype=float)
    if grid.size == 0:
        raise ValueError("empty data")
    positive = grid > 0.0
    logs = np.log10(np.where(positive, grid, 1.0))
    lo = float(logs[positive].min()) if positive.any() else 0.0
    hi = float(logs[positive].max()) if positive.any() else 0.0
    rows, cols = grid.shape
    cell_w = SIZE / cols
    cell_h = SIZE / rows
    body = []
    for i in range(rows):
        for j in range(cols):
            if not positive[i, j]:
                level = 0.0
            elif hi > lo:
                level = (logs[i, j] - lo) / (hi - lo)
            else:
                level = 1.0
            v = int(round(255 * min(max(level, 0.0), 1.0)))
            body.append(f'<rect x="{_fmt(j * cell_w)}" y="{_fmt(SIZE - (i + 1) * cell_h)}" '
                        f'width="{_fmt(cell_w + 0.5)}" height="{_fmt(cell_h + 0.5)}" '
                        f'fill="#{v:02x}{v:02x}{v:02x}"/>')
    re0, re1, im0, im1 = extent
    body.append(f'<text x="4" y="{SIZE - 6}" font-size="12" fill="#c03020">'
                f"re:[{_fmt(re0)},{_fmt(re1)}] im:[{_fmt(im0)},{_fmt(im1)}]</text>")
    return _reference_document(body)


def _reference_mapper(points):
    if not all(math.isfinite(part) for z in points for part in (z.real, z.imag)):
        raise ValueError("non-finite data")
    lo = min(points.real.min(), points.imag.min())
    hi = max(points.real.max(), points.imag.max())
    scale = (SIZE - 2 * MARGIN) / (hi - lo if hi > lo else 1.0)

    def to_xy(z):
        return MARGIN + (z.real - lo) * scale, SIZE - MARGIN - (z.imag - lo) * scale

    return to_xy, scale


def reference_boundary_svg(points):
    pts = np.asarray(points, dtype=complex)
    if pts.size == 0:
        raise ValueError("empty data")
    to_xy, _ = _reference_mapper(pts)
    coords = [to_xy(z) for z in pts]
    coords.append(coords[0])
    path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in coords)
    x0, y0 = coords[0]
    return _reference_document([
        f'<polyline points="{path}" fill="none" stroke="#2050c0" stroke-width="1.5"/>',
        f'<circle cx="{_fmt(x0)}" cy="{_fmt(y0)}" r="2" fill="#2050c0"/>',
    ])


def reference_region_svg(points, disc):
    pts = np.asarray(points, dtype=complex)
    if pts.size == 0 and disc is None:
        raise ValueError("empty data")
    corners = [] if disc is None else [complex(0.0, -disc), complex(2.0 * disc, disc)]
    to_xy, scale = _reference_mapper(np.append(pts, corners))
    body = []
    if disc is not None:
        cx, cy = to_xy(complex(disc, 0.0))
        body.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(disc * scale)}" '
                    f'fill="none" stroke="#c03020" stroke-width="1.5"/>')
    for z in pts:
        x, y = to_xy(z)
        body.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.5" fill="#2050c0"/>')
    return _reference_document(body)


def _lists(obj):
    """The payload with every ndarray replaced by its nested lists."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: _lists(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_lists(value) for value in obj]
    return obj


def reference_json(payload):
    return json.dumps(_lists(payload), indent=2, allow_nan=False,
                      default=lambda scalar: scalar.item()) + "\n"


# --------------------------------------------------------------------------
# strategies: hard values, lengths around a chunk boundary

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308,
           1.7976931348623157e308, 1.0, -2.0, 3.0, 1e16, 1e22, -1e-5, 0.1, 123456.789]
FINITE = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
ANY = st.one_of(FINITE, st.sampled_from([math.nan, -math.nan, math.inf, -math.inf]))
#: pools of values that a column cycles through
FINITE_POOLS = st.lists(FINITE, min_size=1, max_size=12)
ANY_POOLS = st.lists(ANY, min_size=1, max_size=12)
#: imaginary parts: signed zeros and nans of either sign among any values
IMAG_POOLS = st.lists(st.one_of(ANY, st.sampled_from([-0.0, math.nan, -math.nan])),
                      min_size=1, max_size=12)
#: plot coordinates: finite in half the examples, so that most draw
PLANE_POOLS = st.one_of(FINITE_POOLS, ANY_POOLS)


def _lengths(values_per_row: int):
    """0, 1 and the row counts around one chunk of the writers' % operation."""
    step = CHUNK // values_per_row
    return st.sampled_from([0, 1, step - 1, step, step + 1])


def _column(pool, n: int) -> np.ndarray:
    return np.resize(np.array(pool, dtype=float), n)


def _complex(re_pool, im_pool, n: int) -> np.ndarray:
    z = np.empty(n, dtype=complex)
    z.real = _column(re_pool, n)
    z.imag = _column(im_pool, n)
    return z


def _mismatch(text, reference):
    """None when the two agree, else their first differing line: short,
    where pytest's diff of two long texts takes minutes."""
    if text == reference:
        return None
    if not (isinstance(text, str) and isinstance(reference, str)):
        return f"{text!r:.200} != {reference!r:.200}"
    lines = text.splitlines(keepends=True)
    expected = reference.splitlines(keepends=True)
    k = next((i for i, pair in enumerate(zip(lines, expected)) if pair[0] != pair[1]),
             min(len(lines), len(expected)))
    return f"line {k}: {lines[k:k + 1]!r:.200} != {expected[k:k + 1]!r:.200}"


def _outcome(render, *args):
    """The text a renderer returns, or the type of the error it raises."""
    with np.errstate(all="ignore"):
        try:
            return render(*args)
        except ValueError as exc:
            return type(exc)


# --------------------------------------------------------------------------
# byte identity

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_moments_csv_matches_the_reference(data):
    quadrature = data.draw(st.booleans())
    n = data.draw(_lengths(4 if quadrature else 3))
    values = _column(data.draw(ANY_POOLS), n)
    bounds = _column(data.draw(ANY_POOLS), n) if quadrature else None
    ms = MomentSequence(values, bounds)
    with np.errstate(all="ignore"):
        finite = np.isfinite(np.cumsum(values))
        if not finite.all():
            # a partial sum past float64 (or of a non-finite moment) is refused
            with pytest.raises(OverflowError, match=f"from index {np.argmin(finite)}$"):
                moments_csv(ms)
            return
    assert _mismatch(moments_csv(ms), reference_moments_csv(ms)) is None


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_matrix_csv_matches_the_reference(data):
    is_complex = data.draw(st.booleans())
    cols = data.draw(st.integers(0, 6))
    rows = data.draw(_lengths(max(1, (3 if is_complex else 1) * cols)))
    if is_complex:
        # dense matrices are real: a complex one is refused, not formatted
        matrix = _complex(data.draw(ANY_POOLS), data.draw(IMAG_POOLS), rows * cols)
        with pytest.raises(ValueError, match="got a complex one"):
            matrix_csv(matrix.reshape(rows, cols))
        return
    matrix = _column(data.draw(ANY_POOLS), rows * cols).reshape(rows, cols)
    assert _mismatch(matrix_csv(matrix), reference_matrix_csv(matrix)) is None


@pytest.mark.parametrize("matrix", [
    # operator matrices of side 300: several chunks of rows each
    hankel_from_measure("lebesgue", 300).dense(),
    hankel_from_measure("dirac(0)+0.5*lebesgue", 300).dense(),
    terraced_from_measure("lebesgue", 300).dense(),
    terraced_from_measure("dirac(0.5)", 300).dense(),
    # a value-based unique merges -0.0 into 0.0 and writes one for the other
    np.array([[-0.0, 0.0, -0.0], [0.0, -0.0, 1.0]]),
    np.array([[5e-324, -5e-324, 1e-310], [2.2250738585072014e-308, 0.0, -0.0]]),
    np.array([[0.25]]),
    np.zeros((0, 4)),
    np.zeros((0, 0)),
    np.zeros((3, 0)),
    np.random.default_rng(5).standard_normal((97, 211)),
    np.array([[math.nan, -math.nan, math.inf], [-math.inf, 1e308, -1e-5]]),
], ids=["hilbert", "atom-hankel", "cesaro", "dirac-terraced", "signed-zeros", "subnormals",
        "1x1", "0-rows", "0x0", "0-cols", "all-distinct", "non-finite"])
def test_matrix_csv_matches_the_per_cell_reference(matrix):
    assert _mismatch(matrix_csv(matrix), reference_matrix_csv(matrix)) is None


def test_matrix_csv_keeps_signed_zeros_apart():
    assert matrix_csv(np.array([[-0.0, 0.0], [0.0, -0.0]])) == ("-0.0+0.0i,0.0+0.0i\n"
                                                               "0.0+0.0i,-0.0+0.0i\n")


#: matrix entries: both zeros, subnormals of both signs and a nan
SIGNED_ZERO_POOL = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 0.1, math.nan]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matrix_csv_of_small_matrices_from_a_signed_zero_pool(data):
    rows, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    entries = data.draw(st.lists(st.sampled_from(SIGNED_ZERO_POOL), min_size=rows * cols,
                                 max_size=rows * cols))
    matrix = np.array(entries, dtype=float).reshape(rows, cols)
    assert _mismatch(matrix_csv(matrix), reference_matrix_csv(matrix)) is None


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_grid_csv_matches_the_reference(data):
    n_re = data.draw(st.integers(1, 4))
    n_im = data.draw(_lengths(3)) // n_re
    grid = PseudospectrumGrid(_column(data.draw(ANY_POOLS), n_re),
                              _column(data.draw(ANY_POOLS), n_im),
                              _column(data.draw(ANY_POOLS), n_im * n_re).reshape(n_im, n_re))
    assert _mismatch(grid_csv(grid), reference_grid_csv(grid)) is None


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_fov_csv_matches_the_reference(data):
    n = data.draw(_lengths(4))
    result = FovResult(_column(data.draw(ANY_POOLS), n), _column(data.draw(ANY_POOLS), n),
                       _complex(data.draw(ANY_POOLS), data.draw(IMAG_POOLS), n), 0.0)
    assert _mismatch(fov_csv(result), reference_fov_csv(result)) is None


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_heatmap_svg_matches_the_reference(data):
    rows = data.draw(st.sampled_from([1, 2]))
    cols = data.draw(_lengths(5)) // rows
    values = _column(data.draw(PLANE_POOLS), rows * cols).reshape(rows, cols)
    extent = tuple(data.draw(st.lists(ANY, min_size=4, max_size=4)))
    assert _mismatch(_outcome(heatmap_svg, values, extent),
                     _outcome(reference_heatmap_svg, values, extent)) is None


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_boundary_svg_matches_the_reference(data):
    points = _complex(data.draw(PLANE_POOLS), data.draw(PLANE_POOLS), data.draw(_lengths(2)))
    assert _mismatch(_outcome(boundary_svg, points),
                     _outcome(reference_boundary_svg, points)) is None


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_region_svg_matches_the_reference(data):
    points = _complex(data.draw(PLANE_POOLS), data.draw(PLANE_POOLS), data.draw(_lengths(2)))
    disc = data.draw(st.one_of(st.none(), st.floats(0.0, 10.0)))
    assert _mismatch(_outcome(region_svg, points, disc),
                     _outcome(reference_region_svg, points, disc)) is None


def _written(payload) -> str:
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "payload.json"
        write_json(path, payload)
        return path.read_text()


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_write_json_matches_json_dump(data):
    n = data.draw(_lengths(2))
    points = _complex(data.draw(FINITE_POOLS), data.draw(FINITE_POOLS), n)
    region = {"points": np.column_stack([points.real, points.imag]),
              "disc_center": data.draw(st.one_of(st.none(), FINITE)), "disc_radius": 1.0}
    payload = {
        "verdict": "bounded\né",
        "count": np.int64(3),
        "flag": np.bool_(True),
        "region": region,
        "rows": [{"tau": 0.5, "norm": np.float64(1.25)}, [], {}, (1, None)],
        "listed": [1, _column(data.draw(FINITE_POOLS), 6).reshape(3, 2), "after"],
        "column": _column(data.draw(FINITE_POOLS), data.draw(st.integers(0, 5))),
        "cube": _column(data.draw(FINITE_POOLS), 12).reshape(2, 3, 2),
        "empty_rows": np.zeros((3, 0)),
        "integers": np.arange(data.draw(st.integers(0, 5))).reshape(-1, 1),
        "scalar": np.array(2.5),
        "single": np.float32(0.1),
    }
    assert _mismatch(_written(payload), reference_json(payload)) is None
    keys = {"nested": {1: "json turns a key into a string", 2.5: [True, None]}}
    assert _mismatch(_written(keys), reference_json(keys)) is None
    assert _mismatch(_written(region), reference_json(region)) is None


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_write_json_refuses_nan_and_inf_in_an_array(data):
    n = data.draw(st.integers(1, 2 * CHUNK))
    points = _column(data.draw(FINITE_POOLS), 2 * n).reshape(n, 2)
    points[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 1))] = data.draw(
        st.sampled_from([math.nan, math.inf, -math.inf]))
    payload = {"region": {"points": points}}
    with pytest.raises(ValueError) as expected:
        reference_json(payload)
    with pytest.raises(ValueError) as raised:
        _written(payload)
    assert str(raised.value) == str(expected.value)


def test_write_json_refuses_a_string_equal_to_the_placeholder(tmp_path):
    # an equal string reads in json's text as the array's placeholder does
    path = tmp_path / "clash.json"
    with pytest.raises(ValueError, match="placeholder"):
        write_json(path, {"points": np.arange(4.0), "label": _PLACEHOLDER})
    assert not path.exists()
    # nor is a key, or a lone string with no array to splice
    for payload in ({_PLACEHOLDER: np.arange(2.0)}, [_PLACEHOLDER]):
        with pytest.raises(ValueError, match="placeholder"):
            write_json(path, payload)
    # a string that only contains it, quotes and all, is written as json writes it
    quoted = {"label": f'"{_PLACEHOLDER}"', "points": np.arange(2.0)}
    assert _written(quoted) == reference_json(quoted)


def test_write_json_leaves_no_truncated_file(tmp_path):
    # json refuses the nan before the file is opened, so no file is left
    path = tmp_path / "partial.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(path, {"points": np.arange(4.0), "limit": math.nan})
    assert not path.exists()


def test_write_json_removes_the_file_of_a_failed_write(tmp_path, monkeypatch):
    # the array rows fail after the file is opened and its head written
    path = tmp_path / "partial.json"

    def failing(*args):
        assert path.exists()
        raise OSError("no space left on device")

    monkeypatch.setattr(serialize, "_format_rows", failing)
    with pytest.raises(OSError, match="no space left on device"):
        write_json(path, {"points": np.arange(4.0)})
    assert not path.exists()


# --------------------------------------------------------------------------
# memory

def test_large_region_peaks_below_ten_and_a_half_megabytes(tmp_path):
    """65536 points write a 3.8 MB SVG and a 3.3 MB JSON file; the writers
    hold a chunk of rows, not a Python object per point, and the per-weight
    temporaries of the (n+1)|a_n| test are freed before the SVG is drawn."""
    tracemalloc.start()
    try:
        code = main(["region", "--weights", "cesaro", "--n", "65536", "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 10.5e6, f"peak {peak / 1e6:.1f} MB"
