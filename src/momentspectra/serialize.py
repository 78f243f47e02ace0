"""CSV and JSON artifact writers with deterministic formatting.

Every number is written as the shortest text that parses back to the same
float64 (Python's float repr), except the quadrature bound of a moment row
(`%.3e`).  Writers format whole columns: one C-level `%` over a row
template repeated for a chunk of rows, so no Python code runs per entry and
each artifact is joined once.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .measures import MomentSequence
from .numrange import ContractionResult, FovResult
from .spectral import PseudospectrumGrid, SpectralRegion

CHUNK = 1 << 14  # values per % operation: bounds the temporary tuple and text


def _format_rows(row: str, *fields):
    """Yield `row % values` for the rows of `fields`, a chunk of rows at a time.

    The fields are arrays of one shape, rows first; `row` takes one value of
    each field in turn, for each entry of a row in C order."""
    shape = np.shape(fields[0])
    per_row = len(fields) * int(np.prod(shape[1:]))
    step = max(1, CHUNK // max(per_row, 1))
    for start in range(0, shape[0], step):
        stop = min(start + step, shape[0])
        # an object block turns float64 into float, so %r is float's repr
        block = np.empty((stop - start, *shape[1:], len(fields)), dtype=object)
        for k, field in enumerate(fields):
            block[..., k] = field[start:stop]
        yield row * (stop - start) % tuple(block.ravel().tolist())


def moments_csv(ms: MomentSequence) -> str:
    columns = [np.arange(ms.n_terms), ms.values, ms.partial_sums]
    if ms.error_bounds is None:
        rows = _format_rows("%d,%r,%r,closed-form\n", *columns)
    else:
        rows = _format_rows("%d,%r,%r,quadrature(%.3e)\n", *columns, ms.error_bounds)
    return "".join(["n,mu_n,s_n,provenance\n", *rows])


def matrix_csv(matrix: np.ndarray) -> str:
    """One line per row of 're+imi' entries, e.g. '1.5+0.25i' or
    '0.5-2.0i'; a -0.0 or nan imaginary part writes '+'."""
    m = np.asarray(matrix)
    if np.iscomplexobj(m):
        m = m.astype(complex)
        entry, fields = "%r%s%ri", (m.real, np.where(m.imag < 0, "-", "+"), np.abs(m.imag))
    else:
        entry, fields = "%r+0.0i", (m.astype(float),)
    # a matrix without rows still writes its one newline
    return "".join(_format_rows(",".join([entry] * m.shape[1]) + "\n", *fields)) or "\n"


def grid_csv(grid: PseudospectrumGrid) -> str:
    rows, cols = grid.sigma_min.shape
    body = _format_rows("%r,%r,%r\n", np.tile(grid.re_axis, rows),
                        np.repeat(grid.im_axis, cols), grid.sigma_min.ravel())
    return "".join(["re,im,sigma_min\n", *body])


def fov_csv(result: FovResult) -> str:
    points = result.boundary_points
    body = _format_rows("%r,%r,%r,%r\n", result.angles, points.real, points.imag,
                        result.support_values)
    return "".join(["theta,re,im,h\n", *body])


def region_payload(region: SpectralRegion) -> dict:
    return {
        "points": np.column_stack([region.points.real, region.points.imag]),
        "disc_center": region.disc_center,
        "disc_radius": region.disc_radius,
    }


def contraction_payload(result: ContractionResult) -> list[dict]:
    return [
        {"tau": float(tau), "norm": float(norm)}
        for tau, norm in zip(result.taus, result.norms)
    ]


def _coerce_scalar(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {obj!r}")


def _array_layout(shape: tuple, level: int) -> str:
    """json's indent=2 text of a nested list of `shape` at depth `level`,
    with %r for each value."""
    if not shape:
        return "%r"
    pad = "\n" + "  " * (level + 1)
    return ("[" + pad + ("," + pad).join([_array_layout(shape[1:], level + 1)] * shape[0])
            + "\n" + "  " * level + "]")


def _holds_array(obj) -> bool:
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return any(_holds_array(value) for value in obj)
    return isinstance(obj, np.ndarray)


def _json_chunks(obj, level: int, encoder: json.JSONEncoder):
    """Yield the text json.dump(obj, indent=2) writes at depth `level`.

    A finite, non-empty float64 ndarray is formatted in bulk, as json
    formats its tolist(); a container without an ndarray inside, and every
    other value, goes through json in one piece."""
    pad = "\n" + "  " * level
    if (isinstance(obj, np.ndarray) and obj.dtype == float and obj.ndim and obj.size
            and np.isfinite(obj).all()):
        rows = _format_rows("," + pad + "  " + _array_layout(obj.shape[1:], level + 1), obj)
        yield "[" + next(rows)[1:]
        yield from rows
        yield pad + "]"
    elif isinstance(obj, dict) and _holds_array(obj) and all(isinstance(k, str) for k in obj):
        opener = "{"
        for key, value in obj.items():
            yield f"{opener}{pad}  {encoder.encode(key)}: "
            yield from _json_chunks(value, level + 1, encoder)
            opener = ","
        yield pad + "}"
    elif isinstance(obj, (list, tuple)) and _holds_array(obj):
        opener = "["
        for value in obj:
            yield f"{opener}{pad}  "
            yield from _json_chunks(value, level + 1, encoder)
            opener = ","
        yield pad + "]"
    else:
        # json's own text, or its ValueError for a nan or inf
        value = obj.tolist() if isinstance(obj, np.ndarray) else obj
        yield encoder.encode(value).replace("\n", pad)


def write_json(path, payload):
    """The bytes of json.dump(payload, indent=2, allow_nan=False) and a final
    newline, streamed to `path`.  numpy scalars are written as Python ones,
    and an ndarray as its tolist() would be, its rows formatted in bulk; a
    nan or inf raises json's ValueError, and the file is removed rather than
    left truncated."""
    encoder = json.JSONEncoder(indent=2, allow_nan=False, default=_coerce_scalar)
    with open(path, "w") as handle:
        try:
            for chunk in _json_chunks(payload, 0, encoder):
                handle.write(chunk)
            handle.write("\n")
        except BaseException:
            handle.close()
            os.remove(path)
            raise
