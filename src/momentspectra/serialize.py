"""CSV and JSON artifact writers with deterministic formatting.

Every number is written as the shortest text that parses back to the same
float64 (Python's float repr), except the quadrature bound of a moment row
(`%.3e`).  Writers format whole columns: one C-level `%` over a row
template repeated for a chunk of rows, so no Python code runs per entry and
each artifact is joined once.  `matrix_csv` formats each distinct float64
bit pattern of the matrix once and builds a chunk of rows at a time by
indexing those texts: a Hankel or terraced matrix of side n holds at most
2n distinct entries among its n^2.  JSON artifacts are laid out by `json`
alone, in this module only: `write_json` formats each float64 array in bulk
and splices its rows in where json wrote a placeholder string.
"""

from __future__ import annotations

import json
import os

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    # annotations only: serialize loads none of these modules
    from .measures import MomentSequence
    from .numrange import FovResult
    from .spectral import PseudospectrumGrid

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
    """One line per row of a real matrix, each entry as 're+0.0i', e.g.
    '1.5+0.0i'; a complex matrix is refused.  Entries are told apart by
    their bits, so -0.0 and 0.0 keep their own texts."""
    m = np.asarray(matrix)
    if np.iscomplexobj(m):
        raise ValueError("matrix_csv writes a real matrix, got a complex one")
    bits = np.asarray(m, dtype=np.float64).view(np.int64)
    rows, cols = bits.shape
    if not bits.size:
        # each row ends its empty line, and a matrix without rows writes one
        return "\n" * max(rows, 1)
    distinct = np.unique(bits)
    texts = [f"{x!r}+0.0i" for x in distinct.view(np.float64).tolist()]
    inner = np.array([text + "," for text in texts], dtype=object)
    last = np.array([text + "\n" for text in texts], dtype=object)
    step = max(1, CHUNK // cols)
    chunks = []
    for start in range(0, rows, step):
        index = np.searchsorted(distinct, bits[start:start + step])
        cells = inner[index]
        cells[:, -1] = last[index[:, -1]]
        chunks.append("".join(cells.ravel().tolist()))
    return "".join(chunks)


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


def _array_layout(shape: tuple, level: int) -> str:
    """json's indent=2 text of a nested list of `shape` at depth `level`,
    with %r for each value."""
    if not shape:
        return "%r"
    pad = "\n" + "  " * (level + 1)
    return ("[" + pad + ("," + pad).join([_array_layout(shape[1:], level + 1)] * shape[0])
            + "\n" + "  " * level + "]")


#: the string json lays out in place of an array formatted in bulk
_PLACEHOLDER = "@ndarray@"


def write_json(path, payload):
    """The bytes of json.dump(payload, indent=2, allow_nan=False) and a final
    newline, streamed to `path`.  numpy scalars are written as Python ones
    and an ndarray as its tolist() would be; json lays out everything but
    each finite, non-empty float64 array, whose placeholder is replaced by
    the array's rows formatted in bulk at the placeholder's indent.  A nan or
    inf raises json's ValueError before the file is opened, a payload string
    equal to the placeholder raises ValueError, and a failed write removes
    the file rather than leave it truncated."""
    arrays = []

    def default(obj):
        if isinstance(obj, np.generic):
            return obj.item()
        if not isinstance(obj, np.ndarray):
            raise TypeError(f"not JSON serializable: {obj!r}")
        if obj.dtype == float and obj.ndim and obj.size and np.isfinite(obj).all():
            arrays.append(obj)
            return _PLACEHOLDER
        return obj.tolist()

    text = json.dumps(payload, indent=2, allow_nan=False, default=default)
    pieces = text.split(f'"{_PLACEHOLDER}"')
    if len(pieces) != len(arrays) + 1:
        raise ValueError(f"a payload string equals the array placeholder {_PLACEHOLDER!r}")
    with open(path, "w") as handle:
        try:
            handle.write(pieces[0])
            for before, array, after in zip(pieces, arrays, pieces[1:]):
                line = before.rpartition("\n")[2]
                level = (len(line) - len(line.lstrip(" "))) // 2
                pad = "\n" + "  " * level
                rows = _format_rows("," + pad + "  " + _array_layout(array.shape[1:], level + 1),
                                    array)
                handle.write("[" + next(rows)[1:])
                handle.writelines(rows)
                handle.write(pad + "]" + after)
            handle.write("\n")
        except BaseException:
            handle.close()
            os.remove(path)
            raise
