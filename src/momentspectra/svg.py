"""Self-contained SVG renderings: grid heatmaps, boundary polylines, region
scatter plots.  No external references and no timestamps, so output bytes
depend only on the data.  Every coordinate is written as `%.4f`; the shapes
of a drawing are formatted a chunk of rows at a time by
`serialize._format_rows`, not one Python call per shape."""

from __future__ import annotations

import numpy as np

from .serialize import _format_rows

SIZE = 480  # side of every drawing, in pixels
MARGIN = 24.0  # blank border of the plane plots, in pixels


def _document(body: list[str]) -> str:
    """The SVG document around `body`, pieces that end in a newline when joined."""
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">\n'
    )
    return "".join([head, *body, "</svg>\n"])


def heatmap_svg(values: np.ndarray, extent: tuple[float, float, float, float]) -> str:
    """Grid heatmap; cell brightness grows with the log of the value, scaled
    over the range of the positive values alone.  A zero (sigma_min at an
    eigenvalue) draws black, so it cannot stretch the scale; positive values
    that are all equal draw white."""
    grid = np.asarray(values, dtype=float)
    if grid.size == 0:
        raise ValueError("empty data")
    positive = grid > 0.0
    logs = np.log10(np.where(positive, grid, 1.0))
    lo = float(logs[positive].min()) if positive.any() else 0.0
    hi = float(logs[positive].max()) if positive.any() else 0.0
    level = np.where(positive, (logs - lo) / (hi - lo) if hi > lo else 1.0, 0.0)
    gray = np.rint(255 * np.clip(level, 0.0, 1.0))  # round half to even, as round()
    if np.isnan(gray).any():
        raise ValueError("non-finite data")
    rows, cols = grid.shape
    cell_w = SIZE / cols
    cell_h = SIZE / rows
    gray = gray.astype(int).ravel()
    rect = (f'<rect x="%.4f" y="%.4f" width="{cell_w + 0.5:.4f}" '
            f'height="{cell_h + 0.5:.4f}" fill="#%02x%02x%02x"/>\n')
    # row 0 is the lowest imaginary value; draw it at the bottom
    cells = _format_rows(rect, np.tile(np.arange(cols) * cell_w, rows),
                         np.repeat(SIZE - np.arange(1, rows + 1) * cell_h, cols),
                         gray, gray, gray)
    re0, re1, im0, im1 = extent
    legend = (f'<text x="4" y="{SIZE - 6}" font-size="12" fill="#c03020">'
              f"re:[{re0:.4f},{re1:.4f}] im:[{im0:.4f},{im1:.4f}]</text>\n")
    return _document([*cells, legend])


def _plane_mapper(points: np.ndarray):
    # every part: Python's min and max below keep a nan only when it comes first
    if not np.isfinite(points).all():
        raise ValueError("non-finite data")
    re = points.real
    im = points.imag
    lo = min(re.min(), im.min())
    hi = max(re.max(), im.max())
    span = hi - lo if hi > lo else 1.0
    scale = (SIZE - 2 * MARGIN) / span

    def to_xy(z):
        """Pixel coordinates of a complex number or of each entry of an array."""
        return MARGIN + (z.real - lo) * scale, SIZE - MARGIN - (z.imag - lo) * scale

    return to_xy, scale


def boundary_svg(points: np.ndarray) -> str:
    """Closed polyline through the boundary points (degenerate data collapses
    to a dot)."""
    pts = np.asarray(points, dtype=complex)
    if pts.size == 0:
        raise ValueError("empty data")
    to_xy, _ = _plane_mapper(pts)
    x, y = to_xy(pts)
    # the polyline closes on its first point, which ends the list of pairs
    start = f"{x[0]:.4f},{y[0]:.4f}"
    return _document([
        '<polyline points="', *_format_rows("%.4f,%.4f ", x, y),
        f'{start}" fill="none" stroke="#2050c0" stroke-width="1.5"/>\n',
        f'<circle cx="{x[0]:.4f}" cy="{y[0]:.4f}" r="2" fill="#2050c0"/>\n',
    ])


def region_svg(points: np.ndarray, disc: float | None) -> str:
    """Scatter of spectral points with the outline of the disc |z - L| <= L,
    L = disc, when one is given."""
    pts = np.asarray(points, dtype=complex)
    if pts.size == 0 and disc is None:
        raise ValueError("empty data")
    corners = [] if disc is None else [complex(0.0, -disc), complex(2.0 * disc, disc)]
    to_xy, scale = _plane_mapper(np.append(pts, corners))
    body = []
    if disc is not None:
        cx, cy = to_xy(complex(disc, 0.0))
        body.append(
            f'<circle cx="{cx:.4f}" cy="{cy:.4f}" r="{disc * scale:.4f}" '
            f'fill="none" stroke="#c03020" stroke-width="1.5"/>\n'
        )
    body += _format_rows('<circle cx="%.4f" cy="%.4f" r="2.5" fill="#2050c0"/>\n',
                         *to_xy(pts))
    return _document(body)
