"""Self-contained SVG renderings: grid heatmaps, boundary polylines, region
scatter plots.  No external references and no timestamps, so output bytes
depend only on the data."""

from __future__ import annotations

import math

import numpy as np

SIZE = 480  # side of every drawing, in pixels
MARGIN = 24.0  # blank border of the plane plots, in pixels


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _document(body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _gray(level: float) -> str:
    v = int(round(255 * min(max(level, 0.0), 1.0)))
    return f"#{v:02x}{v:02x}{v:02x}"


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
            # row 0 is the lowest imaginary value; draw it at the bottom
            y = SIZE - (i + 1) * cell_h
            body.append(
                f'<rect x="{_fmt(j * cell_w)}" y="{_fmt(y)}" '
                f'width="{_fmt(cell_w + 0.5)}" height="{_fmt(cell_h + 0.5)}" '
                f'fill="{_gray(level)}"/>'
            )
    re0, re1, im0, im1 = extent
    body.append(
        f'<text x="4" y="{SIZE - 6}" font-size="12" fill="#c03020">'
        f"re:[{_fmt(re0)},{_fmt(re1)}] im:[{_fmt(im0)},{_fmt(im1)}]</text>"
    )
    return _document(body)


def _plane_mapper(points: np.ndarray):
    re = points.real
    im = points.imag
    lo = min(re.min(), im.min())
    hi = max(re.max(), im.max())
    if not math.isfinite(lo) or not math.isfinite(hi):
        raise ValueError("non-finite data")
    span = hi - lo if hi > lo else 1.0
    scale = (SIZE - 2 * MARGIN) / span

    def to_xy(z: complex) -> tuple[float, float]:
        return MARGIN + (z.real - lo) * scale, SIZE - MARGIN - (z.imag - lo) * scale

    return to_xy, scale


def boundary_svg(points: np.ndarray) -> str:
    """Closed polyline through the boundary points (degenerate data collapses
    to a dot)."""
    pts = np.asarray(points, dtype=complex)
    if pts.size == 0:
        raise ValueError("empty data")
    to_xy, _ = _plane_mapper(pts)
    coords = [to_xy(z) for z in pts]
    coords.append(coords[0])
    path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in coords)
    x0, y0 = coords[0]
    body = [
        f'<polyline points="{path}" fill="none" stroke="#2050c0" stroke-width="1.5"/>',
        f'<circle cx="{_fmt(x0)}" cy="{_fmt(y0)}" r="2" fill="#2050c0"/>',
    ]
    return _document(body)


def region_svg(points: np.ndarray, disc_center: float | None,
               disc_radius: float | None) -> str:
    """Scatter of spectral points with an optional disc outline."""
    pts = np.asarray(points, dtype=complex)
    if pts.size == 0 and disc_center is None:
        raise ValueError("empty data")
    corners = ([complex(disc_center - disc_radius, -disc_radius),
                complex(disc_center + disc_radius, disc_radius)]
               if disc_center is not None and disc_radius is not None else [])
    to_xy, scale = _plane_mapper(np.append(pts, corners))
    body = []
    if disc_center is not None and disc_radius is not None:
        cx, cy = to_xy(complex(disc_center, 0.0))
        body.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(disc_radius * scale)}" '
            f'fill="none" stroke="#c03020" stroke-width="1.5"/>'
        )
    for z in pts:
        x, y = to_xy(z)
        body.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.5" fill="#2050c0"/>')
    return _document(body)
