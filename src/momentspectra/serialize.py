"""CSV and JSON artifact writers with deterministic formatting."""

from __future__ import annotations

import json

import numpy as np

from .measures import MomentSequence
from .numrange import ContractionResult, FovResult
from .spectral import PseudospectrumGrid, SpectralRegion


def format_float(x: float) -> str:
    return repr(float(x))


def format_complex(z: complex) -> str:
    """Complex entry as 're+imi', e.g. '1.5+0.25i' or '0.5-2.0i'."""
    z = complex(z)
    sign = "+" if z.imag >= 0 or np.isnan(z.imag) else "-"
    return f"{format_float(z.real)}{sign}{format_float(abs(z.imag))}i"


def moments_csv(ms: MomentSequence) -> str:
    lines = ["n,mu_n,s_n,provenance"]
    for n in range(ms.n_terms):
        label = ("closed-form" if ms.error_bounds is None
                 else f"quadrature({ms.error_bounds[n]:.3e})")
        lines.append(
            f"{n},{format_float(ms.values[n])},{format_float(ms.partial_sums[n])},{label}"
        )
    return "\n".join(lines) + "\n"


def matrix_csv(matrix: np.ndarray) -> str:
    m = np.asarray(matrix, dtype=complex)
    lines = [",".join(format_complex(v) for v in row) for row in m]
    return "\n".join(lines) + "\n"


def grid_csv(grid: PseudospectrumGrid) -> str:
    lines = ["re,im,sigma_min"]
    for i, im in enumerate(grid.im_axis):
        for j, re in enumerate(grid.re_axis):
            lines.append(
                f"{format_float(re)},{format_float(im)},{format_float(grid.sigma_min[i, j])}"
            )
    return "\n".join(lines) + "\n"


def fov_csv(result: FovResult) -> str:
    lines = ["theta,re,im,h"]
    for theta, point, h in zip(result.angles, result.boundary_points, result.support_values):
        lines.append(
            f"{format_float(theta)},{format_float(point.real)},"
            f"{format_float(point.imag)},{format_float(h)}"
        )
    return "\n".join(lines) + "\n"


def region_payload(region: SpectralRegion) -> dict:
    return {
        "points": [[float(p.real), float(p.imag)] for p in region.points],
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


def write_json(path, payload):
    """Indented JSON and a final newline, streamed rather than built as one string."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, allow_nan=False, default=_coerce_scalar)
        handle.write("\n")
