"""Command-line front end: runs the analyses and writes CSV/JSON/SVG artifacts
plus a run manifest into an output directory.

Exit codes: 0 when all checks pass, 2 when a numeric check fails its
tolerance or a computation fails numerically (overflow, a degenerate
recurrence, quadrature or eigensolver failure), 1 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import measures as measures_mod
from . import operators as operators_mod
from . import spectral as spectral_mod
from .invariance import (
    cesaro_adjoint_integral_check,
    composition_matrix_phi,
    hilbert_column_check,
    kernel_span_rank,
    monomial_invariance_check,
    rhaly_adjoint_integral_check,
)
from .measures import (
    MeasureParameterError,
    MeasureSyntaxError,
    growth_exponent,
    moments,
    parse_measure,
)
from .numrange import contraction_check, fov_boundary, spectral_norm
from .operators import (
    HankelMomentOperator,
    TerracedOperator,
    WeightSequence,
    benchmark_apply,
    boundedness_report,
    dense,
)
from .quadrature import QuadratureError
from .serialize import (
    contraction_payload,
    fov_csv,
    grid_csv,
    matrix_csv,
    moments_csv,
    region_payload,
    to_json,
)
from .spectral import (
    HypothesesNotMetError,
    adjoint_disc,
    classify_eigenvalue,
    eigenvector_residual,
    pseudospectrum_grid,
    spectrum_region,
)
from .svg import boundary_svg, heatmap_svg, region_svg

HILBERT_NORM_BOUND = 3.1416


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_index_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        indices = list(range(int(lo), int(hi) + 1))
        if not indices:
            raise ValueError(f"empty index range {text!r}")
        return indices
    return [int(text)]


def _parse_floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _parse_ints(text: str) -> list[int]:
    ints = [int(part) for part in text.split(",") if part.strip()]
    if not ints:
        raise ValueError(f"empty integer list {text!r}")
    return ints


class ArtifactWriter:
    """Collects output files; the manifest is always written last."""

    def __init__(self, out_dir: str):
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.files: list[str] = []

    def write_text(self, name: str, text: str):
        (self.out / name).write_text(text)
        self.files.append(name)

    def write_manifest(self, command: str, inputs: dict, tolerances: dict, wall_ms: int):
        manifest = {
            "command": command,
            "inputs": inputs,
            "tolerances": tolerances,
            "outputs": sorted(self.files) + ["manifest.json"],
            "wall_time_ms": wall_ms,
            "tool_version": __version__,
        }
        (self.out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _weights_from_family(family: str, n_terms: int) -> WeightSequence:
    name, _, param = family.partition(":")
    if name == "cesaro":
        return WeightSequence.cesaro(n_terms)
    if name == "power":
        return WeightSequence.power_law(float(param or 2.0), n_terms)
    if name == "leibowitz":
        return WeightSequence.leibowitz_squares(n_terms)
    raise ValueError(f"unknown weight family {family!r} (use cesaro, power:<s>, leibowitz)")


def _build_weights(args, n_terms: int) -> WeightSequence:
    if args.weights:
        return _weights_from_family(args.weights, n_terms)
    if args.measure:
        ms = moments(parse_measure(args.measure), n_terms)
        return WeightSequence.from_moments(ms)
    raise ValueError("provide --measure or --weights")


def _build_operator(args, dim: int):
    if args.kind == "hankel":
        if not args.measure:
            raise ValueError("a hankel operator needs --measure")
        ms = moments(parse_measure(args.measure), 2 * dim - 1)
        return HankelMomentOperator.from_moments(ms, dim)
    return TerracedOperator(_build_weights(args, dim), dim)


# --------------------------------------------------------------------------
# subcommand table: name -> (handler, help, options); each handler returns
# (exit_code, tolerances) and each option is a (flag, add_argument kwargs) pair

_COMMANDS: dict[str, tuple] = {}


def _command(name: str, help: str, *options):
    def register(handler):
        _COMMANDS[name] = (handler, help, options)
        return handler
    return register


_MEASURE = ("--measure", dict(required=True))
_SOURCE = (("--measure", {}), ("--weights", {}))
_OPERATOR = _SOURCE + (("--kind", dict(choices=("terraced", "hankel"), default="terraced")),)


@_command("moments", "moment sequence CSV for a measure",
          _MEASURE,
          ("--n", dict(type=int, required=True)),
          ("--quadrature", dict(action="store_true", help="force the adaptive-quadrature path")),
          ("--tol", dict(type=float, default=1e-13)))
def _cmd_moments(args, writer: ArtifactWriter):
    spec = parse_measure(args.measure)
    method = "quadrature" if args.quadrature else "closed"
    ms = moments(spec, args.n, method=method, tol=args.tol)
    writer.write_text("moments.csv", moments_csv(ms))
    return 0, {"moment_tol": args.tol}


@_command("classify", "point-spectrum membership verdicts",
          _MEASURE,
          ("--k", dict(required=True, help="index or range a..b")),
          ("--n", dict(type=int, default=4096)),
          ("--method", dict(choices=("auto", "analytic", "numeric"), default="auto")))
def _cmd_classify(args, writer: ArtifactWriter):
    spec = parse_measure(args.measure)
    ms = moments(spec, args.n)
    growth = growth_exponent(ms)
    rows = []
    for k in _parse_index_range(args.k):
        verdict = classify_eigenvalue(ms, growth, k, method=args.method)
        rows.append(
            {
                "k": k,
                "mu_k": float(ms.values[k]),
                "verdict": verdict.verdict,
                "slope": verdict.slope,
                "method": verdict.method,
            }
        )
    writer.write_text("verdicts.json", to_json(rows))
    return 0, {
        "l2_margin": spectral_mod.L2_MARGIN,
        "distinct_rel_gap": spectral_mod.DISTINCT_REL_GAP,
        "bounded_slope": measures_mod.BOUNDED_SLOPE,
        "bounded_residual": measures_mod.BOUNDED_RESIDUAL,
    }


@_command("eigencheck", "eigenvector residuals",
          _MEASURE,
          ("--k", dict(required=True)),
          ("--dim", dict(type=int, default=400)),
          ("--embed", dict(type=int, default=1)),
          ("--tol", dict(type=float, default=1e-8)))
def _cmd_eigencheck(args, writer: ArtifactWriter):
    spec = parse_measure(args.measure)
    ms = moments(spec, args.embed * args.dim)
    rows = []
    worst = 0.0
    for k in _parse_index_range(args.k):
        residual = eigenvector_residual(ms, k, args.dim, embed_factor=args.embed)
        worst = max(worst, residual)
        rows.append({"k": k, "mu_k": float(ms.values[k]), "residual": residual,
                     "pass": residual <= args.tol})
    writer.write_text("eigencheck.json", to_json(rows))
    return (0 if worst <= args.tol else 2), {"residual_tol": args.tol}


@_command("adjoint-disc", "guaranteed adjoint point-spectrum disc",
          _MEASURE,
          ("--n", dict(type=int, default=4096)))
def _cmd_adjoint_disc(args, writer: ArtifactWriter):
    spec = parse_measure(args.measure)
    ms = moments(spec, args.n)
    growth = growth_exponent(ms)
    region = adjoint_disc(growth)
    payload = {
        "beta": growth.beta,
        "bounded": growth.bounded,
        "fit_residual": growth.fit_residual,
        "disc": None
        if region is None
        else {"center": region.disc_center, "radius": region.disc_radius},
    }
    writer.write_text("adjoint_disc.json", to_json(payload))
    return 0, {
        "bounded_slope": measures_mod.BOUNDED_SLOPE,
        "bounded_residual": measures_mod.BOUNDED_RESIDUAL,
    }


@_command("region", "predicted spectral region from the weight limit",
          *_SOURCE,
          ("--n", dict(type=int, default=256)))
def _cmd_region(args, writer: ArtifactWriter):
    weights = _build_weights(args, args.n)
    report = boundedness_report(weights, args.n)
    payload = {
        "sup_weight": report.sup_weight,
        "limit_estimate": report.limit_estimate,
        "rhaly_norm_bound": report.rhaly_norm_bound,
        "verdict": report.verdict,
    }
    try:
        region = spectrum_region(weights, report)
        payload["hypotheses_met"] = True
        payload["region"] = region_payload(region)
        writer.write_text(
            "region.svg",
            region_svg(region.points, region.disc_center, region.disc_radius),
        )
    except HypothesesNotMetError as exc:
        payload["hypotheses_met"] = False
        payload["reason"] = str(exc)
    writer.write_text("region.json", to_json(payload))
    return 0, {"limit_oscillation_tol": operators_mod.LIMIT_OSCILLATION_TOL}


@_command("pseudo", "sigma_min grid over a complex window",
          *_OPERATOR,
          ("--window", dict(required=True, help="re0,re1,im0,im1")),
          ("--res", dict(type=int, default=64)),
          ("--dim", dict(type=int, default=256)),
          ("--dump-matrix", dict(action="store_true")))
def _cmd_pseudo(args, writer: ArtifactWriter):
    window = _parse_floats(args.window)
    if len(window) != 4:
        raise ValueError("window must be re0,re1,im0,im1")
    op = _build_operator(args, args.dim)
    grid = pseudospectrum_grid(op, tuple(window), args.res, args.dim)
    writer.write_text("pseudo.csv", grid_csv(grid))
    writer.write_text("pseudo.svg", heatmap_svg(grid.sigma_min, tuple(window)))
    if args.dump_matrix:
        writer.write_text("matrix.csv", matrix_csv(dense(op)))
    return 0, {}


@_command("fov", "field-of-values boundary and right-half-plane check",
          *_OPERATOR,
          ("--dim", dict(type=int, default=64)),
          ("--angles", dict(type=int, default=256)),
          ("--require-rhp", dict(type=float, default=None, nargs="?", const=1e-10,
                                 help="fail (exit 2) when min Re W drops below -TOL")))
def _cmd_fov(args, writer: ArtifactWriter):
    result = fov_boundary(dense(_build_operator(args, args.dim)), n_angles=args.angles)
    writer.write_text("fov.csv", fov_csv(result))
    writer.write_text("fov.svg", boundary_svg(result.boundary_points))
    payload = {
        "dim": result.dim,
        "n_angles": args.angles,
        "min_real_part": result.min_real_part,
        "hermitian_min_eig": result.min_real_part,
    }
    writer.write_text("fov.json", to_json(payload))
    code = 0
    if args.require_rhp is not None and result.min_real_part < -args.require_rhp:
        code = 2
    return code, {"rhp_tol": args.require_rhp}


@_command("contraction", "semigroup contraction norms",
          *_OPERATOR,
          ("--dim", dict(type=int, default=64)),
          ("--taus", dict(default="0.1,1,10")),
          ("--shift", dict(type=float, default=0.0,
                           help="check A - shift*I instead (negative control)")),
          ("--tol", dict(type=float, default=1e-9)))
def _cmd_contraction(args, writer: ArtifactWriter):
    matrix = dense(_build_operator(args, args.dim))
    if args.shift:
        matrix = matrix - args.shift * np.eye(args.dim)
    result = contraction_check(matrix, _parse_floats(args.taus))
    writer.write_text("contraction.json", to_json(contraction_payload(result)))
    code = 0 if result.max_norm <= 1.0 + args.tol else 2
    return code, {"contraction_tol": args.tol}


@_command("invariance", "integral representations and monomial defects",
          _MEASURE,
          ("--dim", dict(type=int, default=32)),
          ("--k-max", dict(type=int, default=8)),
          ("--tol", dict(type=float, default=1e-11)))
def _cmd_invariance(args, writer: ArtifactWriter):
    spec = parse_measure(args.measure)
    checks = []

    def record(check: str, params: dict, value: float, tolerance: float, passed: bool):
        checks.append(
            {
                "check": check,
                "params": params,
                "deviation_or_defect": value,
                "tolerance": tolerance,
                "pass": passed,
            }
        )

    s_t = (0.3, 0.9)
    left = composition_matrix_phi(s_t[0], args.dim) @ composition_matrix_phi(s_t[1], args.dim)
    dev = float(np.max(np.abs(left - composition_matrix_phi(s_t[0] + s_t[1], args.dim))))
    record("composition-semigroup", {"s": s_t[0], "t": s_t[1], "dim": args.dim},
           dev, 1e-13, dev <= 1e-13)

    dev = cesaro_adjoint_integral_check(args.dim)
    record("cesaro-adjoint-integral", {"dim": args.dim}, dev, args.tol, dev <= args.tol)

    ms = moments(spec, 2 * args.dim - 1)
    weights = WeightSequence.from_moments(ms)
    dev = rhaly_adjoint_integral_check(weights, args.dim)
    record("rhaly-adjoint-integral", {"dim": args.dim, "measure": args.measure},
           dev, args.tol, dev <= args.tol)

    terraced = TerracedOperator(weights, args.dim).dense()
    worst = max(
        monomial_invariance_check(terraced, k) for k in range(min(args.k_max, args.dim - 1) + 1)
    )
    record("terraced-monomial-defect", {"k_max": args.k_max, "measure": args.measure},
           worst, 1e-15, worst <= 1e-15)

    hankel = HankelMomentOperator.from_moments(ms, args.dim).dense()
    defect = monomial_invariance_check(hankel, 1)
    record("hankel-monomial-defect", {"k": 1, "measure": args.measure},
           defect, 1e-12, defect > 1e-12)

    locations = list(np.linspace(0.0, 0.9, 8))
    rank = kernel_span_rank(locations, args.dim)
    record("kernel-span-rank", {"locations": locations, "dim": args.dim},
           float(rank), float(len(locations)), rank == len(locations))

    writer.write_text("invariance.json", to_json(checks))
    code = 0 if all(c["pass"] for c in checks) else 2
    return code, {"integral_tol": args.tol}


@_command("hilbert", "Hilbert-matrix column identities and norm growth",
          ("--max-index", dict(type=int, default=16)),
          ("--dims", dict(default="64,128,256")),
          ("--tol", dict(type=float, default=1e-12)))
def _cmd_hilbert(args, writer: ArtifactWriter):
    largest = (operators_mod.DENSE_LIMIT - 1) // 2  # Bernstein table side 2 max-index + 1
    if args.max_index > largest:
        raise ValueError(f"--max-index {args.max_index} exceeds {largest} (dense limit)")
    dim = args.max_index + 1
    columns = []
    ok = True
    for n in range(dim):
        deviation = hilbert_column_check(n, dim)
        passed = deviation <= args.tol
        ok = ok and passed
        columns.append({"n": n, "deviation": deviation, "pass": passed})
    norms = []
    previous = 0.0
    nondecreasing = True
    for d in _parse_ints(args.dims):
        ms = moments(parse_measure("lebesgue"), 2 * d - 1)
        matrix = HankelMomentOperator.from_moments(ms, d).dense()
        norm = spectral_norm(matrix)
        nondecreasing = nondecreasing and norm >= previous
        previous = norm
        norms.append({"dim": d, "norm": norm})
    within_bound = all(entry["norm"] <= HILBERT_NORM_BOUND for entry in norms)
    payload = {
        "columns": columns,
        "norms": norms,
        "norm_bound": HILBERT_NORM_BOUND,
        "norms_nondecreasing": nondecreasing,
        "norms_within_bound": within_bound,
    }
    writer.write_text("hilbert.json", to_json(payload))
    code = 0 if ok and nondecreasing and within_bound else 2
    return code, {"column_tol": args.tol}


@_command("bench", "kernel timing harness",
          ("--dim", dict(type=int, default=8192)),
          ("--kernels", dict(default="terraced,terraced-dense,hankel,hankel-dense")),
          ("--repeats", dict(type=int, default=3)))
def _cmd_bench(args, writer: ArtifactWriter):
    rows = [
        benchmark_apply(kernel.strip(), args.dim, repeats=args.repeats)
        for kernel in args.kernels.split(",")
        if kernel.strip()
    ]
    writer.write_text("bench.json", to_json(rows))
    return 0, {}


def build_parser() -> _Parser:
    parser = _Parser(prog="momentspectra",
                     description="Spectral diagnostics for terraced and Hankel moment operators")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--out", required=True, help="output directory for artifacts")
        p.add_argument("--config", default=None, help="key = value defaults file")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return parser


def _config_flags(path: str) -> list[str]:
    """Each `key = value` line of a config file as the flag `--key=value`
    (`_` in the key becomes `-`); `true` gives the bare `--key` and `false`
    gives nothing, so argparse validates config values like typed flags."""
    flags = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        flag = "--" + key.strip().replace("_", "-")
        value = value.strip()
        if value.lower() == "true":
            flags.append(flag)
        elif value.lower() != "false":
            flags.append(f"{flag}={value}")
    return flags


def run(argv: list[str]) -> int:
    pre = _Parser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    config = pre.parse_known_args(argv)[0].config
    if config:
        # right after the subcommand name, so flags given on the command line
        # come later and win: argparse keeps the last value it sees
        argv = argv[:1] + _config_flags(config) + argv[1:]
    args = build_parser().parse_args(argv)
    handler = _COMMANDS[args.command][0]
    writer = ArtifactWriter(args.out)
    start = time.perf_counter()
    code, tolerances = handler(args, writer)
    wall_ms = int((time.perf_counter() - start) * 1000)
    inputs = {k: v for k, v in vars(args).items() if k not in ("command", "out", "config")}
    writer.write_manifest(args.command, inputs, tolerances, wall_ms)
    return code


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        return run(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (MeasureSyntaxError, MeasureParameterError) as exc:
        print(f"measure error: {exc}", file=sys.stderr)
        return 1
    # before ValueError: LinAlgError subclasses it
    except (ArithmeticError, QuadratureError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
