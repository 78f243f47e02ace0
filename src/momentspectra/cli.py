"""Command-line front end: runs the analyses and writes CSV/JSON/SVG artifacts
plus a run manifest into an output directory.

Exit codes: 0 when all checks pass, 2 when a numeric check fails its
tolerance or a computation fails numerically (overflow, a degenerate
recurrence, quadrature or eigensolver failure) or cannot allocate its
memory (MemoryError), 1 on usage or input errors.  The manifest records
the run's status: "ok" with the handler's exit code, or "error" with the
exit code and message of a numeric, allocation or input error raised once
--out is known.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, _lapack
from . import measures as measures_mod
from .measures import (
    MeasureParameterError,
    MeasureSyntaxError,
    moments,
    octave_ladder,
    parse_measure,
)
from .serialize import fov_csv, grid_csv, matrix_csv, moments_csv, write_json

# spectral, numrange, invariance, operators and svg are imported inside the
# handlers and builders that call them: a process loads only its command's
# modules, and each call looks its function up in the defining module, where
# a traced or patched replacement is found

#: invariance's kernel-span check needs as many truncated dimensions as locations
KERNEL_LOCATIONS = 8
#: the gates of the checks, fixed so that no run sets its own; each
#: manifest's `tolerances` records the ones its command applied
#: eigencheck's ||R x - mu_k x|| / ||x||, in the units of the weights
RESIDUAL_TOL = 1e-8
#: contraction's ||exp(-tau A)|| - 1, unitless: tau carries the inverse unit of A
CONTRACTION_TOL = 1e-9
#: fov --require-rhp's gate in units of dim * eps * w, w = max h(theta) the
#: numerical radius (||A|| <= 2w): min Re W below -RHP_ROUNDING * dim * eps * w
#: fails, a bound above the rounding of a positive semidefinite Hermitian part
RHP_ROUNDING = 1.0
#: adjoint-integral deviations, relative to the largest of the dim weights
INTEGRAL_TOL = 1e-11
#: Hilbert column deviations and norms: the Hilbert matrix is fixed, so they
#: are absolute; Hilbert's inequality gives ||H_N|| < pi
COLUMN_TOL = 1e-12
HILBERT_NORM_BOUND = math.pi
#: composition-semigroup entries, Bernstein values in [0, 1], are unitless
SEMIGROUP_TOL = 1e-13
#: the terraced monomial defect, in the units of the weights
TERRACED_DEFECT_TOL = 1e-15
#: the Hankel monomial defect must exceed this floor times mu_0: no monomial
#: is invariant
HANKEL_DEFECT_FLOOR = 1e-12
#: invariance checks the monomials t^k for k up to this
MONOMIAL_K_MAX = 8


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_index_range(flag: str, text: str) -> range:
    """The indices of `k` or `a..b` as a range: no list is built, so the
    first index a command refuses ends the run whatever the upper bound."""
    lo, dots, hi = text.partition("..")
    first, last = (_flag(flag, _at_least(), part) for part in (lo, hi if dots else lo))
    indices = range(first, last + 1)
    if not indices:
        raise ValueError(f"empty index range {text!r}")
    return indices


def _finite_float(text: str) -> float:
    """float(text), refusing nan and inf: the argparse type of every signed float option."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _at_least(minimum: float = -math.inf):
    """The argparse type of an integer option that nothing below minimum can
    run; with no minimum, of any integer."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{value} is below {minimum}")
        return value
    return parse


def _flag(flag: str, parse, text: str):
    """parse(text) of a number inside an option's value, parse being an
    argparse type: a refusal is an input error that names the flag."""
    try:
        return parse(text)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _parse_floats(flag: str, text: str) -> list[float]:
    return [_flag(flag, _finite_float, part) for part in text.split(",") if part.strip()]


def _parse_ints(flag: str, text: str) -> list[int]:
    ints = [_flag(flag, _at_least(), part) for part in text.split(",") if part.strip()]
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

    def write_json(self, name: str, payload):
        write_json(self.out / name, payload)
        self.files.append(name)

    def write_manifest(self, command: str, inputs: dict, tolerances: dict, wall_ms: int,
                       exit_code: int, error: str | None = None):
        """status is "ok" when the handler returned (exit_code then says
        whether its checks passed) and "error" with the one-line message when
        it raised a numeric or input error.  `environment` records numpy,
        scipy and each BLAS the run loaded, with its thread count."""
        manifest = {
            "command": command,
            "status": "ok" if error is None else "error",
            "exit_code": exit_code,
            **({} if error is None else {"error": error}),
            "inputs": inputs,
            "tolerances": tolerances,
            "outputs": sorted(self.files) + ["manifest.json"],
            "wall_time_ms": wall_ms,
            "tool_version": __version__,
            "environment": _lapack.environment(),
        }
        write_json(self.out / "manifest.json", manifest)


def _build_operator(spec, kind: str, dim: int):
    from .operators import HankelMomentOperator, TerracedOperator, WeightSequence

    if kind == "hankel":
        return HankelMomentOperator.from_moments(moments(spec, 2 * dim - 1), dim)
    return TerracedOperator(WeightSequence(moments(spec, dim).values), dim)


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
_SOURCE = (("--measure", {}), ("--weights", dict(choices=("cesaro",))))
_KIND = ("--kind", dict(choices=("terraced", "hankel"), default="terraced"))


@_command("moments", "moment sequence CSV for a measure",
          _MEASURE,
          ("--n", dict(type=_at_least(1), required=True)),
          ("--quadrature", dict(action="store_true", help="force the adaptive-quadrature path")))
def _cmd_moments(args, writer: ArtifactWriter):
    ms = moments(args.spec, args.n, method="quadrature" if args.quadrature else "closed")
    writer.write_text("moments.csv", moments_csv(ms))
    return 0, {"moment_tol": measures_mod.MOMENT_TOL}


@_command("classify", "point-spectrum membership verdicts",
          _MEASURE,
          ("--k", dict(required=True, help="index or range a..b")),
          ("--n", dict(type=_at_least(1), default=4096)),
          ("--method", dict(choices=("analytic", "numeric"), default="analytic")))
def _cmd_classify(args, writer: ArtifactWriter):
    from . import spectral

    ms = moments(args.spec, args.n)
    ks = _parse_index_range("--k", args.k)
    verdicts = spectral.classify_eigenvalue(ms, args.spec.weight_limit(), ks, args.method)
    # each row is {k, mu_k, verdict, slope, method}
    rows = [{"k": k, "mu_k": float(ms.values[k]), **asdict(verdict)}
            for k, verdict in zip(ks, verdicts)]
    writer.write_json("verdicts.json", rows)
    # the settle constants gate only the numeric chords
    settle = {} if args.method == "analytic" else {
        "l2_margin": spectral.L2_MARGIN,
        "geometric_step": spectral.GEOMETRIC_STEP,
        "flat_step": spectral.FLAT_STEP,
        "slowest_ratio": spectral.SLOWEST_RATIO,
    }
    return 0, {**settle, "distinct_rel_gap": spectral.DISTINCT_REL_GAP}


@_command("eigencheck", "eigenvector residuals",
          _MEASURE,
          ("--k", dict(required=True)),
          ("--dim", dict(type=_at_least(1), default=400)),
          ("--embed", dict(type=_at_least(1), default=1)))
def _cmd_eigencheck(args, writer: ArtifactWriter):
    from .spectral import eigenvector_residual

    ks = _parse_index_range("--k", args.k)
    # the range's first refused index, refused before the first residual
    first_bad = ks[0] if not 0 <= ks[0] < args.dim else args.dim
    if first_bad in ks:
        raise ValueError(f"index {first_bad} out of range for dim {args.dim}")
    ms = moments(args.spec, args.embed * args.dim)
    rows = []
    worst = 0.0
    for k in ks:
        residual = eigenvector_residual(ms, k, args.dim, embed_factor=args.embed)
        worst = max(worst, residual)
        rows.append({"k": k, "mu_k": float(ms.values[k]), "residual": residual,
                     "pass": residual <= RESIDUAL_TOL})
    writer.write_json("eigencheck.json", rows)
    return (0 if worst <= RESIDUAL_TOL else 2), {"residual_tol": RESIDUAL_TOL}


@_command("adjoint-disc", "guaranteed adjoint point-spectrum disc",
          _MEASURE,
          ("--n", dict(type=_at_least(measures_mod.LADDER_MIN_TERMS), default=4096)))
def _cmd_adjoint_disc(args, writer: ArtifactWriter):
    limit = args.spec.weight_limit()
    # with s_n = L log n + O(1), exp(-(1+eps) gamma s_n) is summable exactly
    # for gamma >= 1/L, so the disc has centre and radius L; L = 0 has none
    payload = {
        "beta": limit,
        "bounded": limit == 0.0,
        "beta_octaves": octave_ladder(moments(args.spec, args.n), args.n - 1)[1].tolist(),
        "disc": None if limit == 0.0 else {"center": limit, "radius": limit},
    }
    writer.write_json("adjoint_disc.json", payload)
    return 0, {}


def _weight_bounds(a: np.ndarray) -> tuple[float, float]:
    """sup (n+1) a_n and Rhaly's bound adding sup sqrt(n(n+1)) a_n, for
    nonnegative weights a, or OverflowError when the bound is not finite; the
    per-weight temporaries are freed on return, before region draws its SVG."""
    n = np.arange(a.size)
    with np.errstate(over="ignore"):
        sup_weight = float(((n + 1.0) * a).max())
        bound = sup_weight + float(np.max(np.sqrt(n * (n + 1.0)) * a))
    if not math.isfinite(bound):
        raise OverflowError("Rhaly's norm bound overflows")
    return sup_weight, bound


@_command("region", "predicted spectral region from the weight limit",
          *_SOURCE,
          ("--n", dict(type=_at_least(1), default=256)))
def _cmd_region(args, writer: ArtifactWriter):
    # the predicted spectrum of a terraced operator with positive distinct
    # weights a_n and limit L: the weights plus the closed disc |z - L| <= L,
    # or plus {0} when L = 0.  Moments are nonincreasing, so they are
    # pairwise distinct when no consecutive pair coincides
    from .spectral import first_coincidence, normal_length
    from .svg import region_svg

    weights = moments(args.spec, args.n).values
    limit = args.spec.weight_limit()
    sup_weight, bound = _weight_bounds(weights)
    normal = normal_length(weights)
    if normal < args.n:
        reason = f"weights underflow below the normal range from index {normal}"
    elif first_coincidence(weights) is not None:
        reason = "weights must be pairwise distinct"
    else:
        reason = None
    payload = {
        "sup_weight": sup_weight,
        "limit_estimate": limit,
        "rhaly_norm_bound": bound,
        "verdict": "Bounded" if limit > 0.0 else "CompactIndicated",
        "hypotheses_met": reason is None,
    }
    if reason is None:
        points = weights if limit else np.append(weights, 0.0)
        disc = limit or None
        # written first, so that the SVG text is freed before the JSON is written
        writer.write_text("region.svg", region_svg(points, disc))
        payload["region"] = {"points": np.column_stack([points, np.zeros_like(points)]),
                             "disc_center": disc, "disc_radius": disc}
    else:
        payload["reason"] = reason
    writer.write_json("region.json", payload)
    return 0, {}


@_command("pseudo", "sigma_min grid over a complex window",
          *_SOURCE, _KIND,
          ("--window", dict(required=True, help="re0,re1,im0,im1")),
          ("--res", dict(type=_at_least(2), default=64)),
          ("--dim", dict(type=_at_least(1), default=256)),
          ("--dump-matrix", dict(action="store_true")))
def _cmd_pseudo(args, writer: ArtifactWriter):
    from .operators import check_dense_limit
    from .spectral import pseudospectrum_grid
    from .svg import heatmap_svg

    window = _parse_floats("--window", args.window)
    if len(window) != 4:
        raise ValueError("window must be re0,re1,im0,im1")
    if args.dump_matrix:
        # the terraced grid has no dense limit, but the dumped matrix has
        check_dense_limit(args.dim)
    op = _build_operator(args.spec, args.kind, args.dim)
    grid = pseudospectrum_grid(op, tuple(window), args.res, args.dim)
    writer.write_text("pseudo.csv", grid_csv(grid))
    writer.write_text("pseudo.svg", heatmap_svg(grid.sigma_min, tuple(window)))
    if args.dump_matrix:
        writer.write_text("matrix.csv", matrix_csv(op.dense()))
    return 0, {}


@_command("fov", "field-of-values boundary and right-half-plane check",
          _MEASURE, _KIND,
          ("--dim", dict(type=_at_least(1), default=64)),
          ("--angles", dict(type=_at_least(4), default=256)),
          ("--require-rhp", dict(action="store_true",
                                 help=f"exit 2 if min Re W < -{RHP_ROUNDING:g}*dim*eps*w, "
                                      "w the largest support value; the manifest's "
                                      "rhp_tol records the threshold")))
def _cmd_fov(args, writer: ArtifactWriter):
    from .numrange import fov_boundary
    from .svg import boundary_svg

    result = fov_boundary(_build_operator(args.spec, args.kind, args.dim).dense(),
                          n_angles=args.angles)
    writer.write_text("fov.csv", fov_csv(result))
    writer.write_text("fov.svg", boundary_svg(result.boundary_points))
    payload = {
        "dim": args.dim,
        "n_angles": args.angles,
        "min_real_part": result.min_real_part,
        "hermitian_min_eig": result.min_real_part,
    }
    writer.write_json("fov.json", payload)
    if not args.require_rhp:
        return 0, {"rhp_tol": None}
    rhp_tol = RHP_ROUNDING * args.dim * np.finfo(float).eps * result.support_values.max()
    return (2 if result.min_real_part < -rhp_tol else 0), {"rhp_tol": rhp_tol}


@_command("contraction", "semigroup contraction norms",
          _MEASURE,
          ("--dim", dict(type=_at_least(1), default=64)),
          ("--taus", dict(default="0.1,1,10")),
          ("--shift", dict(type=_finite_float, default=0.0,
                           help="check A - shift*I instead (negative control)")))
def _cmd_contraction(args, writer: ArtifactWriter):
    from .numrange import contraction_check

    matrix = _build_operator(args.spec, "terraced", args.dim).dense()
    matrix[np.diag_indices(args.dim)] -= args.shift
    taus = _parse_floats("--taus", args.taus)
    norms = contraction_check(matrix, taus)
    writer.write_json("contraction.json",
                      [{"tau": tau, "norm": norm} for tau, norm in zip(taus, norms.tolist())])
    code = 0 if norms.max() <= 1.0 + CONTRACTION_TOL else 2
    return code, {"contraction_tol": CONTRACTION_TOL}


@_command("invariance", "integral representations and monomial defects",
          _MEASURE,
          ("--dim", dict(type=_at_least(KERNEL_LOCATIONS), default=32)))
def _cmd_invariance(args, writer: ArtifactWriter):
    from .invariance import (
        composition_matrix_phi,
        kernel_span_rank,
        monomial_invariance_check,
        rhaly_adjoint_integral_check,
    )
    from .operators import HankelMomentOperator, TerracedOperator, WeightSequence

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
           dev, SEMIGROUP_TOL, dev <= SEMIGROUP_TOL)

    dev = rhaly_adjoint_integral_check(WeightSequence.cesaro(args.dim), args.dim)
    record("cesaro-adjoint-integral", {"dim": args.dim}, dev, INTEGRAL_TOL, dev <= INTEGRAL_TOL)

    ms = moments(args.spec, 2 * args.dim - 1)
    weights = WeightSequence(ms.values)
    # relative to the largest weight the check reads, as Cesaro's, whose a_0 is 1
    dev = rhaly_adjoint_integral_check(weights, args.dim) / float(ms.values[: args.dim].max())
    record("rhaly-adjoint-integral", {"dim": args.dim, "measure": args.measure},
           dev, INTEGRAL_TOL, dev <= INTEGRAL_TOL)

    terraced = TerracedOperator(weights, args.dim).dense()
    worst = max(monomial_invariance_check(terraced, k)
                for k in range(min(MONOMIAL_K_MAX, args.dim - 1) + 1))
    record("terraced-monomial-defect", {"k_max": MONOMIAL_K_MAX, "measure": args.measure},
           worst, TERRACED_DEFECT_TOL, worst <= TERRACED_DEFECT_TOL)

    hankel = HankelMomentOperator.from_moments(ms, args.dim).dense()
    # the defect is reported absolute, row 0's max mu_n; its floor scales with mu_0
    defect = monomial_invariance_check(hankel, 1)
    floor = HANKEL_DEFECT_FLOOR * float(ms.values[0])
    record("hankel-monomial-defect", {"k": 1, "measure": args.measure},
           defect, floor, defect > floor)

    locations = list(np.linspace(0.0, 0.9, KERNEL_LOCATIONS))
    rank = kernel_span_rank(locations, args.dim)
    record("kernel-span-rank", {"locations": locations, "dim": args.dim},
           float(rank), float(len(locations)), rank == len(locations))

    writer.write_json("invariance.json", checks)
    code = 0 if all(c["pass"] for c in checks) else 2
    return code, {"semigroup_tol": SEMIGROUP_TOL, "integral_tol": INTEGRAL_TOL,
                  "terraced_defect_tol": TERRACED_DEFECT_TOL,
                  "hankel_defect_floor": HANKEL_DEFECT_FLOOR}


@_command("hilbert", "Hilbert-matrix column identities and norm growth",
          ("--max-index", dict(type=_at_least(0), default=16)),
          ("--dims", dict(default="64,128,256")))
def _cmd_hilbert(args, writer: ArtifactWriter):
    from .invariance import hilbert_column_check
    from .operators import DENSE_LIMIT, HankelMomentOperator
    from .spectral import hankel_norm

    largest = (DENSE_LIMIT - 1) // 2  # Bernstein table side 2 max-index + 1
    if args.max_index > largest:
        raise ValueError(f"--max-index {args.max_index} exceeds {largest} (dense limit)")
    # nested sections: the norm check is an oracle only on increasing dims;
    # hankel_norm forms no matrix, so no dense limit bounds them
    dims = _parse_ints("--dims", args.dims)
    if not (all(a < b for a, b in zip(dims, dims[1:])) and 1 <= dims[0]):
        raise ValueError(f"--dims {args.dims} must increase strictly from 1")
    deviations = hilbert_column_check(args.max_index + 1).tolist()
    columns = [{"n": n, "deviation": deviation, "pass": deviation <= COLUMN_TOL}
               for n, deviation in enumerate(deviations)]
    ok = all(column["pass"] for column in columns)
    norms = []
    previous = 0.0
    nondecreasing = True
    # the Hilbert matrix of each dim d reads the first 2d - 1 of these moments
    ms = moments(parse_measure("lebesgue"), 2 * dims[-1] - 1)
    for d in dims:
        norm = hankel_norm(HankelMomentOperator.from_moments(ms, d))
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
    writer.write_json("hilbert.json", payload)
    code = 0 if ok and nondecreasing and within_bound else 2
    return code, {"column_tol": COLUMN_TOL, "norm_bound": HILBERT_NORM_BOUND}


def build_parser() -> _Parser:
    parser = _Parser(prog="momentspectra",
                     description="Spectral diagnostics for terraced and Hankel moment operators")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--out", required=True, help="output directory for artifacts")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return parser


def run(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    handler = _COMMANDS[args.command][0]
    writer = ArtifactWriter(args.out)
    inputs = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
    start = time.perf_counter()
    try:
        # --measure is parsed here alone, so its errors come first; every
        # handler and builder reads the spec.  --weights cesaro is read as
        # --measure lebesgue, whose moments are Cesaro's 1/(n+1) bit for bit
        args.spec = None if getattr(args, "measure", None) is None else parse_measure(args.measure)
        if getattr(args, "weights", None) is not None:
            if args.spec is not None:
                raise ValueError("give --measure or --weights, not both")
            args.spec = parse_measure("lebesgue")
        elif args.spec is None and hasattr(args, "weights"):
            raise ValueError("provide --measure or --weights")
        code, tolerances = handler(args, writer)
    except _REPORTED as exc:
        wall_ms = int((time.perf_counter() - start) * 1000)
        writer.write_manifest(args.command, inputs, {}, wall_ms, *_failure(exc))
        raise
    wall_ms = int((time.perf_counter() - start) * 1000)
    writer.write_manifest(args.command, inputs, tolerances, wall_ms, code)
    return code


#: numeric, allocation and input errors: reported as one line and an exit
#: code, not a traceback
_REPORTED = (ArithmeticError, MemoryError, ValueError, OSError)


def _failure(exc: Exception) -> tuple[int, str]:
    """(exit code, one-line message) of an error in _REPORTED."""
    if isinstance(exc, (MeasureSyntaxError, MeasureParameterError)):
        return 1, f"measure error: {exc}"
    # before ValueError: LinAlgError subclasses it
    if isinstance(exc, (ArithmeticError, np.linalg.LinAlgError)):
        return 2, f"numeric error: {exc}"
    if isinstance(exc, MemoryError):
        return 2, f"memory error: {str(exc) or 'out of memory'}"
    return 1, f"input error: {exc}"


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        return run(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except _REPORTED as exc:
        code, line = _failure(exc)
        print(line, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
