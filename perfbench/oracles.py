"""Independent checks of every job's artifacts.

Nothing here imports momentspectra: operators are rebuilt from the closed
forms of the measures, and the references are dense SVDs and eigensolves,
exact sums and known theorems.  Each tolerance comes from the mathematics
(backward-error and summation bounds, convergence rates) or from a gate
the program documents; none is fitted to the program's output.

``check(job, out, rng, vectors)`` returns ``(problems, diagnostics)``: an
empty problem list means the artifacts are correct.  Diagnostics carry the
measured errors that are reported but not gated, such as the relative
shortfall of the power-iteration spectral norm.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.special

from workloads import DENSE_ORACLE_LIMIT

EPS = float(np.finfo(float).eps)
#: program constants the checks depend on: full SVD up to this dimension,
#: inverse iteration to this relative step above it; the eigencheck and
#: contraction default gates; the Hilbert-norm limit pi
SVD_DIM_LIMIT = 512
INVERSE_ITERATION_TOL = 1e-12
RESIDUAL_GATE = 1e-8
CONTRACTION_GATE = 1e-9
RHP_GATE = 1e-10
COLUMN_GATE = 1e-12
INTEGRAL_GATE = 1e-11
SEMIGROUP_GATE = 1e-13
#: the CLI's adaptive quadrature bisects at most this deep and uses this rule order
QUAD_MAX_DEPTH = 52
QUAD_ORDER = 15


# --------------------------------------------------------------------------
# independent model of the inputs

def options(argv: list[str]) -> dict:
    opts = {"command": argv[0]}
    i = 1
    while i < len(argv):
        key = argv[i]
        if "=" in key:
            key, value = key.split("=", 1)
        elif i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            value = argv[i + 1]
            i += 1
        else:
            value = True
        opts[key] = value
        i += 1
    return opts


_TERM = re.compile(r"^(?:([\d.]+)\*)?(dirac|lebesgue|power|logpower)(?:\(([\d.]+)\))?$")


def measure_terms(spec: str) -> list[tuple[float, str, float]]:
    terms = []
    for text in spec.replace(" ", "").split("+"):
        m = _TERM.match(text)
        if m is None:
            raise ValueError(f"oracle does not model measure term {text!r}")
        weight, atom, param = m.groups()
        terms.append((float(weight or 1.0), atom,
                      float(param) if param else 1.0))
    return terms


def closed_moments(spec: str, n: int) -> np.ndarray:
    """mu_k = integral of t^k, k < n, from the atoms' closed forms."""
    k = np.arange(n, dtype=float)
    total = np.zeros(n)
    for weight, atom, p in measure_terms(spec):
        if atom == "dirac":
            term = np.power(p, k) if p > 0 else (k == 0).astype(float)
        elif atom == "lebesgue":
            term = np.power(p, k + 1.0) / (k + 1.0)
        elif atom == "power":
            term = 1.0 / (k + p + 1.0)
        else:
            term = np.power(k + 1.0, -p)
        total += weight * term
    return total


def log_growth(spec: str) -> tuple[float, float]:
    """(beta, c) with s_n = beta log n + O(1) and |O(1/n) correction| <= c/n.

    Only lebesgue on [0, 1] and power densities have moments ~ w/n; every
    other atom has summable moments.  For w/(k+a+1) the partial sums are
    w (H_{n+a+1} - H_{a+1}), whose 1/n term has coefficient w (a + 1/2).
    """
    beta = c = 0.0
    for weight, atom, p in measure_terms(spec):
        if atom == "lebesgue" and p == 1.0:
            beta, c = beta + weight, c + weight * 0.5
        elif atom == "power":
            beta, c = beta + weight, c + weight * (p + 0.5)
    return beta, c


def weights(opts: dict, n: int) -> np.ndarray:
    if opts.get("--weights") == "cesaro":
        return 1.0 / (np.arange(n) + 1.0)
    if "--weights" in opts:
        raise ValueError(f"oracle does not model weights {opts['--weights']!r}")
    return closed_moments(opts["--measure"], n)


def dense_operator(opts: dict, dim: int) -> np.ndarray:
    if opts.get("--kind") == "hankel":
        mu = closed_moments(opts["--measure"], 2 * dim - 1)
        return mu[np.add.outer(np.arange(dim), np.arange(dim))]
    return np.tril(np.ones((dim, dim))) * weights(opts, dim)[:, None]


# --------------------------------------------------------------------------
# helpers

def _rows(path: Path) -> list[list[str]]:
    with path.open() as handle:
        return list(csv.reader(handle))[1:]


def _close(a, b, tol) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= tol))


def _index_range(text: str) -> list[int]:
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def _l2_exponent(spec: str, mu_k: float) -> float:
    """Theorem: mu_k is an eigenvalue iff mu_n exp(s_n / mu_k) is in l^2.  With
    mu_n ~ w/n and s_n ~ beta log n that term is n^(-1 + beta/mu_k), in l^2
    iff the exponent is below -1/2.  Bounded partial sums (beta = 0) keep
    the term summable: exponent -inf."""
    beta, _ = log_growth(spec)
    return -1.0 + beta / mu_k if beta else -math.inf


def _parse_complex(text: str) -> complex:
    body = text[:-1]
    split = max(body.rfind("+", 1), body.rfind("-", 1))
    while body[split - 1] in "eE":  # sign of an exponent, not of the imaginary part
        split = max(body.rfind("+", 1, split), body.rfind("-", 1, split))
    return complex(float(body[:split]), float(body[split:]))


# --------------------------------------------------------------------------
# subcommand oracles: (opts, out, rng) -> (problems, diagnostics)

def check_moments(o, out, rng):
    problems = []
    n = int(o["--n"])
    rows = _rows(out / "moments.csv")
    if [int(r[0]) for r in rows] != list(range(n)):
        return [f"moments.csv has {len(rows)} rows, expected indices 0..{n - 1}"], {}
    mu = np.array([float(r[1]) for r in rows])
    s = np.array([float(r[2]) for r in rows])
    ref = closed_moments(o["--measure"], n)
    k = np.arange(n)
    if "--quadrature" in o:
        bounds = []
        for r in rows:
            m = re.fullmatch(r"quadrature\((.*)\)", r[3])
            bounds.append(float(m.group(1)) if m else math.nan)
        bounds = np.array(bounds)
        if np.isnan(bounds).any():
            problems.append("quadrature rows without a reported error bound")
        # the reported bound is printed to 4 digits and covers discretisation
        # only; rounding adds the conditioning of t^k under argument rounding
        # (k eps), the rule's sums (QUAD_ORDER), one rounding per bisection
        # level (QUAD_MAX_DEPTH) and the logpower substitution's exponent
        # (at most 120 + 21 s for s <= 3, bounded by 200)
        tol = bounds * (1 + 1e-3) + (k + QUAD_ORDER + QUAD_MAX_DEPTH + 200) * EPS * np.abs(ref)
    else:
        if any(r[3] != "closed-form" for r in rows):
            problems.append("closed-form moments with another provenance label")
        tol = 8 * EPS * np.abs(ref)
    bad = np.flatnonzero(np.abs(mu - ref) > tol)
    if bad.size:
        i = int(bad[0])
        problems.append(f"{bad.size} moments off the closed form beyond tolerance, first "
                        f"n={i}: {float(mu[i])!r} vs {float(ref[i])!r} (tol {tol[i]:.3e})")
    ref_sums = np.cumsum(ref.astype(np.longdouble)).astype(float)
    sum_tol = np.cumsum(tol) + (k + 1) * EPS * np.abs(ref_sums)
    if not _close(s, ref_sums, sum_tol):
        problems.append("partial sums off the summed closed form")
    return problems, {}


def check_classify(o, out, rng):
    rows = json.loads((out / "verdicts.json").read_text())
    ks = _index_range(o["--k"])
    if [r["k"] for r in rows] != ks:
        return [f"verdict indices {[r['k'] for r in rows]} != {ks}"], {}
    method = o.get("--method", "auto")
    mu = closed_moments(o["--measure"], max(ks) + 1)
    problems = []
    for r in rows:
        k = r["k"]
        if abs(r["mu_k"] - mu[k]) > 8 * EPS * mu[k]:
            problems.append(f"k={k}: mu_k {r['mu_k']!r} != {mu[k]!r}")
        exponent = _l2_exponent(o["--measure"], mu[k])
        expected = "InL2" if exponent < -0.5 else "NotInL2"
        # the numeric fit may say Inconclusive within its documented margin
        if method == "numeric" and abs(exponent + 0.5) <= 0.1 and r["verdict"] == "Inconclusive":
            continue
        if r["verdict"] != expected:
            problems.append(f"k={k}: verdict {r['verdict']} != {expected}")
        want = {"analytic": "Analytic", "numeric": "NumericFit"}.get(method)
        if want and r["method"] != want:
            problems.append(f"k={k}: method {r['method']} != {want}")
    return problems, {}


def check_eigencheck(o, out, rng):
    rows = json.loads((out / "eigencheck.json").read_text())
    ks = _index_range(o["--k"])
    if [r["k"] for r in rows] != ks:
        return [f"eigencheck indices {[r['k'] for r in rows]} != {ks}"], {}
    tol = float(o.get("--tol", RESIDUAL_GATE))
    mu = closed_moments(o["--measure"], max(ks) + 1)
    problems = []
    for r in rows:
        k = r["k"]
        if abs(r["mu_k"] - mu[k]) > 8 * EPS * mu[k]:
            problems.append(f"k={k}: mu_k {r['mu_k']!r} != {mu[k]!r}")
        eigen = _l2_exponent(o["--measure"], mu[k]) < -0.5
        if r["pass"] != eigen or (r["residual"] <= tol) != eigen:
            problems.append(f"k={k}: residual {r['residual']:.3e} contradicts "
                            f"{'an' if eigen else 'no'} eigenvalue")
    return problems, {}


def check_adjoint_disc(o, out, rng):
    payload = json.loads((out / "adjoint_disc.json").read_text())
    n = int(o.get("--n", 4096))
    beta, c = log_growth(o["--measure"])
    if beta == 0.0:
        ok = payload["bounded"] and payload["disc"] is None
        return ([] if ok else ["bounded partial sums must give no disc"]), {}
    # the least-squares slope over [n/2, n) is moved by at most the largest
    # slope of the c/n correction there, c/(n/2); 2c/n doubled for O(n^-2)
    tol = 4.0 * c / n
    problems = []
    if payload["bounded"] or abs(payload["beta"] - beta) > tol:
        problems.append(f"beta {payload['beta']!r} not within {tol:.2e} of {beta}")
    disc = payload["disc"] or {}
    if disc.get("center") != payload["beta"] or disc.get("radius") != payload["beta"]:
        problems.append(f"disc {disc} is not centre = radius = beta")
    return problems, {}


def check_region(o, out, rng):
    n = int(o.get("--n", 256))
    payload = json.loads((out / "region.json").read_text())
    if o.get("--weights") != "cesaro":
        raise ValueError("the region oracle models Cesaro weights only")
    a = weights(o, n)
    # every (n+1) a_n rounds to within an ulp of 1; the mean sums pairwise
    limit, tol = 1.0, (math.log2(n) + 2) * EPS
    problems = []
    if payload.get("verdict") != "Bounded" or not payload.get("hypotheses_met"):
        problems.append(f"verdict {payload.get('verdict')}, hypotheses "
                        f"{payload.get('hypotheses_met')}")
        return problems, {}
    region = payload["region"]
    if abs(payload["limit_estimate"] - limit) > tol:
        problems.append(f"limit {payload['limit_estimate']!r} != {limit}")
    if not (region["disc_center"] == region["disc_radius"] == payload["limit_estimate"]):
        problems.append("disc centre and radius differ from the limit estimate")
    points = np.array(region["points"])
    if points.shape != (n, 2) or not _close(points[:, 0], a, 2 * EPS * a) or points[:, 1].any():
        problems.append("region points are not the weights")
    if not (out / "region.svg").read_text().rstrip().endswith("</svg>"):
        problems.append("region.svg is not a complete SVG document")
    return problems, {}


def check_pseudo(o, out, rng):
    res, dim = int(o.get("--res", 64)), int(o.get("--dim", 256))
    re0, re1, im0, im1 = (float(v) for v in o["--window"].split(","))
    rows = np.array(_rows(out / "pseudo.csv"), dtype=float)
    if rows.shape != (res * res, 3):
        return [f"pseudo.csv has shape {rows.shape}, expected {(res * res, 3)}"], {}
    problems = []
    re_axis, im_axis = np.linspace(re0, re1, res), np.linspace(im0, im1, res)
    z = rows[:, 0] + 1j * rows[:, 1]
    want = np.add.outer(1j * im_axis, re_axis).ravel()
    if not _close(z, want, 4 * EPS * (1 + np.abs(want))):
        problems.append("grid points are not the window's linspace, real axis fastest")
    a = dense_operator(o, dim)
    scale = dim * EPS * (np.linalg.norm(a) + np.abs(z))  # Weyl: backward-stable perturbation
    sigma = rows[:, 2]
    if o.get("--kind") == "hankel":
        # zI - H is normal, so sigma_min is the distance to the spectrum
        lam = np.linalg.eigvalsh(a)
        picks = np.arange(z.size)
        ref = np.min(np.abs(z[:, None] - lam[None, :]), axis=1)
        tol = scale
    else:
        picks = np.sort(rng.choice(z.size, size=min(4, z.size), replace=False))
        ref, tol = np.empty(picks.size), np.empty(picks.size)
        for j, i in enumerate(picks):
            s = np.linalg.svd(z[i] * np.eye(dim) - a, compute_uv=False)
            ref[j] = s[-1]
            tol[j] = scale[i]
            if dim > SVD_DIM_LIMIT:
                # inverse iteration converges with ratio rho; stopping at a
                # relative step of TOL leaves at most TOL rho / (1 - rho)
                rho = (s[-1] / s[-2]) ** 2
                tol[j] += INVERSE_ITERATION_TOL * s[-1] * rho / (1.0 - rho)
    err = np.abs(sigma[picks] - ref)
    if np.any(err > tol):
        i = int(np.argmax(err - tol))
        problems.append(f"sigma_min at z={z[picks][i]:.4g}: {float(sigma[picks][i])!r} vs "
                        f"{float(ref[i])!r} (tol {tol[i]:.2e})")
    rel = float(np.max(err / np.maximum(ref, np.finfo(float).tiny)))
    if not (out / "pseudo.svg").read_text().rstrip().endswith("</svg>"):
        problems.append("pseudo.svg is not a complete SVG document")
    if "--dump-matrix" in o:
        lines = (out / "matrix.csv").read_text().splitlines()
        dumped = np.array([[_parse_complex(v) for v in line.split(",")] for line in lines])
        if dumped.shape != a.shape or not _close(dumped, a, 4 * EPS * np.abs(a)):
            problems.append("matrix.csv differs from the dense operator")
    return problems, {"sigma_min_rel_err": rel}


def check_fov(o, out, rng):
    dim, n_angles = int(o.get("--dim", 64)), int(o.get("--angles", 256))
    payload = json.loads((out / "fov.json").read_text())
    a = dense_operator(o, dim).astype(complex)
    tol = 2 * dim * EPS * np.linalg.norm(a)
    lam_min = float(np.linalg.eigvalsh(0.5 * (a + a.conj().T))[0])
    problems = []
    for key in ("min_real_part", "hermitian_min_eig"):
        if abs(payload[key] - lam_min) > tol:
            problems.append(f"{key} {payload[key]!r} vs lambda_min(Re A) {lam_min!r}")
    gate = o.get("--require-rhp")
    gate = RHP_GATE if gate is True else float(gate) if gate else None
    if gate is not None and abs(lam_min + gate) > tol \
            and (payload["min_real_part"] >= -gate) != (lam_min >= -gate):
        problems.append("right-half-plane verdict differs from the verdict on lambda_min")
    rows = np.array(_rows(out / "fov.csv"), dtype=float)
    if rows.shape != (n_angles, 4):
        return problems + [f"fov.csv has shape {rows.shape}"], {}
    theta = 2 * np.pi * np.arange(n_angles) / n_angles
    if not _close(rows[:, 0], theta, 4 * EPS * (1 + theta)):
        problems.append("fov.csv angles are not uniform on [0, 2 pi)")
    for j in rng.choice(n_angles, size=min(4, n_angles), replace=False):
        rotated = np.exp(1j * theta[j]) * a
        h = float(np.linalg.eigvalsh(0.5 * (rotated + rotated.conj().T))[-1])
        if abs(rows[j, 3] - h) > tol:
            problems.append(f"support value at theta={theta[j]:.4f}: {rows[j, 3]!r} vs {h!r}")
    if not (out / "fov.svg").read_text().rstrip().endswith("</svg>"):
        problems.append("fov.svg is not a complete SVG document")
    return problems, {}


def _norm_shortfall(reported, exact, dim, label):
    """Power iteration returns a Rayleigh-quotient estimate, which never
    exceeds the largest singular value beyond rounding; its shortfall is
    measured, not gated."""
    problems = []
    if reported > exact * (1 + 4 * dim * EPS):
        problems.append(f"{label}: norm {reported!r} exceeds the exact {exact!r}")
    return problems, (exact - reported) / exact


def check_contraction(o, out, rng):
    dim = int(o.get("--dim", 64))
    taus = [float(t) for t in o.get("--taus", "0.1,1,10").split(",")]
    shift = float(o.get("--shift", 0.0))
    gate = float(o.get("--tol", CONTRACTION_GATE))
    rows = json.loads((out / "contraction.json").read_text())
    if [r["tau"] for r in rows] != taus:
        return [f"taus {[r['tau'] for r in rows]} != {taus}"], {}
    a = dense_operator(o, dim).astype(complex) - shift * np.eye(dim)
    problems, worst, exact_norms = [], 0.0, []
    for r, tau in zip(rows, taus):
        exact = float(np.linalg.norm(scipy.linalg.expm(-tau * a), 2))
        exact_norms.append(exact)
        found, shortfall = _norm_shortfall(r["norm"], exact, dim, f"tau={tau}")
        problems += found
        worst = max(worst, shortfall)
    reported_ok = max(r["norm"] for r in rows) <= 1 + gate
    if reported_ok != (max(exact_norms) <= 1 + gate):
        problems.append("contraction verdict differs from the verdict on exact norms")
    return problems, {"spectral_norm_rel_err": worst}


def check_invariance(o, out, rng):
    dim = int(o.get("--dim", 32))
    checks = {c["check"]: c for c in json.loads((out / "invariance.json").read_text())}
    mu = closed_moments(o["--measure"], dim)
    expected = {
        "composition-semigroup": lambda v: v <= SEMIGROUP_GATE,
        "cesaro-adjoint-integral": lambda v: v <= float(o.get("--tol", INTEGRAL_GATE)),
        "rhaly-adjoint-integral": lambda v: v <= float(o.get("--tol", INTEGRAL_GATE)),
        # terraced truncations are lower triangular: every monomial tail is invariant
        "terraced-monomial-defect": lambda v: v == 0.0,
        # row 0 of a Hankel matrix past column 0 holds mu_1, mu_2, ...
        "hankel-monomial-defect": lambda v: abs(v - mu[1:].max()) <= 4 * EPS * mu[1],
        # kernels at distinct points are linearly independent
        "kernel-span-rank": lambda v: v == len(checks.get("kernel-span-rank", {})
                                               .get("params", {}).get("locations", [])),
    }
    problems = [f"missing check {name}" for name in expected if name not in checks]
    for name, rule in expected.items():
        if name in checks and not (rule(checks[name]["deviation_or_defect"])
                                   and checks[name]["pass"]):
            problems.append(f"{name}: {checks[name]['deviation_or_defect']!r} fails")
    return problems, {}


def check_hilbert(o, out, rng):
    payload = json.loads((out / "hilbert.json").read_text())
    max_index = int(o.get("--max-index", 16))
    dims = [int(d) for d in o.get("--dims", "64,128,256").split(",")]
    gate = float(o.get("--tol", COLUMN_GATE))
    problems = []
    columns = payload["columns"]
    if [c["n"] for c in columns] != list(range(max_index + 1)):
        problems.append("column indices differ from 0..max-index")
    problems += [f"column {c['n']}: deviation {c['deviation']:.3e}"
                 for c in columns if not (c["deviation"] <= gate and c["pass"])]
    if [e["dim"] for e in payload["norms"]] != dims:
        return problems + ["norm dims differ"], {}
    worst = 0.0
    exact = [float(np.linalg.norm(scipy.linalg.hilbert(d), 2)) for d in dims]
    for entry, ref in zip(payload["norms"], exact):
        found, shortfall = _norm_shortfall(entry["norm"], ref, entry["dim"], f"dim={entry['dim']}")
        problems += found
        worst = max(worst, shortfall)
    # Hilbert norms increase with the dimension towards pi
    if not (payload["norms_nondecreasing"] and payload["norms_within_bound"]):
        problems.append("norms not reported nondecreasing and below pi")
    return problems, {"spectral_norm_rel_err": worst}


# --------------------------------------------------------------------------
# library jobs

def _fft_term(n, mu, x):
    # FFT convolution error: O(eps log2 L) times ||mu|| ||x||
    return 8 * EPS * math.log2(3 * n) * np.linalg.norm(mu) * np.linalg.norm(x) if n >= 64 else 0.0


def _dense_rows(fn: str, a: np.ndarray, n: int, r0: int, r1: int) -> np.ndarray:
    r, c = np.arange(r0, r1)[:, None], np.arange(n)[None, :]
    if fn == "hankel_apply":
        return a[r + c]
    if fn == "terraced_apply":
        return np.where(c <= r, a[r], 0.0)
    return np.where(c >= r, a[c], 0.0)  # adjoint: row m holds a_k for k >= m


def apply_reference(fn: str, x: np.ndarray, rows: np.ndarray | None):
    """(reference, |A||x|) at the given rows; a dense product, built in row
    blocks, when rows is None."""
    n = x.size
    a = 1.0 / (np.arange(2 * n - 1) + 1.0)  # Cesaro weights; Hilbert moments
    if rows is None:
        ref, mag = [], []
        for r0 in range(0, n, 512):
            block = _dense_rows(fn, a, n, r0, min(n, r0 + 512))
            ref.append(block @ x.real + 1j * (block @ x.imag))
            mag.append(block @ np.abs(x))
        return np.concatenate(ref), np.concatenate(mag)
    ref, mag = [], []
    for r in rows:
        if fn == "terraced_apply":
            ref.append(a[r] * complex(math.fsum(x.real[:r + 1]), math.fsum(x.imag[:r + 1])))
            mag.append(a[r] * float(np.sum(np.abs(x[:r + 1]))))
        elif fn == "terraced_apply_adjoint":
            terms = a[r:n] * x[r:]
            ref.append(complex(math.fsum(terms.real), math.fsum(terms.imag)))
            mag.append(float(np.sum(np.abs(terms))))
        else:
            mu = a[r:r + n].astype(np.longdouble)
            ref.append(complex(float(mu @ x.real.astype(np.longdouble)),
                               float(mu @ x.imag.astype(np.longdouble))))
            mag.append(float(a[r:r + n] @ np.abs(x)))
    return np.array(ref), np.array(mag)


def ones_reference(fn: str, n: int):
    """(reference, |A||x|, closed-form error) for x = 1: C1 = 1,
    C*1 = psi(n+1) - psi(m+1), H1 = psi(m+n+1) - psi(m+1); digamma is
    accurate to a few ulps of its value, which the difference inherits."""
    m = np.arange(n, dtype=float)
    if fn == "terraced_apply":
        return np.ones(n), np.ones(n), 0.0
    top = scipy.special.digamma(n + 1.0 if fn == "terraced_apply_adjoint" else m + n + 1.0)
    low = scipy.special.digamma(m + 1.0)
    return top - low, top - low, 8 * EPS * (np.abs(top) + np.abs(low))


def check_lib(job, out, rng, vectors):
    n, fn = job["n"], job["fn"]
    if fn == "adjoint_eigenvector_residual":
        residuals = json.loads((out / "residuals.json").read_text())
        # nu = 1/mu_k makes the adjoint eigenvector exact: rounding only
        bad = [r for r in residuals if not r <= RESIDUAL_GATE]
        return ([f"adjoint residuals {bad} above {RESIDUAL_GATE}"] if bad else []), {}
    problems = []
    mu = 1.0 / (np.arange(2 * n - 1) + 1.0)
    for name in job["vectors"]:
        y = np.load(out / f"y_{name}.npy")
        x = vectors[(name, n)]
        extra = 0.0
        if name == "ones":
            rows = np.arange(n)
            ref, mag, extra = ones_reference(fn, n)
        elif n <= DENSE_ORACLE_LIMIT:
            rows = np.arange(n)
            ref, mag = apply_reference(fn, x, None)
        else:
            rows = np.unique(np.concatenate([[0, n - 1], rng.choice(n, 16, replace=False)]))
            ref, mag = apply_reference(fn, x, rows)
        # summation bound n eps |A||x| per row, plus the FFT term for Hankel
        tol = 4 * n * EPS * mag + extra + (_fft_term(n, mu, x) if fn == "hankel_apply" else 0.0)
        err = np.abs(y[rows] - ref)
        if y.shape != (n,) or np.any(err > tol):
            i = int(np.argmax(err - tol))
            problems.append(f"{fn}({name}) n={n} row {rows[i]}: error {err[i]:.3e} "
                            f"> {tol[i] if np.ndim(tol) else tol:.3e}")
    return problems, {}


COMMANDS = {
    "moments": check_moments, "classify": check_classify, "eigencheck": check_eigencheck,
    "adjoint-disc": check_adjoint_disc, "region": check_region, "pseudo": check_pseudo,
    "fov": check_fov, "contraction": check_contraction, "invariance": check_invariance,
    "hilbert": check_hilbert,
}


def check(job: dict, out: Path, rng, vectors) -> tuple[list[str], dict]:
    if job["kind"] == "lib":
        return check_lib(job, out, rng, vectors)
    opts = options(job["argv"])
    return COMMANDS[opts["command"]](opts, out, rng)
