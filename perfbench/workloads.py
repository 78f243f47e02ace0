"""Job lists of the benchmark's workloads.

A job is a dict with an ``id`` and a ``kind``:

- ``cli``: ``momentspectra.cli.main(argv + ["--out", dir])`` in the
  workload's own process;
- ``sub``: ``python -m momentspectra ...`` as its own subprocess;
- ``lib``: a public library call on inputs the benchmark generated from its
  seed (``fn``, ``n``, ``vectors``, ``reps``); only the calls are timed.

``expect`` is the exit code the job must return.  Every job has an oracle
in ``oracles.py``.  ``small=True`` gives the reduced sizes the smoke test
runs; the full sizes are the ones named in BENCHMARK.json.
"""

from __future__ import annotations

CESARO_WINDOW = "--window=-0.25,2.25,-1.25,1.25"
WIDE_WINDOW = "--window=-0.5,2.5,-1.5,1.5"
ATOM_HALF_LEBESGUE = "dirac(0)+0.5*lebesgue"

#: library apply sizes: below FFT_THRESHOLD, at COMPENSATED_THRESHOLD, above it
LIB_SIZES = (48, 4096, 65536)
#: repetitions per library apply, so that each size is timed over many calls
LIB_REPS = {48: 200, 4096: 50, 65536: 10}
#: above this size the oracle checks seeded sample rows instead of a dense product
DENSE_ORACLE_LIMIT = 4096


def cli(job_id: str, *argv: str, expect: int = 0) -> dict:
    return {"id": job_id, "kind": "cli", "argv": list(argv), "expect": expect}


def lib_jobs(sizes=LIB_SIZES) -> list[dict]:
    jobs = []
    for n in sizes:
        # H*1 at the largest size has the digamma closed form
        vectors = ["seeded", "ones"] if n > DENSE_ORACLE_LIMIT else ["seeded"]
        for fn in ("terraced_apply", "terraced_apply_adjoint", "hankel_apply"):
            jobs.append({"id": f"lib-{fn}-n{n}", "kind": "lib", "fn": fn, "n": n,
                         "vectors": vectors, "reps": LIB_REPS.get(n, 10), "expect": 0})
    jobs.append({"id": f"lib-adjoint_eigenvector_residual-n{sizes[-1]}", "kind": "lib",
                 "fn": "adjoint_eigenvector_residual", "n": sizes[-1],
                 "measure": ATOM_HALF_LEBESGUE, "ks": [0, 1, 2, 3], "reps": 1, "expect": 0})
    return jobs


def pseudo_sweep(small: bool = False) -> list[dict]:
    res, res640 = ("2", "2") if small else ("16", "4")
    dim, dim640 = ("32", "64") if small else ("256", "640")
    return [
        cli("pseudo-terraced-cesaro", "pseudo", "--weights", "cesaro", CESARO_WINDOW,
            "--res", res, "--dim", dim),
        cli("pseudo-hankel-lebesgue", "pseudo", "--measure", "lebesgue", "--kind", "hankel",
            WIDE_WINDOW, "--res", res, "--dim", dim, "--dump-matrix"),
        cli("pseudo-terraced-atom", "pseudo", "--measure", ATOM_HALF_LEBESGUE, CESARO_WINDOW,
            "--res", res640, "--dim", dim640),
    ]


def long_sequences(small: bool = False) -> list[dict]:
    def size(full: int, reduced: int) -> str:
        return str(reduced if small else full)

    return [
        cli("moments-closed", "moments", "--measure", "lebesgue", "--n", size(65536, 256)),
        cli("moments-quad-logpower", "moments", "--measure", "logpower(3)+0.25*lebesgue(0.9)",
            "--quadrature", "--n", size(2048, 64)),
        cli("moments-quad-power", "moments", "--measure", "power(2.5)+dirac(0.5)",
            "--quadrature", "--n", size(2048, 64)),
        cli("classify-analytic", "classify", "--measure", ATOM_HALF_LEBESGUE, "--k", "0..31",
            "--n", size(262144, 4096), "--method", "analytic"),
        cli("classify-numeric", "classify", "--measure", ATOM_HALF_LEBESGUE, "--k", "0..31",
            "--n", size(262144, 4096), "--method", "numeric"),
        cli("eigencheck-dirac", "eigencheck", "--measure", "dirac(0.5)", "--k", "0..5",
            "--dim", size(1000, 100), "--embed", "4"),
        cli("eigencheck-logpower", "eigencheck", "--measure", "logpower(2)+dirac(0.9)",
            "--k", "0..5", "--dim", size(32768, 512)),
        # negative control: Lebesgue moments are not eigenvalues
        cli("eigencheck-lebesgue", "eigencheck", "--measure", "lebesgue", "--k", "0..5",
            "--dim", size(32768, 512), "--embed", "2", expect=2),
        cli("adjoint-disc", "adjoint-disc", "--measure", ATOM_HALF_LEBESGUE,
            "--n", size(262144, 4096)),
        cli("region-cesaro", "region", "--weights", "cesaro", "--n", size(65536, 256)),
        *lib_jobs((48, 256, 8192) if small else LIB_SIZES),
    ]


def dense_identities(small: bool = False) -> list[dict]:
    dim, angles = ("32", "32") if small else ("128", "512")
    return [
        cli("fov-terraced", "fov", "--measure", "lebesgue", "--dim", dim, "--angles", angles,
            "--require-rhp"),
        cli("fov-hankel", "fov", "--measure", "lebesgue", "--kind", "hankel", "--dim", dim,
            "--angles", angles, "--require-rhp"),
        cli("contraction", "contraction", "--measure", "lebesgue", "--dim", "64",
            "--taus", "0.1,1,10"),
        # negative control: A - 0.1 I generates no contraction semigroup
        cli("contraction-shift", "contraction", "--measure", "lebesgue", "--dim", "64",
            "--taus", "0.1,1,10", "--shift", "0.1", expect=2),
        cli("invariance", "invariance", "--measure", ATOM_HALF_LEBESGUE,
            "--dim", "32" if small else "256"),
        cli("hilbert", "hilbert", "--max-index", "16" if small else "128",
            "--dims", "32,64,128" if small else "256,512,1024"),
    ]


def readme_jobs() -> list[dict]:
    """Every subcommand but ``bench`` at its README arguments; ``pseudo``
    runs at --res 16 --dim 64 instead of the README's --res 64 --dim 256."""
    return [
        cli("readme-moments", "moments", "--measure", "lebesgue", "--n", "8"),
        cli("readme-classify", "classify", "--measure", "dirac(0.5)", "--k", "0..5",
            "--n", "4096"),
        cli("readme-eigencheck", "eigencheck", "--measure", "dirac(0.5)", "--k", "0..5",
            "--dim", "400"),
        cli("readme-adjoint-disc", "adjoint-disc", "--measure", ATOM_HALF_LEBESGUE),
        cli("readme-region", "region", "--weights", "cesaro", "--n", "256"),
        cli("readme-pseudo", "pseudo", "--measure", "lebesgue", WIDE_WINDOW,
            "--res", "16", "--dim", "64"),
        cli("readme-fov", "fov", "--measure", "lebesgue", "--dim", "64", "--require-rhp"),
        cli("readme-contraction", "contraction", "--measure", "lebesgue", "--dim", "64",
            "--taus", "0.1,1,10"),
        cli("readme-invariance", "invariance", "--measure", ATOM_HALF_LEBESGUE, "--dim", "32"),
        cli("readme-hilbert", "hilbert", "--max-index", "16", "--dims", "64,128,256"),
    ]


def readme_cli(small: bool = False) -> list[dict]:
    jobs = [dict(job, kind="sub") for job in readme_jobs()]
    return jobs[::3] if small else jobs


def probe() -> list[dict]:
    """Fixed in-process job list that every traced run adds after the
    workload's own traced pass, the same in every workload.

    It gives each layer a measured value in every workload: the sigma_min
    cost per grid point at the three sizes named by the per-layer metrics,
    the FOV cost per angle, the power-iteration norm error, the quadrature
    path and the library applies.  Its cost is a small floor on every
    layer's self time.
    """
    return [
        *[dict(job, id="probe-" + job["id"]) for job in readme_jobs()],
        cli("probe-pseudo-terraced256", "pseudo", "--weights", "cesaro", CESARO_WINDOW,
            "--res", "2", "--dim", "256"),
        cli("probe-pseudo-hankel256", "pseudo", "--measure", "lebesgue", "--kind", "hankel",
            WIDE_WINDOW, "--res", "2", "--dim", "256"),
        cli("probe-pseudo-terraced640", "pseudo", "--measure", ATOM_HALF_LEBESGUE,
            CESARO_WINDOW, "--res", "2", "--dim", "640"),
        cli("probe-moments-quad", "moments", "--measure", "logpower(3)+0.25*lebesgue(0.9)",
            "--quadrature", "--n", "64"),
        *[dict(job, id="probe-" + job["id"]) for job in lib_jobs()],
    ]


WORKLOADS = {
    "pseudo-sweep": pseudo_sweep,
    "long-sequences": long_sequences,
    "dense-identities": dense_identities,
    "readme-cli": readme_cli,
}
