"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py        # from the repository root, about two minutes

It runs every workload at reduced size, untraced and traced, and asserts
that each metric named in BENCHMARK.json is printed with its unit, that
every job passes its oracle with the expected exit code, that the oracles
reject corrupted artifacts, and that the benchmark refuses to run in a
directory that holds no source tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles
import workloads
from run import ENV_KEYS

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_output(workload: str, trace: int, expected: dict):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    assert result["correct"] and result["failed"] == 0, proc.stderr[-2000:]
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(expected), \
        set(result["metrics"]) ^ set(expected)
    for name, unit in expected.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit, (name, metric)
        assert isinstance(metric["value"], (int, float)), (name, metric)
    summary = json.loads(proc.stdout.strip().splitlines()[-2])
    assert summary["seed"] == 7 and summary["fail_ratio"]["value"] == 0.0
    assert summary["ops_total"]["value"] == result["attempted"]
    assert {"git_commit", "python", "numpy", "scipy", "blas", "blas_threads", "nproc",
            "cpu_model", "longdouble_eps", *ENV_KEYS} <= set(summary["env"])
    print(f"ok  {workload} trace={trace}: {result['attempted']} ops, "
          f"{len(result['metrics'])} metrics")


def rejects(job_id: str, workload: str, corrupt) -> None:
    """Copy a job's artifacts from the last smoke run, corrupt them, and
    require the oracle to report a problem."""
    jobs = {job["id"]: job for job in workloads.WORKLOADS[workload](small=True)}
    source = WORK / workload / "measure" / "p0" / job_id
    target = WORK / "corrupt" / job_id
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(source, target)
    corrupt(target)
    vectors = {}
    job = jobs[job_id]
    for name in job.get("vectors", ()):
        vectors[(name, job["n"])] = np.load(WORK / workload / "inputs" / f"{name}_{job['n']}.npy")
    problems, _ = oracles.check(job, target, np.random.default_rng(0), vectors)
    assert problems, f"oracle accepted corrupted {job_id}"
    print(f"ok  oracle rejects corrupted {job_id}: {problems[0][:80]}")


def edit(name: str, old: str, new: str):
    def apply(directory: Path):
        path = directory / name
        text = path.read_text()
        assert old in text, (name, old)
        path.write_text(text.replace(old, new, 1))
    return apply


def perturb_vector(directory: Path):
    y = np.load(directory / "y_seeded.npy")
    y[0] *= 1 + 1e-9  # row 0 is among the rows every oracle checks
    np.save(directory / "y_seeded.npy", y)


def perturb_sigma(directory: Path):
    lines = (directory / "pseudo.csv").read_text().splitlines()
    re_, im, sigma = lines[1].split(",")
    lines[1] = f"{re_},{im},{float(sigma) * (1 + 1e-6)!r}"
    (directory / "pseudo.csv").write_text("\n".join(lines) + "\n")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    catalog = json.loads((HERE / "catalog.json").read_text())["metrics"]
    assert set(catalog) == set(end_to_end) | set(per_layer), \
        set(catalog) ^ (set(end_to_end) | set(per_layer))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        check_output(workload, 0, end_to_end)
    rejects("pseudo-hankel-lebesgue", "pseudo-sweep", perturb_sigma)
    rejects("pseudo-terraced-cesaro", "pseudo-sweep", perturb_sigma)
    rejects("lib-hankel_apply-n256", "long-sequences", perturb_vector)
    rejects("lib-terraced_apply_adjoint-n8192", "long-sequences", perturb_vector)
    rejects("eigencheck-lebesgue", "long-sequences", edit("eigencheck.json", "false", "true"))
    rejects("classify-numeric", "long-sequences", edit("verdicts.json", "NotInL2", "InL2"))
    rejects("adjoint-disc", "long-sequences", edit("adjoint_disc.json", '"beta": 0.4', '"beta": 0.3'))
    rejects("moments-quad-power", "long-sequences", edit("moments.csv", "\n1,", "\n1,1"))
    rejects("contraction", "dense-identities", edit("contraction.json", '"norm": 0.9', '"norm": 0.999999999'))
    rejects("hilbert", "dense-identities", edit("hilbert.json", '"norm": 2', '"norm": 3'))
    for workload in workloads.WORKLOADS:
        check_output(workload, 1, per_layer)

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("long-sequences", 0, cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok  refuses to run without a source tree")
    shutil.rmtree(bare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
