"""Benchmark of the momentspectra CLI and library: one closed-loop caller
runs a workload's job list back to back in a fresh process and every job's
artifacts are checked against an independent oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/`` and
writes only under ``.perfbench_work/``.  Workloads are listed in
``workloads.py`` and described, with every metric, in BENCHMARK.json and
``perfbench/README.md``.

With ``--trace 0`` it prints the end-to-end metrics of untraced passes:
``setup_s`` (median time from launching an interpreter to
``momentspectra.cli`` being imported, over launches spread through the run), ``wall_s`` and ``cpu_s`` (the job
list's wall and CPU time, summed over jobs of each job's median across
passes), ``peak_rss_mb``.  With ``--trace 1`` it runs two untraced passes, one
traced pass plus the fixed probe jobs, and one pass with single-threaded
BLAS, and prints the per-layer metrics.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np

import oracles
import workloads
from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
MIN_PASSES = 2
#: every run must end well inside the three minutes a run is allowed
DEADLINE_S = 170.0
ENV_KEYS = ("MOMENT_SPECTRA_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def run_child(command, env, cwd, timeout) -> None:
    """Run a child in its own session so that a timeout also stops the
    subprocesses it started."""
    proc = subprocess.Popen(command, env=env, cwd=cwd, stdout=sys.stderr,
                            start_new_session=True)
    try:
        proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{command[1]} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{command[1]} exited with {proc.returncode}")


def make_inputs(directory: Path, seed: int, jobs) -> dict:
    """Seeded complex vectors and all-ones vectors for the library jobs."""
    directory.mkdir(parents=True)
    vectors = {}
    for job in jobs:
        for name in job.get("vectors", ()):
            key = (name, job["n"])
            if key in vectors:
                continue
            if name == "ones":
                vectors[key] = np.ones(job["n"])
            else:
                rng = np.random.default_rng([seed, job["n"]])
                vectors[key] = rng.standard_normal(job["n"]) + 1j * rng.standard_normal(job["n"])
            np.save(directory / f"{name}_{job['n']}.npy", vectors[key])
    return vectors


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name != "manifest.json":
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Checker:
    """Checks every job execution: exit code, exception, then the oracle on
    its artifacts (once per distinct artifact content)."""

    def __init__(self, seed: int, vectors: dict):
        self.seed = seed
        self.vectors = vectors
        self.verdicts: dict = {}
        self.diagnostics: dict = {}
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, job: dict, record: dict, out: Path):
        self.attempted += 1
        if record["error"]:
            problems = [record["error"].strip().splitlines()[-1]]
        elif record["exit"] != job["expect"]:
            problems = [f"exit {record['exit']}, expected {job['expect']}"]
        else:
            key = (job["id"], _digest(out))
            if key not in self.verdicts:
                rng = np.random.default_rng([self.seed, zlib.crc32(job["id"].encode())])
                try:
                    self.verdicts[key] = oracles.check(job, out, rng, self.vectors)
                except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                    self.verdicts[key] = ([f"unreadable artifacts: {exc!r}"], {})
            problems, diagnostics = self.verdicts[key]
            for name, value in diagnostics.items():
                self.diagnostics[name] = max(value, self.diagnostics.get(name, value))
        if problems:
            self.failures.append(f"{job['id']}: {'; '.join(problems)}")

    def check_pass(self, outdir: Path, jobs: dict, run_pass: dict):
        for record in run_pass["jobs"]:
            self.record(jobs[record["id"]], record, outdir / run_pass["label"] / record["id"])


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: int, small: bool):
        self.root = root
        self.started = time.perf_counter()
        self.work = root / WORK_DIR / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.jobs = workloads.WORKLOADS[workload](small=small)
        self.warmup = [dict(job, id="warmup-" + job["id"])
                       for job in workloads.WORKLOADS[workload](small=True)]
        self.probe = workloads.probe()
        self.vectors = make_inputs(self.work / "inputs", seed,
                                   self.jobs + self.warmup + self.probe)
        self.checker = Checker(seed, self.vectors)
        self.seconds = seconds
        self.info: dict = {}
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def worker(self, mode: str, name: str, env=None) -> dict:
        spec = {"mode": mode, "root": str(self.root), "inputs": str(self.work / "inputs"),
                "outdir": str(self.work / name), "jobs": self.jobs, "warmup": self.warmup,
                "probe": self.probe,
                "seconds": self.seconds, "min_passes": MIN_PASSES}
        spec_path, result_path = self.work / f"{name}.spec.json", self.work / f"{name}.result.json"
        spec_path.write_text(json.dumps(spec))
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        run_child([sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
                  env or self.env, self.root, remaining)
        result = json.loads(result_path.read_text())
        if not Path(result["momentspectra_file"]).resolve().is_relative_to(self.root / "src"):
            raise BenchError(f"imported {result['momentspectra_file']}, not the checkout's")
        jobs = {job["id"]: job for job in self.jobs + self.warmup + self.probe}
        for run_pass in result["passes"]:
            self.checker.check_pass(self.work / name, jobs, run_pass)
        return result

    def end_to_end(self) -> dict:
        result = self.worker("measure", "measure")
        passes = result["passes"][1:]
        setup = result["setup_s"]

        def job_medians(key):
            return sum(statistics.median(p["jobs"][j][key] for p in passes)
                       for j in range(len(self.jobs)))

        self.info = {"passes": len(passes), "blas_threads": result["blas_threads"],
                     "pass_wall_s": [round(p["wall_s"], 4) for p in passes],
                     "setup_s": [round(s, 4) for s in setup]}
        return {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (job_medians("wall_s"), "s"),
            "cpu_s": (job_medians("cpu_s"), "s"),
            "peak_rss_mb": (result["maxrss_kb"] / 1024.0, "MB"),
        }

    def per_layer(self) -> dict:
        traced = self.worker("trace", "trace")
        single = dict(self.env, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        blas1 = self.worker("once", "blas1", env=single)
        if blas1["blas_threads"] not in (1, None):
            raise BenchError(f"single-thread BLAS pass ran {blas1['blas_threads']} threads")
        _warmup, _warm, untraced, traced_pass, _probe = traced["passes"]
        metrics = layer_metrics(traced["spans"])
        metrics["spectral.sigma_min.max_rel_err"] = (
            self.checker.diagnostics.get("sigma_min_rel_err"), "ratio")
        metrics["numrange.spectral_norm.max_rel_err"] = (
            self.checker.diagnostics.get("spectral_norm_rel_err"), "ratio")
        metrics["blas1.wall_s"] = (blas1["passes"][1]["wall_s"], "s")
        metrics["blas1.cpu_s"] = (blas1["passes"][1]["cpu_s"], "s")
        metrics["trace.overhead_s"] = (traced_pass["wall_s"] - untraced["wall_s"], "s")
        missing = [name for name, (value, _) in metrics.items() if value is None]
        if missing:
            raise BenchError(f"traced run measured no value for {missing}")
        self.info = {"blas_threads": traced["blas_threads"],
                     "blas1_threads": blas1["blas_threads"], "spans": sum(map(len, traced["spans"]))}
        return metrics


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = root / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def environment(root: Path, blas_threads) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_commit": git_commit(root), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        **{key: os.environ.get(key) for key in ENV_KEYS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced job sizes, for the smoke test")
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "momentspectra" / "__init__.py").is_file():
        print(f"error: no src/momentspectra under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        bench = Bench(root, args.workload, args.seed, args.seconds, args.small)
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    checker = bench.checker
    for failure in checker.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fail_ratio": {"value": len(checker.failures) / checker.attempted, "unit": "ratio"},
        "ops_total": {"value": checker.attempted, "unit": "count"},
        "diagnostics": checker.diagnostics, **bench.info,
        "env": environment(root, bench.info["blas_threads"]),
    }
    print(json.dumps(summary))
    print(json.dumps({
        "correct": not checker.failures, "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
