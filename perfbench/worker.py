"""Workload process: runs a job list back to back and records, per job, its
wall time, CPU time (all threads, plus any subprocess it waited for), exit
code and error.  One caller, no added threads or processes besides the
``sub`` jobs' own interpreters.

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds ``mode``:

Every mode starts with a warm-up pass of the ``warmup`` jobs (the reduced
sizes).  Then:

- ``measure``: untraced passes for about ``seconds``, at least
  ``min_passes`` of them, with a set-up measurement after each;
- ``once``: one untraced pass (the single-thread BLAS reference);
- ``trace``: two untraced passes, then the traced pass and the probe jobs
  with every public function of momentspectra wrapped in spans.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import momentspectra
from momentspectra import cli, measures, operators, spectral
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SUB_TIMEOUT_S = 120


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(root: Path) -> float:
    """Seconds from launching an interpreter until momentspectra.cli is imported."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", "import momentspectra.cli; print('ready', flush=True)"],
        cwd=root, stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or line != b"ready\n":
        raise RuntimeError("importing momentspectra.cli failed")
    return elapsed


def _lib_operator(job):
    n = job["n"]
    if job["fn"] == "hankel_apply":
        ms = measures.moments(measures.parse_measure("lebesgue"), 2 * n - 1)
        return operators.HankelMomentOperator.from_moments(ms, n)
    return operators.TerracedOperator(operators.WeightSequence.cesaro(n), n)


def _run_lib(job, inputs: Path, out: Path):
    """Set-up and saving are outside the timed region; the applies are timed."""
    if job["fn"] == "adjoint_eigenvector_residual":
        ms = measures.moments(measures.parse_measure(job["measure"]), job["n"])
        start, cpu = time.perf_counter(), time.process_time()
        residuals = [spectral.adjoint_eigenvector_residual(ms, 1.0 / ms.values[k], job["n"])
                     for k in job["ks"]]
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        (out / "residuals.json").write_text(json.dumps(residuals))
        return wall, cpu
    op = _lib_operator(job)
    xs = {name: np.load(inputs / f"{name}_{job['n']}.npy") for name in job["vectors"]}
    results = {}
    start, cpu = time.perf_counter(), time.process_time()
    for name, x in xs.items():
        for _ in range(job["reps"]):
            # looked up per call, so that traced wrappers are used when installed
            results[name] = getattr(operators, job["fn"])(op, x)
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    for name, y in results.items():
        np.save(out / f"y_{name}.npy", y)
    return wall, cpu


class Runner:
    def __init__(self, spec: dict):
        self.spec = spec
        self.root = Path(spec["root"])
        self.inputs = Path(spec["inputs"])
        self.tracer: Tracer | None = None
        self.sub_spans: list[str] = []

    def run_job(self, job: dict, out: Path) -> dict:
        out.mkdir(parents=True, exist_ok=True)
        record = {"id": job["id"], "exit": None, "error": None}
        if self.tracer is not None:
            self.tracer.job = job["id"]
        start, cpu, child_cpu = time.perf_counter(), time.process_time(), _children_cpu()
        try:
            if job["kind"] == "lib":
                wall, cpu_s = _run_lib(job, self.inputs, out)
                record["exit"] = 0
            else:
                argv = [*job["argv"], "--out", str(out)]
                if job["kind"] == "cli":
                    record["exit"] = (self.tracer.call("cli", cli.main, argv) if self.tracer
                                      else cli.main(argv))
                else:
                    record["exit"] = self._run_sub(job, argv)
                wall = time.perf_counter() - start
                cpu_s = time.process_time() - cpu + _children_cpu() - child_cpu
        except Exception:  # a job that raises is a failed op, not a failed run
            record["error"] = traceback.format_exc(limit=3)
            wall = time.perf_counter() - start
            cpu_s = time.process_time() - cpu
        record["wall_s"], record["cpu_s"] = wall, cpu_s
        return record

    def _run_sub(self, job, argv) -> int:
        if self.tracer is None:
            command = [sys.executable, "-m", "momentspectra", *argv]
        else:
            spans = self.inputs.parent / "spans" / f"{job['id']}.json"
            spans.parent.mkdir(exist_ok=True)
            self.sub_spans.append(str(spans))
            command = [sys.executable, str(HERE / "tracedcli.py"), str(spans), *argv]
        proc = subprocess.run(command, cwd=self.root, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=SUB_TIMEOUT_S)
        if proc.returncode not in (0, 2):
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return proc.returncode

    def run_pass(self, jobs, label: str) -> dict:
        out = Path(self.spec["outdir"]) / label
        start, cpu, child_cpu = time.perf_counter(), time.process_time(), _children_cpu()
        records = [self.run_job(job, out / job["id"]) for job in jobs]
        return {"label": label, "jobs": records, "wall_s": time.perf_counter() - start,
                "cpu_s": time.process_time() - cpu + _children_cpu() - child_cpu}


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    runner = Runner(spec)
    jobs = spec["jobs"]
    # the reduced-size job list first: lazy imports and first-call set-up
    # happen before anything is timed
    passes = [runner.run_pass(spec["warmup"], "warmup")]
    setup = []
    if spec["mode"] == "measure":
        # set-up is sampled between passes, so that its median spans the
        # run's changing machine load like the passes do
        setup += [measure_setup(runner.root) for _ in range(2)]
        # stop at the pass count whose end lies closest to the time budget
        start = time.perf_counter()
        while (len(passes) <= spec["min_passes"]
               or time.perf_counter() - start + statistics.median(p["wall_s"] for p in passes[1:]) / 2
               < spec["seconds"]):
            passes.append(runner.run_pass(jobs, f"p{len(passes) - 1}"))
            setup.append(measure_setup(runner.root))
    elif spec["mode"] == "once":
        passes.append(runner.run_pass(jobs, "blas1"))
    else:
        # a full-size pass first, so that the untraced and the traced pass
        # both find allocator and page caches warm
        passes.append(runner.run_pass(jobs, "warm"))
        passes.append(runner.run_pass(jobs, "untraced"))
        runner.tracer = Tracer()
        runner.tracer.install()
        passes.append(runner.run_pass(jobs, "traced"))
        passes.append(runner.run_pass(spec["probe"], "probe"))
    result = {
        "passes": passes,
        "setup_s": setup,
        "maxrss_kb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                         resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
        "momentspectra_file": momentspectra.__file__,
        "blas_threads": blas_threads(),
    }
    if runner.tracer is not None:
        result["spans"] = [runner.tracer.spans]
        for path in runner.sub_spans:
            result["spans"].append(json.loads(Path(path).read_text()))
    Path(result_path).write_text(json.dumps(result))
    return 0


def blas_threads() -> int | None:
    """Effective thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
