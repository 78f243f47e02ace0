"""In-memory span recorder that wraps the public functions of momentspectra's
modules from outside, plus the reduction of spans to per-layer metrics.

A span is ``[name, start, end, parent, job, attrs]``: ``parent`` indexes the
enclosing span in the same list (None at top level), ``job`` is the job id
and ``attrs`` holds counts taken at the boundary (entries, bytes, sizes).
Nothing under ``src/`` is edited: the wrappers replace module attributes in
the running process only.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("measures", "quadrature", "operators", "spectral", "numrange",
          "invariance", "serialize", "svg")
# per-element helpers, whose spans would cost more than the work they time,
# and operators.dense, which only delegates to the traced dense() methods
UNTRACED = {"serialize.format_float", "serialize.format_complex",
            "serialize.parse_complex", "invariance.binomial", "operators.dense"}


def _hankel_bytes(args, kwargs, result):
    """Bytes the Hankel apply touches, computed from array sizes (cache
    misses ignored): the direct path reads an n x n window of float64
    moments; the FFT path transforms three complex arrays of the padded
    length, each read and written once."""
    import scipy.fft

    n = int(args[0].dim)
    if n < 64:  # operators.FFT_THRESHOLD
        return {"n": n, "bytes": 8 * n * n + 32 * n}
    length = scipy.fft.next_fast_len(3 * n - 2)
    return {"n": n, "bytes": 3 * 2 * 16 * length + 32 * n}


HOOKS = {
    "measures.moments": lambda a, k, r: {"entries": int(r.n_terms)},
    "operators.terraced_apply": lambda a, k, r: {"n": int(len(r))},
    "operators.terraced_apply_adjoint": lambda a, k, r: {"n": int(len(r))},
    "operators.hankel_apply": _hankel_bytes,
    "operators.dense": lambda a, k, r: {"bytes": int(r.nbytes)},
    "spectral.pseudospectrum_grid": lambda a, k, r: {
        "key": f"{'hankel' if hasattr(a[0], 'moments') else 'terraced'}"
               f"{int(a[3] if len(a) > 3 else k['dim'])}",
        "points": int(r.sigma_min.size)},
    "numrange.fov_boundary": lambda a, k, r: {"angles": int(r.angles.size)},
}


def _text_bytes(a, k, r):
    return {"bytes": len(r)} if isinstance(r, str) else {}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.job, None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                record[5] = hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of its own (used for cli.main)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self):
        """Replace every public function of the traced modules, wherever a
        momentspectra module holds a reference to it, by a traced wrapper."""
        modules = {layer: importlib.import_module(f"momentspectra.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNTRACED or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                hook = _text_bytes if layer in ("serialize", "svg") else HOOKS.get(name)
                replaced[id(fn)] = (fn, self.wrap(name, fn, hook))
        holders = [m for key, m in sys.modules.items()
                   if key == "momentspectra" or key.startswith("momentspectra.")]
        for module in holders:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced and replaced[id(value)][0] is value:
                    setattr(module, attr, replaced[id(value)][1])
        operators = modules["operators"]
        for cls in (operators.TerracedOperator, operators.HankelMomentOperator):
            cls.dense = self.wrap("operators.dense", cls.dense, HOOKS["operators.dense"])


def _self_times(spans):
    child = [0.0] * len(spans)
    for name, start, end, parent, job, attrs in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, *_rest) in enumerate(spans)]


def layer_metrics(span_lists) -> dict:
    """Per-layer metrics from one or more span lists (one per process)."""
    self_s = defaultdict(float)
    calls = defaultdict(int)
    sums = defaultdict(float)
    per_size = defaultdict(list)
    smin = defaultdict(lambda: [0.0, 0])
    for spans in span_lists:
        for i, own in enumerate(_self_times(spans)):
            name, start, end, parent, job, attrs = spans[i]
            attrs = attrs or {}
            layer = name.split(".")[0]
            self_s[name] += own
            calls[name] += 1
            if layer in ("serialize", "svg"):
                self_s[layer] += own
                sums[f"{layer}.bytes"] += attrs.get("bytes", 0)
            else:
                for key in ("entries", "bytes", "angles"):
                    sums[f"{name}.{key}"] += attrs.get(key, 0)
            # library jobs call the applies at top level: those spans time one apply
            if parent is None and "n" in attrs:
                per_size[(name, attrs["n"])].append(end - start)
            if name == "spectral.smallest_singular_value" and parent is not None:
                key = (spans[parent][5] or {}).get("key")
                if spans[parent][0] == "spectral.pseudospectrum_grid" and key:
                    smin[key][0] += end - start
                    smin[key][1] += 1

    def seconds(name):
        return self_s.get(name, 0.0)

    metrics = {"cli.self_s": (seconds("cli"), "s"), "cli.jobs": (calls["cli"], "count")}
    for name in ("measures.moments", "measures.growth_exponent", "quadrature.integrate",
                 "operators.terraced_apply", "operators.terraced_apply_adjoint",
                 "operators.hankel_apply", "operators.prefix_sums", "operators.dense",
                 "spectral.pseudospectrum_grid", "spectral.classify_eigenvalue",
                 "spectral.eigenvector", "spectral.eigenvector_residual",
                 "spectral.adjoint_eigenvector_residual", "numrange.fov_boundary",
                 "numrange.hermitian_min_eig", "numrange.contraction_check",
                 "numrange.spectral_norm", "invariance.composition_matrix_phi",
                 "invariance.cesaro_adjoint_integral_check",
                 "invariance.rhaly_adjoint_integral_check", "invariance.hilbert_column_check",
                 "invariance.kernel_span_rank", "serialize", "svg"):
        metrics[f"{name}.self_s"] = (seconds(name), "s")
    for name in ("measures.moments", "quadrature.integrate", "spectral.smallest_singular_value",
                 "spectral.classify_eigenvalue", "numrange.spectral_norm",
                 "invariance.hilbert_column_check"):
        metrics[f"{name}.calls"] = (calls[name], "count")
    metrics["measures.moments.entries"] = (int(sums["measures.moments.entries"]), "count")
    metrics["operators.hankel_apply.bytes_computed"] = (
        int(sums["operators.hankel_apply.bytes"]), "B")
    metrics["operators.dense.bytes_computed"] = (int(sums["operators.dense.bytes"]), "B")
    metrics["serialize.bytes"] = (int(sums["serialize.bytes"]), "B")
    metrics["svg.bytes"] = (int(sums["svg.bytes"]), "B")
    for fn in ("terraced_apply", "hankel_apply"):
        for n in (48, 4096, 65536):
            times = per_size.get((f"operators.{fn}", n))
            metrics[f"operators.{fn}.n{n}.ns"] = (
                statistics.median(times) * 1e9 if times else None, "ns/call")
    for key in ("terraced256", "hankel256", "terraced640"):
        total, count = smin.get(key, (0.0, 0))
        metrics[f"spectral.smallest_singular_value.{key}.s_per_point"] = (
            total / count if count else None, "s/point")
    angles = sums["numrange.fov_boundary.angles"]
    metrics["numrange.fov_boundary.s_per_angle"] = (
        seconds("numrange.fov_boundary") / angles if angles else None, "s/angle")
    return metrics
