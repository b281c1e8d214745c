"""Spans around calls into ``supermart``'s layers, recorded from outside.

``Tracer.install`` replaces the public functions of each layer at the names
their callers look them up (for instance ``supermart.cli.simulate_csbp``,
which is what ``cmd_run`` calls) with wrappers that record a span: layer,
function, start, end, parent span and run id.  ``uninstall`` puts the
originals back, so untraced rounds run the program unchanged.  Spans stay in
memory until ``write`` dumps them.

Only functions called from the main thread are wrapped; the engine's worker
threads run no wrapped code, so one span stack is enough.
"""

from __future__ import annotations

import inspect
import json
import os
import threading
import time

# (layer, module, attribute) for every wrapped name.  Modules are the
# callers: the CLI pipeline, the spine sampler (which drives the engine), the
# rates module (which looks up window_average at call time) and the package
# namespace the benchmark itself calls through.
TARGETS = [
    ("cli", "supermart.cli", "main"),
    ("spectral", "supermart.cli", "principal_eigentriple"),
    ("spectral", "supermart.cli", "spectral_gap"),
    ("spectral", "supermart.cli", "assumption2_report"),
    ("spectral", "supermart", "principal_eigentriple"),
    ("spectral", "supermart", "spectral_gap"),
    ("spectral", "supermart", "assumption2_report"),
    ("criteria", "supermart.cli", "evaluate_criteria"),
    ("criteria", "supermart.cli", "gw_predictions"),
    ("criteria", "supermart", "evaluate_criteria"),
    ("sim.csbp", "supermart.cli", "simulate_csbp"),
    ("sim.csbp", "supermart.sim.spine", "simulate_csbp"),
    ("sim.csbp", "supermart", "simulate_csbp"),
    ("sim.spine", "supermart.cli", "simulate_spine"),
    ("sim.spine", "supermart", "simulate_spine"),
    ("sim.gw", "supermart.cli", "simulate_gw"),
    ("functionals", "supermart.cli", "a_functional"),
    ("functionals", "supermart.cli", "a_tilde_functional"),
    ("functionals", "supermart.cli", "c_functionals"),
    ("functionals", "supermart.functionals", "window_average"),
    ("rates", "supermart.cli", "lp_curve"),
    ("rates", "supermart.cli", "fit_exponential"),
    ("rates", "supermart.cli", "as_rate_check"),
    ("rates", "supermart.cli", "poly_rate_check"),
    ("rates", "supermart.cli", "window_law_check"),
    ("io", "supermart.cli", "write_json"),
    ("io", "supermart.cli", "write_paths_csv"),
    ("io", "supermart.cli", "write_jumps_csv"),
    ("io", "supermart.cli", "write_curves_csv"),
    ("io", "supermart.cli", "read_paths_csv"),
]

# layers whose resident-set peak is sampled while one of their spans is open
RSS_LAYERS = ("sim.csbp", "sim.gw")
_RSS_PERIOD_S = 0.01
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


def _work(layer: str, fn: str, arg, result) -> dict:
    """Counts taken at the layer boundary from the call's arguments and result.

    ``arg(name)`` returns the call's argument of that name.
    """
    if layer in ("sim.csbp", "sim.spine"):
        cfg = arg("cfg")
        work = {"path_steps": cfg.paths * cfg.n_steps}
        if layer == "sim.csbp":
            work["flagged_paths"] = int(result.flagged.sum())
            work["clipped_mass"] = float(result.clipped.sum())
        return work
    if layer == "sim.gw":
        return {"path_generations": arg("paths") * arg("generations")}
    if layer == "spectral" and fn == "principal_eigentriple":
        return {"models": 1}
    if layer == "functionals":
        return {"paths": 1}
    if layer == "io":
        size = os.path.getsize(arg("path"))
        return {"bytes_read": size} if fn.startswith("read") else {"bytes_written": size}
    return {}


class Tracer:
    """Span recorder for one benchmark run; ``run_id`` tags each round's spans."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run_id = None
        self._stack: list[int] = []
        self._saved: list = []
        self.missing: set = set()
        self._open = {layer: 0 for layer in RSS_LAYERS}
        self._peak = {layer: 0 for layer in RSS_LAYERS}
        self._sampler = None
        self._stop = threading.Event()

    def _wrap(self, layer: str, fn):
        name = fn.__name__
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = {
                "layer": layer,
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "run_id": self.run_id,
            }
            self.spans.append(span)
            self._stack.append(idx)
            if layer in self._open:
                self._open[layer] += 1
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if layer in self._open:
                    self._open[layer] -= 1
            bound = sig.bind(*args, **kwargs).arguments
            span.update(_work(layer, name, bound.__getitem__, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = name
        return traced

    def _sample(self):
        while not self._stop.wait(_RSS_PERIOD_S):
            live = [layer for layer, n in self._open.items() if n > 0]
            if live:
                rss = _rss_bytes()
                for layer in live:
                    self._peak[layer] = max(self._peak[layer], rss)

    def install(self, run_id: str):
        import importlib

        self.run_id = run_id
        for layer, modname, attr in TARGETS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr, None)
            if orig is None:
                # a name that moved away is reported, not fatal: its layer
                # then reads low instead of the traced run failing
                self.missing.add(f"{modname}.{attr}")
                continue
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(layer, orig))
        self._peak = {layer: 0 for layer in RSS_LAYERS}
        self._stop.clear()
        self._sampler = threading.Thread(target=self._sample, daemon=True)
        self._sampler.start()

    def uninstall(self) -> dict:
        """Restore the originals; return the sampled RSS peaks in bytes."""
        self._stop.set()
        self._sampler.join()
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()
        return dict(self._peak)

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
            fh.write("\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one round


def _self_times(spans) -> list:
    child = [0.0] * len(spans)
    for sp in spans:
        if sp["parent"] is not None:
            child[sp["parent"]] += sp["end"] - sp["start"]
    return [sp["end"] - sp["start"] - c for sp, c in zip(spans, child)]


def layer_metrics(all_spans: list, run_id: str, rss_peaks: dict) -> dict:
    """Per-layer numbers for one traced round (see README for definitions).

    ``busy`` sums the spans of a layer that have no ancestor of the same
    layer; ``self`` subtracts from each span the time of its direct children.
    """
    idx = [i for i, sp in enumerate(all_spans) if sp["run_id"] == run_id]
    remap = {old: new for new, old in enumerate(idx)}
    spans = []
    for i in idx:
        sp = dict(all_spans[i])
        sp["parent"] = remap.get(sp["parent"])
        spans.append(sp)
    self_t = _self_times(spans)

    def has_ancestor_of_layer(k, layer):
        p = spans[k]["parent"]
        while p is not None:
            if spans[p]["layer"] == layer:
                return True
            p = spans[p]["parent"]
        return False

    busy, own, work = {}, {}, {}
    for k, sp in enumerate(spans):
        layer = sp["layer"]
        own[layer] = own.get(layer, 0.0) + self_t[k]
        if not has_ancestor_of_layer(k, layer):
            busy[layer] = busy.get(layer, 0.0) + sp["end"] - sp["start"]
        w = work.setdefault(layer, {})
        for key in ("path_steps", "path_generations", "models", "paths", "bytes_read",
                    "bytes_written", "flagged_paths", "clipped_mass"):
            if key in sp:
                w[key] = w.get(key, 0) + sp[key]

    def b(layer):
        return busy.get(layer, 0.0)

    def per_s(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    def w(layer, key):
        return work.get(layer, {}).get(key, 0)

    io_write = sum(self_t[k] for k, sp in enumerate(spans)
                   if sp["layer"] == "io" and sp["name"].startswith("write"))
    io_read = sum(self_t[k] for k, sp in enumerate(spans)
                  if sp["layer"] == "io" and sp["name"].startswith("read"))
    mb = 1024.0 * 1024.0
    return {
        "cli.self_s": own.get("cli", 0.0),
        "spectral.busy_s": b("spectral"),
        "spectral.models_per_s": per_s(w("spectral", "models"), b("spectral")),
        "criteria.busy_s": b("criteria"),
        "sim.csbp.busy_s": b("sim.csbp"),
        "sim.csbp.path_steps_per_s": per_s(w("sim.csbp", "path_steps"), b("sim.csbp")),
        "sim.csbp.peak_rss_mb": rss_peaks.get("sim.csbp", 0) / mb,
        "sim.csbp.flagged_paths": w("sim.csbp", "flagged_paths"),
        "sim.csbp.clipped_mass": w("sim.csbp", "clipped_mass"),
        "sim.spine.busy_s": b("sim.spine"),
        "sim.spine.self_s": own.get("sim.spine", 0.0),
        "sim.spine.path_steps_per_s": per_s(w("sim.spine", "path_steps"), b("sim.spine")),
        "sim.gw.busy_s": b("sim.gw"),
        "sim.gw.path_generations_per_s": per_s(w("sim.gw", "path_generations"), b("sim.gw")),
        "sim.gw.peak_rss_mb": rss_peaks.get("sim.gw", 0) / mb,
        "functionals.busy_s": b("functionals"),
        "functionals.paths_per_s": per_s(w("functionals", "paths"), b("functionals")),
        "rates.busy_s": b("rates"),
        "io.write_s": io_write,
        "io.read_s": io_read,
        "io.bytes_written": w("io", "bytes_written"),
        "io.write_mb_per_s": per_s(w("io", "bytes_written") / mb, io_write),
        "io.read_mb_per_s": per_s(w("io", "bytes_read") / mb, io_read),
    }
