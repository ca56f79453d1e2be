"""Span tracing of splab's layers from outside the package.

The tracer wraps the public functions of each splab module where the
consumer modules bind them (``pair_kernel_sum`` is imported separately
into ``energy``, ``patches`` and ``retraction``, so each binding is
replaced), records one span per call with its parent span, keeps the
spans in memory, and restores every original binding on exit.

A layer's self time is its span time minus the part of that interval its
child spans cover.  Per-layer metrics are derived from the span list by
``layer_metrics``.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# (layer, owning module, attribute path, modules whose binding is wrapped).
# A consumer list of None wraps every loaded splab module that binds the
# same function object; a class attribute path ("PatchModel.layer_ratio")
# is wrapped on the class, which every instance and self-call goes through.
TARGETS = (
    ("pairsum", "splab._pairsum", "pair_kernel_sum", None),
    ("energy", "splab.energy", "gagliardo_energy", None),
    ("energy", "splab.energy", "cloud_energy", None),
    ("sphere", "splab.sphere", "shifted_projection", None),
    ("chords", "splab.chords", "chords_vectorized", None),
    ("patches", "splab.patches", "PatchModel.layer_ratio", None),
    ("patches", "splab.patches", "PatchModel.layer_upper_compositional", None),
    ("patches", "splab.patches", "PatchModel.layer_energy_direct", None),
    ("patches", "splab.patches", "PatchModel.patch_energy_direct", None),
    ("patches", "splab.patches", "PatchModel.patch_projected_direct", None),
    ("patches", "splab.patches", "PatchModel.patch_projected_lower", None),
    ("retraction", "splab.retraction", "almost_projection_scan", None),
    ("retraction", "splab.retraction", "AlmostModel.scan_row", None),
    ("harness", "splab.harness", "averaging_check", None),
    ("harness", "splab.harness", "threshold_scan", None),
    ("harness", "splab.harness", "kernel_selftest", None),
    ("harness", "splab.harness", "calibrated_average_bound", None),
    ("grid", "splab.grid", "make_grid", ("splab.harness",)),
    ("grid", "splab.grid", "sample_map", ("splab.harness",)),
    ("cli", "splab.cli", "main", None),
    ("cli", "splab.config", "validate_config", None),
    ("report", "splab.report", "emit_report", None),
)

LAYERS = ("pairsum", "energy", "sphere", "chords", "patches", "retraction",
          "harness", "grid", "cli", "report")


@dataclass
class Span:
    layer: str
    name: str
    parent: int
    start: float
    end: float = 0.0
    error: str = ""
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count_inputs(name: str, args, kwargs, result) -> dict:
    """Work counters computed from a call's inputs and outputs."""
    if name == "pair_kernel_sum":
        n = int(np.shape(args[0] if args else kwargs["points"])[0])
        return {"pairs": n * (n - 1) // 2}
    if name == "chords_vectorized":
        return {"cases": int(np.shape(args[0] if args else kwargs["c"])[0])}
    if name == "shifted_projection" and result is not None:
        return {"singular_hits": len(result[1])}
    if name == "layer_ratio":
        model, layer = args[0], (args[1] if len(args) > 1 else kwargs["layer"])
        return {"shifts": int(model.shift_grid(layer).shape[0])}
    if name == "emit_report" and result is not None:
        return {"files": len(result), "bytes": sum(os.path.getsize(p) for p in result)}
    return {}


class Tracer:
    """Context manager that installs span-recording wrappers on splab."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, layer: str, name: str, fn, memo_owner: bool):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(layer, name, stack[-1] if stack else -1, 0.0)
            idx = len(tracer.spans)
            tracer.spans.append(span)
            memo = getattr(args[0], "_memo", None) if memo_owner else None
            memo_before = len(memo) if memo is not None else -1
            stack.append(idx)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                span.counts = _count_inputs(name, args, kwargs, result)
                if memo_owner:
                    span.counts["memo_hit"] = int(memo is not None and len(memo) == memo_before)

        traced.__perfbench_wrapper__ = True
        return traced

    def __enter__(self) -> "Tracer":
        for layer, owner, path, consumers in TARGETS:
            mod = importlib.import_module(owner)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[attr]
                memo = attr in ("layer_energy_direct", "patch_energy_direct")
                self._patch(cls, attr, original, self._wrap(layer, attr, original, memo))
                continue
            original = getattr(mod, path)
            wrapper = self._wrap(layer, path, original, False)
            names = consumers or [m for m in list(sys.modules) if m == "splab" or m.startswith("splab.")]
            for mod_name in names:
                consumer = sys.modules.get(mod_name)
                if consumer is not None and getattr(consumer, path, None) is original:
                    self._patch(consumer, path, original, wrapper)
        return self

    def _patch(self, obj, attr: str, original, wrapper) -> None:
        self._patched.append((obj, attr, original))
        setattr(obj, attr, wrapper)

    def __exit__(self, *exc) -> None:
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()


def leftover_wrappers() -> list[str]:
    """Names of splab bindings that are still tracing wrappers (should be none)."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "splab" or mod_name.startswith("splab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if getattr(value, "__perfbench_wrapper__", False):
                found.append(f"{mod_name}.{attr}")
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    if getattr(cvalue, "__perfbench_wrapper__", False):
                        found.append(f"{mod_name}.{attr}.{cattr}")
    return found


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        kids = [(max(lo, s.start), min(hi, s.end)) for lo, hi in children.get(i, [])]
        out.append(s.duration - union_length([k for k in kids if k[1] > k[0]]))
    return out


def _pct_ms(durations, q: float) -> float:
    return float(np.percentile(durations, q) * 1e3) if len(durations) else 0.0


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span], wall_s: float) -> dict:
    """Per-layer metrics of one traced pass whose wall time is ``wall_s``."""
    selfs = self_times(spans)
    by_layer = {layer: [i for i, s in enumerate(spans) if s.layer == layer] for layer in LAYERS}

    def busy(layer):
        return union_length([(spans[i].start, spans[i].end) for i in by_layer[layer]])

    def self_s(layer):
        return float(sum(selfs[i] for i in by_layer[layer]))

    def named(name):
        return [spans[i] for i in range(len(spans)) if spans[i].name == name]

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in named(name))

    m: dict[str, float] = {}
    pair_spans = named("pair_kernel_sum")
    pairs = total("pair_kernel_sum", "pairs")
    m["pairsum.calls"] = len(pair_spans)
    m["pairsum.pairs"] = pairs
    m["pairsum.busy_s"] = busy("pairsum")
    m["pairsum.mpairs_per_s"] = _rate(pairs / 1e6, m["pairsum.busy_s"])
    m["pairsum.call_p50_ms"] = _pct_ms([s.duration for s in pair_spans], 50)
    m["pairsum.call_p95_ms"] = _pct_ms([s.duration for s in pair_spans], 95)

    gag = [s.duration for s in named("gagliardo_energy")]
    m["energy.calls"] = len(by_layer["energy"])
    m["energy.self_s"] = self_s("energy")
    m["energy.gagliardo_p50_ms"] = _pct_ms(gag, 50)
    m["energy.gagliardo_p95_ms"] = _pct_ms(gag, 95)

    proj = named("shifted_projection")
    m["sphere.calls"] = len(proj)
    m["sphere.busy_s"] = busy("sphere")
    m["sphere.singular_hits"] = total("shifted_projection", "singular_hits")
    m["sphere.degenerate_shifts"] = sum(s.error == "DegenerateShiftError" for s in proj)

    cases = total("chords_vectorized", "cases")
    m["chords.calls"] = len(by_layer["chords"])
    m["chords.cases"] = cases
    m["chords.busy_s"] = busy("chords")
    m["chords.cases_per_s"] = _rate(cases, m["chords.busy_s"])

    ratio_spans = named("layer_ratio")
    shifts = total("layer_ratio", "shifts")
    direct = named("layer_energy_direct") + named("patch_energy_direct")
    projected = [s.duration for s in named("patch_projected_direct")]
    m["patches.self_s"] = self_s("patches")
    m["patches.layer_ratio_shifts"] = shifts
    m["patches.layer_ratio_shifts_per_s"] = _rate(shifts, sum(s.duration for s in ratio_spans))
    m["patches.projected_direct_p50_ms"] = _pct_ms(projected, 50)
    m["patches.projected_direct_p95_ms"] = _pct_ms(projected, 95)
    m["patches.energy_direct_calls"] = len(direct)
    m["patches.memo_hit_ratio"] = _rate(sum(s.counts.get("memo_hit", 0) for s in direct), len(direct))

    m["retraction.busy_s"] = busy("retraction")
    m["retraction.self_s"] = self_s("retraction")
    m["retraction.rows"] = len(named("scan_row"))

    m["harness.self_s"] = self_s("harness")
    m["harness.selftest_s"] = sum(s.duration for s in named("kernel_selftest"))
    m["harness.calibration_s"] = sum(s.duration for s in named("calibrated_average_bound"))

    m["grid.calls"] = len(by_layer["grid"])
    m["grid.busy_s"] = busy("grid")

    m["cli.self_s"] = self_s("cli")
    m["report.emit_s"] = busy("report")
    m["report.files"] = total("emit_report", "files")
    m["report.bytes"] = total("emit_report", "bytes")

    # every layer's self time plus the time outside any span is the wall time
    roots = union_length([(s.start, s.end) for s in spans if s.parent < 0])
    m["trace.self_sum_s"] = float(sum(selfs))
    m["trace.remainder_s"] = wall_s - roots
    m["trace.wall_s"] = wall_s
    m["trace.spans"] = len(spans)
    return m
