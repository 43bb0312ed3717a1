"""Spans and call counters around the public functions of each sumpaths module.

The wrappers are installed from outside the package: every module-level
binding of a wrapped function, in every ``sumpaths`` module, is replaced, so
``from .x import y`` copies are caught too. ``uninstall`` puts the originals
back. Spans are kept in memory; ``write_spans`` saves them when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time
import tracemalloc
from collections import Counter

LAYERS = (
    "cli",
    "circuits",
    "oracle",
    "paths",
    "twoparticle",
    "threeparticle",
    "subsystems",
    "density",
    "verify",
)

# Helpers called once per path or per layer step. A span on each would cost
# more than the call itself, so they only count calls; their time stays in
# the caller's span.
COUNTER_ONLY = frozenset(
    {
        "circuits.condition_phase_gate",
        "circuits.conditioned_diagonal",
        "circuits.unitarity_defect",
        "paths.enumerate_paths",
        "paths.joint_phase",
        "paths.joint_phase_factors",
        "paths.path_amplitude",
        "paths.path_index",
        "paths.path_mode_array",
        "subsystems.config_path_amplitude",
    }
)

# Table builders: one call is one build.
BUILDERS = {
    "twoparticle.lambda_tables": "twoparticle.builds",
    "threeparticle.lambda3_tables": "threeparticle.builds",
    "subsystems.lambda_block": "subsystems.blocks",
}

PEAK_ALLOC_LAYERS = ("twoparticle", "threeparticle", "subsystems", "paths")

_MARK = "__bench_wrapped__"

# Span record fields.
LAYER, NAME, PARENT, START, END, FLT_START, FLT_END, PEAK = range(8)


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def lattice_terms(circuit) -> int:
    """Terms in one ``amplitude_via_paths`` sum: (2^(n-1))^N."""
    return (1 << max(circuit.n - 1, 0)) ** circuit.particles


class Tracer:
    """Collects spans and call counts while installed."""

    def __init__(self, track_alloc: bool = False) -> None:
        self.track_alloc = track_alloc
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.lattice_terms = 0
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _counter(self, qualname: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[qualname] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _span(self, layer: str, qualname: str, fn):
        calls, spans, stack = self.calls, self.spans, self._stack
        track_alloc = self.track_alloc
        counts_terms = qualname == "paths.amplitude_via_paths"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[qualname] += 1
            if counts_terms:
                self.lattice_terms += lattice_terms(args[0])
            parent = spans[stack[-1]] if stack else None
            span = [layer, qualname, stack[-1] if stack else -1, 0.0, 0.0, 0, 0, 0]
            # While the span is open, PEAK holds the highest traced-memory peak
            # its children reached; on exit it becomes the span's own peak
            # allocation above its starting level.
            if track_alloc:
                start_bytes, peak = tracemalloc.get_traced_memory()
                if parent is not None:
                    parent[PEAK] = max(parent[PEAK], peak)
                tracemalloc.reset_peak()
            stack.append(len(spans))
            spans.append(span)
            span[FLT_START] = _minflt()
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                span[FLT_END] = _minflt()
                stack.pop()
                if track_alloc:
                    peak = max(span[PEAK], tracemalloc.get_traced_memory()[1])
                    span[PEAK] = peak - start_bytes
                    if parent is not None:
                        parent[PEAK] = max(parent[PEAK], peak)

        setattr(wrapper, _MARK, fn)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every layer, at every binding site."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        modules = sumpaths_modules()
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = modules[f"sumpaths.{layer}"]
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                qualname = f"{layer}.{name}"
                if qualname in COUNTER_ONLY:
                    wrappers[id(fn)] = self._counter(qualname, fn)
                else:
                    wrappers[id(fn)] = self._span(layer, qualname, fn)
        for module in modules.values():
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._originals.append((module, name, value))
                    setattr(module, name, wrapper)
        if self.track_alloc:
            tracemalloc.start()

    def uninstall(self) -> None:
        for module, name, original in self._originals:
            setattr(module, name, original)
        self._originals.clear()
        if self.track_alloc:
            tracemalloc.stop()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def self_ms(self, ops: int) -> dict[str, float]:
        """Per-op self time of every layer."""
        totals = self_totals(self.spans, START, END)
        return {f"{layer}.self_ms": totals.get(layer, 0.0) * 1000.0 / ops for layer in LAYERS}

    def counts(self, ops: int) -> dict[str, float]:
        """Per-op calls, builds, minor page faults and path-sum sizes."""
        faults = self_totals(self.spans, FLT_START, FLT_END)
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            calls = sum(v for k, v in self.calls.items() if k.split(".")[0] == layer)
            metrics[f"{layer}.calls"] = calls / ops
            metrics[f"{layer}.minflt"] = faults.get(layer, 0) / ops
        for qualname, metric in BUILDERS.items():
            metrics[metric] = self.calls[qualname] / ops
        metrics["paths.path_amplitude_calls"] = self.calls["paths.path_amplitude"] / ops
        metrics["paths.lattice_terms"] = self.lattice_terms / ops
        metrics["oracle.evolve_calls"] = self.calls["oracle.evolve"] / ops
        return metrics

    def peak_alloc_mb(self) -> dict[str, float]:
        """Largest allocation peak inside a span of each layer, in MB."""
        peaks = {layer: 0 for layer in PEAK_ALLOC_LAYERS}
        for span in self.spans:
            if span[LAYER] in peaks:
                peaks[span[LAYER]] = max(peaks[span[LAYER]], span[PEAK])
        return {f"{layer}.peak_alloc_mb": peaks[layer] / 2**20 for layer in PEAK_ALLOC_LAYERS}

    def write_spans(self, path) -> None:
        fields = ("layer", "name", "parent", "start", "end", "minflt_start", "minflt_end", "peak_bytes")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")


def self_totals(spans: list[list], start: int, end: int) -> dict[str, float]:
    """Per-layer sum of (span[end] - span[start]) minus the same over its child spans."""
    totals: dict[str, float] = {}
    for span in spans:
        amount = span[end] - span[start]
        totals[span[LAYER]] = totals.get(span[LAYER], 0) + amount
        if span[PARENT] >= 0:
            parent_layer = spans[span[PARENT]][LAYER]
            totals[parent_layer] = totals.get(parent_layer, 0) - amount
    return totals


def sumpaths_modules() -> dict[str, object]:
    return {
        name: module
        for name, module in sys.modules.items()
        if module is not None and (name == "sumpaths" or name.startswith("sumpaths."))
    }


def installed_wrappers() -> list[str]:
    """Names of module bindings in sumpaths that currently hold a wrapper."""
    return [
        f"{module_name}.{name}"
        for module_name, module in sumpaths_modules().items()
        for name, value in vars(module).items()
        if hasattr(value, _MARK)
    ]
