"""Layer tracing from outside the program.

Tracer.install() rebinds each public function listed in LAYERS, in every
loaded polyreach module that holds it, to a wrapper that records a span
(function, start, end, parent span, job id) and keeps running self times:
a span's duration minus the time its child spans cover.  uninstall()
restores the originals, so untraced passes run the program untouched.
"""

from __future__ import annotations

import functools
import gc
import sys
import time

LAYERS = {
    "formulas": ("parse_formula", "format_formula", "adequate_closure", "saturate_diamonds"),
    "kripke": ("parse_model", "build_model", "evaluate", "witness_path",
               "check_updown_path", "serialize_model"),
    "geometry": ("maze_generate", "make_complex", "structural_problems", "face_poset",
                 "companion", "parse_complex", "serialize_complex", "cell_of",
                 "evaluate_polyhedral", "realize"),
    "transforms": ("cut_filtration_pipeline", "filtrate", "cut", "nerve"),
    "soundness": ("axiom_suite", "find_model"),
    "cli": ("main",),
}

FUNCTIONS = [(layer, name) for layer, names in LAYERS.items() for name in names]

# Work counts read from a traced function's arguments or result.
COUNTERS = {
    "kripke.build_model": lambda args, out: {
        "kripke.build_model.worlds": len(out.worlds),
        "kripke.build_model.order_pairs": len(out.order),
    },
    "kripke.witness_path": lambda args, out: {"kripke.witness_path.misses": out is None},
    "geometry.make_complex": lambda args, out: {"geometry.make_complex.cells": len(out.simplices)},
    "transforms.filtrate": lambda args, out: {"transforms.filtrate.classes": len(out.model.worlds)},
    "soundness.axiom_suite": lambda args, out: {
        "soundness.axiom_suite.instances": sum(out.checked.values()),
    },
}

COUNT_NAMES = [
    "kripke.build_model.worlds",
    "kripke.build_model.order_pairs",
    "kripke.witness_path.misses",
    "geometry.make_complex.cells",
    "transforms.filtrate.classes",
    "soundness.axiom_suite.instances",
    "cli.stdout_bytes",
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.self_s = [0.0] * len(FUNCTIONS)
        self.calls = [0] * len(FUNCTIONS)
        self.errors = {layer: 0 for layer in LAYERS}
        self.counts = {name: 0 for name in COUNT_NAMES}
        self.gc_s = 0.0
        self.job = -1
        self._stack: list[int] = []
        self._covered: list[float] = []
        self._restore: list = []
        self._gc_start = 0.0

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "polyreach" or n.startswith("polyreach."))]
        for fid, (layer, name) in enumerate(FUNCTIONS):
            original = getattr(sys.modules[f"polyreach.{layer}"], name)
            wrapper = self._wrap(fid, layer, original, COUNTERS.get(f"{layer}.{name}"))
            for module in modules:
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapper)
                    self._restore.append((module, name, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start

    def _wrap(self, fid, layer, fn, counter):
        spans, stack, covered = self.spans, self._stack, self._covered
        self_s, calls, counts, errors = self.self_s, self.calls, self.counts, self.errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            covered.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[fid] += duration - covered.pop()
                if covered:
                    covered[-1] += duration
                calls[fid] += 1
                spans[sid] = (fid, start, end, parent, self.job)
            if counter is not None:
                for key, value in counter(args, result).items():
                    counts[key] += value
            return result

        return wrapper

    def companion_build_model_calls(self) -> float:
        """build_model spans under a companion span, per companion call."""
        build = FUNCTIONS.index(("kripke", "build_model"))
        comp = FUNCTIONS.index(("geometry", "companion"))
        under = 0
        for fid, _, _, parent, _ in self.spans:
            if fid != build:
                continue
            while parent >= 0:
                if self.spans[parent][0] == comp:
                    under += 1
                    break
                parent = self.spans[parent][3]
        return under / max(1, self.calls[comp])

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer figures per traced pass."""
        out: dict[str, float] = {}
        busy = {layer: 0.0 for layer in LAYERS}
        for fid, (layer, name) in enumerate(FUNCTIONS):
            out[f"{layer}.{name}.self_s"] = self.self_s[fid] / passes
            out[f"{layer}.{name}.calls"] = self.calls[fid] / passes
            busy[layer] += self.self_s[fid]
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = busy[layer] / passes
            out[f"{layer}.errors"] = self.errors[layer] / passes
        for name in COUNT_NAMES:
            out[name] = self.counts[name] / passes
        out["geometry.companion.build_model_calls"] = self.companion_build_model_calls()
        out["runtime.gc_s"] = self.gc_s / passes
        return out

    def dump(self) -> dict:
        """The span tree, with start and end relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "functions": [f"{layer}.{name}" for layer, name in FUNCTIONS],
            "span_fields": ["function", "start_s", "end_s", "parent", "job"],
            "spans": [
                [fid, round(s - origin, 7), round(e - origin, 7), parent, job]
                for fid, s, e, parent, job in self.spans
            ],
        }
