"""Span tracer installed around eigenlfm's public layer functions.

The wrappers live here, outside the package: `Tracer.install` replaces every
binding of each wrapped function in the loaded `eigenlfm` modules, so a name
imported with `from ..filtering import update` is traced as well as
`filtering.update`. Spans stay in memory until the run writes them out.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

_MODULES = {
    "kernels": "eigenlfm.kernels",
    "eigenbasis": "eigenlfm.eigenbasis",
    "lfm": "eigenlfm.lfm",
    "filtering": "eigenlfm.filtering",
    "queueing": "eigenlfm.apps.queueing",
    "thermal": "eigenlfm.apps.thermal",
}

LAYERS = (
    "kernels.eval_matrix",
    "eigenbasis.eigenfunction_matrix",
    "eigenbasis.build",
    "lfm.assemble",
    "lfm.initial_state",
    "lfm.make_constant_step_plan",
    "lfm.constant_weight_transition",
    "lfm.discretize",
    "lfm.apply_changepoint_moments",
    "filtering.predict",
    "filtering.update",
    "filtering.rbpf_predict_day",
    "queueing.generate_queue_data",
    "queueing.queue_track",
    "thermal.generate_thermal_data",
    "thermal.thermal_build",
    "thermal.thermal_track_day",
    "thermal.thermal_predict_day",
)
ROOT = "cli"  # span around one CLI invocation; its self time is the CLI's own


def _rbpf_particle_steps(fn):
    signature = inspect.signature(fn)

    def count(args, kwargs, out):
        n_particles = signature.bind(*args, **kwargs).arguments["n_particles"]
        return len(out) * int(n_particles)

    return count


# work done per call, measured from the call's result
WORK = {
    "kernels.eval_matrix": ("entries", lambda fn: lambda a, k, out: out.size),
    "eigenbasis.eigenfunction_matrix": ("rows", lambda fn: lambda a, k, out: out.shape[0]),
    "filtering.rbpf_predict_day": ("particle_steps", _rbpf_particle_steps),
}


class Tracer:
    """Collects spans and per-layer call counts, self times and work counts."""

    def __init__(self):
        self.spans: list[tuple] = []   # (pass, name, start_ns, end_ns, parent index)
        self._stack: list[list] = []   # open spans: [span index, child ns]
        self._patches: list[tuple] = []
        self._pass = -1
        self.reset_counts()

    def reset_counts(self) -> None:
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.work: Counter = Counter()

    def _open(self) -> list:
        frame = [len(self.spans), 0]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: int, end: int) -> None:
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self.spans[frame[0]] = (
            self._pass, name, start, end, parent[0] if parent is not None else -1
        )
        self.calls[name] += 1
        self.self_ns[name] += duration - frame[1]

    def run_root(self, pass_index: int, fn, *args, **kwargs):
        """Call fn inside the root span of one traced pass."""
        self._pass = pass_index
        frame = self._open()
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(ROOT, frame, start, time.perf_counter_ns())

    def _wrap(self, name: str, fn):
        work = WORK.get(name)
        work_key, work_count = (f"{name}.{work[0]}", work[1](fn)) if work else (None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open()
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(name, frame, start, time.perf_counter_ns())
            if work_key is not None:
                self.work[work_key] += work_count(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Patch every binding of every layer function in the eigenlfm modules."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        loaded = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "eigenlfm" or name.startswith("eigenlfm."))
        ]
        for layer in LAYERS:
            short, attr = layer.split(".")
            original = getattr(importlib.import_module(_MODULES[short]), attr)
            wrapper = self._wrap(layer, original)
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def patched_bindings(self) -> set[str]:
        """Qualified names of every patched binding, e.g. 'eigenlfm.apps.thermal.update'."""
        return {f"{module.__name__}.{key}" for module, key, _ in self._patches}
