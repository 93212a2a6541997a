"""Per-layer tracing for one benchmark worker.

The tracer replaces public functions of the ``secradius`` modules with
wrappers that record a span per call (layer, start, end, parent span).  From
the spans it derives each layer's call count and self time: the span's
duration minus the time covered by its direct child spans.  Exceptions that
escape a layer are counted by type, and a few layers record extra counts
from their arguments or results (``_BEFORE`` and ``_AFTER``).

A function is usually bound in several module namespaces, because
``from .radius import boundary_min`` copies the binding into ``verify``.  The
wrapper is therefore patched into every ``secradius`` module that holds the
original object.  A namespace left unpatched would silently read 0; the
benchmark's exact structural call counts catch that.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, function) pairs traced as layers, named "<module>.<function>".
# ``bounds`` is left out: its closed forms cost microseconds per call.
LAYERS = (
    ("zoo", "sample_specs"),
    ("zoo", "synthesize_F"),
    ("series", "section"),
    ("radius", "boundary_min"),
    ("radius", "golden_section_min"),
    ("radius", "count_zeros"),
    ("radius", "criterion_radius"),
    ("verify", "theorem1_suite"),
    ("verify", "conjecture2_scan"),
    ("verify", "classical_radius_scan"),
    ("verify", "sharpness_witnesses"),
    ("cli", "main"),
)


class Layer:
    """Aggregates of one traced layer."""

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts = Counter()
        self.durations_s = []

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "counts": dict(self.counts),
            "durations_s": self.durations_s,
        }


class _Frame:
    __slots__ = ("name", "start", "child_s", "child_calls", "span")

    def __init__(self, name: str, start: float, span: int):
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.child_calls = Counter()
        self.span = span


class Tracer:
    """Span recorder; create one per process and call :meth:`install`."""

    def __init__(self):
        self.layers = {f"{mod}.{fn}": Layer() for mod, fn in LAYERS}
        self.spans = []  # [layer, start, end, parent span index or -1]
        self._stack = []

    def _enter(self, name: str) -> _Frame:
        parent = self._stack[-1].span if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent])
        frame = _Frame(name, time.perf_counter(), len(self.spans) - 1)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> float:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame.start
        self.spans[frame.span][1:3] = [frame.start, end]
        layer = self.layers[frame.name]
        layer.calls += 1
        layer.self_s += duration - frame.child_s
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += duration
            parent.child_calls[frame.name] += 1
        return duration

    def _wrap(self, name: str, fn):
        layer = self.layers[name]
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(layer, args)
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._exit(frame)
                layer.counts[type(exc).__name__] += 1
                raise
            duration = self._exit(frame)
            if after is not None:
                after(layer, result, frame, duration)
            return result

        return traced

    def install(self) -> None:
        """Patch every ``secradius`` namespace that binds a traced function."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "secradius" or key.startswith("secradius.")
        ]
        for mod_name, fn_name in LAYERS:
            original = getattr(sys.modules[f"secradius.{mod_name}"], fn_name)
            traced = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)


def _count_fn_evals(layer: Layer, args: tuple) -> tuple:
    fn = args[0]

    def counted(x):
        layer.counts["fn_evals"] += 1
        return fn(x)

    return (counted,) + args[1:]


def _count_nonzero(layer: Layer, result, frame: _Frame, duration: float) -> None:
    if result > 0:
        layer.counts["nonzero"] += 1


def _record_solve(layer: Layer, result, frame: _Frame, duration: float) -> None:
    layer.counts["probes"] += result.iterations
    # One count_zeros validates the value-only bisection; two or more mean
    # that validation failed and the guarded fallback bisection ran.
    if frame.child_calls["radius.count_zeros"] >= 2:
        layer.counts["fallbacks"] += 1
    if result.witness is None:
        layer.counts["no_witness"] += 1
    if result.clamped:
        layer.counts["clamped"] += 1
    layer.durations_s.append(duration)


_BEFORE = {"radius.golden_section_min": _count_fn_evals}
_AFTER = {
    "radius.count_zeros": _count_nonzero,
    "radius.criterion_radius": _record_solve,
}
