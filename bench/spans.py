"""In-memory span recorder for the benchmark's traced runs.

A span is (name, start, end, parent) with times from `time.perf_counter`.
Names are `<layer>.<function>`, where the layer is an `mstop` module, so the
self time of a layer is the summed self time of its spans.  Spans are only
opened by the benchmark's own code, around its calls into the package; the
package itself is not instrumented.  Everything stays in memory until the
run ends.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Span recorder; a disabled tracer records nothing and costs one
    `nullcontext` per span."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []

    def span(self, name: str) -> contextlib.AbstractContextManager:
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name)

    @contextlib.contextmanager
    def _record(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), 0.0, parent)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time_by_layer(self) -> dict[str, float]:
        """Span duration minus the time covered by its children, summed per
        layer (the part of the name before the first dot)."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        layers: dict[str, float] = {}
        for s, c in zip(self.spans, covered):
            layer = s.name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + (s.end - s.start - c)
        return layers
