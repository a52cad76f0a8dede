"""In-memory span recorder and per-layer counters for the benchmark.

Spans are recorded from outside the library: ``Tracer.wrap`` turns a
public ``thermosched`` function into one that opens a span named after
its layer around every call. A disabled tracer returns the function
unchanged, so the untraced run calls the library directly and pays
nothing for the recorder.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator, Optional


@dataclass
class Span:
    """One timed call: name, start and end in perf_counter seconds,
    the index of the enclosing span (None for an op's root span) and
    the op it belongs to."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int


class Tracer:
    """Collects spans and integer counters of one benchmark run."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """Root span of one op; layer spans opened inside become its children."""
        self._op = op_id
        with self._span("op"):
            yield

    @contextmanager
    def _span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, perf_counter(), 0.0, parent, self._op)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def wrap(
        self,
        name: str,
        fn: Callable,
        counts: Optional[Callable[[Any, tuple], dict[str, int]]] = None,
    ) -> Callable:
        """fn itself when disabled, else fn inside a span called name.

        counts maps one call's result and positional arguments to the
        amounts it adds to the tracer's counters.
        """
        if not self.enabled:
            return fn

        def traced(*args):
            with self._span(name):
                result = fn(*args)
            if counts is not None:
                for counter, amount in counts(result, args).items():
                    self.counters[counter] += amount
            return result

        return traced

    def self_seconds(self) -> dict[str, float]:
        """Per span name, the summed duration minus the time covered by child spans."""
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.end - span.start
            if span.parent is not None:
                parent = self.spans[span.parent]
                totals[parent.name] -= span.end - span.start
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.__dict__) + "\n")
