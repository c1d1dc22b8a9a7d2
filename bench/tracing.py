"""In-memory spans recorded by the benchmark around calls into the engine.

A span is (name, start, end, parent).  Spans are kept in a list while a run
lasts and written out once, when it ends.  A layer that can only be reached
inside another public call is timed through a separate call on the same
input and recorded as a child of the enclosing span, even though it runs
outside that span's interval; a span's self time is therefore its duration
minus the durations of its children, wherever they ran.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from time import perf_counter
from typing import Any, Callable


class Tracer:
    """Collects spans; one ``Tracer`` per run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]

    def open(self, name: str, parent: int = -1) -> int:
        self.spans.append([name, perf_counter(), 0.0, parent])
        return len(self.spans) - 1

    def close(self, index: int) -> float:
        end = perf_counter()
        span = self.spans[index]
        span[2] = end
        return end - span[1]

    def call(self, name: str, parent: int, fn: Callable, *args: Any) -> tuple[int, Any]:
        """Run ``fn(*args)`` inside a span; the span is closed even if it raises."""
        index = self.open(name, parent)
        try:
            return index, fn(*args)
        finally:
            self.close(index)

    def self_times(self) -> dict[str, list[float]]:
        """Self time of every span, grouped by name, in seconds."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        by_name: dict[str, list[float]] = {}
        for (name, *_), seconds in zip(self.spans, own):
            by_name.setdefault(name, []).append(seconds)
        return by_name

    def write(self, path: Path, meta: dict) -> None:
        """Write the run's metadata, then one span per line: name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps(meta) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def layer_metrics(self_times: dict[str, list[float]], layers: tuple[str, ...]) -> dict[str, tuple[float, str]]:
    """``<layer>.calls``, ``.busy_s`` (summed self time) and ``.p50_us`` for every layer, run or not."""
    metrics: dict[str, tuple[float, str]] = {}
    for layer in layers:
        samples = self_times.get(layer, [])
        metrics[f"{layer}.calls"] = (len(samples), "count")
        metrics[f"{layer}.busy_s"] = (sum(samples), "s")
        metrics[f"{layer}.p50_us"] = (statistics.median(samples) * 1e6 if samples else 0.0, "us")
    return metrics


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
