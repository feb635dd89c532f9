"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded around calls into the program's public entry points,
kept in memory, and written out once when the run ends.  Every span of
one operation carries that operation's id.  A span's *self* time is its
duration minus the time covered by its direct children; the op's root
span self time is the ``op.other`` remainder: host time the op spent
outside every instrumented layer.

Hot loops (one ``inject`` per packet, one ``step`` per simulated cycle)
would drown in per-call span records, so :meth:`SpanRecorder.add`
accumulates them into one aggregate child span per name under the
current parent, with a call count.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class SpanRecorder:
    """Nested spans plus per-op counters, grouped by op id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self._stack: list[dict] = []
        self._aggregates: dict[tuple[int, str], dict] = {}
        self.op_id = -1

    @contextmanager
    def op(self, op_id: int, name: str = "op") -> Iterator[dict]:
        """Root span of one operation; later spans attach to ``op_id``."""
        self.op_id = op_id
        with self.span(name) as root:
            yield root

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Record one span as a child of the innermost open span."""
        parent = self._stack[-1]["id"] if self._stack else None
        record = {
            "op": self.op_id,
            "id": len(self.spans),
            "parent": parent,
            "name": name,
            "start": time.perf_counter(),
            "dur": 0.0,
            "calls": 1,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["dur"] = time.perf_counter() - record["start"]
            self._stack.pop()

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Accumulate time into an aggregate child span of the open span."""
        parent = self._stack[-1]
        key = (parent["id"], name)
        record = self._aggregates.get(key)
        if record is None:
            record = {
                "op": self.op_id,
                "id": len(self.spans),
                "parent": parent["id"],
                "name": name,
                "start": parent["start"],
                "dur": 0.0,
                "calls": 0,
            }
            self._aggregates[key] = record
            self.spans.append(record)
        record["dur"] += seconds
        record["calls"] += calls

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to a counter of the current op."""
        self.counters[self.op_id][name] += value

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the duration of its direct children."""
        child_time: dict[int, float] = defaultdict(float)
        for record in self.spans:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["dur"]
        return {
            record["id"]: record["dur"] - child_time[record["id"]]
            for record in self.spans
        }

    def per_op(self, root: str = "op") -> dict[int, dict[str, float]]:
        """Op id -> {span name: summed duration} plus ``op.other`` and counters.

        ``op.other`` is the self time of the op's root span named ``root``.
        """
        self_time = self.self_times()
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for record in self.spans:
            totals = out[record["op"]]
            totals[record["name"]] += record["dur"]
            if record["parent"] is None and record["name"] == root:
                totals["op.other"] += self_time[record["id"]]
        for op_id, counts in self.counters.items():
            for name, value in counts.items():
                out[op_id][name] += value
        return out

    def write(self, path: Path) -> None:
        """Write every span (with its self time) as JSON lines."""
        self_time = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for record in self.spans:
                fh.write(json.dumps({**record, "self": self_time[record["id"]]}) + "\n")
            for op_id, counts in sorted(self.counters.items()):
                fh.write(json.dumps({"op": op_id, "counters": dict(counts)}) + "\n")
