"""In-memory span recorder and the self-time arithmetic over its spans.

A span is [name, start_ns, end_ns, parent index or None, operation id].
Spans are appended when they open, so a parent always precedes its
children; they stay in memory until write() dumps them as JSON.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, OP = range(5)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._open: list[int] = []

    def new_op(self) -> int:
        self.op += 1
        return self.op

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter_ns(), None, parent, self.op]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[END] = time.perf_counter_ns()
            self._open.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans, "counts": dict(self.counts)}, handle)


def covered(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [start, end) covered by the union of intervals."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[list]) -> list[int]:
    """Per span: its duration minus the part its direct children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        span[END] - span[START] - covered(span[START], span[END], children[i])
        for i, span in enumerate(spans)
    ]


def by_name(spans: list[list], keep=None) -> dict[str, tuple[int, int]]:
    """name -> (number of spans, total self time in ns), over the spans keep accepts."""
    totals: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for span, own in zip(spans, self_times(spans)):
        if keep is None or keep(span):
            entry = totals[span[NAME]]
            entry[0] += 1
            entry[1] += own
    return {name: (n, ns) for name, (n, ns) in totals.items()}
