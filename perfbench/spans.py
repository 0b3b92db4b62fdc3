"""In-memory spans for the traced run.

A span records its name, its parent span, the workload round it belongs
to, when it started and how long it took. Spans are opened only by the
benchmark, around its calls into one harmcode module; nothing inside the
package is instrumented. A layer's self time is its duration minus the
durations of its child spans (spans nest and never overlap, because the
benchmark is one thread).
"""

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        # (span id, parent id or -1, round, name, start, duration, calls)
        self.records = []
        self._stack = []
        self.round = 0

    @contextmanager
    def span(self, name):
        sid = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        self.records.append(None)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            self.records[sid] = (sid, parent, self.round, name, t0, dur, 1)

    def add(self, name, start, dur, calls):
        """One aggregated child of the open span: `calls` calls totalling `dur`.

        Used where a span per call would cost more than the call itself.
        """
        parent = self._stack[-1] if self._stack else -1
        self.records.append((len(self.records), parent, self.round, name, start, dur, calls))

    def self_times(self):
        child = [0.0] * len(self.records)
        for _, parent, _, _, _, dur, _ in self.records:
            if parent >= 0:
                child[parent] += dur
        return [rec[5] - child[rec[0]] for rec in self.records]

    def per_round_self(self, under=None):
        """{name: {round: total self time of that name's spans in the round}},
        optionally only for spans whose parent is named `under`."""
        out = {}
        for rec, self_t in zip(self.records, self.self_times()):
            if under is not None and (rec[1] < 0 or self.records[rec[1]][3] != under):
                continue
            by_round = out.setdefault(rec[3], {})
            by_round[rec[2]] = by_round.get(rec[2], 0.0) + self_t
        return out

    def median_self(self):
        """{name: median over rounds of the round's total self time in that name}."""
        return {name: statistics.median(by_round.values())
                for name, by_round in self.per_round_self().items()}

    def durations(self, name):
        return [rec[5] for rec in self.records if rec[3] == name]

    def write(self, path):
        names = ("id", "parent", "round", "name", "start", "dur", "calls")
        with open(path, "w", encoding="utf-8") as fh:
            for rec, self_t in zip(self.records, self.self_times()):
                doc = dict(zip(names, rec))
                doc["self"] = self_t
                fh.write(json.dumps(doc) + "\n")
