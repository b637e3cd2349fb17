"""Spans around the benchmark's calls into rcworm, kept in memory.

A span is (name, start, end, parent, op): name is "<module>.<function>" for
a call into the library and "op.<kind>" for one whole operation; parent is
the index of the enclosing span or -1; op is the operation's sequence
number, shared by all spans of that operation.  A span's self time is its
duration minus the durations of its direct children.
"""

import statistics
import time
from collections import Counter, defaultdict


class NullTracer:
    """Tracing off: calls go straight through and counts are dropped."""

    on = False

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n=1):
        pass


class Tracer:
    on = True

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = -1

    def call(self, name, fn, *args):
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def count(self, name, n=1):
        self.counts[name] += n

    def self_times(self, factors):
        """Total self time and call count per span name, each span's time
        scaled by its op's speed factor (the median one outside any op)."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        outside = statistics.median(factors)
        total = defaultdict(float)
        calls = Counter()
        for i, (name, start, end, _, op) in enumerate(self.spans):
            factor = factors[op] if op >= 0 else outside
            total[name] += (end - start - child_time[i]) * factor
            calls[name] += 1
        return total, calls
