"""In-memory span and counter recorder for the traced benchmark run.

A span is (name, start_ns, end_ns, parent). Spans are appended to flat
lists while the run executes and written out once, after the last
measurement, so writing costs nothing inside a timed region.

The recorder never touches the package: it times calls the benchmark
itself makes (``span``) and wraps callables the benchmark itself passes in
(``timed`` for leaf spans such as ``StepMap.update``, ``counted`` for
right-hand-side evaluations).
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._tab = None

    @contextmanager
    def span(self, name: str):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(perf_counter_ns())
        try:
            yield
        finally:
            self.ends[idx] = perf_counter_ns()
            self._stack.pop()

    def timed(self, name: str, fn):
        """``fn`` wrapped so that every call records a leaf span."""
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack)

        def wrapped(*args):
            t0 = perf_counter_ns()
            out = fn(*args)
            t1 = perf_counter_ns()
            names.append(name)
            parents.append(stack[-1])
            starts.append(t0)
            ends.append(t1)
            return out

        return wrapped

    def counted(self, name: str, fn):
        """``fn`` wrapped so that every call increments ``counts[name]``."""
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    # -- aggregation -------------------------------------------------------

    def _table(self):
        """(names, durations_ns, child_ns) as arrays, rebuilt when spans grew."""
        if self._tab is None or self._tab[0] != len(self.names):
            dur = np.asarray(self.ends, np.int64) - np.asarray(self.starts, np.int64)
            parents = np.asarray(self.parents, np.int64)
            child = np.zeros_like(dur)
            has_parent = parents >= 0
            np.add.at(child, parents[has_parent], dur[has_parent])
            self._tab = (len(self.names), np.asarray(self.names, dtype=object), dur, child)
        return self._tab[1:]

    def durations_ns(self, name: str) -> np.ndarray:
        names, dur, _ = self._table()
        return dur[names == name]

    def total_s(self, name: str) -> float:
        return float(self.durations_ns(name).sum()) * 1e-9

    def self_s(self, name: str) -> float:
        """Summed duration of ``name`` spans minus the part their direct
        children cover."""
        names, dur, child = self._table()
        mask = names == name
        return float((dur[mask] - child[mask]).sum()) * 1e-9

    def write(self, path) -> None:
        index: dict[str, int] = {}
        rows = [[index.setdefault(n, len(index)), s, e, p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_ns", "end_ns", "parent"],
                       "names": list(index), "spans": rows,
                       "counts": dict(self.counts)}, fh, separators=(",", ":"))

