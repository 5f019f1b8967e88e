"""Span tracing of the package's layers, installed from outside the package.

A span is recorded at each call into a public function of a layer module:
its function, start, end, parent span and whether it raised.  Spans are kept
in flat arrays in memory and written out once, after the timed loop.  The
package itself is not modified; the tracer replaces module attributes, and
because ``from ... import`` copies a function into the importing module, each
such binding gets the wrapper too.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import types
from array import array

LAYERS = (
    "cli",
    "families",
    "sums",
    "constructions",
    "search",
    "events",
    "exterior",
    "spaces",
    "certificates",
)

# Helpers called once per pair, tuple, element or part.  A span costs about a
# microsecond, more than the work some of these do, so they are not wrapped
# and their time counts toward the calling function's self time.
UNTRACED = frozenset(
    {
        "cross_condition",
        "validate_tuple",
        "mask_of",
        "elements_of",
        "type_of",
        "factorial",
        "binomial",
        "multinomial",
        "tuple_weight",
        "vector",
    }
)


def _noop():
    return None


class Tracer:
    """Spans in flat arrays: span i has name labels[label[i]] and parent span parent[i] (-1 for none)."""

    def __init__(self):
        self.labels: list[str] = []
        self.label = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self._stack: list[int] = []

    def wrap(self, label: str, fn):
        """Return fn wrapped so that every call records one span named label."""
        label_id = len(self.labels)
        self.labels.append(label)
        span_label, parents, starts, ends, failed = self.label, self.parent, self.start, self.end, self.failed
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_label)
            span_label.append(label_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            failed.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self, package: str) -> int:
        """Wrap the traced functions of every layer under every module name bound to them.

        Returns the number of bindings replaced.
        """
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in UNTRACED
                ):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        modules = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
        bound = 0
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    bound += 1
        return bound

    def summary(self) -> tuple[dict[str, list], float]:
        """Per function [calls, self seconds, failed calls], and the total time of root spans.

        Self time is a span's duration minus the durations of its direct children.
        """
        n = len(self.label)
        child = [0.0] * n
        starts, ends, parents = self.start, self.end, self.parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        per = {label: [0, 0.0, 0] for label in self.labels}
        root = 0.0
        for i in range(n):
            dur = ends[i] - starts[i]
            row = per[self.labels[self.label[i]]]
            row[0] += 1
            row[1] += dur - child[i]
            row[2] += self.failed[i]
            if parents[i] < 0:
                root += dur
        return per, root

    def dump(self, path, origin: float) -> None:
        """Write every span as gzipped JSON columns, times in integer ns from origin.

        Columns are encoded one at a time to keep the peak memory to one column.
        """
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write('{"labels":' + json.dumps(self.labels))
            for key, column in (("label", self.label), ("parent", self.parent), ("failed", self.failed)):
                fh.write(f',"{key}":' + json.dumps(column.tolist()))
            for key, column in (("start_ns", self.start), ("end_ns", self.end)):
                fh.write(f',"{key}":' + json.dumps([round((t - origin) * 1e9) for t in column]))
            fh.write("}")


def span_cost(reps: int = 200_000) -> float:
    """Seconds one span adds to a call, from timing a wrapped and a bare no-op."""
    clock = time.perf_counter
    traced = Tracer().wrap("noop", _noop)
    best = float("inf")
    for _ in range(3):
        t0 = clock()
        for _ in range(reps):
            _noop()
        t1 = clock()
        for _ in range(reps):
            traced()
        t2 = clock()
        best = min(best, ((t2 - t1) - (t1 - t0)) / reps)
    return max(best, 0.0)
