"""Spans around the public functions of carmafield, for the traced run.

The tracer replaces module (or class) attributes with timing wrappers
while ``Tracer.installed()`` is active and restores every attribute on
exit, so the program code itself is never edited.  Callers inside the
package resolve these names through their module at call time, which is
why setting the attribute is enough.

A span is ``(name, start, end, parent index, operation id)``.  Spans are
kept in memory; ``write_spans`` dumps them when the benchmark ends.
Wrapper observers add exact counts (taken from arguments and public
return values) to a per-operation counter at the same boundary.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)
        self.op = -1
        self._stack = []

    def wrap(self, name, fn, observe=None):
        """Timing wrapper for ``fn``; ``observe(args, kwargs, result)``
        returns a dict of counts to add to the current operation."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if observe is not None:
                self.counts[self.op].update(observe(args, kwargs, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets):
        """Install wrappers for ``targets``: (owner, attribute, span name,
        observer or None).  Every attribute is restored on exit."""
        saved = []
        try:
            for owner, attr, name, observe in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, observe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def start_op(self, op):
        self.op = op


def self_times(spans):
    """Per-span self time: duration minus the time its children cover.

    Calls are nested on one thread, so children never overlap and the
    covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def summarize(spans, scales):
    """Totals per span name over the operations that ``scales`` maps to
    a time scale factor (each span's times are multiplied by it).

    Returns name -> {"calls", "total_s", "self_s"}, and the number of
    children of each name per parent name (key ``(parent, child)``).
    """
    selfs = self_times(spans)
    totals = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    nested = Counter()
    for (name, start, end, parent, op), own in zip(spans, selfs):
        if op not in scales:
            continue
        row = totals[name]
        row["calls"] += 1
        row["total_s"] += (end - start) * scales[op]
        row["self_s"] += own * scales[op]
        if parent >= 0:
            nested[(spans[parent][0], name)] += 1
    return totals, nested


def write_spans(spans, path):
    """One tab-separated line per span: name, start, end, parent, op."""
    with open(path, "w") as fh:
        fh.write("name\tstart\tend\tparent\top\n")
        for name, start, end, parent, op in spans:
            fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
