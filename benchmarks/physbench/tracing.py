"""Spans recorded around calls into physlp, from outside the library.

A Tracer replaces module attributes (the names a caller looks up at
call time) with timing wrappers, so the real code path runs unmodified.
Every call becomes a span [name, start, end, parent, op]: parent is the
index of the span that was open when the call started and op is the id
of the benchmark op it belongs to (None outside ops, e.g. during
set-up).  Spans stay in memory; self times are computed once at the end.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Records nested spans and per-op counters for wrapped callables."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.op = None
        self.missing = []
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][END] = time.perf_counter()

    @contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def count(self, key, amount=1.0):
        """Add to a counter; counters only accumulate inside ops."""
        if self.op is not None:
            self.counts[key] += amount

    def wrap(self, fn, name, on_result=None, on_error=None):
        """Timing wrapper around fn; hooks see (tracer, args, kwargs, x)."""

        def traced(*args, **kwargs):
            self._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self._close()
                if on_error is not None:
                    on_error(self, args, kwargs, exc)
                raise
            self._close()
            if on_result is not None:
                on_result(self, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap every (module, attr, name, on_result, on_error) target for
        the duration of the block and put the originals back afterwards,
        also when the block raises.  Targets whose attribute does not
        exist are skipped and listed in self.missing."""
        saved = []
        try:
            for module, attr, name, on_result, on_error in targets:
                if not hasattr(module, attr):
                    self.missing.append(f"{module.__name__}.{attr}")
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, on_result, on_error))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path):
        """Write all spans as JSON lines, once, at the end of a run."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _covered(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return [span[END] - span[START] - _covered(children[i], span[START], span[END])
            for i, span in enumerate(spans)]


def totals(spans, in_ops=True):
    """Per span name: (calls, total seconds, total self seconds).

    in_ops=True keeps only spans recorded inside a benchmark op."""
    own = self_times(spans)
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for span, self_s in zip(spans, own):
        if in_ops and span[OP] is None:
            continue
        row = out[span[NAME]]
        row[0] += 1
        row[1] += span[END] - span[START]
        row[2] += self_s
    return out
