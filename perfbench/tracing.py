"""In-memory spans around calls into maxgain, recorded from outside the library.

A Recorder keeps one tuple per span: (name, start, end, parent index). Spans
are opened either by the benchmark's own code (`Recorder.span`) or by wrappers
that `Patches` installs on names inside maxgain's modules and on single stage
objects, and restores afterwards. Nothing under src/ changes. Self time of a
span is its duration minus the durations of its direct children.
"""

import contextlib
import time

_clock = time.perf_counter


class Recorder:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def clear(self):
        # in place: wrappers made earlier hold these very containers
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    @contextlib.contextmanager
    def span(self, name):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        t0 = _clock()
        try:
            yield
        finally:
            t1 = _clock()
            stack.pop()
            spans[idx] = (name, t0, t1, parent)

    def wrap(self, name, fn, after=None):
        """fn with a span around every call; after(args, kwargs, result) runs
        once the span has closed, so its cost is not charged to fn. The body
        repeats span() inline: a context manager per call would add about a
        microsecond to every traced call."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def durations(self, name, parent=None):
        """Durations of the spans called name (optionally only those whose
        direct parent is called parent), in the order they opened."""
        spans = self.spans
        return [s[2] - s[1] for s in spans
                if s[0] == name and (parent is None or (s[3] >= 0 and spans[s[3]][0] == parent))]

    def totals(self):
        """{name: (inclusive seconds, self seconds, calls)} over all spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for (name, t0, t1, _), c in zip(self.spans, child):
            inc, slf, n = out.get(name, (0.0, 0.0, 0))
            out[name] = (inc + (t1 - t0), slf + (t1 - t0 - c), n + 1)
        return out


class Patches:
    """Attribute replacements that are undone, last first, by restore()."""

    _MISSING = object()

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        old = vars(owner).get(name, self._MISSING)
        self._undo.append((owner, name, old))
        setattr(owner, name, value)

    def wrap(self, rec, owner, attr, span_name, after=None):
        self.set(owner, attr, rec.wrap(span_name, getattr(owner, attr), after))

    def restore(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            if old is self._MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, old)
