"""Span recorder for the traced run, and the per-layer roll-up.

Spans are recorded only here, around the benchmark's own calls into
``ppovm``; nothing inside the library is instrumented.  A span holds its
name, start, end, parent span and job id.  Spans stay in memory until the
run ends and are then written out as JSON lines.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Calls straight through; used for every untraced job."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name, job=None):
        return nullcontext()

    def count(self, name, amount=1):
        pass


class Tracer:
    """Records one span per call, plus named counters."""

    def __init__(self, clock):
        self._clock = clock
        # [name, start, end, parent index or None, job id, raised]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._job = None

    def __call__(self, fn, *args, **kwargs):
        # <module>.<function>, without the package name
        with self.span(f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, job=None):
        if job is not None:
            outer, self._job = self._job, job
        parent = self._stack[-1] if self._stack else None
        rec = [name, self._clock(), 0.0, parent, self._job, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except BaseException:
            rec[5] = True
            raise
        finally:
            rec[2] = self._clock()
            self._stack.pop()
            if job is not None:
                self._job = outer

    def count(self, name, amount=1):
        self.counts[name] += amount

    def rollup(self):
        """Per span name: (calls, busy seconds); per module (the text
        before the first dot): (self seconds, errors).  Self time is span
        time minus the time of its direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls, busy = defaultdict(int), defaultdict(float)
        self_s, errors = defaultdict(float), defaultdict(int)
        for k, (name, start, end, _, _, raised) in enumerate(self.spans):
            module = name.partition(".")[0]
            calls[name] += 1
            busy[name] += end - start
            self_s[module] += end - start - child_time[k]
            errors[module] += raised
        return calls, busy, self_s, errors

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job, raised in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "job": job, "error": raised,
                }) + "\n")
