"""In-memory span tracer that wraps library functions from the outside.

The tracer replaces chosen attributes (module functions, class methods) with
wrappers that record one span per call: name, start, end, parent span and
the id of the benchmark operation it belongs to.  Nothing in the library is
edited; the wrappers are installed only while a traced operation runs and
the original attributes are restored afterwards, so untraced operations run
the unmodified code.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the parent span in Tracer.spans, -1 for a root
    op: object  # id of the benchmark operation the span belongs to
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of [start, end) covered by the union of ``intervals``."""
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start_ns, span.end_ns))
    return [
        s.duration_ns - covered_ns(s.start_ns, s.end_ns, children.get(i, ()))
        for i, s in enumerate(spans)
    ]


@dataclass
class Totals:
    """Aggregate of every span with one name."""

    calls: int = 0
    duration_ns: int = 0
    self_ns: int = 0
    outer_ns: int = 0  # duration of the spans not nested in a span of the same layer
    counts: Counter = field(default_factory=Counter)


def summarize(spans: list[Span], ops) -> dict[str, Totals]:
    """Per-name totals over the spans whose op id is in ``ops``."""
    wanted = set(ops)
    selfs = self_times(spans)
    out: dict[str, Totals] = {}
    for span, self_ns in zip(spans, selfs):
        if span.op not in wanted:
            continue
        t = out.setdefault(span.name, Totals())
        t.calls += 1
        t.duration_ns += span.duration_ns
        t.self_ns += self_ns
        if span.parent < 0 or spans[span.parent].layer != span.layer:
            t.outer_ns += span.duration_ns
        t.counts.update(span.counts)
    return out


class Call:
    """Arguments of one traced call, looked up by parameter name.

    Cheaper than ``inspect.Signature.bind``, which matters because counts
    are taken inside the parent span.
    """

    __slots__ = ("_params", "_args", "_kwargs")

    def __init__(self, params: dict, args: tuple, kwargs: dict):
        self._params = params
        self._args = args
        self._kwargs = kwargs

    def __getitem__(self, name: str):
        if name in self._kwargs:
            return self._kwargs[name]
        index, default = self._params[name]
        return self._args[index] if index < len(self._args) else default


class Tracer:
    """Records spans around registered call sites while an op is active.

    ``count(call, result)`` callbacks attach counts to a span, reading the
    arguments as ``call["name"]``; they run after the span's end time is
    taken, so their cost is not in the span.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._sites: list[tuple] = []
        self._saved: list[tuple] = []

    def site(self, owner, attr: str, name: str, count=None) -> None:
        """Register ``owner.attr`` to be traced under span name ``name``."""
        self._sites.append((owner, attr, name, count))

    @contextmanager
    def recording(self, op):
        """Install the wrappers and attribute spans to ``op`` until exit."""
        for owner, attr, name, count in self._sites:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))
        self.op = op
        try:
            yield self
        finally:
            self.op = None
            self._stack.clear()
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def _wrap(self, name: str, fn, count):
        tracer = self
        params = {} if count is None else {
            param: (i, spec.default)
            for i, (param, spec) in enumerate(inspect.signature(fn).parameters.items())
        }

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, 0, 0, parent, tracer.op)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start_ns = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = tracer.clock()
                tracer._stack.pop()
            if count is not None:
                span.counts = count(Call(params, args, kwargs), result)
            return result

        return traced

    def dump(self) -> list[list]:
        """Spans as JSON-ready rows: name, start_ns, end_ns, parent, op, counts."""
        return [[s.name, s.start_ns, s.end_ns, s.parent, s.op, s.counts] for s in self.spans]
