"""Span tracing from outside the program: wrap layer entry points.

The program under test has no tracing of its own, so the benchmark
records spans by replacing each layer's public functions at the sites
that import them (``repro.apps.charmm.parallel.chaos_hash``,
``repro.core.api.gather``, ...) and a few public methods on their
classes (``Machine.charge_compute``, ``ScheduleCache.get_or_build``).
Each wrapper records one span: name, layer, start and end
(``perf_counter_ns``), parent span and op id.  Spans are kept in memory
and written out when the run ends.

Parents come from a per-thread stack, so spans recorded on a server
worker thread nest under the job span that thread adopted
(:meth:`Tracer.adopt`).  A layer's self time is a span's duration minus
the part of it that its children cover.
"""

from __future__ import annotations

import contextlib
import gzip
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, NamedTuple

#: every layer a span can belong to, in report order
LAYERS = ("apps", "inspector", "reuse", "executor", "plan", "sim",
          "partitioners", "lang", "serve")


class Span(NamedTuple):
    sid: int
    name: str      # metric stem, "<layer>.<what>"
    t0: int        # perf_counter_ns at entry
    t1: int        # perf_counter_ns at exit
    parent: int | None
    op: int | None
    count: int     # work count recorded at the boundary (refs, ...)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- per-thread context --------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _op(self) -> int | None:
        return getattr(self._local, "op", None)

    def new_id(self) -> int:
        return next(self._ids)

    def record(self, sid: int, name: str, t0: int, t1: int,
               parent: int | None, op: int | None, count: int = 0) -> None:
        self.spans.append(Span(sid, name, t0, t1, parent, op, count))

    @contextlib.contextmanager
    def op(self, name: str, op_id: int):
        """Root span of one op on the calling thread."""
        sid = self.new_id()
        stack = self._stack()
        prev_op = self._op()
        self._local.op = op_id
        stack.append(sid)
        t0 = perf_counter_ns()
        try:
            yield sid
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            self._local.op = prev_op
            self.record(sid, name, t0, t1, None, op_id)

    @contextlib.contextmanager
    def adopt(self, name: str, op_id: int, parent: int):
        """A span on this thread that nests under ``parent`` (recorded on
        another thread), so work handed to a worker joins its op's tree."""
        sid = self.new_id()
        saved = (getattr(self._local, "stack", None), self._op())
        self._local.stack = [sid]
        self._local.op = op_id
        t0 = perf_counter_ns()
        try:
            yield sid
        finally:
            t1 = perf_counter_ns()
            self._local.stack, self._local.op = saved
            self.record(sid, name, t0, t1, parent, op_id)

    # -- patching --------------------------------------------------------
    def wrap(self, owner, attr: str, name: str,
             counter: Callable | None = None,
             gauge: Callable | None = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``counter(args, kwargs)``, evaluated on entry, gives the span's
        work count (references hashed, plans compiled, ...).  A
        ``gauge(args, kwargs)`` is read on entry and on exit instead, and
        the span records the difference (messages sent, cache hits).
        """
        fn = getattr(owner, attr)
        self._patches.append((owner, attr, fn))
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            count = counter(args, kwargs) if counter else 0
            before = gauge(args, kwargs) if gauge else 0
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                if gauge:
                    count = gauge(args, kwargs) - before
                tracer.spans.append(
                    Span(sid, name, t0, t1, parent, tracer._op(), count))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", attr)
        setattr(owner, attr, traced)

    def unpatch(self) -> None:
        """Restore every wrapped attribute, most recent first."""
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    @contextlib.contextmanager
    def installed(self, sites):
        """Patch ``sites`` (``(owner, attr, name[, counter[, gauge]])``
        tuples) for the duration of the block."""
        try:
            for site in sites:
                self.wrap(*site)
            yield self
        finally:
            self.unpatch()

    # -- export ----------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span, gzipped, as one JSON array per line:
        ``[sid, name, t0_ns, t1_ns, parent, op, count]``."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time (ns) of each span: duration minus children's cover.

    Children of one parent never overlap (they run one after another on
    the parent's thread, or one job per op), so their cover is the sum
    of their durations clipped to the parent's interval.
    """
    by_id = {s.sid: s for s in spans}
    covered: dict[int, int] = defaultdict(int)
    for s in spans:
        p = by_id.get(s.parent)
        if p is not None:
            covered[p.sid] += min(s.t1, p.t1) - max(s.t0, p.t0)
    return {s.sid: (s.t1 - s.t0) - covered[s.sid] for s in spans}


def check_tree(spans: list[Span]) -> list[str]:
    """Well-formedness problems: a child outside its parent, a parent
    never recorded, a child in another op, a negative self time."""
    by_id = {s.sid: s for s in spans}
    problems = []
    for s in spans:
        if s.t1 < s.t0:
            problems.append(f"span {s.sid} {s.name} ends before it starts")
        if s.parent is None:
            continue
        p = by_id.get(s.parent)
        if p is None:
            problems.append(f"span {s.sid} {s.name}: parent {s.parent} "
                            "missing")
        elif s.t0 < p.t0 or s.t1 > p.t1:
            problems.append(f"span {s.sid} {s.name} lies outside parent "
                            f"{p.sid} {p.name}")
        elif s.op != p.op:
            problems.append(f"span {s.sid} {s.name} is in op {s.op}, its "
                            f"parent in op {p.op}")
    for sid, st in self_times(spans).items():
        if st < 0:
            problems.append(f"span {sid} {by_id[sid].name} has negative "
                            f"self time {st} ns")
    return problems


def per_op(spans: list[Span]) -> dict[int, dict]:
    """Per op: wall (root span), inclusive time per span name (outermost
    spans of a name only, so recursion is not counted twice), span
    counts and boundary counts per name, and self time per layer."""
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)
    ops: dict[int, dict] = {}

    def entry(op):
        return ops.setdefault(op, {
            "wall": 0, "root": None, "incl": defaultdict(int),
            "calls": defaultdict(int), "count": defaultdict(int),
            "self": defaultdict(int),
        })

    for s in spans:
        if s.op is None:
            continue
        e = entry(s.op)
        e["self"][s.layer] += selfs[s.sid]
        e["calls"][s.name] += 1
        e["count"][s.name] += s.count
        if s.parent is None:
            e["wall"] += s.t1 - s.t0
            e["root"] = s.name
            continue
        p = by_id.get(s.parent)
        outermost = True
        while p is not None:
            if p.name == s.name:
                outermost = False
                break
            p = by_id.get(p.parent)
        if outermost:
            e["incl"][s.name] += s.t1 - s.t0
    return ops
