"""Spans around calls into pvcosim, recorded from outside the package.

The tracer replaces module attributes with timing wrappers and puts the
originals back on ``restore``. It wraps the names that callers look up
at call time (``coupler`` and ``driver`` bind their collaborators with
``from ... import``), so a wrapper on the defining module alone would
see none of the calls.

Each span holds its name, start, end, parent span and case id. Spans
opened on a worker thread with no open span of their own take the
span open on the main thread as parent: cases run serially and the
main thread waits inside that span while the pool works, so it is the
span whose interval contains them.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# Spans whose self time belongs to each layer; "case" spans belong to the
# caller that runs the case (the driver, or the benchmark itself).
LAYERS = ("network", "feeder", "transmission", "coupler", "unified", "driver")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    case: int | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.samples: defaultdict[str, list] = defaultdict(list)
        self.case: int | None = None
        self._ids = itertools.count()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def sample(self, name: str, value) -> None:
        """Record one value of ``name``; safe to call from pool threads."""
        with self._lock:
            self.samples[name].append(value)

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        case = self.case
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, case))

    def patch(self, module, attr: str, replacement) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def wrap(self, module, attr: str, name: str, on_result=None) -> None:
        """Time every call made through ``module.attr`` as span ``name``.

        A name the module no longer has is skipped, so its counts read 0.
        """
        original = getattr(module, attr, None)
        if original is None:
            return

        def wrapper(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        self.patch(module, attr, wrapper)

    def count(self, module, attr: str, counter: str) -> None:
        """Count calls made through ``module.attr`` without a span; a
        missing name is skipped like in ``wrap``."""
        original = getattr(module, attr, None)
        if original is None:
            return

        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return original(*args, **kwargs)

        self.patch(module, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def take(self) -> tuple[list[Span], Counter, dict[str, list]]:
        """Hand over what was recorded since the last call and start afresh."""
        out = (self.spans, self.counts, dict(self.samples))
        self.spans, self.counts, self.samples = [], Counter(), defaultdict(list)
        return out


def _fair_shares(children: list[Span], lo: float, hi: float) -> dict[int, float]:
    """Wall time of ``[lo, hi]`` held by each child; children running at
    the same moment share that moment equally."""
    edges = sorted({lo, hi} | {min(max(t, lo), hi) for c in children for t in (c.start, c.end)})
    share = dict.fromkeys((c.id for c in children), 0.0)
    for a, b in zip(edges, edges[1:]):
        active = [c.id for c in children if c.start <= a and c.end >= b]
        for cid in active:
            share[cid] += (b - a) / len(active)
    return share


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> wall time spent in the span itself rather than in its
    traced callees.

    A span's own time is its duration minus the union of its children's
    intervals. Pool threads overlap, so a child's wall time is its fair
    share of the parent's interval, and the self times inside one case
    add up to the case's duration.
    """
    by_id = {s.id: s for s in spans}
    children: defaultdict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent in by_id:
            children[s.parent].append(s)
    scale: dict[int, float] = {}
    own: dict[int, float] = {}
    # A parent starts before its children, and ids grow with start order.
    for s in sorted(spans, key=lambda s: (s.start, s.id)):
        f = scale.get(s.id, 1.0)
        shares = _fair_shares(children.get(s.id, []), s.start, s.end)
        own[s.id] = f * ((s.end - s.start) - sum(shares.values()))
        for cid, share in shares.items():
            c = by_id[cid]
            scale[cid] = f * share / (c.end - c.start) if c.end > c.start else 0.0
    return own


def summarize(spans: list[Span]) -> dict:
    """Per-name call counts, busy time (summed over threads), median
    duration and self time, plus the self time each layer holds inside
    cases."""
    own = self_times(spans)
    by_name: defaultdict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    names = {
        name: {
            "calls": len(group),
            "busy_s": sum(s.end - s.start for s in group),
            "ms_p50": statistics.median((s.end - s.start) * 1e3 for s in group),
            "self_s": sum(own[s.id] for s in group),
        }
        for name, group in by_name.items()
    }
    layer_self = Counter()
    case_s = covered_s = 0.0
    for s in spans:
        if s.case is None:
            continue
        layer_self[s.name.split(".", 1)[0]] += own[s.id]
        if s.name.endswith(".case"):
            case_s += s.end - s.start
        else:
            covered_s += own[s.id]
    return {
        "names": names,
        "case_s": case_s,
        "covered_s": covered_s,
        "layer_self_s": {layer: layer_self[layer] for layer in LAYERS},
    }
