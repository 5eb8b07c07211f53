"""The benchmark's own span recorder: spans around the calls into each layer.

Spans stay in memory and are written out as a Chrome trace when the run ends.
A span carries name, key (which program), start, end, the span that caused it
and the counts taken at that boundary.  Spans the program emits itself through
``repro.obs.trace.Trace`` are adopted as children of the benchmark span that
contains them.  A layer's self time is its span minus the part of it that its
children cover.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    key: str
    start: float  #: ``time.perf_counter()`` seconds
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    tid: int = 0
    leaf: bool = False  #: externally timed or adopted: never the parent of an adopted span

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []  # the benchmark drives every layer from one thread

    @contextmanager
    def span(self, name: str, key: str = "", **counts):
        sp = Span(len(self.spans), self._open[-1].id if self._open else None, name, str(key),
                  time.perf_counter(), counts=counts, tid=threading.get_ident())
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def add(
        self, name: str, start: float, end: float, parent: Optional[int], key: str = "", **counts
    ) -> None:
        """Record an externally timed span, e.g. one request among many in flight."""
        self.spans.append(Span(len(self.spans), parent, name, str(key), start, end, counts,
                               threading.get_ident(), leaf=True))

    def adopt(self, events: list, origin: float, within: Span) -> None:
        """Take the program's own complete events as children of ``within`` or a span under it.

        ``origin`` is the ``perf_counter`` value at which the program's trace began;
        the parent is the shortest benchmark span that contains the event.
        """
        ours = [s for s in self.spans[within.id :] if not s.leaf]
        for ev in events:
            if ev.get("ph") != "X":
                continue
            start = origin + ev["ts"] / 1e6
            end = start + ev["dur"] / 1e6
            holders = [s for s in ours if s.start <= start and end <= s.end + 1e-6]
            parent = min(holders, key=lambda s: s.seconds, default=within)
            counts = {k: v for k, v in ev.get("args", {}).items() if isinstance(v, (int, float))}
            self.spans.append(Span(len(self.spans), parent.id, ev["name"], parent.key, start, end,
                                   counts, ev["tid"], leaf=True))

    # -- reading the trace -------------------------------------------------------

    def shortest(self, name: str) -> dict:
        """Key -> seconds of the shortest span called ``name`` with that key."""
        out: dict = {}
        for s in self.spans:
            if s.name == name:
                out[s.key] = min(s.seconds, out.get(s.key, s.seconds))
        return out

    def best(self, name: str) -> float:
        """Seconds: the sum over keys of the shortest span called ``name``."""
        return sum(self.shortest(name).values())

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def count(self, name: str, what: str) -> float:
        """Sum over keys of count ``what`` on the last span called ``name`` with that key."""
        last = {s.key: s.counts[what] for s in self.spans if s.name == name and what in s.counts}
        return sum(last.values())

    def self_seconds(self) -> dict:
        """Span name -> summed self time (duration minus the interval its children cover)."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out = defaultdict(float)
        for s in self.spans:
            covered, edge = 0.0, s.start
            for a, b in sorted(children[s.id]):
                a, b = max(a, edge), min(b, s.end)
                if b > a:
                    covered += b - a
                    edge = b
            out[s.name] += s.seconds - covered
        return dict(out)

    def export_chrome(self, path: str) -> None:
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name, "cat": s.name.split(".")[0].split("/")[0], "ph": "X",
                "ts": (s.start - t0) * 1e6, "dur": s.seconds * 1e6, "pid": os.getpid(), "tid": s.tid,
                "args": {"id": s.id, "parent": s.parent, "key": s.key, **s.counts},
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
