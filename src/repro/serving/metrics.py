"""Serving metrics: what an operator of the async front door watches.

One :class:`ServerMetrics` object per :class:`repro.serving.Server`.  All
updates happen on the event-loop thread (the scheduler observes batches
after the executor thread returns), so plain counters suffice — no atomics.

The latency reservoir keeps the most recent ``window`` request latencies;
p50/p99 are computed over that sliding window, which is the usual serving
convention (a quiet hour must not dilute the current tail).
"""

from __future__ import annotations

import time
from collections import Counter, deque
from typing import Optional


class ServerMetrics:
    """Counters, batch-size histogram and latency percentiles for a server."""

    def __init__(
        self,
        window: int = 8192,
        clock=time.perf_counter,
        rate_window_s: float = 30.0,
    ) -> None:
        self._clock = clock
        self.started_at = clock()
        #: trailing window requests_per_sec() is computed over (seconds)
        self.rate_window_s = rate_window_s
        #: requests accepted into a queue
        self.submitted = 0
        #: requests completed with a value
        self.completed = 0
        #: requests completed with an exception (their own trap)
        self.failed = 0
        #: requests refused by backpressure (bounded queue full)
        self.rejected = 0
        #: requests refused by SLO admission control (predicted too expensive)
        self.admission_rejected = 0
        #: requests routed to an isolation lane by SLO admission control
        self.admission_isolated = 0
        #: batches executed
        self.batches = 0
        #: current number of queued-but-not-yet-executing requests
        self.queue_depth = 0
        #: batch size -> number of batches of that size
        self.batch_sizes: Counter[int] = Counter()
        self._latencies: deque[float] = deque(maxlen=window)
        #: whole second -> completions in it, for the seconds that reach into
        #: the trailing rate window: one entry per second, not per request
        self._completions: Counter[int] = Counter()

    # -- recording (called by the scheduler) --------------------------------

    def observe_batch(self, size: int) -> None:
        self.batches += 1
        self.batch_sizes[size] += 1

    def observe_request(self, latency_s: float, ok: bool) -> None:
        if ok:
            self.completed += 1
        else:
            self.failed += 1
        self._latencies.append(latency_s)
        now = self._clock()
        if int(now) not in self._completions:  # a new second: old ones may have left
            self._evict_completions(now)
        self._completions[int(now)] += 1

    def _evict_completions(self, now: float) -> None:
        cutoff = now - self.rate_window_s
        for second in [s for s in self._completions if s + 1 <= cutoff]:
            del self._completions[second]

    # -- derived views -------------------------------------------------------

    def latency_percentile(self, p: float) -> Optional[float]:
        """The ``p``-th latency percentile (seconds) over the window.

        Nearest-rank on the sorted window; ``None`` before the first
        completion.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._latencies:
            return None
        ordered = sorted(self._latencies)
        rank = max(0, min(len(ordered) - 1, round(p / 100.0 * (len(ordered) - 1))))
        return ordered[rank]

    @property
    def p50_latency_s(self) -> Optional[float]:
        return self.latency_percentile(50.0)

    @property
    def p99_latency_s(self) -> Optional[float]:
        return self.latency_percentile(99.0)

    @property
    def mean_batch_size(self) -> float:
        return (self.completed + self.failed) / self.batches if self.batches else 0.0

    def requests_per_sec(self) -> float:
        """Finished requests (values + traps) per second, over the trailing window.

        Windowed like the latency reservoir, and for the same reason: the
        lifetime average dilutes toward zero after any idle period, so it
        says nothing about the *current* rate.  The divisor is capped at the
        server's actual age, so a young server isn't under-reported — but
        never below one second: right after startup the age can be
        microseconds, and dividing a single completion by it reported
        absurd six-figure rates (one request 50µs after start is not
        20,000 req/s).  A sub-second-old server, or a window holding a
        single completion, therefore reports at most ``n`` req/s.  The
        lifetime figure survives as :meth:`lifetime_requests_per_sec`.
        """
        now = self._clock()
        self._evict_completions(now)
        n = sum(self._completions.values())
        if n == 0:
            return 0.0
        elapsed = min(self.rate_window_s, now - self.started_at)
        if n == 1 or elapsed < 1.0:
            elapsed = max(elapsed, 1.0)
        return n / elapsed

    def lifetime_requests_per_sec(self) -> float:
        """Finished requests (values + traps) per second of server lifetime."""
        elapsed = self._clock() - self.started_at
        return (self.completed + self.failed) / elapsed if elapsed > 0 else 0.0

    def snapshot(self) -> dict:
        """A JSON-able view of everything above (the monitoring endpoint)."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "admission_rejected": self.admission_rejected,
            "admission_isolated": self.admission_isolated,
            "batches": self.batches,
            "queue_depth": self.queue_depth,
            "batch_size_hist": dict(sorted(self.batch_sizes.items())),
            "mean_batch_size": round(self.mean_batch_size, 2),
            "p50_latency_s": self.p50_latency_s,
            "p99_latency_s": self.p99_latency_s,
            "requests_per_sec": round(self.requests_per_sec(), 1),
            "lifetime_requests_per_sec": round(self.lifetime_requests_per_sec(), 1),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ServerMetrics({self.snapshot()!r})"
