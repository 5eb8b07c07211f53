"""Admission control for the serving scheduler: price a request before it queues.

The paper's cost model makes serving *predictable*: a batch's ``T'`` is the
max over its requests (batching is one more segment level, Theorem 7.1)
while ``W'`` sums, so the wall time of one batched run is a per-batch term
plus a term linear in the data it carries.  A :class:`LaneController` per
program lane fits exactly that,

    ``wall ~ a + b * sum(request_size)``

over a bounded window of the batches the scheduler has already timed (``a``
is the ``alpha*T'`` depth term, ``b*size`` the ``beta*W'`` term), and prices
each arrival as a lone request.  One predicted to blow
``SLOConfig.target_p99_ms`` on its own — or ``admit_factor`` times costlier
than the lane's typical request, which would stretch every co-batched
sibling's ``T' = max`` — is **rejected** (:class:`AdmissionRejected`) or
**lane-isolated** (run in a separate lane so siblings keep their latency),
per ``SLOConfig.mode``.

Everything here is event-loop-side bookkeeping on plain floats: no profile
run, no timer, and nothing to tune — the lane itself is work-conserving
(:mod:`repro.serving.scheduler`), so batch size follows load without a
controller.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from ..nsc.values import Value

#: batches the fit looks back over; old traffic ages out, the fit stays cheap
_FIT_WINDOW = 64


class AdmissionRejected(RuntimeError):
    """SLO admission control refused the request (predicted too expensive)."""


@dataclass(frozen=True)
class SLOConfig:
    """Declarative SLO for a :class:`repro.serving.Server`.

    ``target_p99_ms``
        The latency objective: a request predicted to take longer than this
        on its own is expensive.
    ``mode``
        What happens to a predicted-expensive request: ``"reject"`` raises
        :class:`AdmissionRejected` at submit time, ``"isolate"`` accepts it
        but runs it in a per-program isolation lane so ordinary requests
        never share its batch.
    ``admit_factor``
        Outlier threshold: a request predicted more than this many times the
        lane's mean request is expensive (it would stretch the whole batch,
        ``T' = max``).
    """

    target_p99_ms: float
    mode: str = "reject"
    admit_factor: float = 16.0

    def __post_init__(self) -> None:
        if self.target_p99_ms <= 0:
            raise ValueError(f"target_p99_ms must be positive, got {self.target_p99_ms}")
        if self.mode not in ("reject", "isolate"):
            raise ValueError(f"mode must be 'reject' or 'isolate', got {self.mode!r}")
        if self.admit_factor < 1.0:
            raise ValueError(f"admit_factor must be >= 1, got {self.admit_factor}")


def request_size(value: object) -> float:
    """The unit-cost size of one request: ``from_python(value).size``, no tree built.

    The same number whether the request arrives as an S-object or as plain
    Python data — a ``k``-tuple is ``k - 1`` pair nodes, a ``bool`` is an
    injection of ``()`` — so a lane fed both forms fits one unit.  Walks the
    data level by level (deep nesting cannot overflow the recursion limit)
    and counts a level that holds only ``int`` with one ``len``.  Data no
    S-object spells counts one unit per node: it fails later, at encode.
    """
    total = 0
    level = [value]
    while level:
        if set(map(type, level)) == {int}:
            total += len(level)
            break
        below: list = []
        for v in level:
            if isinstance(v, Value):
                total += v.size
            elif isinstance(v, bool):
                total += 2
            elif isinstance(v, list):
                total += 1
                below += v
            elif isinstance(v, tuple):
                total += max(len(v) - 1, 1)
                below += v
            else:
                total += 1
        level = below
    return float(total)


class LaneController:
    """Per-lane admission state: the live fit ``wall ~ a + b * sum(size)``.

    The scheduler sizes a request once, at submit (:func:`request_size`),
    calls :meth:`classify` with that size and :meth:`note_batch` with the
    sizes' sum after each batch whose requests all returned values (a batch
    that hit the per-input trap loop is not what a request costs).
    All of it runs on the event-loop thread, in constant time per call: the
    two-parameter least squares is closed-form over five running sums.
    """

    def __init__(self, cfg: SLOConfig) -> None:
        self.cfg = cfg
        #: per timed batch: 1, requests, x = sum of their sizes, y = wall
        #: seconds, x*x, x*y — and the column sums over the window
        self._batches: deque[tuple[float, ...]] = deque()
        self._sums = [0.0] * 6
        self._warm = False
        self.base_s = 0.0  #: ``a``: seconds per batch, whatever it carries
        self.per_size_s = 0.0  #: ``b``: seconds per unit of request size
        self.mean_size = 1.0  #: the lane's typical request, the outlier yardstick

    def note_batch(self, count: int, total_size: float, wall_s: float) -> None:
        """Record one timed batch and refit."""
        if not self._warm:
            # a lane's first batch pays the lazy plan build: that wall
            # is not what a request costs
            self._warm = True
            return
        row = (1.0, count, total_size, wall_s, total_size * total_size, total_size * wall_s)
        self._batches.append(row)
        self._sums = [s + t for s, t in zip(self._sums, row)]
        if len(self._batches) > _FIT_WINDOW:
            self._sums = [s - t for s, t in zip(self._sums, self._batches.popleft())]
        n, requests, sx, sy, sxx, sxy = self._sums
        det = n * sxx - sx * sx  # n^2 * var(x): zero when every total is equal
        b = (n * sxy - sx * sy) / det if det > 1e-9 * n * sxx else 0.0
        if b > 0.0:
            a = (sy - b * sx) / n
        else:
            # Equal-size batches (or timer noise) cannot separate the two
            # terms, and with b <= 0 a prediction would never grow with the
            # request: price the whole measured wall on size instead, so a
            # large request is over-, never under-predicted.
            a, b = 0.0, sy / max(sx, 1.0)
        self.base_s, self.per_size_s = max(a, 0.0), b
        self.mean_size = max(sx / requests, 1.0)

    def predict_request_s(self, size: float) -> Optional[float]:
        """Predicted wall seconds for a request of :func:`request_size` ``size`` run alone.

        ``None`` until two warm batches have been timed: one sample is one
        host hiccup away from refusing a lane's whole traffic.
        """
        if len(self._batches) < 2:
            return None
        return self.base_s + self.per_size_s * size

    def classify(self, size: float) -> Optional[str]:
        """``None`` to admit a request of ``size`` normally, else the configured expensive-mode.

        Expensive = predicted solo wall over the SLO target (it cannot meet
        the target even alone), or over ``admit_factor`` times the lane's
        mean request (it would stretch every sibling, ``T' = max``).
        """
        pred = self.predict_request_s(size)
        if pred is None:
            return None
        baseline = self.base_s + self.per_size_s * self.mean_size
        limit = min(self.cfg.target_p99_ms / 1000.0, self.cfg.admit_factor * baseline)
        return self.cfg.mode if pred > limit else None

    def snapshot(self) -> dict:
        """JSON-able controller state for the metrics endpoint."""
        return {
            "base_s": self.base_s,
            "per_size_s": self.per_size_s,
            "mean_size": self.mean_size,
            "batches": len(self._batches),
        }
