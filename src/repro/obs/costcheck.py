"""Predicted-vs-measured cost attribution: does W' predict wall time?

The paper's cost model prices a run by ``(T', W')``; the Brent bound
(Proposition 3.2) predicts ``O(T' + W'/p)`` cycles.  Closing the loop
against wall-clock reality needs a *per-block* correlation, which the
profiler (:mod:`repro.obs.profile`) now measures: each plan entry has an
exact ``(T', W')`` attribution and a measured wall time.

This module fits the two-parameter linear kernel model

    ``wall ~ alpha * T' + beta * W'``

over the executed blocks (least squares via
:func:`repro.analysis.fit.linear_weights` — ``alpha`` prices per-instruction
dispatch, ``beta`` prices per-element vector work) and reports the
predicted-vs-measured table.  A high ``r2`` on vector-heavy programs is the
empirical footing for using ``W'`` as a wall-time proxy in the Brent
validation; low ``r2`` flags blocks whose constants the model misses
(e.g. guard-heavy kernels).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ..analysis.fit import format_table, linear_weights
from .profile import ProfileReport


@dataclass
class CostRow:
    """One executed plan entry: its attribution and the model's prediction."""

    entry: int
    kind: str
    first: int
    last: int
    hits: int
    time: int
    work: int
    wall_s: float
    predicted_s: float

    @property
    def ratio(self) -> float:
        """measured / predicted; 1.0 means the kernel model prices this block exactly."""
        return self.wall_s / self.predicted_s if self.predicted_s > 0 else float("inf")


@dataclass
class CostReport:
    """The fitted kernel weights plus the per-block predicted-vs-measured rows."""

    alpha_s: float  #: fitted seconds per T' unit (dispatch cost)
    beta_s: float  #: fitted seconds per W' unit (per-element vector cost)
    r2: float
    rows: list[CostRow]

    def table(self, limit: Optional[int] = None) -> str:
        """Predicted-vs-measured, hottest (by measured wall) first."""
        rows = sorted(self.rows, key=lambda r: r.wall_s, reverse=True)
        if limit is not None:
            rows = rows[:limit]
        body = [
            [
                r.entry,
                r.kind,
                f"{r.first}..{r.last}" if r.last != r.first else str(r.first),
                r.hits,
                r.time,
                r.work,
                f"{r.wall_s * 1e3:.3f}",
                f"{r.predicted_s * 1e3:.3f}",
                f"{r.ratio:.2f}",
            ]
            for r in rows
        ]
        header = (
            f"cost model: wall ~ {self.alpha_s:.3e}*T' + {self.beta_s:.3e}*W'"
            f"  (r2={self.r2:.3f})\n"
        )
        return header + format_table(
            ["entry", "kind", "instrs", "hits", "T'", "W'", "wall_ms", "pred_ms", "meas/pred"],
            body,
        )

    def as_dict(self) -> dict:
        return {
            "alpha_s_per_t": self.alpha_s,
            "beta_s_per_w": self.beta_s,
            "r2": round(self.r2, 4),
        }


def cost_check(reports: Union[ProfileReport, Sequence[ProfileReport]]) -> CostReport:
    """Fit the kernel model over one or more profiled runs of the same program.

    Several reports (e.g. different inputs) fit jointly — more (T', W')
    spread makes ``alpha``/``beta`` identifiable.  Only executed entries
    participate.  With fewer than two executed entries the fit degenerates
    to attributing everything to ``beta`` (or ``alpha`` when W' is zero).
    """
    if isinstance(reports, ProfileReport):
        reports = [reports]
    executed = [b for r in reports for b in r.blocks if b.hits]
    if not executed:
        return CostReport(0.0, 0.0, 1.0, [])
    features = [[float(b.time), float(b.work)] for b in executed]
    targets = [b.wall_s for b in executed]
    if len(executed) >= 2:
        (alpha, beta), r2 = linear_weights(features, targets)
    else:
        b = executed[0]
        total_wall = b.wall_s
        if b.work:
            alpha, beta, r2 = 0.0, total_wall / b.work, 1.0
        else:
            alpha, beta, r2 = (total_wall / b.time if b.time else 0.0), 0.0, 1.0
    # a least-squares fit on collinear blocks can price one axis negative;
    # clamp for prediction so a "cheaper than free" block cannot appear
    a, bta = max(alpha, 0.0), max(beta, 0.0)
    rows = [
        CostRow(
            entry=blk.entry,
            kind=blk.kind,
            first=blk.first,
            last=blk.last,
            hits=blk.hits,
            time=blk.time,
            work=blk.work,
            wall_s=blk.wall_s,
            predicted_s=a * blk.time + bta * blk.work,
        )
        for blk in executed
    ]
    return CostReport(alpha, beta, r2, rows)
