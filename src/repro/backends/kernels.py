"""The per-op vector kernels and overflow guards, shared by every backend.

One definition per BVRAM operation, used by the traced interpreter loop, the
per-op closure table the ``fused`` superinstructions group, and the
generated code of the ``vector`` backend.  They sit below the machine so the
backends can import them without a cycle (``bvram.errors <- backends.kernels
<- bvram.machine``).

Semantics are exactly the Section 2 machine's:

* registers hold **naturals below 2**63** in int64 vectors; ``+`` and ``*``
  trap (:class:`~repro.bvram.errors.BVRAMError`) on overflow, detected
  exactly (a wrapped natural shows up negative / fails the widening check);
* ``-`` is monus, ``/`` and ``mod`` trap on zero divisors, ``>>`` saturates
  the mathematically-zero shifts numpy leaves undefined;
* the segmented ops validate their descriptors and trap with the same
  messages in every backend — error paths are part of the bit-identical
  contract the differential battery pins.

The ``*_nooverflow`` variants at the bottom are for callers that have
*proved* the partial sums fit (the vector backend's interval bounds): they
keep every descriptor check but skip the cumsum monotonicity scan.  Feeding
them sums that can wrap is a correctness bug, not a slow path.
"""

from __future__ import annotations

import numpy as np

from ..bvram.errors import BVRAMError

#: registers hold naturals strictly below this (signed int64 width)
INT64_LIMIT = 2**63


def arith_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.size == 0:
        return a + b
    # fast path: the sum of the operand maxima fits, so no entry can wrap
    if int(a.max()) + int(b.max()) < INT64_LIMIT:
        return a + b
    with np.errstate(over="ignore"):
        c = a + b
    # registers hold naturals < 2**63, so a wrapped sum is exactly a
    # negative signed result
    if int(c.min()) < 0:
        raise BVRAMError("overflow in +: result exceeds the int64 register width")
    return c


def arith_sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum(a - b, 0)  # monus


def arith_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.size == 0:
        return a * b
    # fast path: the product of the operand maxima fits, so no entry can wrap
    if int(a.max()) * int(b.max()) < INT64_LIMIT:
        return a * b
    with np.errstate(over="ignore"):
        c = a * b
    # widening check: a wrapped product either goes negative or fails to
    # divide back (c = a*b - k*2**64 with k >= 1 can never reach a*b)
    if int(c.min()) < 0 or bool(
        np.any(c // np.where(a == 0, 1, a) != np.where(a == 0, c, b))
    ):
        raise BVRAMError("overflow in *: result exceeds the int64 register width")
    return c


def arith_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if np.any(b == 0):
        raise BVRAMError("division by zero")
    return a // b


def arith_mod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if np.any(b == 0):
        raise BVRAMError("modulo by zero")
    return a % b


def arith_shr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # numpy shifts by >= 64 bits are undefined behaviour; mathematically
    # floor(a / 2**b) = 0 for any natural a < 2**63 once b >= 63
    return np.where(b >= 63, 0, a >> np.minimum(b, 62))


#: per-op binary kernels, shared by every backend's emission of ``arith``
ARITH_KERNELS = {
    "+": arith_add,
    "-": arith_sub,
    "*": arith_mul,
    "/": arith_div,
    "mod": arith_mod,
    ">>": arith_shr,
    "min": np.minimum,
    "max": np.maximum,
    "eq": lambda a, b: (a == b).astype(np.int64),
    "le": lambda a, b: (a <= b).astype(np.int64),
    "lt": lambda a, b: (a < b).astype(np.int64),
}


def arith(op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    fn = ARITH_KERNELS.get(op)
    if fn is None:
        raise BVRAMError(f"unknown arithmetic op {op!r}")
    if a.shape != b.shape:
        raise BVRAMError(f"arith {op}: operands have different lengths {a.size} and {b.size}")
    return fn(a, b)


def un_arith(op: str, a: np.ndarray) -> np.ndarray:
    if op == "log2":
        # floor(log2(a)); log2(0) = 0 by the NSC convention
        out = np.zeros_like(a)
        pos = a > 0
        if pos.any():
            out[pos] = np.floor(np.log2(a[pos])).astype(np.int64)
            # float rounding near powers of two: fix up exactly.  A natural
            # < 2**63 has floor(log2) <= 62, so out >= 63 (np.log2(2**63 - 1)
            # rounds to exactly 63.0) is always one too big.
            too_big = pos & ((out >= 63) | ((np.int64(1) << np.minimum(out, 62)) > a))
            out[too_big] -= 1
        return out
    if op == "sqrt":
        out = np.sqrt(a.astype(np.float64)).astype(np.int64)
        # isqrt semantics: largest k with k*k <= a (fix float rounding)
        out = np.where(out * out > a, out - 1, out)
        out = np.where((out + 1) * (out + 1) <= a, out + 1, out)
        return out
    raise BVRAMError(f"unknown unary arithmetic op {op!r}")


def flag_merge_vec(flags: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Order-preserving merge of ``a``/``b`` routed by the non-zero flags."""
    n_true = int(np.count_nonzero(flags))
    if a.size != n_true:
        raise BVRAMError(
            f"flag_merge: {n_true} non-zero flags but the true-branch register has length {a.size}"
        )
    if a.size + b.size != flags.size:
        raise BVRAMError(
            f"flag_merge: flags have length {flags.size} but the branches "
            f"have total length {a.size + b.size}"
        )
    out = np.empty(flags.size, dtype=np.int64)
    mask = flags != 0
    out[mask] = a
    out[~mask] = b
    return out


def check_segments(data: np.ndarray, segments: np.ndarray, opcode: str) -> None:
    if segments.size and int(segments.min()) < 0:
        raise BVRAMError(f"{opcode}: segment descriptor holds negative lengths")
    if int(segments.sum()) != data.size:
        raise BVRAMError(
            f"{opcode}: segment descriptor sums to {int(segments.sum())} "
            f"but the data register has length {data.size}"
        )


def checked_cumsum(data: np.ndarray, opcode: str) -> np.ndarray:
    """Inclusive int64 cumsum of naturals, trapping on overflow.

    Addends are < 2**63, so a wrapped partial sum shows up as a *decrease*
    (the new value is the true one minus 2**64) — monotonicity is an exact
    overflow test, matching the BVRAMError that ``arith +`` raises.
    """
    with np.errstate(over="ignore"):
        cs = np.cumsum(data)
    if cs.size and (int(cs[0]) < 0 or bool(np.any(cs[1:] < cs[:-1]))):
        raise BVRAMError(f"overflow in {opcode}: partial sum exceeds the int64 register width")
    return cs


def _seg_scan_add(cs: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Exclusive segmented prefix sums from the inclusive cumsum ``cs``."""
    running = np.concatenate([[0], cs[:-1]])
    starts = np.cumsum(segments) - segments  # first data index of each segment
    nonempty = segments > 0
    base = np.repeat(running[starts[nonempty]], segments[nonempty])
    return running - base


def seg_scan_vec(op: str, data: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Exclusive per-segment scan (identity 0) of ``data`` under ``segments``."""
    check_segments(data, segments, "seg_scan")
    if data.size == 0:
        return np.zeros(0, dtype=np.int64)
    if op == "+":
        return _seg_scan_add(checked_cumsum(data, "seg_scan +"), segments)
    if op == "max":
        # Exclusive running max per segment: the one kernel that still loops
        # over segments (the strict xfail of tests/test_kernels.py).  Kept on
        # measurement, ms on 100 000 segments of 3 / one segment of 300 000:
        # this loop 87 / 2.7; ranks by stable argsort + one accumulate
        # 45 / 43; log-step doubling 6.4 / 21; a per-segment offset 5.5 / 4.1,
        # valid only while (max + 1) * segments < 2**63, so with this loop
        # kept as a second path.  None matches it on one long segment, and
        # flatten.py emits seg_scan("+") only.
        out = np.zeros(data.size, dtype=np.int64)
        pos = 0
        for seg_len in segments.tolist():
            if seg_len:
                seg = data[pos : pos + seg_len]
                if seg_len > 1:
                    out[pos + 1 : pos + seg_len] = np.maximum.accumulate(seg[:-1])
                pos += seg_len
        return out
    raise BVRAMError(f"unknown segmented op {op!r}")


def seg_reduce_vec(op: str, data: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Per-segment reduction of ``data`` under ``segments`` (identity 0)."""
    check_segments(data, segments, "seg_reduce")
    if segments.size == 0:
        return np.zeros(0, dtype=np.int64)
    if op == "+":
        if data.size == 0:
            return np.zeros(segments.size, dtype=np.int64)
        total = np.concatenate([[0], checked_cumsum(data, "seg_reduce +")])
        ends = np.cumsum(segments)
        return (total[ends] - total[ends - segments]).astype(np.int64)
    if op == "max":
        out = np.zeros(segments.size, dtype=np.int64)
        if data.size:
            ids = np.repeat(np.arange(segments.size), segments)
            np.maximum.at(out, ids, data)
        return out
    raise BVRAMError(f"unknown segmented op {op!r}")


def seg_scan_add_nooverflow(data: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """``seg_scan_vec('+', ...)`` for callers that proved the sums fit."""
    check_segments(data, segments, "seg_scan")
    if data.size == 0:
        return np.zeros(0, dtype=np.int64)
    return _seg_scan_add(np.cumsum(data), segments)


def seg_reduce_add_nooverflow(data: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """``seg_reduce_vec('+', ...)`` for callers that proved the sums fit."""
    check_segments(data, segments, "seg_reduce")
    if segments.size == 0:
        return np.zeros(0, dtype=np.int64)
    if data.size == 0:
        return np.zeros(segments.size, dtype=np.int64)
    total = np.concatenate([[0], np.cumsum(data)])
    ends = np.cumsum(segments)
    return (total[ends] - total[ends - segments]).astype(np.int64)


def bm_route_vec(data: np.ndarray, counts: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Bounded monotone routing on vectors (the semantics of the instruction).

    Precondition: ``counts`` holds naturals.  Every register does — loads,
    constants and ingest refuse a negative and ``-`` is monus
    (``tests/test_kernels.py``) — so it is not re-checked on every route.
    """
    if data.size != counts.size:
        raise BVRAMError("bm_route: data and counts must have the same length")
    if int(counts.sum()) != bound.size:
        raise BVRAMError("bm_route: counts must sum to the length of the bound register")
    return np.repeat(data, counts)


def sbm_route_vec(
    bound: np.ndarray, counts: np.ndarray, data: np.ndarray, segments: np.ndarray
) -> np.ndarray:
    """Segmented bounded monotone routing on vectors.

    Segment ``i`` of ``data`` (lengths in ``segments``) is written
    ``counts[i]`` times.  One gather, whatever the segment count: the
    compiler broadcasts a ``map``'s closure with an all-ones descriptor, one
    segment per element, so a per-segment Python loop would be a per-element
    one (``tests/test_kernels.py`` pins the call count).

    Precondition, as for :func:`bm_route_vec`: both descriptors hold naturals.
    """
    if counts.size != segments.size:
        raise BVRAMError("sbm_route: counts and segment descriptor must have the same length")
    src = segments.cumsum()  # segment ends; their starts once the sum is checked
    if (int(src[-1]) if src.size else 0) != data.size:
        raise BVRAMError("sbm_route: segment descriptor must sum to the data length")
    lens = segments.repeat(counts)  # length of every copy written, in output order
    # The bound pair (bound, counts) must itself be a nested sequence, i.e.
    # the counts describe a segmentation of the bound register.  This is the
    # restriction that keeps a single instruction from growing the data by
    # more than the product of two register lengths (Section 2).
    if bound.size != lens.size:
        raise BVRAMError(
            f"sbm_route: bound register has length {bound.size}, expected sum(counts) = {lens.size}"
        )
    if lens.size == 0:
        return np.zeros(0, dtype=np.int64)
    # output position j inside a copy reads data[j - shift], shift = where
    # the copy starts in the output minus where its segment starts in data
    src -= segments
    shift = lens.cumsum()
    index = np.arange(int(shift[-1]))
    shift -= lens
    shift -= src.repeat(counts)
    index -= shift.repeat(lens)
    return data[index]
