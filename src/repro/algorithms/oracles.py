"""Plain-Python reference implementations (oracles).

Used by the tests and benchmarks to check that the NSC / NSA / SA / BVRAM
programs compute the right answers; none of these carry cost models.
"""

from __future__ import annotations

from typing import Sequence


def merge(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Stable two-way merge with the paper's tie convention (B-ties first)."""
    out: list[int] = []
    i = j = 0
    while i < len(a) and j < len(b):
        if b[j] <= a[i]:
            out.append(b[j])
            j += 1
        else:
            out.append(a[i])
            i += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


def mergesort(values: Sequence[int]) -> list[int]:
    """Reference sort."""
    return sorted(values)


def rank_one(a: int, bs: Sequence[int]) -> int:
    """Number of elements of ``bs`` that are <= ``a``."""
    return sum(1 for b in bs if b <= a)


def direct_rank(a: Sequence[int], b: Sequence[int]) -> list[int]:
    return [rank_one(x, b) for x in a]


def index(c: Sequence[int], positions: Sequence[int]) -> list[int]:
    """``[c[i] for i in positions]`` (positions sorted, may repeat)."""
    return [c[i] for i in positions]


def indexsplit(c: Sequence, positions: Sequence[int]) -> list[list]:
    """Split ``c`` at the sorted positions, yielding ``len(positions)+1`` groups."""
    out = []
    prev = 0
    for p in positions:
        out.append(list(c[prev:p]))
        prev = p
    out.append(list(c[prev:]))
    return out


def bm_route(data: Sequence, counts: Sequence[int]) -> list:
    """Replicate ``data[i]`` exactly ``counts[i]`` times (bounded monotone routing)."""
    out = []
    for value, count in zip(data, counts):
        out.extend([value] * count)
    return out


def sbm_route(data: Sequence, data_segments: Sequence[int], counts: Sequence[int]) -> list:
    """Segmented bounded monotone routing (Section 2).

    ``data`` is a flat sequence whose consecutive segments have lengths
    ``data_segments``; segment ``i`` is replicated ``counts[i]`` times.
    """
    if len(data_segments) != len(counts):
        raise ValueError("segment descriptor and counts must have the same length")
    out = []
    pos = 0
    for seg_len, count in zip(data_segments, counts):
        segment = list(data[pos : pos + seg_len])
        pos += seg_len
        for _ in range(count):
            out.extend(segment)
    return out


def pack_nonzero(values: Sequence[int]) -> list[int]:
    """The BVRAM selection instruction: keep the non-zero values, packed."""
    return [v for v in values if v != 0]
