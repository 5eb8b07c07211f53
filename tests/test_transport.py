"""The span transport: the type-directed slicer and the wire codec.

Two layers under test, bottom up:

* ``split_batch`` (:mod:`repro.compiler.codegen`) — the type-directed span
  slicer.  The pinned property: for every span, the slice *views* equal the
  fresh encoding of exactly those values (``encode_batch(vals[off:off+ln])``)
  while sharing memory with the parent encoding — no copy, no re-encode.
* the pickle-5 out-of-band codec (:mod:`repro.serving.transport`) — field
  vectors round-trip unchanged, and what the receiver gets are read-only
  views over the frames it was sent, not copies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler.codegen import encode_batch, decode_batch, split_batch
from repro.nsc.types import NAT, ProdType, SeqType, SumType
from repro.nsc.values import VInl, VInr, VSeq, from_python, to_python
from repro.serving import ShardExecutor
from repro.serving import transport as tp


def _lift(v):
    """``from_python`` plus ``("inl"/"inr", x)`` tuples for sum values."""
    if isinstance(v, tuple) and len(v) == 2 and v[0] in ("inl", "inr"):
        return (VInl if v[0] == "inl" else VInr)(_lift(v[1]))
    if isinstance(v, list):
        return VSeq(tuple(_lift(x) for x in v))
    return from_python(v)


def _encode(pyvals, t):
    return [
        np.asarray(f, dtype=np.int64)
        for f in encode_batch([_lift(v) for v in pyvals], t)
    ]


# -- split_batch --------------------------------------------------------------

CASES = [
    (NAT, [1, 2, 3, 4, 5, 6, 7]),
    (SeqType(NAT), [[1, 2], [], [3], [4, 5, 6], [7]]),
    (ProdType(NAT, SeqType(NAT)), [(1, [2, 3]), (4, []), (5, [6])]),
    (SeqType(SeqType(NAT)), [[[1], [2, 3]], [], [[4, 5, 6]], [[]]]),
    (
        SeqType(SumType(SeqType(NAT), NAT)),
        [
            [("inl", [1, 2]), ("inr", 3)],
            [("inr", 4)],
            [],
            [("inl", []), ("inl", [5]), ("inr", 6)],
        ],
    ),
]


def _spans(n):
    return [(0, 2), (2, n - 3), (n - 1, 1), (n, 0)]


@pytest.mark.parametrize("t,pyvals", CASES, ids=[str(t) for t, _ in CASES])
def test_split_batch_views_equal_fresh_encoding(t, pyvals):
    fields = _encode(pyvals, t)
    spans = _spans(len(pyvals))
    per_span = split_batch(fields, t, spans)
    assert len(per_span) == len(spans)
    for (off, ln), views in zip(spans, per_span):
        fresh = _encode(pyvals[off : off + ln], t)
        assert len(views) == len(fresh)
        for v, f in zip(views, fresh):
            assert np.array_equal(v, f), (t, off, ln)
        # the decode of the views is the span's values
        decoded = decode_batch([np.asarray(v) for v in views], t, ln)
        assert [to_python(d) for d in decoded] == [
            to_python(_lift(v)) for v in pyvals[off : off + ln]
        ]


def test_split_batch_views_share_memory():
    t = SeqType(NAT)
    pyvals = [[1, 2], [3], [], [4, 5, 6]]
    fields = _encode(pyvals, t)
    per_span = split_batch(fields, t, [(0, 2), (2, 2)])
    shared = 0
    for views in per_span:
        for v in views:
            if v.size:
                assert any(
                    np.shares_memory(v, f) for f in fields
                ), "span view copied instead of sliced"
                shared += 1
    assert shared > 0


# -- transport resolution -----------------------------------------------------

def test_resolve_transport():
    assert tp.TRANSPORTS == ("oob",)
    for gone in ("shm", "pickle", "auto", "carrier-pigeon"):
        with pytest.raises(ValueError):
            ShardExecutor(n_workers=1, transport=gone)
    for name in (None, "oob"):
        with ShardExecutor(n_workers=1, transport=name) as ex:
            assert ex.leaked_segments is None
        assert ex.leaked_segments == []


# -- pickle-5 out-of-band codec ----------------------------------------------

def test_oob_roundtrip():
    arrays = [
        np.arange(10, dtype=np.int64),
        np.array([], dtype=np.int64),
        np.arange(100, dtype=np.int64)[17:40],  # a view, like split_batch makes
    ]
    meta, frames = tp.pack_oob(arrays)
    assert all(isinstance(f, bytes) for f in frames)
    # the payload really is out-of-band: raw data dwarfs the metadata pickle
    assert sum(len(f) for f in frames) == (10 + 23) * 8
    got = tp.unpack_oob(meta, frames)
    assert len(got) == len(arrays)
    frame_views = [np.frombuffer(f, dtype=np.int64) for f in frames]
    for g, a in zip(got, arrays):
        assert np.array_equal(g, a)
        if g.size:
            # zero-copy and read-only: the protection between sibling spans
            assert not g.flags.writeable
            assert any(np.shares_memory(g, fv) for fv in frame_views)
            with pytest.raises(ValueError):
                g[0] = -1
