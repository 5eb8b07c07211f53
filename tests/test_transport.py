"""The zero-copy span transport: codecs, segment lifecycle, leak checks.

Three layers under test, bottom up:

* ``split_batch`` (:mod:`repro.compiler.codegen`) — the type-directed span
  slicer.  The pinned property: for every span, the slice *views* equal the
  fresh encoding of exactly those values (``encode_batch(vals[off:off+ln])``)
  while sharing memory with the parent encoding — no copy, no re-encode.
* the shm codec (:mod:`repro.serving.transport`) — fields packed into one
  segment round-trip through ``span_descriptor``/``attach_span`` unchanged,
  worker views are read-only, result registers adopt back losslessly.
* :class:`SegmentLedger` — refcounted unlink-at-zero, and ``close()`` as a
  leak *detector*: anything still referenced is force-released and named.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.compiler.codegen import encode_batch, decode_batch, split_batch
from repro.nsc.types import NAT, ProdType, SeqType, SumType
from repro.nsc.values import VInl, VInr, VSeq, from_python, to_python
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

def test_resolve_transport(monkeypatch):
    assert tp.TRANSPORTS == ("shm", "oob")
    assert tp.resolve_transport("oob") == "oob"
    best = "shm" if tp.shm_available() else "oob"
    assert tp.resolve_transport(None) == tp.resolve_transport("shm") == best
    monkeypatch.setattr(tp, "_shm_probe", False)  # a platform without shm
    assert tp.resolve_transport(None) == tp.resolve_transport("shm") == "oob"
    for gone in ("pickle", "auto", "carrier-pigeon"):
        with pytest.raises(ValueError):
            tp.resolve_transport(gone)


# -- shm codec ----------------------------------------------------------------

needs_shm = pytest.mark.skipif(
    not tp.shm_available(), reason="no shared memory on this platform"
)


@needs_shm
def test_shm_roundtrip_fields_and_registers():
    ledger = tp.SegmentLedger()
    t = SeqType(NAT)
    pyvals = [[1, 2], [3], [], [4, 5, 6], [7]]
    fields = _encode(pyvals, t)
    spans = [(0, 3), (3, 2)]
    per_span = split_batch(fields, t, spans)

    name, bases = tp.pack_fields(ledger, fields, refs=len(spans))
    assert name is not None and ledger.live() == [name]

    for (off, ln), views in zip(spans, per_span):
        desc = tp.span_descriptor(views, fields, bases)
        seg, got = tp.attach_span(name, desc)
        try:
            for g, v in zip(got, views):
                assert np.array_equal(g, v)
                assert not g.flags.writeable  # sibling-span protection
        finally:
            if seg is not None:
                seg.close()
        ledger.release(name)
    assert ledger.live() == []  # refcount hit zero -> unlinked

    # result leg: worker-side pack, parent-side adopt
    regs = [np.arange(6, dtype=np.int64), np.array([], dtype=np.int64)]
    rname, rdesc = tp.pack_registers(regs)
    got = tp.adopt_views(ledger, rname, rdesc)
    for g, r in zip(got, regs):
        assert np.array_equal(g, r)
    ledger.release(rname)
    assert ledger.live() == []
    assert ledger.close() == []


@needs_shm
def test_empty_encoding_needs_no_segment():
    ledger = tp.SegmentLedger()
    name, bases = tp.pack_fields(ledger, [np.array([], dtype=np.int64)], refs=1)
    assert name is None and bases == [0]
    assert ledger.live() == []
    assert tp.adopt_views(ledger, None, [(0, 0)])[0].size == 0


@needs_shm
def test_ledger_leak_detection_and_sweep():
    ledger = tp.SegmentLedger()
    seg = ledger.create(64, refs=2)
    ledger.release(seg.name)  # one of two refs: still live
    assert ledger.live() == [seg.name]
    leaked = ledger.close()
    assert leaked == [seg.name]
    assert not os.path.exists(f"/dev/shm/{seg.name}")  # force-released anyway

    # orphan sweep: a segment whose creator (this pid) is "dead"
    orphan = tp._create_named(64)
    orphan.close()
    removed = tp.sweep_orphans([os.getpid()])
    assert orphan.name in removed
    assert not os.path.exists(f"/dev/shm/{orphan.name}")


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
    for g, a in zip(got, arrays):
        assert np.array_equal(g, a)
