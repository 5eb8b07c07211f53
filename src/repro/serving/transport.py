"""Zero-copy span transport: ship batch encodings by reference, not by value.

The motivating measurement (ROADMAP: "Distributed serving tier + zero-copy
transport"): the shard executor's original wire format pickled every span's
S-objects through a ``multiprocessing.Queue``, and on small machines the
serialize/copy/deserialize round-trip *cost more than the parallelism won* —
0.94–0.98x against single-process serving.  The fix exploits the compiler's
canonical flat encoding: a batch of B inputs is already a handful of
contiguous ``int64`` vectors (see :func:`repro.compiler.codegen.encode_batch`),
so the parent can encode **once**, place the vectors in one
``multiprocessing.shared_memory`` segment, and describe each span to its
worker as ``(offset, length)`` pairs — the worker builds its register file
as read-only views into the mapping and runs without any per-span re-encode.
Results return the same way: the batched twin's output registers are again
flat vectors, copied once into a worker-created segment the parent adopts.

Two transports, best first:

``shm``
    Shared-memory segments as above.  One segment per dispatched batch
    (refcounted by its pending spans) plus one per span result; explicit
    lifecycle via :class:`SegmentLedger` — create/adopt, retain/release,
    unlink-at-zero, and a leak check on close.
``oob``
    The fallback when shared memory is unavailable: the span's field views
    are serialized with pickle protocol 5 and ``buffer_callback``, so the
    payload crossing the queue is a tiny metadata pickle plus raw
    out-of-band frames — a straight ``memcpy`` of contiguous buffers, still
    no S-object graph walk and no per-span re-encode.

Resource-tracker discipline (the part everyone gets wrong): Python's
``resource_tracker`` registers a segment not only on create but *also on
attach* (opt-out arrives only with 3.13's ``track=False``).  The saving
grace is that every worker inherits the parent's tracker process (the pipe
fd crosses both fork and spawn), and the tracker's registry is a *set* —
so a worker re-registering a parent-owned segment is an idempotent no-op,
and the one ``unlink()`` the owning side eventually performs is also the
one unregister.  The rule here is therefore: **never unregister manually**
(an early unregister from a non-owner cancels the owner's registration and
turns the final unlink into a tracker ``KeyError``); let ``unlink`` settle
the books, and have :func:`sweep_orphans` unregister the segments it
reaps on a dead worker's behalf.  Net effect: a segment is unlinked
exactly once, and anything orphaned by a crash is still reclaimed — by
the sweep immediately, or by the tracker at shutdown as a last resort.
"""

from __future__ import annotations

import glob
import os
import pickle
import threading
from itertools import count as _count
from typing import Optional, Sequence

import numpy as np

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import shared_memory as _shm_mod
except ImportError:  # pragma: no cover
    _shm_mod = None
try:  # pragma: no cover
    from multiprocessing import resource_tracker as _tracker
except ImportError:  # pragma: no cover
    _tracker = None

TRANSPORT_SHM = "shm"
TRANSPORT_OOB = "oob"
TRANSPORTS = (TRANSPORT_SHM, TRANSPORT_OOB)

#: every segment name starts with this; the orphan sweep globs for it
SEGMENT_PREFIX = "repro-shard"

_ITEMSIZE = 8  # the whole encoding is int64
_seg_counter = _count()
_shm_probe: Optional[bool] = None


def shm_available() -> bool:
    """Probe (once) whether shared-memory segments actually work here."""
    global _shm_probe
    if _shm_probe is None:
        if _shm_mod is None:
            _shm_probe = False
        else:
            try:
                seg = _shm_mod.SharedMemory(create=True, size=_ITEMSIZE)
                seg.close()
                seg.unlink()
                _shm_probe = True
            except Exception:
                _shm_probe = False
    return _shm_probe


def resolve_transport(requested: Optional[str] = None) -> str:
    """The effective transport: ``shm`` when the probe succeeds, else ``oob``.

    ``requested`` narrows the choice to one wire format (the benchmark and
    the fuzz legs measure each on its own); asking for ``shm`` where the
    platform has no shared memory still gives ``oob`` — the two are
    semantically identical, so falling back is safer than failing dispatch.
    """
    if requested is not None and requested not in TRANSPORTS:
        raise ValueError(
            f"unknown shard transport {requested!r} (choose from {', '.join(TRANSPORTS)})"
        )
    if requested == TRANSPORT_OOB or not shm_available():
        return TRANSPORT_OOB
    return TRANSPORT_SHM


def _unregister(name: str) -> None:
    """Drop a reaped segment from the shared resource tracker (see module doc)."""
    if _tracker is None:  # pragma: no cover - import guard
        return
    try:
        _tracker.unregister("/" + name if not name.startswith("/") else name,
                            "shared_memory")
    except Exception:  # pragma: no cover - tracker already gone
        pass


def _destroy(seg) -> None:
    try:
        seg.close()
    except Exception:
        pass
    try:
        seg.unlink()
    except FileNotFoundError:
        pass
    except Exception:
        pass


def _create_named(nbytes: int):
    """A fresh uniquely-named segment (pid + counter; retries collisions)."""
    last: Optional[BaseException] = None
    for _ in range(64):
        name = f"{SEGMENT_PREFIX}-{os.getpid()}-{next(_seg_counter)}"
        try:
            return _shm_mod.SharedMemory(name=name, create=True, size=max(1, nbytes))
        except FileExistsError as e:  # pid reuse over a leaked segment
            last = e
    raise last  # pragma: no cover - 64 consecutive collisions


class SegmentLedger:
    """Parent-side registry of live shared-memory segments, refcounted.

    A batch segment enters with one reference per dispatched span and loses
    one as each span completes (result collected, worker error recomputed,
    or span reclaimed from a dead worker) — at zero it is closed and
    unlinked.  Result segments enter via :meth:`adopt` with a single
    reference.  :meth:`close` force-releases everything and returns the
    names that were still referenced: the leak check the tests assert
    empty.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._live: dict[str, list] = {}  # name -> [segment, refcount]
        self.created = 0
        self.adopted = 0
        self.bytes_shipped = 0

    def create(self, nbytes: int, refs: int):
        seg = _create_named(nbytes)
        with self._lock:
            self._live[seg.name] = [seg, refs]
            self.created += 1
            self.bytes_shipped += nbytes
        return seg

    def adopt(self, name: str):
        """Attach a worker-created segment, taking ownership (we will unlink)."""
        seg = _shm_mod.SharedMemory(name=name)
        with self._lock:
            self._live[name] = [seg, 1]
            self.adopted += 1
        return seg

    def release(self, name: Optional[str], n: int = 1) -> None:
        if name is None:
            return
        with self._lock:
            entry = self._live.get(name)
            if entry is None:
                return
            entry[1] -= n
            if entry[1] > 0:
                return
            del self._live[name]
            seg = entry[0]
        _destroy(seg)

    def live(self) -> list[str]:
        """Names of segments currently held (for the tests' leak assertions)."""
        with self._lock:
            return sorted(self._live)

    def close(self) -> list[str]:
        """Force-release every segment; returns the names that leaked."""
        with self._lock:
            leaked = sorted(self._live)
            entries = list(self._live.values())
            self._live.clear()
        for seg, _ in entries:
            _destroy(seg)
        return leaked


def sweep_orphans(pids: Sequence[int]) -> list[str]:
    """Best-effort unlink of segments created by the given (dead) processes.

    A worker killed between creating a result segment and the parent
    adopting it leaves an orphan no live process owns; its name carries the
    creator's pid, so the executor sweeps ``/dev/shm`` for the pids of
    workers it buried (and settles the dead worker's resource-tracker
    registration).  Only ever called for processes known to be dead.
    """
    removed: list[str] = []
    base = "/dev/shm"
    if not os.path.isdir(base):  # pragma: no cover - non-Linux shm layout
        return removed
    for pid in pids:
        for path in glob.glob(os.path.join(base, f"{SEGMENT_PREFIX}-{pid}-*")):
            name = os.path.basename(path)
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - raced with the tracker
                continue
            _unregister(name)
            removed.append(name)
    return removed


# -- shm codec ----------------------------------------------------------------


def pack_fields(
    ledger: SegmentLedger, fields: Sequence[np.ndarray], refs: int
) -> tuple[Optional[str], list[int]]:
    """Copy one batch's field vectors into a single ledger-owned segment.

    This is the **one** copy the transport pays on the way in (the encode
    itself wrote into ordinary heap arrays).  Returns the segment name and
    the element offset of each field within it; a zero-element batch
    encoding needs no segment at all (``None``).
    """
    total = sum(int(f.size) for f in fields)
    if total == 0:
        return None, [0] * len(fields)
    seg = ledger.create(total * _ITEMSIZE, refs)
    buf = np.ndarray(total, dtype=np.int64, buffer=seg.buf)
    bases: list[int] = []
    off = 0
    for f in fields:
        n = int(f.size)
        buf[off : off + n] = f
        bases.append(off)
        off += n
    return seg.name, bases


def span_descriptor(
    views: Sequence[np.ndarray], fields: Sequence[np.ndarray], bases: Sequence[int]
) -> list[tuple[int, int]]:
    """``(element offset, length)`` into the packed segment per field view.

    ``views`` is one span's entry of
    :func:`repro.compiler.codegen.split_batch` over exactly these
    ``fields``; each view is a contiguous slice of its field, so its offset
    is plain pointer arithmetic against the field base.
    """
    desc: list[tuple[int, int]] = []
    for v, f, b in zip(views, fields, bases):
        if v.size and f.size:
            off = (
                v.__array_interface__["data"][0] - f.__array_interface__["data"][0]
            ) // _ITEMSIZE
        else:
            off = 0
        desc.append((int(b) + int(off), int(v.size)))
    return desc


def attach_span(name: Optional[str], desc: Sequence[tuple[int, int]]):
    """Worker-side: map the batch segment, build read-only span field views.

    Returns ``(segment, views)``; the caller must ``close()`` the segment
    when the span is done (never unlink — the parent owns it).  The views
    are marked read-only so a kernel that ever tried to mutate an input
    register in place would fail loudly instead of corrupting a sibling
    span's data.
    """
    if name is None:
        return None, [np.empty(ln, dtype=np.int64) for _, ln in desc]
    seg = _shm_mod.SharedMemory(name=name)
    views = []
    for off, ln in desc:
        v = np.ndarray(ln, dtype=np.int64, buffer=seg.buf, offset=off * _ITEMSIZE)
        v.flags.writeable = False
        views.append(v)
    return seg, views


def pack_registers(
    arrays: Sequence[np.ndarray],
) -> tuple[Optional[str], list[tuple[int, int]]]:
    """Worker-side: copy output registers into a fresh segment, then close it.

    Returns ``(name, descriptors)``; ownership crosses the process boundary
    with the message — the parent adopts the segment by name, decodes the
    outputs, and unlinks it.  All-empty outputs ship without a segment.
    """
    arrs = [np.asarray(a, dtype=np.int64) for a in arrays]
    total = sum(int(a.size) for a in arrs)
    if total == 0:
        return None, [(0, int(a.size)) for a in arrs]
    seg = _create_named(total * _ITEMSIZE)
    buf = np.ndarray(total, dtype=np.int64, buffer=seg.buf)
    desc: list[tuple[int, int]] = []
    off = 0
    for a in arrs:
        n = int(a.size)
        buf[off : off + n] = a
        desc.append((off, n))
        off += n
    seg.close()
    return seg.name, desc


def adopt_views(
    ledger: SegmentLedger, name: Optional[str], desc: Sequence[tuple[int, int]]
) -> list[np.ndarray]:
    """Parent-side: adopt a result segment and view its field vectors.

    The caller decodes the views and then ``ledger.release(name)``s the
    segment; with ``name=None`` (all-empty outputs) the views are plain
    empty arrays.
    """
    if name is None:
        return [np.empty(ln, dtype=np.int64) for _, ln in desc]
    seg = ledger.adopt(name)
    return [
        np.ndarray(ln, dtype=np.int64, buffer=seg.buf, offset=off * _ITEMSIZE)
        for off, ln in desc
    ]


# -- pickle-5 out-of-band codec ----------------------------------------------


def pack_oob(arrays: Sequence[np.ndarray]) -> tuple[bytes, list[bytes]]:
    """Serialize field vectors as (metadata pickle, raw out-of-band frames).

    Pickle protocol 5's ``buffer_callback`` hands each array's contiguous
    buffer out instead of embedding it, so the metadata stays tiny and the
    frames are verbatim ``memcpy``s of the int64 data — no object graph, no
    per-element work.  NumPy ≥ 1.16 implements the out-of-band protocol for
    C-contiguous arrays; the split-batch views are 1-D unit-stride slices,
    hence always eligible.
    """
    arrs = [np.ascontiguousarray(a, dtype=np.int64) for a in arrays]
    buffers: list = []
    meta = pickle.dumps(arrs, protocol=5, buffer_callback=buffers.append)
    return meta, [pb.raw().tobytes() for pb in buffers]


def unpack_oob(meta: bytes, frames: Sequence[bytes]) -> list[np.ndarray]:
    """Rebuild the field vectors over the received frames (read-only views)."""
    return pickle.loads(meta, buffers=[memoryview(f) for f in frames])
