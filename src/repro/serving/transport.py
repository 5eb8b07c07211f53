"""The span wire format: field vectors as pickle-5 out-of-band frames.

A batch of B inputs is already a handful of contiguous ``int64`` vectors
(see :func:`repro.compiler.codegen.encode_batch`), and one span of it is a
set of contiguous slices of those vectors.  So a span crosses the worker
queue as a tiny metadata pickle plus the raw slices, handed out by pickle
protocol 5's ``buffer_callback`` instead of being embedded — a straight
``memcpy`` of the data, with no S-object graph walk and no per-span
re-encode.  Results come back the same way: the program's output
registers are again flat vectors.

This is the only format.  A shared-memory transport (one segment per
batch, ``(offset, length)`` views in the worker) was measured against it
on every benchmark workload and lost or tied on all of them; it pulled
ahead only past ~3 MB a batch, ten times the largest batch the benchmark
sends, and cost a segment lifecycle (create, attach, release, unlink,
orphan sweep) that the out-of-band frames do not have.
"""

from __future__ import annotations

import pickle
from typing import Sequence

import numpy as np

#: the wire formats ``ShardExecutor(transport=...)`` accepts
TRANSPORTS = ("oob",)


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
    """Rebuild the field vectors over the received frames.

    The arrays are zero-copy, read-only views of the ``bytes`` frames: a
    kernel that ever tried to mutate an input register in place fails
    loudly instead of corrupting the data it was handed.
    """
    return pickle.loads(meta, buffers=[memoryview(f) for f in frames])
