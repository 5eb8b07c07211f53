"""Asyncio serving quickstart: many small requests, one batching server.

Run with ``PYTHONPATH=src python examples/serve_requests.py``.

The server warm-starts from an on-disk compile cache: the first run of this
script compiles the program and stores the artifact under ``.repro-cache/``;
every later run (or any other process pointing at the same directory, e.g.
via ``REPRO_CACHE_DIR``) loads it back instead of compiling.  An optional
SLO config turns on admission control: each lane prices arrivals with a cost
model fitted to its own batches and keeps predicted-expensive outliers out
of the shared lane.
"""

import asyncio
import random

from repro.cache import CompileCache
from repro.nsc import builder as B
from repro.nsc.types import NAT
from repro.serving import Server, SLOConfig


def main():
    x = B.gensym("x")
    affine = B.map_(B.lam(x, NAT, B.mod(B.add(B.mul(B.v(x), 7), 3), 101)))
    rng = random.Random(0)
    requests = [[rng.randrange(100) for _ in range(8)] for _ in range(200)]

    # Persist compiled artifacts across runs of this script.  Equivalent:
    # leave cache= alone and set REPRO_CACHE_DIR=.repro-cache in the env.
    cache = CompileCache(".repro-cache")

    async def serve():
        # submit() resolves `affine` through the cache (second run of this
        # script: a disk hit, no compile at all), queues each request, and
        # the lane runs whatever is waiting as one batched machine run as
        # soon as the previous one is done; a request predicted to take
        # longer than the 50ms target on its own would be refused.
        slo = SLOConfig(target_p99_ms=50.0)
        async with Server(max_batch=64, cache=cache, slo=slo) as server:
            results = await asyncio.gather(
                *(server.submit(affine, req) for req in requests)
            )
            return results, server.metrics.snapshot()

    results, metrics = asyncio.run(serve())
    cache_stats = cache.snapshot()
    print(f"first result : {results[0]}")
    print(f"metrics      : {metrics}")
    print(
        f"compile cache: hits={cache_stats['hits']} "
        f"misses={cache_stats['misses']} (run me again to warm-start)"
    )


if __name__ == "__main__":
    main()
