"""Compile-cache coverage: correctness, key discipline, and adversarial inputs.

The cache may only ever change *when* a program is compiled, never *what*
runs: every test here is ultimately about that invariant.  The adversarial
half (truncated/bit-flipped artifacts, version-salt bumps, concurrent
writers, the size bound) pins the failure modes a shared on-disk store
meets in CI.
"""

from __future__ import annotations

import os
import pickle
import threading

import pytest

from repro.cache import CompileCache, cache_key, default_cache, fingerprint
from repro.cache import key as cache_key_mod
from repro.cache import store as cache_store_mod
from repro.compiler import compile_nsc
from repro.nsc import ast as A
from repro.nsc.lib import reduce_add
from repro.nsc.types import NAT, seq


def affine(var: str = "x") -> A.Lambda:
    return A.Lambda(
        var, NAT, A.BinOp("+", A.BinOp("*", A.Var(var), A.Const(3)), A.Const(1))
    )


def map_square() -> A.Lambda:
    return A.Lambda(
        "xs",
        seq(NAT),
        A.Apply(A.MapF(A.Lambda("x", NAT, A.BinOp("*", A.Var("x"), A.Var("x")))), A.Var("xs")),
    )


# ---------------------------------------------------------------------------
# keys


def test_fingerprint_alpha_invariant():
    assert fingerprint(affine("x")) == fingerprint(affine("renamed_binder"))


def test_fingerprint_distinguishes_structure_and_constants():
    base = fingerprint(affine())
    other = A.Lambda(
        "x", NAT, A.BinOp("+", A.BinOp("*", A.Var("x"), A.Const(4)), A.Const(1))
    )
    assert fingerprint(other) != base
    assert fingerprint(map_square()) != base


def test_cache_key_covers_every_knob():
    base = cache_key(affine(), eps=0.5, opt_level=2)
    assert cache_key(affine("y"), eps=0.5, opt_level=2) == base
    variants = [
        dict(eps=0.25, opt_level=2),
        dict(eps=0.5, opt_level=0),
    ]
    keys = {cache_key(affine(), **kw) for kw in variants}
    assert base not in keys and len(keys) == len(variants)


def test_cache_key_deep_program_no_recursion_error():
    body: A.Term = A.Var("x0")
    for i in range(5000):
        body = A.Let(f"x{i + 1}", A.BinOp("+", body, A.Const(1)), A.Var(f"x{i + 1}"))
    deep = A.Lambda("x0", NAT, body)
    assert len(fingerprint(deep)) == 64


# ---------------------------------------------------------------------------
# roundtrip + identity


def test_roundtrip_memo_and_disk(tmp_path):
    store = CompileCache(str(tmp_path))
    p1 = compile_nsc(affine(), cache=store)
    assert store.counters["misses"] == 1 and store.counters["stores"] == 1

    # same program (alpha-renamed): in-process memo hit, same object
    p2 = compile_nsc(affine("other"), cache=store)
    assert p2 is p1
    assert store.counters["memo_hits"] == 1

    # a fresh instance over the same directory = a new process: disk hit
    fresh = CompileCache(str(tmp_path))
    p3 = compile_nsc(affine(), cache=fresh)
    assert p3 is not p1
    assert fresh.counters["disk_hits"] == 1 and fresh.counters["misses"] == 0


@pytest.mark.parametrize("opt_level", [0, 2])
@pytest.mark.parametrize("engine", ["fused"])  # the one untraced engine, named in the id
def test_cached_runs_identical_to_fresh(tmp_path, opt_level, engine):
    """Cached programs are value- and T'/W'-identical at every opt level."""
    fn = reduce_add()
    inputs = [list(range(13)), [], [5]]
    fresh_prog = compile_nsc(fn, opt_level=opt_level, cache=None)

    store = CompileCache(str(tmp_path))
    compile_nsc(fn, opt_level=opt_level, cache=store)
    store2 = CompileCache(str(tmp_path))  # simulate a new process: disk path
    cached_prog = compile_nsc(fn, opt_level=opt_level, cache=store2)
    assert store2.counters["disk_hits"] == 1

    for value in inputs:
        v_fresh, r_fresh = fresh_prog.run(value)
        v_cached, r_cached = cached_prog.run(value)
        ctx = (engine, opt_level, value)
        assert str(v_cached) == str(v_fresh), ctx
        assert (r_cached.time, r_cached.work) == (r_fresh.time, r_fresh.work), ctx


def test_run_batch_serves_the_one_cached_artifact(tmp_path):
    store = CompileCache(str(tmp_path))
    prog = compile_nsc(affine(), cache=store)
    outs = prog.run_batch([1, 2, 3])
    assert [str(o) for o in outs] == ["4", "7", "10"]
    # one program serves run and run_batch: one artifact, stored once
    assert store.counters["stores"] == 1 and store.snapshot()["disk_entries"] == 1

    # a warm restart serves it from disk: zero compiles
    fresh = CompileCache(str(tmp_path))
    prog2 = compile_nsc(affine(), cache=fresh)
    outs2 = prog2.run_batch([1, 2, 3])
    assert [str(o) for o in outs2] == ["4", "7", "10"]
    assert fresh.counters["disk_hits"] == 1 and fresh.counters["misses"] == 0


def test_warmup_manifest_is_identical_warm_for_single_and_batched_runs(tmp_path):
    from repro.cache.warmup import run_battery

    cold = run_battery(CompileCache(str(tmp_path)))
    warm_store = CompileCache(str(tmp_path))  # a new process: disk hits only
    assert run_battery(warm_store) == cold
    assert warm_store.counters["misses"] == 0 and warm_store.counters["stores"] == 0
    # each case's batched run is recorded, slot for slot equal to its single runs
    batches = {k: v["values"] for k, v in cold.items() if k.endswith("/batch")}
    assert batches
    for key, values in batches.items():
        prefix = key[: -len("batch")]
        assert values == [cold[f"{prefix}in{i}"]["value"] for i in range(len(values))], key


def test_default_cache_env(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert default_cache() is None
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    store = default_cache()
    assert store is not None and store.path == str(tmp_path)
    assert default_cache() is store  # one shared instance per directory
    compile_nsc(affine())  # the default plumbing: env decides
    assert store.counters["stores"] == 1


def test_explicit_none_disables(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    prog = compile_nsc(affine(), cache=None)
    assert [str(o) for o in prog.run_batch([1, 2, 3])] == ["4", "7", "10"]
    store = default_cache()
    assert store.counters["stores"] == 0 and store.snapshot()["disk_entries"] == 0


def test_pickle_drops_the_store_handle(tmp_path):
    store = CompileCache(str(tmp_path))
    prog = compile_nsc(affine(), cache=store)
    prog.run_batch([1, 2])
    clone = pickle.loads(pickle.dumps(prog))
    assert not any(hasattr(clone, attr) for attr in prog._CACHE_ATTRS)
    assert not any(isinstance(v, CompileCache) for v in vars(clone).values())
    v, _ = clone.run(7)
    assert str(v) == "22"


# ---------------------------------------------------------------------------
# adversarial: corruption


def _artifact_paths(store: CompileCache) -> list[str]:
    return sorted(p for _, _, p in store._artifacts())


def test_truncated_artifact_quarantined_not_crashed(tmp_path):
    store = CompileCache(str(tmp_path))
    compile_nsc(affine(), cache=store)
    (path,) = _artifact_paths(store)
    blob = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(blob[: len(blob) // 2])

    fresh = CompileCache(str(tmp_path))
    prog = compile_nsc(affine(), cache=fresh)  # miss -> recompile, no crash
    assert str(prog.run(7)[0]) == "22"
    assert fresh.counters["corrupt"] == 1 and fresh.counters["misses"] == 1
    # the corrupt envelope was moved aside for triage (the recompile then
    # re-stored a valid artifact at the original path)
    qdir = os.path.join(str(tmp_path), "quarantine")
    assert any(name.endswith(".reason") for name in os.listdir(qdir))
    # the recompile re-stored a valid artifact: next process hits clean
    again = CompileCache(str(tmp_path))
    compile_nsc(affine(), cache=again)
    assert again.counters["disk_hits"] == 1 and again.counters["corrupt"] == 0


def test_bitflipped_payload_quarantined(tmp_path):
    store = CompileCache(str(tmp_path))
    compile_nsc(affine(), cache=store)
    (path,) = _artifact_paths(store)
    blob = bytearray(open(path, "rb").read())
    blob[-1] ^= 0xFF  # flip one payload bit: checksum must catch it
    with open(path, "wb") as fh:
        fh.write(bytes(blob))

    fresh = CompileCache(str(tmp_path))
    prog = compile_nsc(affine(), cache=fresh)
    assert str(prog.run(7)[0]) == "22"
    assert fresh.counters["corrupt"] == 1


def test_garbage_magic_quarantined(tmp_path):
    store = CompileCache(str(tmp_path))
    compile_nsc(affine(), cache=store)
    (path,) = _artifact_paths(store)
    with open(path, "wb") as fh:
        fh.write(b"not an envelope at all")
    fresh = CompileCache(str(tmp_path))
    compile_nsc(affine(), cache=fresh)
    assert fresh.counters["corrupt"] == 1


# ---------------------------------------------------------------------------
# adversarial: version salt


def test_codegen_version_bump_is_a_miss(tmp_path, monkeypatch):
    store = CompileCache(str(tmp_path))
    compile_nsc(affine(), cache=store)
    monkeypatch.setattr(cache_key_mod, "CODEGEN_VERSION", 10_000)
    fresh = CompileCache(str(tmp_path))
    compile_nsc(affine(), cache=fresh)
    # the old artifact was never even read — different content address
    assert fresh.counters["misses"] == 1 and fresh.counters["disk_hits"] == 0
    assert fresh.snapshot()["disk_entries"] == 2  # old + new coexist


def test_isa_version_bump_is_a_miss(tmp_path, monkeypatch):
    store = CompileCache(str(tmp_path))
    compile_nsc(affine(), cache=store)
    monkeypatch.setattr(cache_key_mod, "ISA_VERSION", 10_000)
    fresh = CompileCache(str(tmp_path))
    compile_nsc(affine(), cache=fresh)
    assert fresh.counters["misses"] == 1 and fresh.counters["disk_hits"] == 0


# ---------------------------------------------------------------------------
# adversarial: races + eviction


def test_concurrent_writers_race_safely(tmp_path):
    """N threads over two instances of one directory: no torn artifacts."""
    stores = [CompileCache(str(tmp_path)) for _ in range(2)]
    errors: list[BaseException] = []
    barrier = threading.Barrier(8)

    def writer(i: int) -> None:
        try:
            barrier.wait()
            for _ in range(5):
                prog = compile_nsc(affine(), cache=stores[i % 2])
                assert str(prog.run(7)[0]) == "22"
        except BaseException as e:  # noqa: BLE001 - collected for the assert
            errors.append(e)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    # whoever won the rename, the surviving artifact is valid
    fresh = CompileCache(str(tmp_path))
    prog = compile_nsc(affine(), cache=fresh)
    assert fresh.counters["disk_hits"] == 1 and fresh.counters["corrupt"] == 0
    assert str(prog.run(7)[0]) == "22"
    assert os.listdir(os.path.join(str(tmp_path), "tmp")) == []  # no litter


def test_eviction_respects_size_bound(tmp_path):
    programs = [affine(), map_square(), reduce_add()]
    probe = CompileCache(str(tmp_path / "probe"))
    for fn in programs:
        compile_nsc(fn, cache=probe)
    sizes = sorted(size for _, size, _ in probe._artifacts())
    # bound admits the two smallest artifacts but not all three
    max_bytes = sizes[0] + sizes[1] + sizes[2] - 1

    store = CompileCache(str(tmp_path / "real"), max_bytes=max_bytes)
    for i, fn in enumerate(programs):
        compile_nsc(fn, cache=store)
        # deterministic LRU order: artifact i is strictly newest so far
        for mtime, _, path in store._artifacts():
            os.utime(path, (mtime, 1_000_000 + i))
    snap = store.snapshot()
    assert snap["evictions"] >= 1
    assert snap["disk_bytes"] <= max_bytes
    # the newest artifact (reduce_add, touched last) survived
    store.clear_memo()
    fresh = CompileCache(str(tmp_path / "real"), max_bytes=max_bytes)
    compile_nsc(reduce_add(), cache=fresh)
    assert fresh.counters["disk_hits"] == 1


def test_hit_refreshes_lru_position(tmp_path):
    store = CompileCache(str(tmp_path))
    compile_nsc(affine(), cache=store)
    (path,) = _artifact_paths(store)
    os.utime(path, (1, 1))  # pretend it is ancient
    fresh = CompileCache(str(tmp_path))
    compile_nsc(affine(), cache=fresh)  # disk hit bumps the mtime
    assert os.stat(path).st_mtime > 1


def test_rejects_nonpositive_bound(tmp_path):
    with pytest.raises(cache_store_mod.CacheError):
        CompileCache(str(tmp_path), max_bytes=0)
