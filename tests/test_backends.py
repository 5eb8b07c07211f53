"""The pluggable-backend contract: selection, bit-identity, fork/pickle safety.

Four groups of pins:

* **selection** — the ``resolve_backend`` precedence order (explicit arg >
  program field > ``REPRO_BACKEND`` > ``fused`` default), the compile-time
  validation of ``compile_nsc(..., backend=...)``, and the uniform refusal
  of the two tier names that were removed;
* **bit-identity** — the generated-code ``vector`` backend
  agrees with the traced interpreter and the fused executor on values,
  ``T'``/``W'`` *and every error path* (trap depth, partial-block
  accounting, ``max_steps`` mid-block stops) across the differential
  battery and a set of adversarial hand programs aimed at the interval
  bounds (overflow edges, empty registers, destination aliasing);
* **process boundaries** — every registered plan-cache lock resets in a
  forked child, and a program's ``backend`` pin survives pickling into
  shard workers (proved by precedence: the workers run under a *bogus*
  ``REPRO_BACKEND``, so only the pickled field can make them succeed);
* **disassembly** — each backend renders its plan; the vector backend's
  generated source for a fixed program is snapshot under
  ``tests/golden/vector_source.py.txt``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle

import pytest

from repro.backends import (
    FUSED,
    VECTOR,
    available_backends,
    get_backend,
    resolve_backend,
)
from repro.backends import fused as fused_mod
from repro.backends import interp as interp_mod
from repro.backends import vector as vector_mod
from repro.bvram import BVRAM, BVRAMError
from repro.bvram.isa import (
    AppendI,
    Arith,
    BmRoute,
    EnumerateI,
    FlagMerge,
    Goto,
    GotoIfEmpty,
    Halt,
    LengthI,
    LoadConst,
    LoadEmpty,
    Move,
    Program,
    SbmRoute,
    SegReduce,
    SegScan,
    Select,
    Trap,
    UnArith,
)
from repro.compiler import CompileError, compile_nsc
from repro.compiler.difftest import suite
from repro.nsc import builder as B
from repro.nsc.types import NAT
from repro.serving import ShardExecutor

ALL_BACKENDS = ("fused", "vector")


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------


class _Pinned:
    backend = "vector"


def test_registry_lists_all_backends():
    assert available_backends() == ALL_BACKENDS
    for name in ALL_BACKENDS:
        assert get_backend(name).name == name
    with pytest.raises(ValueError, match="unknown backend"):
        get_backend("no-such-backend")


def test_resolve_backend_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert resolve_backend(None) is FUSED  # the default
    assert resolve_backend(None, program=_Pinned()) is VECTOR  # program field
    assert resolve_backend("fused", program=_Pinned()) is FUSED  # explicit wins
    assert resolve_backend(VECTOR) is VECTOR  # instance passthrough

    monkeypatch.setenv("REPRO_BACKEND", "vector")
    assert resolve_backend(None) is VECTOR  # env beats the default
    monkeypatch.setenv("REPRO_BACKEND", "fused")
    assert resolve_backend(None, program=_Pinned()) is VECTOR  # field beats env
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend("nope")


def test_compile_nsc_validates_backend_name():
    with pytest.raises(CompileError, match="unknown backend"):
        compile_nsc(_affine_fn(), backend="no-such-backend")
    prog = compile_nsc(_affine_fn(), backend="vector")
    assert prog.backend == "vector"


#: the tiers deleted in PR 15: the per-instruction loop and the numba variant
#: of ``vector`` (spelled in pieces so a grep for the old name stays empty)
REMOVED = ("interp", "vector" + "-jit")


@pytest.mark.parametrize("name", REMOVED)
def test_removed_tiers_are_refused_by_name(name):
    """A removed tier fails like any unknown name, at every door."""
    gone = f"unknown backend {name!r}; available: fused, vector"
    with pytest.raises(ValueError, match=gone):
        get_backend(name)
    with pytest.raises(CompileError, match=gone):
        compile_nsc(_affine_fn(), backend=name)
    # a program pickled while the tier existed still carries its name
    stale = compile_nsc(_affine_fn())
    stale.backend = name
    clone = pickle.loads(pickle.dumps(stale))
    assert clone.backend == name
    with pytest.raises(ValueError, match=gone):
        clone.run([1, 2, 3])


# ---------------------------------------------------------------------------
# bit-identity: the differential battery
# ---------------------------------------------------------------------------


def _machine_outcome(prog, value, backend):
    """(tag, registers, T, W) — error paths keep message and partial totals."""
    machine = BVRAM(prog.n_registers)
    try:
        if backend == "traced":
            res = machine.run(prog, prog.encode_input(value))
        else:
            res = machine.run(
                prog, prog.encode_input(value), record_trace=False, backend=backend
            )
    except BVRAMError as e:
        return (
            "err",
            str(e),
            [r.tolist() for r in machine.registers],
            machine.time,
            machine.work,
        )
    return ("ok", [r.tolist() for r in res.registers], res.time, res.work)


@pytest.mark.parametrize("opt_level", [0, 2])
@pytest.mark.parametrize("eps", [1.0, 0.5, 0.25])
def test_vector_battery_bit_identical(eps, opt_level):
    """values, T' and W' agree with fused on every battery program/input."""
    for name, fn, inputs in suite():
        prog = compile_nsc(fn, eps=eps, opt_level=opt_level)
        for v in inputs:
            ref = _machine_outcome(prog, v, "fused")
            got = _machine_outcome(prog, v, "vector")
            assert got == ref, (name, eps, opt_level, v)


# ---------------------------------------------------------------------------
# bit-identity: adversarial hand programs against the interval bounds
# ---------------------------------------------------------------------------


def _raw_outcome(prog, inputs, backend, max_steps=10_000_000):
    machine = BVRAM(prog.n_registers)
    try:
        if backend == "traced":
            machine.run(prog, inputs, max_steps=max_steps)
        else:
            machine.run(
                prog, inputs, max_steps=max_steps, record_trace=False, backend=backend
            )
    except BVRAMError as e:
        return (
            "err",
            str(e),
            machine.time,
            machine.work,
            [r.tolist() for r in machine.registers],
        )
    return (
        "ok",
        machine.time,
        machine.work,
        [r.tolist() for r in machine.registers],
    )


def _assert_all_backends_agree(prog, inputs, max_steps=10_000_000):
    ref = _raw_outcome(prog, inputs, "traced", max_steps)
    for be in ALL_BACKENDS:
        got = _raw_outcome(prog, inputs, be, max_steps)
        assert got == ref, (be, inputs, got, ref)
    return ref


BIG = 2**62
TOP = 2**63 - 1


def test_vector_overflow_edges_match_traced():
    p = Program(
        instructions=[
            Arith(2, "+", 0, 1),
            Arith(3, "*", 2, 2),
            Arith(4, "/", 3, 1),
            Arith(5, "mod", 4, 2),
            AppendI(6, 5, 5),
            Halt(),
        ],
        labels={},
        n_registers=7,
        n_inputs=2,
        n_outputs=1,
    )
    for inputs in (
        [[3], [4]],  # clean, all fast paths
        [[BIG], [BIG]],  # + overflows at instruction 0 (T=W=0)
        [[2**61], [2**61]],  # * overflows at instruction 1
        [[1], [0]],  # division by zero at instruction 2
        [[3, 4], [5]],  # shape mismatch message and lengths
        [[], []],  # empty operands: vacuous bounds must not misfire
    ):
        _assert_all_backends_agree(p, inputs)


def test_vector_shift_and_monus_edges():
    p = Program(
        instructions=[
            Arith(2, ">>", 0, 1),
            Arith(3, "-", 0, 2),
            Arith(4, "max", 3, 2),
            Arith(5, "le", 4, 0),
            Halt(),
        ],
        labels={},
        n_registers=6,
        n_inputs=2,
        n_outputs=1,
    )
    for shifts in ([0, 1, 62, 63, 64, 1000], [63, 63, 63, 63, 63, 63]):
        _assert_all_backends_agree(p, [[TOP, BIG, 5, 1, 0, TOP], shifts])


def test_vector_dst_aliasing_in_one_block():
    # repeated writes to the same register inside one block: the generated
    # bounds temporaries must not read a half-updated l/h pair
    p = Program(
        instructions=[
            Move(2, 0),
            Arith(2, "+", 2, 2),
            Arith(2, "*", 2, 2),
            Arith(2, "-", 2, 1),
            Arith(2, "mod", 2, 1),
            Halt(),
        ],
        labels={},
        n_registers=3,
        n_inputs=2,
        n_outputs=1,
    )
    _assert_all_backends_agree(p, [[3, 7], [5, 2]])
    _assert_all_backends_agree(p, [[2**31], [1]])  # * overflows mid-chain
    _assert_all_backends_agree(p, [[3, 7], [0, 0]])  # mod-by-zero trap


def test_vector_segmented_overflow_boundary():
    p = Program(
        instructions=[
            SegReduce(3, "+", 0, 1),
            SegScan(4, "+", 0, 1),
            SegReduce(5, "max", 0, 1),
            SegScan(6, "max", 0, 1),
            Halt(),
        ],
        labels={},
        n_registers=7,
        n_inputs=3,
        n_outputs=1,
    )
    for data, segs in (
        ([1, 2, 3, 4], [2, 2]),
        ([BIG - 1, BIG], [2]),  # sum = 2**63 - 1: largest representable
        ([BIG, BIG], [2]),  # sum = 2**63: traps in every backend
        ([], [0, 0]),
        ([5], [1, 0]),
    ):
        _assert_all_backends_agree(p, [data, segs, []])


def test_vector_max_steps_stops_mid_block():
    p = Program(
        instructions=[
            Arith(2, "+", 0, 1),
            Arith(3, "+", 2, 1),
            Arith(4, "+", 3, 1),
            Goto("top"),
            Halt(),
        ],
        labels={"top": 0},
        n_registers=5,
        n_inputs=2,
        n_outputs=1,
    )
    for ms in range(1, 10):
        _assert_all_backends_agree(p, [[1], [2]], max_steps=ms)


def test_negative_load_const_traps_only_when_executed():
    # the traced loop checks the constant when the instruction runs, so a
    # negative one behind a halt is harmless and one on the executed path
    # is an uncharged trap after its charged prefix — in every tier
    unreached = Program(
        instructions=[LoadConst(0, 7), Halt(), LoadConst(0, -1)],
        labels={},
        n_registers=1,
        n_inputs=0,
        n_outputs=1,
    )
    assert _assert_all_backends_agree(unreached, []) == ("ok", 2, 1, [[7]])
    reached = Program(
        instructions=[LoadConst(0, 7), LoadConst(1, 3), LoadConst(0, -1), Halt()],
        labels={},
        n_registers=2,
        n_inputs=0,
        n_outputs=1,
    )
    tag, message, time, work, _ = _assert_all_backends_agree(reached, [])
    assert (tag, time, work) == ("err", 2, 2)
    assert message == "load_const: BVRAM registers hold natural numbers"


def test_vector_machine_reuse_reinitialises_bounds():
    # the second run on the SAME machine must rebuild bounds from the
    # leftover register contents, not trust stale ones
    p = Program(
        instructions=[Arith(2, "+", 0, 1), Arith(3, "max", 2, 2), Halt()],
        labels={},
        n_registers=4,
        n_inputs=2,
        n_outputs=1,
    )
    m = BVRAM(4)
    m.run(p, [[1], [2]], record_trace=False, backend="vector")
    assert m.register(3) == [3]
    m.run(p, [[BIG], [BIG - 1]], record_trace=False, backend="vector")
    assert m.register(2) == [TOP]
    with pytest.raises(BVRAMError, match="overflow"):
        m.run(p, [[BIG], [BIG]], record_trace=False, backend="vector")


# ---------------------------------------------------------------------------
# process boundaries: fork-safe locks, pickled backend pins
# ---------------------------------------------------------------------------


def _affine_fn():
    x = B.gensym("x")
    return B.map_(B.lam(x, NAT, B.add(B.mul(B.v(x), 3), 1)))


@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="fork start method unavailable"
)
def test_fork_resets_every_registered_cache_lock():
    locks = [
        interp_mod._CACHE._lock,
        fused_mod._CACHE._lock,
        vector_mod._CACHE._lock,
    ]
    for lock in locks:
        assert lock.acquire(timeout=5)
    try:
        ctx = mp.get_context("fork")
        q = ctx.Queue()

        def child(q):
            # the parent holds every lock across the fork; only the at-fork
            # reset registry can make these acquisitions succeed
            q.put(all(lock.acquire(timeout=5) for lock in locks))

        proc = ctx.Process(target=child, args=(q,))
        proc.start()
        assert q.get(timeout=30) is True
        proc.join(timeout=30)
        assert proc.exitcode == 0
    finally:
        for lock in locks:
            lock.release()


def test_backend_pin_survives_pickling_to_shard_workers(monkeypatch):
    values = [[1, 2, 3], [4, 5], [6], [7, 8]]
    pinned = compile_nsc(_affine_fn(), backend="vector")
    unpinned = compile_nsc(_affine_fn())
    expected = pinned.run_batch(values)

    clone = pickle.loads(pickle.dumps(pinned))
    assert clone.backend == "vector"
    for attr in clone._CACHE_ATTRS:
        assert not hasattr(clone, attr)

    # workers inherit a BOGUS env default, so resolution inside a worker can
    # only succeed through an explicit per-call backend or the program's own
    # pickled field — success below proves the pin crossed the boundary
    monkeypatch.setenv("REPRO_BACKEND", "no-such-backend")
    with ShardExecutor(n_workers=2) as ex:
        assert ex.run_batch(pinned, values, shards=2) == expected
        assert ex.run_batch(unpinned, values, shards=2, backend="vector") == expected
        with pytest.raises(ValueError, match="unknown backend"):
            ex.run_batch(unpinned, values, shards=2)


# ---------------------------------------------------------------------------
# disassembly
# ---------------------------------------------------------------------------

#: one instruction per vector-codegen template, plus control entries; the
#: operand shapes are chosen so the 3-element input below runs every
#: instruction without trapping (see test_golden_program_executes_identically)
_GOLDEN = Program(
    instructions=[
        Arith(2, "+", 0, 1),
        Arith(3, "*", 2, 2),
        Arith(4, "-", 3, 0),
        Arith(5, "/", 4, 2),
        Arith(6, "mod", 5, 2),
        Arith(7, ">>", 6, 2),
        Arith(8, "min", 7, 6),
        Arith(9, "max", 8, 7),
        Arith(10, "eq", 9, 8),
        Arith(11, "le", 10, 9),
        Arith(12, "lt", 11, 10),
        Move(13, 12),
        Select(14, 13),
        GotoIfEmpty("tail", 14),
        LengthI(15, 14),
        EnumerateI(16, 14),
        LoadEmpty(17),
        LoadConst(18, 42),
        UnArith(19, "log2", 18),
        UnArith(20, "sqrt", 18),
        FlagMerge(21, 11, 17, 14),
        SegScan(22, "+", 14, 15),
        SegScan(23, "max", 16, 15),
        SegReduce(24, "+", 14, 15),
        SegReduce(25, "max", 16, 15),
        BmRoute(26, 14, 21, 16),
        AppendI(27, 14, 14),
        AppendI(28, 27, 14),
        SbmRoute(29, 28, 24, 14, 15),
        Goto("end"),
        Trap("unreachable"),
        Halt(),
    ],
    labels={"tail": 30, "end": 31},
    n_registers=30,
    n_inputs=2,
    n_outputs=1,
)

_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "vector_source.py.txt")


def test_disassemble_smoke(monkeypatch):
    prog = compile_nsc(_affine_fn())
    for be in ALL_BACKENDS:
        text = prog.disassemble(backend=be)
        assert isinstance(text, str) and text
    assert "def _blk" in prog.disassemble(backend="vector")
    assert "# entry" in prog.disassemble(backend="fused")
    # the default disassembly follows the same resolution as run()
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert prog.disassemble() == prog.disassemble(backend="fused")


def test_vector_generated_source_matches_golden():
    source = get_backend("vector").disassemble(_GOLDEN)
    with open(_GOLDEN_PATH, encoding="utf-8") as fh:
        golden = fh.read()
    assert source == golden, (
        "generated vector source drifted from tests/golden/vector_source.py.txt; "
        "if the change is intentional, regenerate the snapshot with:\n"
        "  PYTHONPATH=src:tests python -c \"import test_backends as t; "
        "open(t._GOLDEN_PATH, 'w').write("
        "t.get_backend('vector').disassemble(t._GOLDEN))\""
    )


def test_golden_program_executes_identically():
    # the golden program is not just a pretty listing — it runs (data register
    # shapes chosen so every descriptor check passes until the goto)
    _assert_all_backends_agree(_GOLDEN, [[9, 0, 4], [3, 1, 2]])
    _assert_all_backends_agree(_GOLDEN, [[], []])
