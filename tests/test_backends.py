"""The one untraced tier, ``fused``: bit-identity, fork/pickle safety, no knob.

Four groups of pins:

* **no selection** — the benchmark-only shims name ``fused`` alone, the
  removed tier names are refused where a name is still accepted, and
  ``REPRO_BACKEND`` is ignored on every path (in-process, batched, sharded);
* **bit-identity** — ``fused`` agrees with the traced reference on values,
  ``T'``/``W'`` *and every error path* (trap depth, partial-block
  accounting, ``max_steps`` mid-block stops) across the differential
  battery and a set of adversarial hand programs (overflow edges, empty
  registers, destination aliasing inside one block);
* **process boundaries** — every registered plan-cache lock resets in a
  forked child;
* **disassembly** — the plan listing renders block boundaries.

The ``test_vector_*`` tests are named for the vector-register programs
they run; they once pinned a second untraced tier, and now pin ``fused``
against the traced reference on the same programs and edges.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle

import pytest

from repro.backends import available_backends, get_backend
from repro.backends import fused as fused_mod
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
from repro.nsc import from_python
from repro.nsc.types import NAT
from repro.serving import ShardExecutor

# ---------------------------------------------------------------------------
# no selection
# ---------------------------------------------------------------------------


def test_registry_lists_all_backends():
    # the two names bench/layers.py still calls to time the tier's plan
    assert available_backends() == ("fused",)
    assert get_backend("fused") is fused_mod
    prog = compile_nsc(_affine_fn())
    assert get_backend("fused").plan(prog) is fused_mod.plan(prog)
    with pytest.raises(ValueError, match="unknown backend"):
        get_backend("no-such-backend")


#: the deleted tiers: the per-instruction loop, the numba variant of the
#: generated-source tier, and that tier itself
REMOVED = ("interp", "vector" + "-jit", "vector")


@pytest.mark.parametrize("name", REMOVED)
def test_removed_tiers_are_refused_by_name(name):
    """A removed tier fails like any unknown name wherever a name is taken."""
    gone = f"unknown backend {name!r}; available: fused"
    with pytest.raises(ValueError, match=gone):
        get_backend(name)
    prog = compile_nsc(_affine_fn())
    with pytest.raises(ValueError, match=gone):
        prog.run([1, 2, 3], backend=name)


def test_backend_pin_survives_pickling_to_shard_workers(monkeypatch):
    """A program pickled while tiers could be pinned still runs, sharded too."""
    values = [[1, 2, 3], [4, 5], [6], [7, 8]]
    prog = compile_nsc(_affine_fn())
    expected = prog.run_batch(values)
    # a program pickled while the knob existed carries a tier name in its
    # state; it crosses the boundary without its plan caches and nothing
    # reads the name, in this process or in a worker
    stale = compile_nsc(_affine_fn())
    stale.backend = "vector"
    stale.run_batch(values)
    clone = pickle.loads(pickle.dumps(stale))
    for attr in clone._CACHE_ATTRS:
        assert not hasattr(clone, attr)
    assert clone.run_batch(values) == expected
    monkeypatch.setenv("REPRO_BACKEND", "no-such-backend")
    with ShardExecutor(n_workers=2) as ex:
        assert ex.run_batch(stale, values, shards=2) == expected


def test_backend_environment_is_ignored(monkeypatch):
    values = [[1, 2, 3], [4, 5], [6], [7, 8]]
    prog = compile_nsc(_affine_fn())
    expected = [prog.run(v)[0] for v in values]
    # workers forked after this inherit it too
    monkeypatch.setenv("REPRO_BACKEND", "no-such-backend")
    assert [prog.run(v)[0] for v in values] == expected
    assert prog.run_batch(values) == expected
    with ShardExecutor(n_workers=2) as ex:
        assert ex.run_batch(prog, values, shards=2) == expected


# ---------------------------------------------------------------------------
# bit-identity: the differential battery
# ---------------------------------------------------------------------------


def _machine_outcome(prog, value, traced):
    """(tag, registers, T, W) — error paths keep message and partial totals."""
    machine = BVRAM(prog.n_registers)
    try:
        res = machine.run(prog, prog.encode_input(value), record_trace=traced)
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
    """values, T' and W' agree with the traced reference on every battery program/input."""
    for name, fn, inputs in suite():
        prog = compile_nsc(fn, eps=eps, opt_level=opt_level)
        for v in inputs:
            ref = _machine_outcome(prog, v, traced=True)
            got = _machine_outcome(prog, v, traced=False)
            assert got == ref, (name, eps, opt_level, v)


# ---------------------------------------------------------------------------
# bit-identity: adversarial hand programs
# ---------------------------------------------------------------------------


def _raw_outcome(prog, inputs, traced, max_steps=10_000_000):
    machine = BVRAM(prog.n_registers)
    try:
        machine.run(prog, inputs, max_steps=max_steps, record_trace=traced)
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


def _assert_fused_agrees(prog, inputs, max_steps=10_000_000):
    ref = _raw_outcome(prog, inputs, True, max_steps)
    got = _raw_outcome(prog, inputs, False, max_steps)
    assert got == ref, (inputs, got, ref)
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
        [[], []],  # empty operands
    ):
        _assert_fused_agrees(p, inputs)


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
        _assert_fused_agrees(p, [[TOP, BIG, 5, 1, 0, TOP], shifts])


def test_vector_dst_aliasing_in_one_block():
    # repeated writes to the same register inside one block: each step
    # must read the value the step before it wrote
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
    _assert_fused_agrees(p, [[3, 7], [5, 2]])
    _assert_fused_agrees(p, [[2**31], [1]])  # * overflows mid-chain
    _assert_fused_agrees(p, [[3, 7], [0, 0]])  # mod-by-zero trap


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
        ([BIG, BIG], [2]),  # sum = 2**63: traps on both paths
        ([], [0, 0]),
        ([5], [1, 0]),
    ):
        _assert_fused_agrees(p, [data, segs, []])


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
        _assert_fused_agrees(p, [[1], [2]], max_steps=ms)


def test_negative_load_const_traps_only_when_executed():
    # the traced loop checks the constant when the instruction runs, so a
    # negative one behind a halt is harmless and one on the executed path
    # is an uncharged trap after its charged prefix — untraced too
    unreached = Program(
        instructions=[LoadConst(0, 7), Halt(), LoadConst(0, -1)],
        labels={},
        n_registers=1,
        n_inputs=0,
        n_outputs=1,
    )
    assert _assert_fused_agrees(unreached, []) == ("ok", 2, 1, [[7]])
    reached = Program(
        instructions=[LoadConst(0, 7), LoadConst(1, 3), LoadConst(0, -1), Halt()],
        labels={},
        n_registers=2,
        n_inputs=0,
        n_outputs=1,
    )
    tag, message, time, work, _ = _assert_fused_agrees(reached, [])
    assert (tag, time, work) == ("err", 2, 2)
    assert message == "load_const: BVRAM registers hold natural numbers"


def test_moved_label_rebuilds_every_plan():
    # jump targets are resolved when a plan is built, so the plan caches
    # must treat a relabelled program as a new one — the traced reference
    # walks the same cached op table as the fused plan
    p = Program(
        instructions=[Goto("a"), LoadConst(0, 1), Halt(), LoadConst(0, 2), Halt()],
        labels={"a": 1},
        n_registers=1,
        n_inputs=0,
    )
    assert _assert_fused_agrees(p, [])[-1] == [[1]]
    p.labels["a"] = 3
    assert _assert_fused_agrees(p, [])[-1] == [[2]]


def test_vector_machine_reuse_reinitialises_bounds():
    # a second run on the SAME machine starts from its leftover registers
    # and must agree with a traced run on a fresh machine: its totals and
    # overflow checks come from this run's values, not the run before
    p = Program(
        instructions=[Arith(2, "+", 0, 1), Arith(3, "max", 2, 2), Halt()],
        labels={},
        n_registers=4,
        n_inputs=2,
        n_outputs=1,
    )
    m = BVRAM(4)
    m.run(p, [[1], [2]], record_trace=False)
    assert m.register(3) == [3]
    m.run(p, [[BIG], [BIG - 1]], record_trace=False)
    assert m.register(2) == [TOP]
    assert (m.time, m.work) == _raw_outcome(p, [[BIG], [BIG - 1]], True)[1:3]
    with pytest.raises(BVRAMError, match="overflow"):
        m.run(p, [[BIG], [BIG]], record_trace=False)


def test_load_const_wider_than_a_register_is_refused_at_construction():
    # no int64 register holds 2**63, so the instruction cannot exist; the
    # largest natural below it loads and runs
    with pytest.raises(ValueError, match=str(2**63)):
        Program([Halt(), LoadConst(0, 2**63)])
    top = Program([LoadConst(0, TOP), Halt()], n_registers=1, n_inputs=0)
    assert _assert_fused_agrees(top, []) == ("ok", 2, 1, [[TOP]])
    # an NSC literal that wide is outside the compiler's fragment
    x = B.gensym("x")
    with pytest.raises(CompileError, match="exceeds the int64 register width"):
        compile_nsc(B.map_(B.lam(x, NAT, B.add(B.v(x), 2**63))), cache=None)
    widest = compile_nsc(B.map_(B.lam(x, NAT, B.nat_max(B.v(x), TOP))), cache=None)
    assert widest.run([1, 2])[0] == from_python([TOP, TOP])


# ---------------------------------------------------------------------------
# process boundaries: fork-safe locks
# ---------------------------------------------------------------------------


def _affine_fn():
    x = B.gensym("x")
    return B.map_(B.lam(x, NAT, B.add(B.mul(B.v(x), 3), 1)))


@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="fork start method unavailable"
)
def test_fork_resets_every_registered_cache_lock():
    locks = [fused_mod._TABLE_CACHE._lock, fused_mod._CACHE._lock]
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


# ---------------------------------------------------------------------------
# disassembly
# ---------------------------------------------------------------------------

#: one instruction of every opcode, plus control entries; the operand shapes
#: are chosen so the 3-element input below runs every instruction without
#: trapping
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

def test_disassemble_smoke():
    prog = compile_nsc(_affine_fn())
    text = prog.disassemble()
    assert text.startswith("# entry 0: block")
    assert text == fused_mod.disassemble(prog)


def test_golden_program_executes_identically():
    # every opcode in one program (data register shapes chosen so every
    # descriptor check passes until the goto)
    _assert_fused_agrees(_GOLDEN, [[9, 0, 4], [3, 1, 2]])
    _assert_fused_agrees(_GOLDEN, [[], []])
