"""The ``vector`` backend: each fused block compiled to ONE generated function.

Where the ``fused`` backend still loops over per-instruction closures inside
a block, this backend *generates Python source* for every maximal
straight-line block — a single function of NumPy mega-ops — and ``exec``'s
it once per program.  Inside a generated block there is **no dispatch at
all**: registers are plain locals (``v3``), each instruction is an inline
NumPy expression, and the ``T``/``W`` accounting is unrolled into constant
stores and ``+=`` lines.

Interval bounds: the generated guards
-------------------------------------

The expensive part of the interpreted kernels is not the arithmetic — it is
the *guards*: ``arith +`` reduces both operand maxima before every add to
prove no int64 wrap, ``/`` scans for zero divisors, ``seg_scan +`` checks
cumsum monotonicity.  Generated blocks instead thread **per-register
interval bounds** (``lo[r]``/``hi[r]``, plain Python ints) through the run:

* every generated instruction updates its destination's bounds with O(1)
  Python-int arithmetic (``hi`` of a monus is ``hi[a]``, of a ``mod`` is
  ``min(hi[a], hi[b] - 1)``, ...);
* a guard is skipped exactly when the bounds *prove* it cannot fire
  (``hi[a] + hi[b] < 2**63`` — no add can wrap; ``lo[b] > 0`` — no zero
  divisor), otherwise the original checked kernel runs unchanged, raising
  the identical :class:`~repro.bvram.errors.BVRAMError`;
* bounds are **sound upper/lower bounds for non-empty registers** and
  merely vacuous for empty ones — every fast path degenerates correctly on
  empty operands (an empty array cannot overflow or divide by zero), so
  vacuous bounds cannot misfire.  Checked slow paths re-tighten ``hi`` from
  the actual result, and ``lo`` is clamped at ``2**63``, so bounds stay
  small integers for the whole run.

Accounting is bit-identical to the traced interpreter: each instruction is
charged 1 time unit plus the post-execution sizes of its read and written
registers *immediately* after it executes (``t = k``/``w +=`` lines in the
generated source), and a raising instruction leaves ``t``/``w`` at the
completed-prefix totals, reported through the shared ``partial`` cell —
exactly the fused backend's protocol.  Blocks, plan indices, the dispatch
loop (:func:`~repro.backends.base.run_plan`) and its ``max_steps`` mid-block
fallback (driving the closure table) are shared with
:mod:`repro.backends.fused`, so step budgets stop at the identical
instruction.  What this tier pays for its faster blocks is the plan build:
generating and ``exec``-ing the source cost 421 ms against the fused plan's
4.9 ms on the benchmark's ``compile_sorts`` (``bench/out/baseline.json``).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..bvram import isa
from ..bvram.errors import BVRAMError
from . import kernels
from .base import BLOCK, JUMP, Backend, register_backend, run_plan
from .fused import group_entries, jump_entry
from .interp import plan_for
from .registry import PlanCache


def _amax(a: np.ndarray) -> int:
    return int(a.max()) if a.size else 0


#: globals of every generated module; per-program constants are added per build
_NAMESPACE = {
    "_np": np,
    "_i64": np.int64,
    "_L": kernels.INT64_LIMIT,
    "_EMPTY": np.zeros(0, dtype=np.int64),
    "_err": BVRAMError,
    "_amax": _amax,
    "_isqrt": math.isqrt,
    "_maximum": np.maximum,
    "_minimum": np.minimum,
    "_concat": np.concatenate,
    "_full": np.full,
    "_array": np.array,
    "_arange": np.arange,
    "_k_add": kernels.arith_add,
    "_k_mul": kernels.arith_mul,
    "_k_div": kernels.arith_div,
    "_k_mod": kernels.arith_mod,
    "_k_shr": kernels.arith_shr,
    "_k_log2": lambda a: kernels.un_arith("log2", a),
    "_k_sqrt": lambda a: kernels.un_arith("sqrt", a),
    "_k_flag_merge": kernels.flag_merge_vec,
    "_k_seg_scan": kernels.seg_scan_vec,
    "_k_seg_reduce": kernels.seg_reduce_vec,
    "_k_seg_scan_add": kernels.seg_scan_add_nooverflow,
    "_k_seg_reduce_add": kernels.seg_reduce_add_nooverflow,
    "_k_bm_route": kernels.bm_route_vec,
    "_k_sbm_route": kernels.sbm_route_vec,
}


class _BlockGen:
    """Source generator for one straight-line block."""

    def __init__(self, consts: dict[int, str]) -> None:
        self.lines: list[str] = []
        self.loaded: set[int] = set()
        self.sloaded: set[int] = set()
        self.bloaded: set[int] = set()
        self.bdirty: set[int] = set()
        #: registers whose bounds this block reads before writing them —
        #: the executor must seed lo/hi for exactly these (see execute())
        self.binit: set[int] = set()
        self.consts = consts

    def emit(self, line: str, depth: int = 0) -> None:
        self.lines.append("    " * depth + line)

    def use(self, *regs: int) -> None:
        for r in regs:
            if r not in self.loaded:
                self.emit(f"v{r} = regs[{r}]")
                self.loaded.add(r)

    def usen(self, *regs: int) -> None:
        """Bind ``n{r}`` size locals — one attribute lookup per register version."""
        for r in regs:
            if r not in self.sloaded:
                self.emit(f"n{r} = v{r}.size")
                self.sloaded.add(r)

    def useb(self, *regs: int) -> None:
        for r in regs:
            if r not in self.bloaded:
                self.emit(f"l{r} = lo[{r}]")
                self.emit(f"h{r} = hi[{r}]")
                self.bloaded.add(r)
                self.binit.add(r)

    def const(self, value: int) -> str:
        name = self.consts.get(value)
        if name is None:
            name = f"_K{len(self.consts)}"
            self.consts[value] = name
        return name

    def shape_guard(self, op: str, a: int, b: int) -> None:
        self.usen(a, b)
        self.emit(f"if n{a} != n{b}:")
        self.emit(
            f'raise _err("arith {op}: operands have different lengths '
            f'%d and %d" % (n{a}, n{b}))',
            1,
        )

    def finish(
        self,
        d: int,
        instr: isa.Instruction,
        j: int,
        bounds: bool = True,
        size: str | None = None,
    ) -> None:
        """Common tail: bounds/size store, eager writeback, T/W accounting.

        ``size`` is an int expression for the destination's new length
        (evaluated against the *pre-instruction* size locals); without it
        the generated code falls back to a ``.size`` lookup.  W charges
        post-execution lengths, so the w line runs after ``n{d}`` updates.
        """
        if bounds:
            self.emit(f"l{d} = _l")
            self.emit(f"h{d} = _h")
            self.bloaded.add(d)
            self.bdirty.add(d)
        self.loaded.add(d)
        rw = instr.registers_read() + instr.registers_written()
        self.usen(*[r for r in rw if r != d])
        self.emit(f"n{d} = {size}" if size else f"n{d} = v{d}.size")
        self.sloaded.add(d)
        self.emit(f"regs[{d}] = v{d}")
        self.emit(f"t = {j + 1}")
        self.emit("w += " + " + ".join(f"n{r}" for r in rw))

    # -- per-instruction emission -------------------------------------------

    def gen(self, instr: isa.Instruction, j: int) -> None:
        self.emit(f"# {j}: {instr!r}")
        if isinstance(instr, isa.Arith):
            self.gen_arith(instr, j)
        elif isinstance(instr, isa.Move):
            d, s = instr.dst, instr.src
            self.use(s)
            self.usen(s)
            self.useb(s)
            self.emit(f"v{d} = v{s}")
            self.emit(f"_l = l{s}")
            self.emit(f"_h = h{s}")
            self.finish(d, instr, j, size=f"n{s}")
        elif isinstance(instr, isa.Select):
            d, s = instr.dst, instr.src
            self.use(s)
            self.useb(s)
            self.emit(f"v{d} = v{s}[v{s} != 0]")
            self.emit(f"_l = l{s} if l{s} > 1 else 1")
            self.emit(f"_h = h{s}")
            self.finish(d, instr, j)
        elif isinstance(instr, isa.FlagMerge):
            d, f, a, b = instr.dst, instr.flags, instr.a, instr.b
            self.use(f, a, b)
            self.usen(f)
            self.useb(a, b)
            self.emit(f"v{d} = _k_flag_merge(v{f}, v{a}, v{b})")
            self.emit(f"_l = l{a} if l{a} < l{b} else l{b}")
            self.emit(f"_h = h{a} if h{a} > h{b} else h{b}")
            self.finish(d, instr, j, size=f"n{f}")
        elif isinstance(instr, isa.AppendI):
            d, a, b = instr.dst, instr.a, instr.b
            self.use(a, b)
            self.usen(a, b)
            self.useb(a, b)
            self.emit(f"v{d} = _concat((v{a}, v{b}))")
            self.emit(f"_l = l{a} if l{a} < l{b} else l{b}")
            self.emit(f"_h = h{a} if h{a} > h{b} else h{b}")
            self.finish(d, instr, j, size=f"n{a} + n{b}")
        elif isinstance(instr, isa.UnArith):
            d, s = instr.dst, instr.src
            self.use(s)
            self.usen(s)
            self.useb(s)
            if instr.op == "log2":
                self.emit(f"v{d} = _k_log2(v{s})")
                self.emit(f"_l = l{s}.bit_length() - 1 if l{s} > 0 else 0")
                self.emit(f"_h = h{s}.bit_length() - 1 if h{s} > 0 else 0")
            else:  # sqrt
                self.emit(f"v{d} = _k_sqrt(v{s})")
                self.emit(f"_l = _isqrt(l{s})")
                self.emit(f"_h = _isqrt(h{s})")
            self.finish(d, instr, j, size=f"n{s}")
        elif isinstance(instr, isa.LengthI):
            d, s = instr.dst, instr.src
            self.use(s)
            self.usen(s)
            self.emit(f"v{d} = _array([n{s}], _i64)")
            self.emit(f"_l = n{s}")
            self.emit("_h = _l")
            self.finish(d, instr, j, size="1")
        elif isinstance(instr, isa.EnumerateI):
            d, s = instr.dst, instr.src
            self.use(s)
            self.usen(s)
            self.emit(f"v{d} = _arange(n{s}, dtype=_i64)")
            self.emit("_l = 0")
            self.emit(f"_h = n{s} - 1 if n{s} > 1 else 0")
            self.finish(d, instr, j, size=f"n{s}")
        elif isinstance(instr, isa.LoadEmpty):
            d = instr.dst
            # aliasing the shared empty is safe: no kernel mutates in place
            self.emit(f"v{d} = _EMPTY")
            self.emit("_l = 0")
            self.emit("_h = 0")
            self.finish(d, instr, j, size="0")
        elif isinstance(instr, isa.LoadConst):
            d = instr.dst
            if instr.value < 0:  # traps when executed, as in the traced loop
                self.emit('raise _err("load_const: BVRAM registers hold natural numbers")')
            self.emit(f"v{d} = {self.const(instr.value)}")
            self.emit(f"_l = {instr.value}")
            self.emit("_h = _l")
            self.finish(d, instr, j, size="1")
        elif isinstance(instr, isa.BmRoute):
            d = instr.dst
            dt, c, bn = instr.data, instr.counts, instr.bound
            self.use(dt, c, bn)
            self.usen(dt, c, bn)
            self.useb(dt)
            # scalar broadcast (a literal routed up to a vector's length) is
            # by far the most common routing shape: one C-level repeat beats
            # the kernel's counts.sum() reduction plus bound checks
            self.emit(f"if n{dt} == 1 and n{c} == 1:")
            self.emit(f"_n = v{c}[0]", 1)
            self.emit(f"if _n != n{bn}:", 1)
            self.emit(
                'raise _err("bm_route: counts must sum to the length '
                'of the bound register")',
                2,
            )
            self.emit(f"v{d} = v{dt}.repeat(_n)", 1)
            self.emit("else:")
            self.emit(f"v{d} = _k_bm_route(v{dt}, v{c}, v{bn})", 1)
            self.emit(f"_l = l{dt}")
            self.emit(f"_h = h{dt}")
            self.finish(d, instr, j)
        elif isinstance(instr, isa.SbmRoute):
            d = instr.dst
            self.use(instr.bound, instr.counts, instr.data, instr.segments)
            self.useb(instr.data)
            self.emit(
                f"v{d} = _k_sbm_route(v{instr.bound}, v{instr.counts}, "
                f"v{instr.data}, v{instr.segments})"
            )
            self.emit(f"_l = l{instr.data}")
            self.emit(f"_h = h{instr.data}")
            self.finish(d, instr, j)
        elif isinstance(instr, (isa.SegScan, isa.SegReduce)):
            d, s, g = instr.dst, instr.data, instr.segments
            scan = isinstance(instr, isa.SegScan)
            checked = "_k_seg_scan" if scan else "_k_seg_reduce"
            self.use(s, g)
            self.usen(s, g)
            self.useb(s)
            if instr.op == "+":
                # per-segment (partial) sums are bounded by hi[data] * len(data):
                # below 2**63 the cumsum provably cannot wrap, so the
                # monotonicity scan is skipped (descriptor checks still run)
                self.emit(f"_b = h{s} * n{s}")
                self.emit("if _b < _L:")
                self.emit(f"v{d} = {checked}_add(v{s}, v{g})", 1)
                self.emit("_h = _b", 1)
                self.emit("else:")
                self.emit(f"v{d} = {checked}('+', v{s}, v{g})", 1)
                self.emit(f"_h = _amax(v{d})", 1)
            else:  # max
                self.emit(f"v{d} = {checked}('max', v{s}, v{g})")
                self.emit(f"_h = h{s}")
            self.emit("_l = 0")
            self.finish(d, instr, j, size=f"n{s}" if scan else f"n{g}")
        else:
            raise BVRAMError(f"vector backend: unknown instruction {instr!r}")

    def gen_arith(self, instr: isa.Arith, j: int) -> None:
        d, op, a, b = instr.dst, instr.op, instr.a, instr.b
        self.use(a, b)
        self.shape_guard(op, a, b)
        if op == "+":
            self.useb(a, b)
            self.emit(f"_b = h{a} + h{b}")
            self.emit("if _b < _L:")
            self.emit(f"v{d} = v{a} + v{b}", 1)
            self.emit("_h = _b", 1)
            self.emit("else:")
            self.emit(f"v{d} = _k_add(v{a}, v{b})", 1)
            self.emit(f"_h = _amax(v{d})", 1)
            self.emit(f"_l = l{a} + l{b}")
            self.emit("if _l > _L:")
            self.emit("_l = _L", 1)
        elif op == "*":
            self.useb(a, b)
            self.emit(f"_b = h{a} * h{b}")
            self.emit("if _b < _L:")
            self.emit(f"v{d} = v{a} * v{b}", 1)
            self.emit("_h = _b", 1)
            self.emit("else:")
            self.emit(f"v{d} = _k_mul(v{a}, v{b})", 1)
            self.emit(f"_h = _amax(v{d})", 1)
            self.emit(f"_l = l{a} * l{b}")
            self.emit("if _l > _L:")
            self.emit("_l = _L", 1)
        elif op == "-":
            self.useb(a, b)
            self.emit(f"v{d} = _maximum(v{a} - v{b}, 0)")
            self.emit(f"_l = l{a} - h{b}")
            self.emit("if _l < 0:")
            self.emit("_l = 0", 1)
            self.emit(f"_h = h{a}")
        elif op == "/":
            self.useb(a, b)
            self.emit(f"if l{b} > 0:")
            self.emit(f"v{d} = v{a} // v{b}", 1)
            self.emit("else:")
            self.emit(f"v{d} = _k_div(v{a}, v{b})", 1)
            self.emit(f"_l = l{a} // h{b} if h{b} > 0 else 0")
            self.emit(f"_h = h{a} // l{b} if l{b} > 0 else h{a}")
        elif op == "mod":
            self.useb(a, b)
            self.emit(f"if l{b} > 0:")
            self.emit(f"v{d} = v{a} % v{b}", 1)
            self.emit("else:")
            self.emit(f"v{d} = _k_mod(v{a}, v{b})", 1)
            self.emit("_l = 0")
            self.emit(f"_h = h{b} - 1")
            self.emit(f"if h{a} < _h:")
            self.emit(f"_h = h{a}", 1)
            self.emit("if _h < 0:")
            self.emit("_h = 0", 1)
        elif op == ">>":
            self.useb(a, b)
            self.emit(f"if h{b} < 63:")
            self.emit(f"v{d} = v{a} >> v{b}", 1)
            self.emit("else:")
            self.emit(f"v{d} = _k_shr(v{a}, v{b})", 1)
            self.emit(f"_l = l{a} >> h{b} if h{b} < 63 else 0")
            self.emit(f"_h = h{a} >> l{b} if l{b} < 63 else 0")
        elif op == "min":
            self.useb(a, b)
            self.emit(f"v{d} = _minimum(v{a}, v{b})")
            self.emit(f"_l = l{a} if l{a} < l{b} else l{b}")
            self.emit(f"_h = h{a} if h{a} < h{b} else h{b}")
        elif op == "max":
            self.useb(a, b)
            self.emit(f"v{d} = _maximum(v{a}, v{b})")
            self.emit(f"_l = l{a} if l{a} > l{b} else l{b}")
            self.emit(f"_h = h{a} if h{a} > h{b} else h{b}")
        else:  # eq / le / lt
            py_op = {"eq": "==", "le": "<=", "lt": "<"}[op]
            self.emit(f"v{d} = (v{a} {py_op} v{b}).astype(_i64)")
            self.emit("_l = 0")
            self.emit("_h = 1")
        self.finish(d, instr, j, size=f"n{a}")


def gen_block_source(
    name: str, instrs: list[isa.Instruction], consts: dict[int, str]
) -> tuple[str, set[int]]:
    """The generated function for one block: ``fn(regs, lo, hi, partial)``.

    Returns the source and the set of registers whose ``lo``/``hi`` the
    block loads before writing them (the executor seeds exactly those).
    """
    g = _BlockGen(consts)
    for j, instr in enumerate(instrs):
        g.gen(instr, j)
    body = "\n".join("        " + ln for ln in g.lines)
    writeback = "\n".join(
        f"    lo[{r}] = l{r}\n    hi[{r}] = h{r}" for r in sorted(g.bdirty)
    )
    if writeback:
        writeback += "\n"
    source = (
        f"def {name}(regs, lo, hi, partial):\n"
        f"    t = 0\n"
        f"    w = 0\n"
        f"    try:\n"
        f"{body}\n"
        f"    except BaseException:\n"
        f"        partial[0] = t\n"
        f"        partial[1] = w\n"
        f"        raise\n"
        f"{writeback}"
        f"    return {len(instrs)}, w\n"
    )
    return source, g.binit


class VectorPlan(NamedTuple):
    """Entries in the fused-plan layout plus the generated module source.

    ``binit`` is the union over blocks of registers whose bounds are read
    before written: only these need exact ``min``/``max`` seeding at run
    start — every other slot gets the sound vacuous interval.
    """

    entries: list[tuple]
    source: str
    binit: tuple[int, ...]


def build_vector_plan(program: isa.Program) -> VectorPlan:
    """Generate, compile and link the vector plan for ``program``."""
    base = plan_for(program)
    groups, entry_target = group_entries(program, base)
    consts: dict[int, str] = {}
    parts: list[str] = []
    block_names: dict[int, str] = {}
    binit: set[int] = set()
    for gi, (kind, idxs) in enumerate(groups):
        if kind != BLOCK:
            continue
        name = f"_blk{gi}"
        block_names[gi] = name
        src, blk_binit = gen_block_source(
            name, [program.instructions[j] for j in idxs], consts
        )
        parts.append(src)
        binit |= blk_binit
    source = "\n".join(parts)
    ns = dict(_NAMESPACE)
    for value, cname in consts.items():
        ns[cname] = np.array([value], dtype=np.int64)
    exec(compile(source, "<repro-vector-plan>", "exec"), ns)
    entries: list[tuple] = []
    for gi, (kind, idxs) in enumerate(groups):
        first = idxs[0]
        if kind == BLOCK:
            fn = ns[block_names[gi]]
            # run_plan drives the closure table through this attribute when
            # the step budget expires mid-block (exact max_steps parity)
            fn.steps = tuple((base[j][1], base[j][2]) for j in idxs)
            entries.append((BLOCK, fn, len(idxs)))
        elif kind == JUMP:
            entries.append(jump_entry(program, base, first, entry_target))
        else:  # HALT / TRAP
            entries.append((kind, base[first][1], base[first][2]))
    return VectorPlan(entries, source, tuple(sorted(binit)))


_CACHE = PlanCache("_vector_plan", build_vector_plan)


class VectorBackend(Backend):
    """Generated mega-kernel execution with interval-bound guard elision."""

    name = "vector"
    cache_attr = _CACHE.attr

    def plan(self, program) -> VectorPlan:
        return _CACHE.lookup(program)

    def execute(self, machine, program, max_steps: int, instrument=None) -> None:
        vplan = _CACHE.lookup(program)
        plan = vplan.entries
        if instrument is not None:
            plan = instrument(plan)
        regs = machine.registers
        # only registers whose bounds some block reads before writing need
        # exact seeding; the rest get the vacuous (sound) full interval and
        # are overwritten by block writeback before any possible read
        n_regs = len(regs)
        lo = [0] * n_regs
        hi = [kernels.INT64_LIMIT - 1] * n_regs
        for i in vplan.binit:
            r = regs[i]
            if r.size:
                lo[i] = int(r.min())
                hi[i] = int(r.max())
            else:
                hi[i] = 0
        run_plan(machine, plan, max_steps, lo, hi)

    def disassemble(self, program) -> str:
        return self.plan(program).source


VECTOR = register_backend(VectorBackend())
