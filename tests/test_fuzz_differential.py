"""The differential fuzzing battery: every engine agrees on random programs.

For each seeded case (:mod:`fuzz_gen`) the battery runs the same inputs
through every execution path the repo has grown, and asserts **value- and
trap-equality** against the Appendix B interpreter (the semantics of
record):

* ``compile_nsc`` at ``opt_level=0`` (naive emission, fused executor);
* ``compile_nsc`` at ``opt_level=2`` — the untraced ``fused`` tier and the
  traced reference machine;
* ``run_batch`` over the whole input set (one batched machine run, with
  ``return_exceptions=True`` isolation);
* the ``plain`` column — the same inputs as plain Python data, which the
  front door encodes per field with no S-object built (typed ingest):
  ``run`` (value, ``T'``, ``W'`` or trap text), ``run_batch`` in-process and
  through the shard executor must equal the ``from_python`` column slot
  for slot, trap index and cause included;
* the multi-core shard path (:class:`repro.serving.ShardExecutor`, two
  workers, spans as pickle-5 out-of-band frames; see
  :mod:`repro.serving.transport`) with global trap-index attribution.

Tier-1 runs ``FUZZ_CASES`` (default 200) cases under the fixed
``FUZZ_SEED``; the nightly CI job raises ``FUZZ_CASES`` to 2000.  Cases are
split over ``pytest.mark.parametrize`` chunks so ``pytest-xdist`` spreads
them across cores.  A failing case is reported (and, when
``FUZZ_FAILURES_DIR`` is set, written as a JSON artifact) by its **seed** —
``fuzz_gen.gen_case(seed)`` rebuilds the exact program and inputs with no
other state.
"""

from __future__ import annotations

import json
import os

import pytest

from fuzz_gen import gen_case
from repro.bvram import BVRAM, BVRAMError
from repro.compiler import compile_nsc
from repro.compiler.batch import BatchError
from repro.nsc.eval import NSCEvalError, apply_function
from repro.nsc.values import from_python
from repro.serving import ShardExecutor

BASE_SEED = int(os.environ.get("FUZZ_SEED", "20260726"))
N_CASES = int(os.environ.get("FUZZ_CASES", "200"))
N_CHUNKS = 8

#: the single "it trapped" outcome — *which* trap is deliberately not
#: compared (the interpreter says "get applied to a sequence of length 2",
#: the machine's guard says "trap: get of a non-singleton"; both are the
#: same Omega in the paper's semantics)
TRAP = ("trap",)


def _interp_outcome(fn, value):
    try:
        return ("value", apply_function(fn, value).value)
    except NSCEvalError:
        return TRAP


def _compiled_outcome(prog, value, traced=False):
    machine = BVRAM(prog.n_registers)
    try:
        res = machine.run(prog, prog.encode_input(value), record_trace=traced)
    except BVRAMError:
        return TRAP
    return ("value", prog.decode_output(res.registers))


def _slot_outcome(res):
    return TRAP if isinstance(res, BatchError) else ("value", res)


def _run_outcome(prog, arg):
    """One ``run``: the value with its ``T'``/``W'``, or the trap's text."""
    try:
        value, res = prog.run(arg)
    except BVRAMError as e:
        return ("trap", str(e))
    return ("value", value, res.time, res.work)


def _exact_slot(res):
    """A batch slot including *which* trap: two ingests of one engine must agree on it."""
    return ("trap", res.index, res.cause_text) if isinstance(res, BatchError) else ("value", res)


def _check_case(case, executor) -> list[str]:
    """All divergence descriptions for one case (empty = the case passes)."""
    fn = case.fn
    prog0 = compile_nsc(fn, opt_level=0)
    prog2 = compile_nsc(fn, opt_level=2)
    values = [from_python(v) for v in case.inputs]
    expected = [_interp_outcome(fn, v) for v in values]

    problems: list[str] = []

    def expect(engine: str, i: int, outcome) -> None:
        if outcome != expected[i]:
            problems.append(
                f"{engine} diverges from the interpreter on input {i}: "
                f"{outcome[0]} vs {expected[i][0]}"
            )

    for i, v in enumerate(values):
        expect("opt0", i, _compiled_outcome(prog0, v))
        expect("opt2/fused", i, _compiled_outcome(prog2, v))
        expect("opt2/traced", i, _compiled_outcome(prog2, v, traced=True))

    batched = prog2.run_batch(values, return_exceptions=True)
    for i, res in enumerate(batched):
        expect("run_batch", i, _slot_outcome(res))
        if isinstance(res, BatchError) and res.index != i:
            problems.append(
                f"run_batch trap at slot {i} carries index {res.index}"
            )
    if all(o is not TRAP for o in expected) and getattr(
        prog2, "_batch_fallback_error", None
    ) is not None:
        # no input trapped, yet the batched run degraded to the loop:
        # an infrastructure bug hiding behind the fallback
        problems.append(
            f"batched run silently fell back: {prog2._batch_fallback_error}"
        )

    sharded = executor.run_batch(prog2, values, shards=2, return_exceptions=True)
    for i, res in enumerate(sharded):
        expect("sharded", i, _slot_outcome(res))
        if isinstance(res, BatchError) and res.index != i:
            problems.append(f"sharded trap at slot {i} carries global index {res.index}")
    by_engine = {"run_batch": batched, "sharded": sharded}

    # the plain column: typed ingest against tree ingest, same engine
    plain = list(case.inputs)
    for i, (x, v) in enumerate(zip(plain, values)):
        if _run_outcome(prog2, x) != _run_outcome(prog2, v):
            problems.append(f"plain run diverges from the from_python run on input {i}")
    for engine, got in (
        ("run_batch", prog2.run_batch(plain, return_exceptions=True)),
        ("sharded", executor.run_batch(prog2, plain, shards=2, return_exceptions=True)),
    ):
        if list(map(_exact_slot, got)) != list(map(_exact_slot, by_engine[engine])):
            problems.append(f"plain {engine} diverges from the from_python column")
    return problems


@pytest.fixture(scope="module")
def shard_executor():
    ex = ShardExecutor(n_workers=2)
    yield ex
    ex.close()


@pytest.mark.parametrize("chunk", range(N_CHUNKS))
def test_fuzz_differential(chunk, shard_executor):
    failures = []
    for i in range(chunk, N_CASES, N_CHUNKS):
        seed = BASE_SEED + i
        try:
            case = gen_case(seed)
            problems = _check_case(case, shard_executor)
        except Exception as e:  # CompileError, encoder crash, ...: all bugs
            problems = [f"engine crash: {type(e).__name__}: {e}"]
        if problems:
            failures.append({"seed": seed, "problems": problems})
    out_dir = os.environ.get("FUZZ_FAILURES_DIR")
    if failures and out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"fuzz_failures_chunk{chunk}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"base_seed": BASE_SEED, "failures": failures}, fh, indent=2)
    assert not failures, (
        f"{len(failures)} fuzz case(s) diverged; reproduce with "
        f"fuzz_gen.gen_case(seed): {failures[:5]}"
    )
