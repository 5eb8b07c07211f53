"""Differential testing: interpreter vs compiled BVRAM, with T'/W' envelopes.

Theorem 7.1 makes two claims that can be checked mechanically for every
program in the supported fragment:

* **Equivalence** — running the NSC interpreter (Appendix B semantics) and
  the compiled BVRAM program on the same input yields the same S-object;
* **Complexity** — the measured machine costs satisfy ``T' = O(T)`` and
  ``W' = O(W^(1+eps))`` where ``(T, W)`` are the Definition 3.1 costs
  reported by the interpreter.

:func:`run_differential` performs one such check; :func:`suite` enumerates a
battery of programs spanning every construct the compiler supports — scalar
arithmetic, ``map``, the filter idiom (``case`` under ``map``), segmented
library combinators, root- and lifted ``while`` (the Lemma 7.2 staged
scheme), sums with payloads, and the Theorem 4.2 translations of the
Section 4/5 algorithms (quicksort, the g-schema mergesort, the recursion
schemata) — closing the paper's chain end to end.

The envelope constants below are deliberately generous: the theorem claims
asymptotics, and the tests pin *constant-factor* behaviour so a regression
that breaks the bound class (e.g. an accidental O(T*W) re-touching) fails
loudly while honest constant drift does not.

Run as a module it prints the battery's exact costs (eps 0.5, opt 2)::

    python -m repro.compiler.difftest --table          # Markdown, T'/T per case
    python -m repro.compiler.difftest --json           # tests/golden/battery_costs.json
    python -m repro.compiler.difftest --table --before OLD.json   # "old → new" cells,
                                                                  # summed T'/W', rises

Both outputs come from :func:`battery_costs`, so the tier-1 golden and the
README table cannot disagree.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from ..algorithms.mergesort import direct_merge_fn, mergesort_def
from ..algorithms.quicksort import quicksort_def
from ..algorithms.schemata import (
    balanced_sum,
    countdown,
    halving_tail,
    skewed_sum,
    two_or_three_way_sum,
)
from ..maprec.translate import translate
from ..nsc import ast as A
from ..nsc import builder as B
from ..nsc import lib
from ..nsc.eval import apply_function
from ..nsc.types import NAT
from ..nsc.values import Value, from_python
from . import CompiledProgram, compile_nsc
from .codegen import CODEGEN_VERSION

#: ``T' <= TIME_FACTOR * T + TIME_PROGRAM_FACTOR * |program| + TIME_SLACK``:
#: T' is within a constant factor of T plus a once-through of the emitted
#: straight-line code (a compile-time constant, independent of the input —
#: the compiled program executes its body even when every context is empty).
TIME_FACTOR = 30
TIME_PROGRAM_FACTOR = 3
TIME_SLACK = 100

#: `W' <= WORK_FACTOR * (W + WORK_SLACK) ** (1 + eps)` — the Lemma 7.2 envelope.
WORK_FACTOR = 30
WORK_SLACK = 400


@dataclass(frozen=True)
class DiffRecord:
    """Outcome of one interpreter-vs-compiled differential run."""

    name: str
    eps: float
    value_matches: bool
    interp_time: int
    interp_work: int
    bvram_time: int
    bvram_work: int
    instructions: int
    registers: int
    opt_level: int = 2

    @property
    def time_ok(self) -> bool:
        bound = (
            TIME_FACTOR * self.interp_time
            + TIME_PROGRAM_FACTOR * self.instructions
            + TIME_SLACK
        )
        return self.bvram_time <= bound

    @property
    def work_ok(self) -> bool:
        bound = WORK_FACTOR * float(self.interp_work + WORK_SLACK) ** (1.0 + self.eps)
        return self.bvram_work <= bound

    @property
    def ok(self) -> bool:
        return self.value_matches and self.time_ok and self.work_ok


def run_differential(
    name: str,
    fn: A.Function,
    arg: object,
    eps: float = 0.5,
    compiled: CompiledProgram | None = None,
    opt_level: int = 2,
) -> DiffRecord:
    """Run ``fn`` through both the interpreter and the compiled BVRAM.

    The compiled side uses the untraced fast path — its ``T'``/``W'``
    totals are bit-identical to a traced run.
    """
    value = from_python(arg) if not isinstance(arg, Value) else arg
    interp = apply_function(fn, value)
    prog = compiled if compiled is not None else compile_nsc(fn, eps=eps, opt_level=opt_level)
    result, run = prog.run(value)
    return DiffRecord(
        name=name,
        eps=prog.eps,
        value_matches=result == interp.value,
        interp_time=interp.time,
        interp_work=interp.work,
        bvram_time=run.time,
        bvram_work=run.work,
        instructions=len(prog),
        registers=prog.n_registers,
        opt_level=prog.opt_level,
    )


# ---------------------------------------------------------------------------
# The program suite
# ---------------------------------------------------------------------------


def _map_square() -> A.Function:
    x = B.gensym("x")
    return B.map_(B.lam(x, NAT, B.mul(B.v(x), B.v(x))))


def _map_affine() -> A.Function:
    x = B.gensym("x")
    return B.map_(B.lam(x, NAT, B.mod(B.add(B.mul(B.v(x), 7), 3), 101)))


def _collatz_steps() -> A.Function:
    """``map(while(x > 1, collatz step))`` — the Lemma 7.2 stress case.

    Elements need wildly different iteration counts, which is exactly the
    spread the staged working-set compaction is designed to absorb.
    """
    x = B.gensym("x")
    pred = B.lam(x, NAT, B.gt(B.v(x), 1))
    y = B.gensym("y")
    step = B.lam(
        y,
        NAT,
        B.if_(
            B.eq(B.mod(B.v(y), 2), 0),
            B.div(B.v(y), 2),
            B.add(B.mul(B.v(y), 3), 1),
        ),
    )
    return B.map_(B.while_(pred, step))


def _filter_lt(k: int) -> A.Function:
    z = B.gensym("z")
    return lib.filter_fn(B.lam(z, NAT, B.lt(B.v(z), k)), NAT)


def _while_double() -> A.Function:
    x = B.gensym("x")
    y = B.gensym("y")
    return B.while_(B.lam(x, NAT, B.lt(B.v(x), 100)), B.lam(y, NAT, B.mul(B.v(y), 2)))


def suite() -> list[tuple[str, A.Function, list[object]]]:
    """``(name, function, inputs)`` triples covering the compiled fragment."""
    return [
        ("map_square", _map_square(), [[1, 2, 3, 4, 5, 6, 7], [], [9]]),
        ("map_affine", _map_affine(), [list(range(40))]),
        ("collatz_steps", _collatz_steps(), [[1, 9, 100, 3, 27, 0, 64, 7], [1], []]),
        ("filter_lt", _filter_lt(10), [[3, 15, 0, 10, 99, 7], [], [42]]),
        ("while_double", _while_double(), [1, 128]),
        ("first", lib.first(NAT), [[7, 8, 9]]),
        ("tail", lib.tail(NAT), [[7, 8, 9], [5]]),
        ("nth", lib.nth(NAT), [([5, 6, 7, 8], 2)]),
        ("pairwise", lib.pairwise(NAT), [[1, 2, 3, 4, 5], []]),
        ("reduce_add", lib.reduce_add(), [list(range(17)), [], [3]]),
        ("iota", lib.iota(), [13, 0, 1]),
        ("bm_route", lib.bm_route_nat(NAT), [(([0] * 6, [2, 0, 3, 1]), [10, 20, 30, 40])]),
        ("direct_merge", direct_merge_fn(), [([1, 4, 9], [2, 3, 5, 10]), ([], [1, 2])]),
        (
            "balanced_sum_t",
            translate(balanced_sum()),
            [list(range(12)), []],
        ),
        ("skewed_sum_t", translate(skewed_sum()), [list(range(9))]),
        ("halving_tail_t", translate(halving_tail()), [100]),
        ("countdown_t", translate(countdown()), [25]),
        ("two_or_three_t", translate(two_or_three_way_sum()), [list(range(9))]),
        (
            "quicksort_t",
            translate(quicksort_def()),
            [[5, 3, 8, 1, 9, 2, 7, 4, 6, 0], [2, 1], []],
        ),
        (
            "mergesort_t",
            translate(mergesort_def()),
            [[5, 3, 8, 1, 9, 2, 7, 4, 6, 0], [1]],
        ),
    ]


def run_suite(eps: float = 0.5, opt_level: int = 2) -> list[DiffRecord]:
    """Differential-run every suite program on every input at one ``eps``."""
    records = []
    for name, fn, args in suite():
        prog = compile_nsc(fn, eps=eps, opt_level=opt_level)
        for i, arg in enumerate(args):
            records.append(
                run_differential(f"{name}[{i}]", fn, arg, eps=eps, compiled=prog)
            )
    return records


# ---------------------------------------------------------------------------
# The cost table
# ---------------------------------------------------------------------------


def battery_costs() -> dict:
    """Exact per-case costs of :func:`run_suite` at eps 0.5, opt 2, tagged with
    ``CODEGEN_VERSION`` (``T``/``W`` are the interpreter's, ``T'``/``W'`` the machine's)."""
    eps, opt_level = 0.5, 2
    cases = {}
    for r in run_suite(eps, opt_level):
        if not r.value_matches:
            raise RuntimeError(f"{r.name}: compiled value differs from the interpreter")
        cases[r.name] = {
            "T": r.interp_time, "T'": r.bvram_time, "W": r.interp_work, "W'": r.bvram_work,
            "instructions": r.instructions, "registers": r.registers,
        }  # fmt: skip
    return {"codegen_version": CODEGEN_VERSION, "eps": eps, "opt_level": opt_level, "cases": cases}


def _ratio(row: dict) -> str:
    return format(row["T'"] / row["T"], ".2f") if row["T"] else "-"


def format_cost_table(costs: dict, before: dict | None = None) -> str:
    """A Markdown table of ``costs``; a cell that moved since ``before`` reads ``old → new``."""
    header = ["case", "T", "T'", "T'/T", "W", "W'", "instructions", "registers"]
    lines = ["| " + " | ".join(header) + " |", "|---" * len(header) + "|"]
    old_cases = before["cases"] if before else {}
    for name, row in costs["cases"].items():
        old = old_cases.get(name, row)
        cells = [name]
        for col in header[1:]:
            new_v, old_v = (_ratio(row), _ratio(old)) if col == "T'/T" else (row[col], old[col])
            cells.append(str(new_v) if new_v == old_v else f"{old_v} → {new_v}")
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def format_cost_summary(costs: dict, before: dict) -> str:
    """One line: summed ``T'``/``W'`` of the cases in both, ``before → after``,
    and every case whose ``T'`` or ``W'`` rose."""
    old_cases = before["cases"]
    shared = [name for name in costs["cases"] if name in old_cases]
    totals = []
    for col in ("T'", "W'"):
        old_sum = sum(old_cases[name][col] for name in shared)
        new_sum = sum(costs["cases"][name][col] for name in shared)
        totals.append(f"sum {col} {old_sum} → {new_sum}")
    rose = [
        name
        for name in shared
        if any(costs["cases"][name][col] > old_cases[name][col] for col in ("T'", "W'"))
    ]
    return ", ".join(totals) + "; rose: " + (", ".join(rose) or "none")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Exact T/T'/W/W' costs of the differential battery.")
    out = ap.add_mutually_exclusive_group(required=True)
    out.add_argument("--table", action="store_true", help="print a Markdown table")
    out.add_argument("--json", action="store_true", help="print the golden JSON")
    ap.add_argument("--before", metavar="JSON", help="a --json output to diff the table against")
    args = ap.parse_args(argv)
    costs = battery_costs()
    if args.json:
        print(json.dumps(costs, indent=1))
        return 0
    before = None
    if args.before:
        with open(args.before, encoding="utf-8") as fh:
            before = json.load(fh)
    print(f"codegen v{costs['codegen_version']}, eps {costs['eps']}, opt_level {costs['opt_level']}")
    print()
    print(format_cost_table(costs, before))
    if before is not None:
        print()
        print(format_cost_summary(costs, before))
    return 0


if __name__ == "__main__":
    sys.exit(main())
