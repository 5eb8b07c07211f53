"""Compile quicksort and mergesort all the way down to the BVRAM.

The full Section 4 + Section 7 chain on the paper's flagship algorithms:

    RecFun (Definition 4.1)  --Theorem 4.2-->  pure NSC (map/while)
                             --compile_nsc-->  BVRAM instructions

Both sorts run through the interpreter (Definition 3.1 costs ``T, W``) and
through the compiled machine (``T', W'`` per the Section 2 instruction
costs), for several ``eps``; the table shows the measured constants behind
``T' = O(T)`` and ``W' = O(W^(1+eps))``.

Run:  python examples/compile_nsc_sorts.py
"""

import random
import time

from repro.algorithms.mergesort import mergesort_def
from repro.algorithms.quicksort import quicksort_def
from repro.analysis import format_table
from repro.compiler import compile_nsc
from repro.maprec.translate import translate
from repro.nsc import apply_function, from_python


def main(n: int = 24, seed: int = 1234, eps_values=(1.0, 0.5, 0.25)) -> None:
    rng = random.Random(seed)
    data = [rng.randrange(1000) for _ in range(n)]
    value = from_python(data)
    expected = from_python(sorted(data))

    rows = []
    for name, defn in (("quicksort", quicksort_def()), ("mergesort", mergesort_def())):
        fn = translate(defn)
        t0 = time.perf_counter()
        interp = apply_function(fn, value)
        interp_ms = (time.perf_counter() - t0) * 1e3
        assert interp.value == expected
        for eps in eps_values:
            prog = compile_nsc(fn, eps=eps)
            t0 = time.perf_counter()
            result, run = prog.run(value)
            compiled_ms = (time.perf_counter() - t0) * 1e3
            assert result == expected, f"{name} at eps={eps} disagrees"
            rows.append(
                [
                    name,
                    eps,
                    interp.time,
                    run.time,
                    interp.work,
                    run.work,
                    f"{run.work / interp.work:.2f}",
                    len(prog),
                    f"{interp_ms:.0f}",
                    f"{compiled_ms:.0f}",
                ]
            )

    print(f"sorting {n} random naturals — interpreter vs compiled BVRAM")
    print(
        format_table(
            ["algorithm", "eps", "T", "T'", "W", "W'", "W'/W", "instrs", "int ms", "bvram ms"],
            rows,
        )
    )
    print(
        "\nBoth sorts produce the interpreter's exact output on the machine;\n"
        "T'/T and W'/W are the measured constants of Theorem 7.1 (the deep\n"
        "recursion tree makes the sorts interpreter-friendly — the run_wide\n"
        "workload of bench/ is the vector-heavy case where compiled code wins)."
    )


if __name__ == "__main__":
    main()
