"""Tree ingest == typed ingest: one more link of the equality chain.

Plain Python requests are encoded per field, directed by the program's input
type (``repro.compiler.codegen.encode_plain``), and never become S-objects.
The reference stays ``from_python`` + ``encode_batch``:

* on well-formed data the two produce the same fields, array for array;
* on data with one defect the front door raises what the reference raises;
* with ``from_python`` patched to fail, well-formed requests still go through
  every entry point — no tree on the well-formed path, by construction.
"""

from __future__ import annotations

import asyncio
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzz_gen import DOMAINS, _gen_input
from repro.compiler import compile_nsc
from repro.compiler.codegen import encode_batch, encode_inputs, encode_plain
from repro.nsc import builder as B
from repro.nsc.types import BOOL, NAT, UNIT, NatType, ProdType, SeqType, prod, seq, type_depth
from repro.nsc.values import from_python, to_python
from repro.serving import Server, ShardExecutor

# -- types and matching plain data -------------------------------------------

TYPES = st.recursive(
    st.sampled_from([NAT, UNIT, BOOL]),
    lambda inner: st.builds(seq, inner) | st.builds(prod, inner, inner),
    max_leaves=4,
).filter(lambda t: type_depth(t) <= 3)


def is_nat(t) -> bool:
    return isinstance(t, NatType)


def is_prod(t) -> bool:
    return isinstance(t, ProdType)


def is_leaf(t) -> bool:
    return not isinstance(t, (SeqType, ProdType))


def has(t, want) -> bool:
    """Whether ``t`` or one of its component types satisfies ``want``."""
    if isinstance(t, SeqType):
        return want(t) or has(t.elem, want)
    if isinstance(t, ProdType):
        return want(t) or has(t.left, want) or has(t.right, want)
    return want(t)


def plain(t, min_size: int) -> st.SearchStrategy:
    """Plain Python data of type ``t``; longer tuples spell right-nested products."""
    if isinstance(t, NatType):
        return st.integers(0, 2**63 - 1)
    if isinstance(t, SeqType):
        return st.lists(plain(t.elem, min_size), min_size=min_size, max_size=4)
    if isinstance(t, ProdType):
        pairs = st.tuples(plain(t.left, min_size), plain(t.right, min_size))
        if isinstance(t.right, ProdType):
            return pairs | pairs.map(lambda p: (p[0], *p[1]))
        return pairs
    return st.booleans() if t == BOOL else st.none()


@st.composite
def typed_batches(draw, want=None):
    """A type and a batch of matching requests.  With ``want``, the type has a
    component satisfying it and every sequence is inhabited, so each request
    holds a node of that component."""
    if want is None:
        t = draw(TYPES)
        return t, draw(st.lists(plain(t, 0), min_size=1, max_size=4))
    t = draw(TYPES.filter(lambda t: has(t, want)))
    return t, draw(st.lists(plain(t, 1), min_size=1, max_size=4))


def replace_first(x, t, want, make):
    """``x`` with its first node (pre-order) whose type satisfies ``want``
    replaced by ``make(node)``; ``None`` when it holds no such node."""
    if want(t):
        return make(x)
    if isinstance(t, SeqType):
        for i, item in enumerate(x):
            new = replace_first(item, t.elem, want, make)
            if new is not None:
                return x[:i] + [new] + x[i + 1 :]
    if isinstance(t, ProdType):
        fst, snd = x[0], (x[1] if len(x) == 2 else x[1:])
        new = replace_first(fst, t.left, want, make)
        if new is not None:
            return (new, snd)
        new = replace_first(snd, t.right, want, make)
        if new is not None:
            return (fst, new)
    return None


def planted(xs, t, k, want, make) -> list:
    """The batch with request ``k % len(xs)`` changed by :func:`replace_first`."""
    k %= len(xs)
    return xs[:k] + [replace_first(xs[k], t, want, make)] + xs[k + 1 :]


def reference(xs, t) -> list[np.ndarray]:
    return encode_batch(list(map(from_python, xs)), t)


def same_fields(got, want) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert isinstance(g, np.ndarray) and g.dtype == w.dtype == np.int64
        assert g.tolist() == w.tolist()


# -- (i) the property ---------------------------------------------------------


@given(typed_batches())
def test_typed_ingest_equals_tree_ingest(case):
    t, xs = case
    want = reference(xs, t)
    same_fields(encode_plain(xs, t), want)  # the typed encoder itself, no reference behind it
    same_fields(encode_inputs(xs, t), want)
    same_fields(encode_inputs(tuple(xs), t), want)  # any sequence of requests


DEFECTS = {
    "negative": (is_nat, lambda x: -1 - x),
    "too_wide": (is_nat, lambda x: 2**63 + x),
    "bool_for_nat": (is_nat, lambda x: x % 2 == 0),
    "float_for_nat": (is_nat, float),
    "list_for_tuple": (is_prod, list),
}


@pytest.mark.parametrize("defect", DEFECTS)
@given(data=st.data(), k=st.integers(0, 3))
def test_one_defect_raises_what_the_reference_raises(defect, data, k):
    want, make = DEFECTS[defect]
    t, xs = data.draw(typed_batches(want))
    xs = planted(xs, t, k, want, make)
    with pytest.raises(Exception) as ref:
        reference(xs, t)
    with pytest.raises(Exception) as got:
        encode_inputs(xs, t)
    assert type(got.value) is type(ref.value) and str(got.value) == str(ref.value)


@given(case=typed_batches(is_leaf), k=st.integers(0, 3))
def test_an_s_object_inside_plain_data_encodes_the_same(case, k):
    t, xs = case
    xs = planted(xs, t, k, is_leaf, from_python)
    same_fields(encode_inputs(xs, t), reference(xs, t))


# -- (iii) no tree on the well-formed path ------------------------------------


def test_well_formed_plain_requests_never_build_a_tree(monkeypatch):
    progs, batches = [], []
    for dom in DOMAINS:  # the identity on every fuzz domain: outputs are the inputs
        x = B.gensym("x")
        progs.append(compile_nsc(B.lam(x, dom, B.v(x))))
        rng = random.Random(str(dom))
        batches.append([_gen_input(rng, dom, edge=i == 0) for i in range(6)])
        progs[-1].run_batch(batches[-1])  # build the plan before the patch

    def no_tree(obj):
        raise AssertionError(f"from_python called on {type(obj).__name__}")

    for module in ("nsc.values", "compiler", "compiler.codegen", "compiler.batch", "serving.shard"):
        monkeypatch.setattr(f"repro.{module}.from_python", no_tree, raising=False)

    async def served(prog, batch):
        async with Server(max_batch=4) as srv:
            return await asyncio.gather(*(srv.submit(prog, v) for v in batch))

    with ShardExecutor(n_workers=1) as ex:
        for prog, batch in zip(progs, batches):
            assert [to_python(prog.run(v)[0]) for v in batch] == batch
            assert list(map(to_python, prog.run_batch(batch))) == batch
            assert list(map(to_python, asyncio.run(served(prog, batch)))) == batch
            assert list(map(to_python, ex.run_batch(prog, batch, shards=2))) == batch
    with pytest.raises(AssertionError, match="from_python called on list"):
        progs[1].run([1, -2])  # the patch is live: the reference path does call it
