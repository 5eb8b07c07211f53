"""Content-addressed cache keys for compiled NSC programs.

A compiled artifact is a pure function of

* the **canonical NSC AST** — structure plus scalar payloads, with bound
  names replaced by structural binder indices so alpha-equivalent programs
  (e.g. two ``gensym``-built copies of the same combinator) share one
  artifact;
* the compile knobs ``eps`` / ``opt_level``;
* the **version salt**: the cache envelope format, the ISA version
  (:data:`repro.bvram.isa.ISA_VERSION`) and the code-generator version
  (:data:`repro.compiler.codegen.CODEGEN_VERSION`).  Bumping any of them
  turns every existing artifact into a miss — a recompile, never a stale
  execution.

:func:`fingerprint` hashes the AST; :func:`cache_key` mixes in knobs and
salt.  Both are deterministic across processes and machines (SHA-256 over an
unambiguous token stream, no ``id()``/``hash()``/dict-order dependence), and
the traversal is iterative, so arbitrarily deep programs — a first-class
citizen of this code base — cannot overflow the recursion limit.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from ..bvram.isa import ISA_VERSION
from ..compiler.codegen import CODEGEN_VERSION
from ..nsc import ast as A

#: version of the key scheme itself (token grammar + envelope layout)
KEY_VERSION = 1


def _salt() -> str:
    # read the module globals at call time so tests can monkeypatch a
    # version bump and assert the mismatch-is-a-miss behaviour
    return f"repro-cache;key{KEY_VERSION};isa{ISA_VERSION};cg{CODEGEN_VERSION}"


class _Env:
    """Immutable chain of name -> binder-index entries (O(depth) lookup).

    A persistent linked list instead of per-binder dict copies: a depth-d
    ``let`` chain costs O(d) total to build, not O(d^2), and deep programs
    hash in linear time.
    """

    __slots__ = ("name", "index", "parent")

    def __init__(self, name: str, index: int, parent: Optional["_Env"]) -> None:
        self.name = name
        self.index = index
        self.parent = parent


def _lookup(env: Optional[_Env], name: str) -> Optional[int]:
    while env is not None:
        if env.name == name:
            return env.index
        env = env.parent
    return None


def _feed_ast(hasher, expr: A.Expr) -> None:
    """Feed the canonical token stream of ``expr`` into ``hasher``.

    Pre-order traversal with an explicit stack.  Each node contributes its
    class name plus its non-expression dataclass fields (types rendered via
    their unambiguous ``str`` grammar, everything else via ``repr``); every
    variable occurrence contributes the structural index of its binder —
    assigned in traversal order, so it depends only on program shape — or
    the escaped name when free.  Term variables and recursive-function
    names live in separate environments, mirroring the evaluator's
    namespaces.
    """
    counter = 0
    # stack entries: (node, term-env, recfun-env)
    stack: list[tuple[A.Expr, Optional[_Env], Optional[_Env]]] = [(expr, None, None)]
    while stack:
        node, venv, fenv = stack.pop()
        cls = type(node)
        hasher.update(cls.__name__.encode())
        hasher.update(b"(")
        if cls is A.Var:
            idx = _lookup(venv, node.name)
            token = f"b{idx}" if idx is not None else f"f{node.name!r}"
            hasher.update(token.encode())
            hasher.update(b")")
            continue
        if cls is A.RecCall:
            idx = _lookup(fenv, node.name)
            token = f"b{idx}" if idx is not None else f"f{node.name!r}"
            hasher.update(token.encode())
            hasher.update(b";")
            stack.append((node.arg, venv, fenv))
            continue
        # scalar (non-expression, non-binder-name) payloads, in a fixed
        # per-class order
        if cls is A.Const:
            hasher.update(repr(node.value).encode())
        elif cls in (A.BinOp, A.UnOp):
            hasher.update(node.op.encode())
        elif cls is A.Proj:
            hasher.update(str(node.index).encode())
        elif cls is A.ErrorTerm:
            hasher.update(str(node.type).encode())
        elif cls is A.EmptySeq:
            hasher.update(str(node.elem).encode())
        elif cls is A.Inl:
            hasher.update(str(node.right).encode())
        elif cls is A.Inr:
            hasher.update(str(node.left).encode())
        elif cls is A.Lambda:
            hasher.update(str(node.var_type).encode())
        elif cls is A.Let:
            hasher.update(str(node.var_type).encode())
        elif cls is A.RecFun:
            hasher.update(f"{node.var_type};{node.cod}".encode())
        hasher.update(b";")
        # children, pushed in reverse so they pop in canonical order, each
        # under the environment its binders dictate
        if cls is A.Lambda:
            counter += 1
            stack.append((node.body, _Env(node.var, counter, venv), fenv))
        elif cls is A.Let:
            counter += 1
            stack.append((node.body, _Env(node.var, counter, venv), fenv))
            stack.append((node.bound, venv, fenv))
        elif cls is A.Case:
            counter += 2
            stack.append((node.right_body, _Env(node.right_var, counter, venv), fenv))
            stack.append((node.left_body, _Env(node.left_var, counter - 1, venv), fenv))
            stack.append((node.scrutinee, venv, fenv))
        elif cls is A.RecFun:
            counter += 2
            stack.append(
                (
                    node.body,
                    _Env(node.var, counter, venv),
                    _Env(node.name, counter - 1, fenv),
                )
            )
        else:
            children = list(node.children())
            for child in reversed(children):
                stack.append((child, venv, fenv))


def fingerprint(fn: A.Expr) -> str:
    """SHA-256 hex digest of the canonical (alpha-invariant) AST encoding."""
    hasher = hashlib.sha256()
    _feed_ast(hasher, fn)
    return hasher.hexdigest()


def cache_key(
    fn: A.Expr,
    *,
    eps: float = 0.5,
    opt_level: int = 2,
) -> str:
    """The content address of one compiled artifact (SHA-256 hex digest).

    Everything :func:`repro.compiler.compile_nsc` consumes is in the hash;
    nothing else is.  Two calls agree on the key iff they would produce the
    same artifact under the current compiler/ISA versions.
    """
    hasher = hashlib.sha256()
    hasher.update(_salt().encode())
    hasher.update(f";eps={eps!r};opt={opt_level};ast=".encode())
    _feed_ast(hasher, fn)
    return hasher.hexdigest()
