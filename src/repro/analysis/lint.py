"""Repo-specific AST lint rules.

Generic linters cannot see this repo's contracts; these rules can.  Each
rule encodes an invariant that a refactor could silently break and whose
breakage the test suite may not catch:

* **REP001** — never pass the upstream gradient ``g`` (or a view of it, or
  a view of a parent tensor's ``.data``) to ``_accumulate_owned``.  The
  owned variant skips the defensive copy and takes ownership; an aliased
  argument corrupts gradients without failing any loss-equivalence test.
  This is the static twin of the runtime check in
  :mod:`repro.nn.sanitizer` and the documented hot-path contract in
  :mod:`repro.nn.tensor`.

* **REP002** — rank programs only ``yield RECV`` or ``yield POLL``.  A
  function that yields either of them anywhere is a rank program for the
  cooperative transport; any other yielded value is a protocol error at
  runtime (a bare ``yield`` after ``return`` — the make-me-a-generator
  idiom — is allowed).

* **REP003** — no unseeded randomness: ``np.random.default_rng()`` without
  a seed and the legacy global ``np.random.*`` API both break the
  bit-reproducibility the serial-vs-parallel equivalence tests rely on.

* **REP004** — every ``env.process(...)`` call passes ``name=``.  Unnamed
  simulation processes make trace output and deadlock diagnostics
  unreadable at scale.

* **REP005** — a ``res.request()`` grant that a process waits on
  (``yield req``) must be protected by a ``try``/``finally`` whose
  ``finally`` calls ``.release(...)``.  A process interrupted or closed
  while suspended on the yield otherwise leaks every resource it already
  holds *and* leaves the pending request rotting in the queue — the
  ``Fabric.transfer`` leak this rule was extracted from.  Yielding a
  ``request()`` call directly is always flagged: the grant is unnamed, so
  no ``finally`` can release it.

* **REP007** — serving RNG provenance: inside :mod:`repro.serve` (any path
  with a ``serve`` component), every ``np.random.default_rng(...)`` call
  must be built from something recognizably a seed — an integer literal or
  an expression mentioning a ``*seed*``-named variable/attribute.  Workload
  arrival times and request sampling streams feed the serving equivalence
  and latency claims; an RNG seeded from ambient state (time, os.urandom,
  another generator) silently de-determinizes them.

* **REP008** — transport payloads must be data, not code: an argument to
  a ``send(...)``/``.send(...)`` call may not be a lambda, a generator
  expression, or a locally ``def``-ed function.  The cooperative transport
  would happily deliver such a payload in-process, but the process backend
  pickles every payload across a shared-memory ring — closures and
  generators do not pickle, so the same rank program would work on one
  backend and explode on the other.  This is the static twin of the
  runtime ``_payload_ok`` check in :mod:`repro.runtime.parallel`.

* **REP009** — no blocking calls between a ``send(...)`` and the matching
  ``yield RECV``: a rank program that calls ``time.sleep``, ``input``, or
  blocking subprocess / ``os.wait*`` / ``select`` APIs while its own send
  is still in flight stalls the cooperative scheduler's sweep — every
  rank shares one thread, so a program that blocks outside a yield holds
  up delivery for the whole world.  Blocking work belongs before the send
  or after the receive resumes the program.

* **REP010** — tensor-parallel collectives must name their group and keep
  the op/direction pairing canonical.  The protocol verifier proves
  "every member of a TP group records the identical collective sequence"
  *per group key*: a ``tp_*`` record whose key omits the group collapses
  distinct groups into one stream and the order check silently compares
  the wrong ranks.  Three shapes are checked: a raw sink call recording a
  ``tp_*`` op must mention the group in its arguments; a
  ``record_collective`` wrapper definition (the TPComm signature, with a
  ``direction`` parameter) must forward a group-naming key to the sink;
  and a wrapper-style call ``record_collective("tp_allgather", "bwd",
  ...)`` that pairs an op with the wrong direction is flagged — lead and
  followers derive their identical per-member record order from that
  pairing (weight all-gather is forward, gradient reduce-scatter is
  backward).

* **REP011** — schedule code must emit IR, not hand-rolled rank loops.
  The schedules-as-data contract is that everything under a ``sched``
  package is *data* (task tuples in per-rank programs), lowered by the
  runtime's one static walk, ``repro.runtime.rankprog.lower_rank``: a
  builder that directly ``yield RECV``-drives a transport, or yields the
  flushing planes ``"F"`` / ``"B"``, has silently become a second
  lowering whose control flow the validator and the model checker never
  see.  Flagged for any function inside a ``sched`` directory;
  legitimate exceptions carry a ``# lint-ok: REP011`` suppression.

* **REP012** — fleet policy code must be replayable: inside
  :mod:`repro.fleet`, no ambient wall-clock reads (``time.time``,
  ``time.monotonic``, ``datetime.now`` and friends) and no stdlib
  ``random.*`` draws; RNGs must be built from an explicit seed (the
  REP007 provenance test).  Autoscaling decisions are a pure function of
  the :class:`~repro.fleet.policy.FleetObservation` — its ``now_s`` field
  is the only clock — so a policy smuggling in real time or hidden RNG
  state would diverge the DES from the functional fleet and break the
  scale-event determinism test.

Each rule is one row of ``_RULES``, ``(code, scope, check, summary)``,
which is also where :data:`RULES` comes from.  :func:`lint_source` walks a
module once, scope by scope (the module, each function, each lambda); a
scope's own nodes, yields and rank-program verdict are computed once and
handed to every check.

Suppression: append ``# lint-ok: REP003 <reason>`` to the offending line
(bare ``# lint-ok`` suppresses every rule on that line).

Run with ``python -m repro.analysis lint <paths>`` (also surfaced as
``python -m repro lint``), or via the opt-in ``pytest -m lint`` gate.
"""

from __future__ import annotations

import argparse
import ast
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

__all__ = ["LintIssue", "RULES", "lint_paths", "lint_source", "main"]

SUPPRESS_MARK = "lint-ok"


@dataclass(frozen=True)
class LintIssue:
    """One finding: ``path:line:col: CODE message``."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} " \
               f"{self.message}"


# -- suppression -------------------------------------------------------------

def _suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """Map line number -> set of suppressed codes (None = all codes)."""
    out: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), 1):
        if "#" not in line or SUPPRESS_MARK not in line:
            continue
        comment = line.split("#", 1)[1]
        if SUPPRESS_MARK not in comment:
            continue
        after = comment.split(SUPPRESS_MARK, 1)[1].lstrip(": ")
        codes = {tok.strip(",") for tok in after.split()
                 if tok.strip(",").startswith("REP")}
        out[lineno] = codes or None
    return out


# -- the one walk: scopes ----------------------------------------------------

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPE_NODES = _FUNCTION_NODES + (ast.Lambda,)

#: what a rule's check yields: the node to report at, and the message
_Finding = Tuple[ast.AST, str]


def _own_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """All AST nodes of a scope's body, excluding nested functions and
    lambdas (each is a scope of its own)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _SCOPE_NODES):
            continue
        stack.extend(ast.iter_child_nodes(node))


class _Scope:
    """One scope of a module (the module itself, a function or a lambda)
    as every rule sees it, each fact computed once: the path's
    components, the scope's own nodes and, for a function, its yields
    and whether it is a rank program."""

    def __init__(self, parts: Tuple[str, ...], node: ast.AST) -> None:
        self.parts = parts
        self.fn = node if isinstance(node, _FUNCTION_NODES) else None
        self.nodes = list(_own_nodes(node))
        self.yields = [n for n in self.nodes
                       if isinstance(n, (ast.Yield, ast.YieldFrom))] \
            if self.fn else []
        self.is_rank = any(isinstance(y, ast.Yield)
                           and _is_recv_marker(y.value)
                           for y in self.yields)

    @cached_property
    def local_fns(self) -> Set[str]:
        """Names a function binds to a nested ``def`` or a lambda."""
        names: Set[str] = set()
        for node in self.nodes if self.fn else ():
            if isinstance(node, _FUNCTION_NODES):
                names.add(node.name)
            elif isinstance(node, ast.Assign) and \
                    isinstance(node.value, ast.Lambda):
                names.update(t.id for t in node.targets
                             if isinstance(t, ast.Name))
        return names


# -- shared predicates -------------------------------------------------------

def _call_name(node: ast.AST) -> Optional[str]:
    """``f`` for ``f`` or ``obj.f``; None for any other expression."""
    return node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else None


def _dotted(node: ast.AST) -> List[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return parts[::-1]


def _call_args(call: ast.Call) -> List[ast.expr]:
    return list(call.args) + [kw.value for kw in call.keywords]


def _is_recv_marker(value: Optional[ast.AST]) -> bool:
    """``RECV`` or ``POLL`` — the legal yield requests."""
    return isinstance(value, ast.Name) and value.id in ("RECV", "POLL")


def _expr_yields(node: ast.AST) -> Iterator[ast.Yield]:
    """Yield expressions in ``node``, excluding nested function bodies."""
    stack: List[ast.AST] = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, _SCOPE_NODES):
            continue
        if isinstance(n, ast.Yield):
            yield n
        stack.extend(ast.iter_child_nodes(n))


def _guarded_yields(stmts: List[ast.stmt], guards: Callable[[ast.Try], bool],
                    protected: bool = False
                    ) -> Iterator[Tuple[ast.Yield, bool]]:
    """Every yield of a function body with whether a ``try`` that
    ``guards`` protects it.  A try protects its body and ``else``, not its
    handlers or ``finally``; nested defs and classes are skipped."""
    for stmt in stmts:
        if isinstance(stmt, _FUNCTION_NODES + (ast.ClassDef,)):
            continue
        if isinstance(stmt, ast.Try):
            inner = protected or guards(stmt)
            yield from _guarded_yields(stmt.body, guards, inner)
            for handler in stmt.handlers:
                yield from _guarded_yields(handler.body, guards, protected)
            yield from _guarded_yields(stmt.orelse, guards, inner)
            yield from _guarded_yields(stmt.finalbody, guards, protected)
        elif isinstance(stmt, (ast.If, ast.For, ast.While, ast.With)):
            heads = [getattr(stmt, "test", None), getattr(stmt, "iter", None)]
            heads += [item.context_expr for item in getattr(stmt, "items", ())]
            for expr in heads:
                if expr is not None:
                    yield from ((y, protected) for y in _expr_yields(expr))
            yield from _guarded_yields(stmt.body, guards, protected)
            yield from _guarded_yields(getattr(stmt, "orelse", []), guards,
                                       protected)
        else:
            yield from ((y, protected) for y in _expr_yields(stmt))


def _mentions_seed(node: ast.AST) -> bool:
    """Is the expression recognizably seed-derived?  True for integer
    literals anywhere in it and for any name/attribute containing "seed"."""
    for n in ast.walk(node):
        if isinstance(n, ast.Constant) and isinstance(n.value, int) \
                and not isinstance(n.value, bool):
            return True
        if isinstance(n, ast.Name) and "seed" in n.id.lower():
            return True
        if isinstance(n, ast.Attribute) and "seed" in n.attr.lower():
            return True
    return False


def _unseeded_rng(call: ast.Call) -> bool:
    """A ``default_rng(...)`` built from arguments none of which is
    recognizably a seed (REP007 / REP012 provenance; the no-argument case
    is REP003's finding)."""
    chain = _dotted(call.func)
    if chain[-1:] != ["default_rng"] or \
            (len(chain) == 3 and chain[:2] not in (["np", "random"],
                                                   ["numpy", "random"])):
        return False
    seed_exprs = _call_args(call)
    return bool(seed_exprs) and not any(_mentions_seed(e) for e in seed_exprs)


# -- REP001 ------------------------------------------------------------------

#: ndarray methods that return views of their receiver
_VIEW_METHODS = {"reshape", "transpose", "swapaxes", "ravel", "squeeze",
                 "view"}
#: numpy functions that can return views of their first argument
_VIEW_FUNCS = {"transpose", "swapaxes", "expand_dims", "broadcast_to",
               "asarray", "asanyarray", "atleast_1d", "atleast_2d",
               "reshape", "squeeze", "ravel"}
#: ndarray attributes that alias the receiver
_VIEW_ATTRS = {"T", "flat", "real", "imag"}


def _view_root(node: ast.AST) -> ast.AST:
    """Strip every step that may return a view of its operand — indexing,
    view attributes and methods, numpy view functions, and
    ``_unbroadcast`` (which may return its input unchanged) — and return
    the expression whose buffer ``node`` may alias (conservatively)."""
    while True:
        if isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Attribute) and node.attr in _VIEW_ATTRS:
            node = node.value
        elif isinstance(node, ast.Call):
            fn = node.func
            if (isinstance(fn, ast.Name) and fn.id == "_unbroadcast"
                    and node.args):
                node = node.args[0]
            elif (isinstance(fn, ast.Attribute) and fn.attr in _VIEW_FUNCS
                    and isinstance(fn.value, ast.Name)
                    and fn.value.id in ("np", "numpy") and node.args):
                node = node.args[0]
            elif isinstance(fn, ast.Attribute) and fn.attr in _VIEW_METHODS:
                node = fn.value
            else:
                return node
        else:
            return node


def _rep001(scope: _Scope, call: ast.Call) -> Iterator[_Finding]:
    fn = scope.fn
    if fn is None or not (isinstance(call.func, ast.Attribute)
                          and call.func.attr == "_accumulate_owned"
                          and call.args):
        return
    first = fn.args.args[0].arg if fn.args.args else ""
    if fn.name != "backward" and first != "g":
        return
    gname = first or "g"
    root = _view_root(call.args[0])
    if isinstance(root, ast.Name) and root.id == gname:
        yield call, (f"the upstream gradient {gname!r} (or a view of it) "
                     f"is passed to _accumulate_owned; ownership transfer "
                     f"requires a freshly allocated array — use _accumulate "
                     f"instead")
    elif isinstance(root, ast.Attribute) and root.attr == "data":
        yield call, ("a view of a tensor's .data buffer is passed to "
                     "_accumulate_owned; the accumulated gradient would "
                     "alias live parameter/activation memory")


# -- REP002 ------------------------------------------------------------------

def _rep002(scope: _Scope, fn: ast.AST) -> Iterator[_Finding]:
    if not scope.is_rank:
        return
    for y in scope.yields:
        if isinstance(y, ast.YieldFrom):
            yield y, ("rank programs may not use `yield from`; every "
                      "suspension point must be an explicit `yield RECV` / "
                      "`yield POLL`")
        elif y.value is not None and not _is_recv_marker(y.value):
            yield y, ("rank programs may only `yield RECV` or `yield POLL` "
                      "(a bare `yield` after `return` is allowed as the "
                      "generator marker)")


# -- REP003 ------------------------------------------------------------------

_LEGACY_RANDOM = {"rand", "randn", "random", "random_sample", "randint",
                  "choice", "shuffle", "permutation", "seed", "normal",
                  "uniform", "standard_normal"}


def _rep003(scope: _Scope, call: ast.Call) -> Iterator[_Finding]:
    chain = _dotted(call.func)
    if len(chain) != 3 or chain[0] not in ("np", "numpy") or \
            chain[1] != "random":
        return
    leaf = chain[2]
    if leaf == "default_rng":
        if not call.args and not call.keywords:
            yield call, ("np.random.default_rng() without a seed breaks "
                         "bit-reproducibility; thread an explicit seed or "
                         "Generator through")
    elif leaf in _LEGACY_RANDOM:
        yield call, (f"legacy global np.random.{leaf}() draws from hidden "
                     f"process-wide state; use an explicitly seeded "
                     f"np.random.Generator")


# -- REP004 ------------------------------------------------------------------

def _rep004(scope: _Scope, call: ast.Call) -> Iterator[_Finding]:
    if not (isinstance(call.func, ast.Attribute)
            and call.func.attr == "process"):
        return
    owner = call.func.value
    is_env = (isinstance(owner, ast.Name) and owner.id == "env") or \
             (isinstance(owner, ast.Attribute) and owner.attr == "env")
    if is_env and not any(kw.arg == "name" for kw in call.keywords):
        yield call, ("env.process(...) without name=; unnamed processes "
                     "make traces and deadlock diagnostics unreadable")


# -- REP005 ------------------------------------------------------------------

def _is_request_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "request")


def _finalbody_releases(try_node: ast.Try) -> bool:
    for stmt in try_node.finalbody:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "release"):
                return True
    return False


def _rep005(scope: _Scope, fn: ast.AST) -> Iterator[_Finding]:
    if not scope.yields:
        return
    # Names bound to an X.request(...) result anywhere in this function.
    grant_names: Set[str] = set()
    for node in scope.nodes:
        if isinstance(node, ast.Assign) and _is_request_call(node.value):
            grant_names.update(t.id for t in node.targets
                               if isinstance(t, ast.Name))
        elif isinstance(node, ast.NamedExpr) and \
                _is_request_call(node.value):
            grant_names.add(node.target.id)
    for y, protected in _guarded_yields(fn.body, _finalbody_releases):
        value = y.value
        if value is None:
            continue
        target = value.target if isinstance(value, ast.NamedExpr) else None
        if target is not None:
            value = value.value
        if _is_request_call(value) and target is None:
            yield y, ("yield X.request(...) discards the grant; bind it to "
                      "a name inside try/finally so the hold can be "
                      "released on interrupt")
        elif not protected and (
                (target is not None and _is_request_call(value))
                or (isinstance(value, ast.Name)
                    and value.id in grant_names)):
            yield y, ("yield on a resource request outside try/finally; a "
                      "process interrupted here leaks its grants and leaves "
                      "the pending request queued — wrap the wait and hold "
                      "in try/finally with .release(...)")


# -- REP007 ------------------------------------------------------------------

def _rep007(scope: _Scope, call: ast.Call) -> Iterator[_Finding]:
    if "serve" in scope.parts and _unseeded_rng(call):
        yield call, ("serving RNG seeded from something that is not an "
                     "explicit seed; arrival/sampling streams must be "
                     "reproducible — derive the argument from a "
                     "*seed*-named value or an int literal")


# -- REP008 ------------------------------------------------------------------

def _rep008(scope: _Scope, call: ast.Call) -> Iterator[_Finding]:
    """Flag lambdas, generator expressions and locally ``def``-ed
    functions passed to send()."""
    if _call_name(call.func) != "send":
        return
    for arg in _call_args(call):
        if isinstance(arg, ast.Lambda):
            yield arg, ("a lambda is passed to send(); closures do not "
                        "pickle across the process backend's shared-memory "
                        "rings — send data and reconstruct behaviour on the "
                        "far side")
        elif isinstance(arg, ast.GeneratorExp):
            yield arg, ("a generator expression is passed to send(); "
                        "generators do not pickle across the process "
                        "backend's shared-memory rings — materialize it "
                        "(list/tuple/ndarray) before sending")
        elif isinstance(arg, ast.Name) and arg.id in scope.local_fns:
            yield arg, (f"locally defined function {arg.id!r} is passed to "
                        f"send(); nested functions do not pickle across the "
                        f"process backend's shared-memory rings — only "
                        f"module-level callables and plain data survive")


# -- REP009 ------------------------------------------------------------------

#: dotted call chains that block the calling thread
_BLOCKING_CALLS = {
    ("time", "sleep"), ("sleep",), ("input",),
    ("subprocess", "run"), ("subprocess", "call"),
    ("subprocess", "check_call"), ("subprocess", "check_output"),
    ("subprocess", "Popen"),
    ("os", "wait"), ("os", "waitpid"), ("select", "select"),
}


def _is_blocking_call(node: ast.Call) -> bool:
    chain = tuple(_dotted(node.func))
    if chain in _BLOCKING_CALLS:
        return True
    # `import time as t; t.sleep(...)` still sleeps.
    return len(chain) >= 2 and chain[-1] == "sleep"


def _rep009(scope: _Scope, fn: ast.AST) -> Iterator[_Finding]:
    """A rank program must reach its next yield promptly after sending.

    The cooperative sweep runs every rank on one thread; between a
    ``send(...)`` and the program's next suspension point nothing else in
    the world executes, so a blocking call there freezes delivery for all
    ranks.  Detection is a linear source-position scan: a send arms the
    in-flight state, any yield disarms it, a blocking call while armed is
    flagged.  (Position order approximates control flow; rank programs
    are straight-line enough that this is exact in practice.)
    """
    if not scope.is_rank:
        return
    marks: List[Tuple[int, int, str, ast.AST]] = []
    for node in scope.nodes:
        if isinstance(node, ast.YieldFrom) or (
                isinstance(node, ast.Yield) and not (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "POLL")):
            # a POLL is answered within the rank's own turn: no yield
            marks.append((node.lineno, node.col_offset, "yield", node))
        elif isinstance(node, ast.Call):
            if _call_name(node.func) == "send":
                marks.append((node.lineno, node.col_offset, "send", node))
            elif _is_blocking_call(node):
                marks.append((node.lineno, node.col_offset, "block", node))
    marks.sort(key=lambda m: (m[0], m[1]))
    pending = False
    for _line, _col, kind, node in marks:
        if kind == "send":
            pending = True
        elif kind == "yield":
            pending = False
        elif pending:
            name = ".".join(_dotted(node.func)) or "<call>"
            yield node, (f"blocking call {name}(...) between a send(...) "
                         f"and the matching `yield RECV`; every rank shares "
                         f"one thread, so blocking here stalls delivery for "
                         f"the whole world — do the blocking work before the "
                         f"send or after the receive")


# -- REP010 ------------------------------------------------------------------

#: the TP protocol's canonical op -> direction pairing; the lead emits and
#: every follower records in this order, which is what makes the per-member
#: collective-order check a tautology-free invariant
_TP_DIRECTIONS = {"tp_allgather": "fwd", "tp_reduce_scatter": "bwd"}

_RECORD_SINKS = (["record"], ["_record"])


def _mentions_group(node: ast.AST) -> bool:
    """Does the expression recognizably carry a TP group key?  True for any
    name/attribute containing "group" (``comm.group_key``, ``tp_group``)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and "group" in n.id.lower():
            return True
        if isinstance(n, ast.Attribute) and "group" in n.attr.lower():
            return True
    return False


def _tp_op_literal(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and node.value.startswith("tp_"):
        return node.value
    return None


def _is_tp_wrapper(fn: Optional[ast.AST]) -> bool:
    """The TPComm ``record_collective`` wrapper: it carries a ``direction``
    parameter, which the raw trace-recorder sink (``rank, op, key``)
    does not, so sinks are exempt."""
    return fn is not None and fn.name == "record_collective" and \
        "direction" in {a.arg for a in fn.args.args}


def _rep010(scope: _Scope, call: ast.Call) -> Iterator[_Finding]:
    chain = _dotted(call.func)
    exprs = _call_args(call)
    if chain[-1:] in _RECORD_SINKS and _is_tp_wrapper(scope.fn) and \
            not any(_mentions_group(e) for e in exprs):
        yield call, ("record_collective forwards to the record sink without "
                     "a group-naming key; every TP group member must record "
                     "under the same group key or the per-member order "
                     "check compares the wrong ranks")
    if chain[-1:] not in (["record"], ["record_collective"]):
        return
    args = list(call.args)
    first_op = _tp_op_literal(args[0]) if args else None
    if first_op is not None:
        # Wrapper-style call: record_collective(op, direction, ...).  The
        # group key lives in the wrapper definition (checked above); here
        # the op/direction pairing must match the protocol, because member
        # record order is derived from it.
        want = _TP_DIRECTIONS.get(first_op)
        have = None
        if len(args) > 1 and isinstance(args[1], ast.Constant) \
                and isinstance(args[1].value, str):
            have = args[1].value
        for kw in call.keywords:
            if kw.arg == "direction" and \
                    isinstance(kw.value, ast.Constant) and \
                    isinstance(kw.value.value, str):
                have = kw.value.value
        if want is not None and have is not None and have != want:
            yield call, (f"collective {first_op!r} recorded with direction "
                         f"{have!r}; the protocol pairs it with {want!r} — a "
                         f"mislabeled record makes the group members' "
                         f"collective orders diverge")
    # Sink-style call recording a tp_* op (the literal is not the first
    # positional, i.e. record(rank, "tp_...", ...) or a key= / op=
    # keyword): the group must appear somewhere in the call.
    elif any(_tp_op_literal(e) for e in exprs) and \
            not any(_mentions_group(e) for e in exprs):
        yield call, ("a tp_* collective is recorded without a group-naming "
                     "key; the per-member order check is only well-defined "
                     "per TP group — put the group key (e.g. "
                     "comm.group_key) in the record's key")


# -- REP011 ------------------------------------------------------------------

def _rep011(scope: _Scope, fn: ast.AST) -> Iterator[_Finding]:
    """Schedule packages hold data, not rank programs.

    No ``sched`` module holds a rank program: lowering is the
    runtime's (``repro.runtime.rankprog.lower_rank``), so a
    builder/metric/search function that itself ``yield RECV``s or yields
    the flushing plane constants ("F"/"B") is a second, unverified
    lowering.
    """
    if "sched" not in scope.parts:
        return
    plane_yields = [
        y for y in scope.yields
        if isinstance(y, ast.Yield) and isinstance(y.value, ast.Constant)
        and y.value.value in ("F", "B")
    ]
    if scope.is_rank or plane_yields:
        yield plane_yields[0] if plane_yields else fn, (
            f"{fn.name!r} hand-rolls a rank program inside a sched package; "
            f"schedule code must emit IR tasks and leave lowering to "
            "repro.runtime.rankprog.lower_rank")


# -- REP012 ------------------------------------------------------------------

#: ambient clock reads a fleet policy must never make
_WALL_CLOCK_CALLS = {
    ("time", "time"), ("time", "time_ns"),
    ("time", "monotonic"), ("time", "monotonic_ns"),
    ("time", "perf_counter"), ("time", "perf_counter_ns"),
    ("time", "process_time"),
}
#: stdlib `random` module draws (hidden process-wide state)
_STDLIB_RANDOM = {"random", "randint", "randrange", "choice", "choices",
                  "shuffle", "sample", "uniform", "gauss", "normalvariate",
                  "expovariate", "betavariate", "seed", "getrandbits"}


def _rep012(scope: _Scope, call: ast.Call) -> Iterator[_Finding]:
    """Fleet code is replay-critical: sim time and seeded streams only."""
    if "fleet" not in scope.parts:
        return
    chain = tuple(_dotted(call.func))
    if chain in _WALL_CLOCK_CALLS or (
            "datetime" in chain[:-1]
            and chain[-1] in ("now", "utcnow", "today")):
        yield call, (f"{'.'.join(chain)}() reads the ambient wall clock "
                     f"inside repro.fleet; autoscaling decisions must be a "
                     f"pure function of FleetObservation.now_s "
                     f"(simulated/round time) or they cannot be replayed "
                     f"deterministically")
    elif len(chain) == 2 and chain[0] == "random" \
            and chain[1] in _STDLIB_RANDOM:
        yield call, (f"stdlib random.{chain[1]}() draws from hidden process "
                     f"state inside repro.fleet; use an explicitly seeded "
                     f"np.random.Generator threaded through the caller")
    elif _unseeded_rng(call):
        yield call, ("fleet RNG seeded from something that is not an "
                     "explicit seed; scale events and admission draws must "
                     "replay — derive the argument from a *seed*-named "
                     "value or an int literal")


# -- the rule table ----------------------------------------------------------

#: One row per rule: ``(code, scope, check, summary)``.  A ``"function"``
#: check runs once per function, on its scope; a ``"call"`` check runs on
#: every call, with the scope the call sits in.  A check yields
#: ``(node, message)`` findings.
_RULES = (
    ("REP001", "call", _rep001,
     "never pass the upstream gradient g (or a view of it / of a "
     "parent's .data) to _accumulate_owned"),
    ("REP002", "function", _rep002,
     "rank programs may only `yield RECV` / `POLL`"),
    ("REP003", "call", _rep003,
     "no unseeded randomness (np.random.default_rng() without a "
     "seed, or the legacy np.random.* API)"),
    ("REP004", "call", _rep004,
     "every env.process(...) call must pass name="),
    ("REP005", "function", _rep005,
     "a yielded res.request() grant must sit inside try/finally "
     "with a .release(...) in the finally (interrupt-safe hold)"),
    ("REP007", "call", _rep007,
     "serving RNGs (repro.serve) must be built from an explicit "
     "seed: an int literal or a *seed*-named variable/attribute"),
    ("REP008", "call", _rep008,
     "send(...) payloads must be picklable data (ndarrays, "
     "scalars, containers) — never lambdas, generator "
     "expressions, or locally defined functions"),
    ("REP009", "function", _rep009,
     "rank programs must not call time.sleep / blocking I/O "
     "between a send(...) and the matching yield RECV"),
    ("REP010", "call", _rep010,
     "tp_* collective records must carry a group-naming key and "
     "pair ops with their protocol direction (tp_allgather/fwd, "
     "tp_reduce_scatter/bwd) so every group member records the "
     "same order"),
    ("REP011", "function", _rep011,
     "schedule builders must emit IR: no raw `yield RECV` loops "
     "or plane-constant yields in a sched package (lowering is "
     "repro.runtime.rankprog.lower_rank)"),
    ("REP012", "call", _rep012,
     "fleet policy code (repro.fleet) must be replayable: no "
     "wall-clock reads, no stdlib random.* draws, and RNGs built "
     "from an explicit seed — the FleetObservation's now_s is "
     "the only clock"),
)

RULES: Dict[str, str] = {code: summary for code, _, _, summary in _RULES}

_FUNCTION_CHECKS = [(code, check) for code, scope, check, _ in _RULES
                    if scope == "function"]
_CALL_CHECKS = [(code, check) for code, scope, check, _ in _RULES
                if scope == "call"]


# -- driver ------------------------------------------------------------------

def lint_source(source: str, path: str = "<string>") -> List[LintIssue]:
    """Lint one module's source; returns unsuppressed issues, sorted."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintIssue(path, exc.lineno or 0, exc.offset or 0, "PARSE",
                          f"syntax error: {exc.msg}")]
    parts = Path(path).parts
    issues: List[LintIssue] = []

    def report(code: str, findings: Iterator[_Finding]) -> None:
        issues.extend(LintIssue(path, node.lineno, node.col_offset, code,
                                message) for node, message in findings)

    # The one walk: every node belongs to exactly one scope's own nodes.
    pending: List[ast.AST] = [tree]
    while pending:
        scope = _Scope(parts, pending.pop())
        if scope.fn is not None:
            for code, check in _FUNCTION_CHECKS:
                report(code, check(scope, scope.fn))
        for node in scope.nodes:
            if isinstance(node, ast.Call):
                for code, check in _CALL_CHECKS:
                    report(code, check(scope, node))
            elif isinstance(node, _SCOPE_NODES):
                pending.append(node)
    suppressed = _suppressions(source)
    out = []
    for issue in issues:
        codes = suppressed.get(issue.line, ...)
        if codes is ... or (codes is not None and issue.code not in codes):
            out.append(issue)
    return sorted(out, key=lambda i: (i.path, i.line, i.col, i.code))


def _iter_python_files(paths: Iterable[str]) -> Iterator[Path]:
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            yield p


def lint_paths(paths: Sequence[str]) -> List[LintIssue]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    issues: List[LintIssue] = []
    for file in _iter_python_files(paths):
        issues.extend(lint_source(file.read_text(encoding="utf-8"),
                                  str(file)))
    return issues


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: print findings, return 1 if any (0 when clean)."""

    parser = argparse.ArgumentParser(
        prog="repro.analysis lint",
        description="Repo-specific AST lint (rules REP001-REP012).")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories (default: the installed "
                             "repro package)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON document (for CI and "
                             "tooling) instead of plain lines")
    parser.add_argument("--sarif", action="store_true",
                        help="emit findings as a SARIF 2.1.0 document "
                             "(GitHub code-scanning upload format)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for code in sorted(RULES):
            print(f"  {code}  {RULES[code]}")
        return 0

    paths = args.paths or [str(Path(__file__).resolve().parents[1])]
    issues = lint_paths(paths)
    n_files = sum(1 for _ in _iter_python_files(paths))
    if args.sarif:
        print(json.dumps({
            "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
            "version": "2.1.0",
            "runs": [{
                "tool": {"driver": {
                    "name": "repro-lint",
                    "rules": [{"id": code,
                               "shortDescription": {"text": RULES[code]}}
                              for code in sorted(RULES)],
                }},
                "results": [{
                    "ruleId": i.code,
                    "level": "error",
                    "message": {"text": i.message},
                    "locations": [{"physicalLocation": {
                        "artifactLocation": {"uri": i.path},
                        "region": {"startLine": max(i.line, 1),
                                   "startColumn": i.col + 1},
                    }}],
                } for i in issues],
            }],
        }, indent=2))
        return 1 if issues else 0
    if args.json:
        print(json.dumps({
            "files_checked": n_files,
            "issue_count": len(issues),
            "clean": not issues,
            "issues": [{"path": i.path, "line": i.line, "col": i.col,
                        "code": i.code, "message": i.message}
                       for i in issues],
        }, indent=2))
        return 1 if issues else 0
    for issue in issues:
        print(issue)
    if issues:
        print(f"{len(issues)} issue(s) in {n_files} file(s)")
        return 1
    print(f"clean: {n_files} file(s), 0 issues")
    return 0
