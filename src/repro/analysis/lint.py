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

* **REP002** — rank programs only ``yield RECV``, ``yield POLL`` or
  ``yield recv_within(...)``.  A function that yields any of them anywhere
  is a rank program for the cooperative transport; any other yielded value
  is a protocol error at runtime (a bare ``yield`` after ``return`` — the
  make-me-a-generator idiom — is allowed).

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

* **REP006** — a rank program that performs a *timed* receive
  (``yield recv_within(...)``) must do so inside a ``try`` that handles
  ``TimeoutError`` or ``RankFailure``.  A timed receive exists precisely
  because the channel can be severed by a fault plan; letting the timeout
  escape tears down the whole batch with an unhandled exception instead of
  triggering the program's degraded path.

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
from pathlib import Path
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence, Set,
                    Tuple)

__all__ = ["LintIssue", "RULES", "lint_paths", "lint_source", "main"]

RULES: Dict[str, str] = {
    "REP001": "never pass the upstream gradient g (or a view of it / of a "
              "parent's .data) to _accumulate_owned",
    "REP002": "rank programs may only `yield RECV` / `POLL`",
    "REP003": "no unseeded randomness (np.random.default_rng() without a "
              "seed, or the legacy np.random.* API)",
    "REP004": "every env.process(...) call must pass name=",
    "REP005": "a yielded res.request() grant must sit inside try/finally "
              "with a .release(...) in the finally (interrupt-safe hold)",
    "REP006": "a `yield recv_within(...)` timed receive must be inside a "
              "try that handles TimeoutError or RankFailure",
    "REP007": "serving RNGs (repro.serve) must be built from an explicit "
              "seed: an int literal or a *seed*-named variable/attribute",
    "REP008": "send(...) payloads must be picklable data (ndarrays, "
              "scalars, containers) — never lambdas, generator "
              "expressions, or locally defined functions",
    "REP009": "rank programs must not call time.sleep / blocking I/O "
              "between a send(...) and the matching yield RECV",
    "REP010": "tp_* collective records must carry a group-naming key and "
              "pair ops with their protocol direction (tp_allgather/fwd, "
              "tp_reduce_scatter/bwd) so every group member records the "
              "same order",
    "REP011": "schedule builders must emit IR: no raw `yield RECV` loops "
              "or plane-constant yields in a sched package (lowering is "
              "repro.runtime.rankprog.lower_rank)",
    "REP012": "fleet policy code (repro.fleet) must be replayable: no "
              "wall-clock reads, no stdlib random.* draws, and RNGs built "
              "from an explicit seed — the FleetObservation's now_s is "
              "the only clock",
}

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


# -- scope helpers -----------------------------------------------------------

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """All AST nodes of a function body, excluding nested functions."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _FUNCTION_NODES + (ast.Lambda,)):
            continue
        stack.extend(ast.iter_child_nodes(node))


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


def _is_upstream_view(node: ast.AST, gname: str) -> bool:
    """Does ``node`` evaluate to ``g`` or a view of it (conservatively)?"""
    if isinstance(node, ast.Name):
        return node.id == gname
    if isinstance(node, ast.Subscript):
        return _is_upstream_view(node.value, gname)
    if isinstance(node, ast.Attribute):
        if node.attr in _VIEW_ATTRS:
            return _is_upstream_view(node.value, gname)
        return False
    if isinstance(node, ast.Call):
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id == "_unbroadcast" and node.args:
            # _unbroadcast may return its input unchanged (documented).
            return _is_upstream_view(node.args[0], gname)
        if isinstance(fn, ast.Attribute):
            if fn.attr in _VIEW_METHODS and _is_upstream_view(fn.value, gname):
                return True
            if (fn.attr in _VIEW_FUNCS and isinstance(fn.value, ast.Name)
                    and fn.value.id in ("np", "numpy") and node.args):
                return _is_upstream_view(node.args[0], gname)
    return False


def _is_parent_data_view(node: ast.AST) -> bool:
    """Does ``node`` evaluate to some tensor's ``.data`` or a view of it?"""
    if isinstance(node, ast.Attribute):
        if node.attr == "data":
            return True
        if node.attr in _VIEW_ATTRS:
            return _is_parent_data_view(node.value)
        return False
    if isinstance(node, ast.Subscript):
        return _is_parent_data_view(node.value)
    if isinstance(node, ast.Call):
        fn = node.func
        if isinstance(fn, ast.Attribute):
            if fn.attr in _VIEW_METHODS and _is_parent_data_view(fn.value):
                return True
            if (fn.attr in _VIEW_FUNCS and isinstance(fn.value, ast.Name)
                    and fn.value.id in ("np", "numpy") and node.args):
                return _is_parent_data_view(node.args[0])
    return False


def _check_rep001(fn: ast.AST, issues: List[LintIssue], path: str) -> None:
    args = getattr(fn, "args", None)
    first = args.args[0].arg if args and args.args else ""
    name = getattr(fn, "name", "")
    if name != "backward" and first != "g":
        return
    gname = first or "g"
    for node in _own_nodes(fn):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_accumulate_owned"
                and node.args):
            continue
        arg = node.args[0]
        if _is_upstream_view(arg, gname):
            issues.append(LintIssue(
                path, node.lineno, node.col_offset, "REP001",
                f"the upstream gradient {gname!r} (or a view of it) is "
                f"passed to _accumulate_owned; ownership transfer requires "
                f"a freshly allocated array — use _accumulate instead"))
        elif _is_parent_data_view(arg):
            issues.append(LintIssue(
                path, node.lineno, node.col_offset, "REP001",
                "a view of a tensor's .data buffer is passed to "
                "_accumulate_owned; the accumulated gradient would alias "
                "live parameter/activation memory"))


# -- REP002 ------------------------------------------------------------------

def _is_recv_marker(value: Optional[ast.AST]) -> bool:
    """``RECV``, ``POLL`` or ``recv_within(...)`` — the legal yield
    requests."""
    if isinstance(value, ast.Name) and value.id in ("RECV", "POLL"):
        return True
    return _is_timed_recv(value)


def _is_poll(value: Optional[ast.AST]) -> bool:
    return isinstance(value, ast.Name) and value.id == "POLL"


def _is_timed_recv(value: Optional[ast.AST]) -> bool:
    if not isinstance(value, ast.Call):
        return False
    fn = value.func
    name = fn.id if isinstance(fn, ast.Name) else \
        fn.attr if isinstance(fn, ast.Attribute) else None
    return name == "recv_within"


def _is_rank_program(fn: ast.AST) -> Tuple[bool, List[ast.AST]]:
    yields = [n for n in _own_nodes(fn)
              if isinstance(n, (ast.Yield, ast.YieldFrom))]
    is_rank = any(isinstance(y, ast.Yield) and _is_recv_marker(y.value)
                  for y in yields)
    return is_rank, yields


def _check_rep002(fn: ast.AST, issues: List[LintIssue], path: str) -> None:
    is_rank, yields = _is_rank_program(fn)
    if not is_rank:
        return
    for y in yields:
        if isinstance(y, ast.YieldFrom):
            issues.append(LintIssue(
                path, y.lineno, y.col_offset, "REP002",
                "rank programs may not use `yield from`; every suspension "
                "point must be an explicit `yield RECV` / `yield POLL` / "
                "`yield recv_within(...)`"))
        elif y.value is not None and not _is_recv_marker(y.value):
            issues.append(LintIssue(
                path, y.lineno, y.col_offset, "REP002",
                "rank programs may only `yield RECV`, `yield POLL` or "
                "`yield recv_within(...)` (a bare `yield` after `return` "
                "is allowed as the generator marker)"))


# -- REP003 ------------------------------------------------------------------

_LEGACY_RANDOM = {"rand", "randn", "random", "random_sample", "randint",
                  "choice", "shuffle", "permutation", "seed", "normal",
                  "uniform", "standard_normal"}


def _dotted(node: ast.AST) -> List[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return parts[::-1]


def _check_rep003(tree: ast.AST, issues: List[LintIssue], path: str) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _dotted(node.func)
        if len(chain) != 3 or chain[0] not in ("np", "numpy") or \
                chain[1] != "random":
            continue
        leaf = chain[2]
        if leaf == "default_rng":
            if not node.args and not node.keywords:
                issues.append(LintIssue(
                    path, node.lineno, node.col_offset, "REP003",
                    "np.random.default_rng() without a seed breaks "
                    "bit-reproducibility; thread an explicit seed or "
                    "Generator through"))
        elif leaf in _LEGACY_RANDOM:
            issues.append(LintIssue(
                path, node.lineno, node.col_offset, "REP003",
                f"legacy global np.random.{leaf}() draws from hidden "
                f"process-wide state; use an explicitly seeded "
                f"np.random.Generator"))


# -- REP004 ------------------------------------------------------------------

def _check_rep004(tree: ast.AST, issues: List[LintIssue], path: str) -> None:
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "process"):
            continue
        owner = node.func.value
        is_env = (isinstance(owner, ast.Name) and owner.id == "env") or \
                 (isinstance(owner, ast.Attribute) and owner.attr == "env")
        if not is_env:
            continue
        if not any(kw.arg == "name" for kw in node.keywords):
            issues.append(LintIssue(
                path, node.lineno, node.col_offset, "REP004",
                "env.process(...) without name=; unnamed processes make "
                "traces and deadlock diagnostics unreadable"))


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


def _expr_yields(node: ast.AST) -> Iterator[ast.Yield]:
    """Yield expressions in ``node``, excluding nested function bodies."""
    stack: List[ast.AST] = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, _FUNCTION_NODES + (ast.Lambda,)):
            continue
        if isinstance(n, ast.Yield):
            yield n
        stack.extend(ast.iter_child_nodes(n))


def _check_rep005(fn: ast.AST, issues: List[LintIssue], path: str) -> None:
    # Names bound to an X.request(...) result anywhere in this function.
    grant_names: Set[str] = set()
    for node in _own_nodes(fn):
        if isinstance(node, ast.Assign) and _is_request_call(node.value):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    grant_names.add(tgt.id)
        elif isinstance(node, ast.NamedExpr) and \
                _is_request_call(node.value):
            grant_names.add(node.target.id)
    if not grant_names and not any(
            _is_request_call(y.value)
            for stmt in getattr(fn, "body", [])
            for y in _expr_yields(stmt)
            if y.value is not None):
        return

    found: List[Tuple[ast.Yield, bool]] = []

    def visit(stmts: List[ast.stmt], protected: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, _FUNCTION_NODES + (ast.ClassDef,)):
                continue
            if isinstance(stmt, ast.Try):
                inner = protected or _finalbody_releases(stmt)
                visit(stmt.body, inner)
                for handler in stmt.handlers:
                    visit(handler.body, protected)
                visit(stmt.orelse, inner)
                visit(stmt.finalbody, protected)
            elif isinstance(stmt, (ast.If, ast.For, ast.While, ast.With)):
                for field in ("test", "iter"):
                    expr = getattr(stmt, field, None)
                    if expr is not None:
                        found.extend((y, protected)
                                     for y in _expr_yields(expr))
                if isinstance(stmt, ast.With):
                    for item in stmt.items:
                        found.extend((y, protected)
                                     for y in _expr_yields(item.context_expr))
                visit(stmt.body, protected)
                visit(getattr(stmt, "orelse", []), protected)
            else:
                found.extend((y, protected) for y in _expr_yields(stmt))

    visit(list(getattr(fn, "body", [])), False)
    for y, protected in found:
        value = y.value
        if value is None:
            continue
        target = value.target if isinstance(value, ast.NamedExpr) else None
        if target is not None:
            value = value.value
        if _is_request_call(value) and target is None:
            issues.append(LintIssue(
                path, y.lineno, y.col_offset, "REP005",
                "yield X.request(...) discards the grant; bind it to a "
                "name inside try/finally so the hold can be released on "
                "interrupt"))
        elif not protected and (
                (target is not None and _is_request_call(value))
                or (isinstance(value, ast.Name)
                    and value.id in grant_names)):
            issues.append(LintIssue(
                path, y.lineno, y.col_offset, "REP005",
                "yield on a resource request outside try/finally; a "
                "process interrupted here leaks its grants and leaves the "
                "pending request queued — wrap the wait and hold in "
                "try/finally with .release(...)"))


# -- REP006 ------------------------------------------------------------------

_TIMEOUT_HANDLERS = {"TimeoutError", "RankFailure", "Exception",
                     "BaseException"}


def _handles_timeout(try_node: ast.Try) -> bool:
    """Does any except clause catch TimeoutError / RankFailure?"""
    for handler in try_node.handlers:
        t = handler.type
        if t is None:  # bare except
            return True
        types = t.elts if isinstance(t, ast.Tuple) else [t]
        for node in types:
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else None
            if name in _TIMEOUT_HANDLERS:
                return True
    return False


def _check_rep006(fn: ast.AST, issues: List[LintIssue], path: str) -> None:
    is_rank, _yields = _is_rank_program(fn)
    if not is_rank:
        return

    def visit(stmts: List[ast.stmt], protected: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, _FUNCTION_NODES + (ast.ClassDef,)):
                continue
            if isinstance(stmt, ast.Try):
                inner = protected or _handles_timeout(stmt)
                visit(stmt.body, inner)
                for handler in stmt.handlers:
                    visit(handler.body, protected)
                visit(stmt.orelse, inner)
                visit(stmt.finalbody, protected)
            elif isinstance(stmt, (ast.If, ast.For, ast.While, ast.With)):
                for field in ("test", "iter"):
                    expr = getattr(stmt, field, None)
                    if expr is not None:
                        flag(_expr_yields(expr), protected)
                if isinstance(stmt, ast.With):
                    for item in stmt.items:
                        flag(_expr_yields(item.context_expr), protected)
                visit(stmt.body, protected)
                visit(getattr(stmt, "orelse", []), protected)
            else:
                flag(_expr_yields(stmt), protected)

    def flag(ys: Iterator[ast.Yield], protected: bool) -> None:
        for y in ys:
            if _is_timed_recv(y.value) and not protected:
                issues.append(LintIssue(
                    path, y.lineno, y.col_offset, "REP006",
                    "`yield recv_within(...)` outside a try that handles "
                    "TimeoutError/RankFailure; a timed receive exists "
                    "because the channel can be severed — handle the "
                    "timeout or use a plain `yield RECV`"))

    visit(list(getattr(fn, "body", [])), False)


# -- REP007 ------------------------------------------------------------------

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


def _check_rep007(tree: ast.AST, issues: List[LintIssue], path: str) -> None:
    if "serve" not in Path(path).parts:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _dotted(node.func)
        if chain[-1:] != ["default_rng"] or \
                (len(chain) == 3 and chain[:2] not in (["np", "random"],
                                                       ["numpy", "random"])):
            continue
        seed_exprs = list(node.args) + [kw.value for kw in node.keywords]
        if not seed_exprs:
            continue  # the unseeded case is REP003's finding
        if not any(_mentions_seed(e) for e in seed_exprs):
            issues.append(LintIssue(
                path, node.lineno, node.col_offset, "REP007",
                "serving RNG seeded from something that is not an explicit "
                "seed; arrival/sampling streams must be reproducible — "
                "derive the argument from a *seed*-named value or an int "
                "literal"))


# -- REP008 ------------------------------------------------------------------

def _is_send_call(node: ast.Call) -> bool:
    fn = node.func
    name = fn.id if isinstance(fn, ast.Name) else \
        fn.attr if isinstance(fn, ast.Attribute) else None
    return name == "send"


def _check_rep008_tree(tree: ast.AST, issues: List[LintIssue],
                       path: str) -> None:
    """Flag lambda / generator-expression literals passed to send()."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _is_send_call(node)):
            continue
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Lambda):
                issues.append(LintIssue(
                    path, arg.lineno, arg.col_offset, "REP008",
                    "a lambda is passed to send(); closures do not pickle "
                    "across the process backend's shared-memory rings — "
                    "send data and reconstruct behaviour on the far side"))
            elif isinstance(arg, ast.GeneratorExp):
                issues.append(LintIssue(
                    path, arg.lineno, arg.col_offset, "REP008",
                    "a generator expression is passed to send(); "
                    "generators do not pickle across the process backend's "
                    "shared-memory rings — materialize it (list/tuple/"
                    "ndarray) before sending"))


def _check_rep008(fn: ast.AST, issues: List[LintIssue], path: str) -> None:
    """Flag locally ``def``-ed functions passed to send() by name."""
    local_fns: Set[str] = set()
    for node in _own_nodes(fn):
        if isinstance(node, _FUNCTION_NODES):
            local_fns.add(node.name)
        elif isinstance(node, ast.Assign) and \
                isinstance(node.value, ast.Lambda):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    local_fns.add(tgt.id)
    if not local_fns:
        return
    for node in _own_nodes(fn):
        if not (isinstance(node, ast.Call) and _is_send_call(node)):
            continue
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Name) and arg.id in local_fns:
                issues.append(LintIssue(
                    path, arg.lineno, arg.col_offset, "REP008",
                    f"locally defined function {arg.id!r} is passed to "
                    f"send(); nested functions do not pickle across the "
                    f"process backend's shared-memory rings — only "
                    f"module-level callables and plain data survive"))


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


def _check_rep009(fn: ast.AST, issues: List[LintIssue], path: str) -> None:
    """A rank program must reach its next yield promptly after sending.

    The cooperative sweep runs every rank on one thread; between a
    ``send(...)`` and the program's next suspension point nothing else in
    the world executes, so a blocking call there freezes delivery for all
    ranks.  Detection is a linear source-position scan: a send arms the
    in-flight state, any yield disarms it, a blocking call while armed is
    flagged.  (Position order approximates control flow; rank programs
    are straight-line enough that this is exact in practice.)
    """
    is_rank, _yields = _is_rank_program(fn)
    if not is_rank:
        return
    marks: List[Tuple[int, int, str, ast.Call]] = []
    for node in _own_nodes(fn):
        if isinstance(node, ast.YieldFrom) or (
                isinstance(node, ast.Yield) and not _is_poll(node.value)):
            # a POLL is answered within the rank's own turn: no yield
            marks.append((node.lineno, node.col_offset, "yield", node))
        elif isinstance(node, ast.Call):
            if _is_send_call(node):
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
            issues.append(LintIssue(
                path, node.lineno, node.col_offset, "REP009",
                f"blocking call {name}(...) between a send(...) and the "
                f"matching `yield RECV`; every rank shares one thread, so "
                f"blocking here stalls delivery for the whole world — do "
                f"the blocking work before the send or after the receive"))


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


def _check_rep010(fn: ast.AST, issues: List[LintIssue], path: str) -> None:
    """A TP ``record_collective`` wrapper must forward a group-named key.

    The TPComm wrapper signature carries a ``direction`` parameter; the raw
    trace-recorder sink (``rank, op, key``) does not, so sinks are exempt.
    """
    if getattr(fn, "name", "") != "record_collective":
        return
    params = {a.arg for a in getattr(fn.args, "args", [])}
    if "direction" not in params:
        return
    for node in _own_nodes(fn):
        if not (isinstance(node, ast.Call)
                and _dotted(node.func)[-1:] in _RECORD_SINKS):
            continue
        exprs = list(node.args) + [kw.value for kw in node.keywords]
        if not any(_mentions_group(e) for e in exprs):
            issues.append(LintIssue(
                path, node.lineno, node.col_offset, "REP010",
                "record_collective forwards to the record sink without a "
                "group-naming key; every TP group member must record under "
                "the same group key or the per-member order check compares "
                "the wrong ranks"))


def _check_rep010_tree(tree: ast.AST, issues: List[LintIssue],
                       path: str) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _dotted(node.func)
        if chain[-1:] not in (["record"], ["record_collective"]):
            continue
        args = list(node.args)
        kwvals = [kw.value for kw in node.keywords]
        first_op = _tp_op_literal(args[0]) if args else None
        if first_op is not None:
            # Wrapper-style call: record_collective(op, direction, ...).
            # The group key lives in the wrapper definition (checked by
            # _check_rep010); here the op/direction pairing must match the
            # protocol, because member record order is derived from it.
            want = _TP_DIRECTIONS.get(first_op)
            have = None
            if len(args) > 1 and isinstance(args[1], ast.Constant) \
                    and isinstance(args[1].value, str):
                have = args[1].value
            for kw in node.keywords:
                if kw.arg == "direction" and \
                        isinstance(kw.value, ast.Constant) and \
                        isinstance(kw.value.value, str):
                    have = kw.value.value
            if want is not None and have is not None and have != want:
                issues.append(LintIssue(
                    path, node.lineno, node.col_offset, "REP010",
                    f"collective {first_op!r} recorded with direction "
                    f"{have!r}; the protocol pairs it with {want!r} — a "
                    f"mislabeled record makes the group members' collective "
                    f"orders diverge"))
            continue
        # Sink-style call recording a tp_* op (the literal is not the
        # first positional, i.e. record(rank, "tp_...", ...) or a key= /
        # op= keyword): the group must appear somewhere in the call.
        if any(_tp_op_literal(e) for e in args[1:] + kwvals):
            if not any(_mentions_group(e) for e in args + kwvals):
                issues.append(LintIssue(
                    path, node.lineno, node.col_offset, "REP010",
                    "a tp_* collective is recorded without a group-naming "
                    "key; the per-member order check is only well-defined "
                    "per TP group — put the group key (e.g. "
                    "comm.group_key) in the record's key"))


# -- REP011 ------------------------------------------------------------------

def _check_rep011(fn: ast.AST, issues: List[LintIssue], path: str) -> None:
    """Schedule packages hold data, not rank programs.

    No ``sched`` module holds a rank program: lowering is the
    runtime's (``repro.runtime.rankprog.lower_rank``), so a
    builder/metric/search function that itself ``yield RECV``s or yields
    the flushing plane constants ("F"/"B") is a second, unverified
    lowering.
    """
    if "sched" not in Path(path).parts:
        return
    is_rank, yields = _is_rank_program(fn)
    plane_yields = [
        y for y in yields
        if isinstance(y, ast.Yield) and isinstance(y.value, ast.Constant)
        and y.value.value in ("F", "B")
    ]
    if is_rank or plane_yields:
        node = plane_yields[0] if plane_yields else fn
        issues.append(LintIssue(
            path, node.lineno, node.col_offset, "REP011",
            f"{getattr(fn, 'name', '<lambda>')!r} hand-rolls a rank "
            f"program inside a sched package; schedule code must emit IR "
            f"tasks and leave lowering to "
            "repro.runtime.rankprog.lower_rank"))


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


def _check_rep012(tree: ast.AST, issues: List[LintIssue], path: str) -> None:
    """Fleet code is replay-critical: sim time and seeded streams only."""
    if "fleet" not in Path(path).parts:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = tuple(_dotted(node.func))
        if chain in _WALL_CLOCK_CALLS or (
                "datetime" in chain[:-1]
                and chain[-1] in ("now", "utcnow", "today")):
            issues.append(LintIssue(
                path, node.lineno, node.col_offset, "REP012",
                f"{'.'.join(chain)}() reads the ambient wall clock inside "
                f"repro.fleet; autoscaling decisions must be a pure "
                f"function of FleetObservation.now_s (simulated/round "
                f"time) or they cannot be replayed deterministically"))
        elif len(chain) == 2 and chain[0] == "random" \
                and chain[1] in _STDLIB_RANDOM:
            issues.append(LintIssue(
                path, node.lineno, node.col_offset, "REP012",
                f"stdlib random.{chain[1]}() draws from hidden process "
                f"state inside repro.fleet; use an explicitly seeded "
                f"np.random.Generator threaded through the caller"))
        elif chain[-1:] == ("default_rng",) and (
                len(chain) != 3 or chain[:2] in (("np", "random"),
                                                 ("numpy", "random"))):
            seed_exprs = list(node.args) + [kw.value for kw in node.keywords]
            if seed_exprs and not any(_mentions_seed(e) for e in seed_exprs):
                issues.append(LintIssue(
                    path, node.lineno, node.col_offset, "REP012",
                    "fleet RNG seeded from something that is not an "
                    "explicit seed; scale events and admission draws must "
                    "replay — derive the argument from a *seed*-named "
                    "value or an int literal"))


# -- driver ------------------------------------------------------------------

def lint_source(source: str, path: str = "<string>") -> List[LintIssue]:
    """Lint one module's source; returns unsuppressed issues, sorted."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintIssue(path, exc.lineno or 0, exc.offset or 0, "PARSE",
                          f"syntax error: {exc.msg}")]
    issues: List[LintIssue] = []
    for node in ast.walk(tree):
        if isinstance(node, _FUNCTION_NODES):
            _check_rep001(node, issues, path)
            _check_rep002(node, issues, path)
            _check_rep005(node, issues, path)
            _check_rep006(node, issues, path)
            _check_rep008(node, issues, path)
            _check_rep009(node, issues, path)
            _check_rep010(node, issues, path)
            _check_rep011(node, issues, path)
    _check_rep003(tree, issues, path)
    _check_rep004(tree, issues, path)
    _check_rep007(tree, issues, path)
    _check_rep008_tree(tree, issues, path)
    _check_rep010_tree(tree, issues, path)
    _check_rep012(tree, issues, path)
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
