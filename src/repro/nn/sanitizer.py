"""Opt-in autograd sanitizer for the :class:`~repro.nn.Tensor` tape.

PR 1 introduced ownership-transfer fast paths into the autograd core:
backward closures hand *freshly allocated* arrays to
``Tensor._accumulate_owned`` and skip the defensive copy.  An aliasing
mistake there — passing the upstream gradient ``g``, or a view of a
parent's data — corrupts gradients **without failing any loss-equivalence
test**, because the corruption is often numerically small or
batch-dependent.  This module is the runtime net under that tightrope.

Four detectors, all opt-in (zero overhead when disabled — the hot paths in
:mod:`repro.nn.tensor` test a single ``enabled`` attribute, mirroring
:mod:`repro.perf.counters`):

* **Ownership / aliasing** — every ``_accumulate_owned(grad)`` call is
  checked with ``np.may_share_memory`` against the upstream gradient being
  propagated and against the destination tensor's own buffer.  Legitimate
  closures always allocate fresh arrays, so any shared base is a contract
  violation and raises :class:`OwnershipError` naming the op.

* **Mutation-after-save** (PyTorch-style version counters) — when a graph
  node is created, the sanitizer snapshots each parent's version counter
  and a cheap content fingerprint; the snapshot is re-checked just before
  the node's backward runs.  In-place mutation of a saved tensor between
  forward and backward raises :class:`MutationError`.  Code that mutates
  ``Tensor.data`` in place can call :meth:`~repro.nn.Tensor.bump_version`
  to make the detection exact; the fingerprint catches un-annotated
  mutations too.

* **Anomaly mode** — with :func:`detect_anomaly`, the first op whose
  forward output contains NaN/inf raises :class:`AnomalyError` naming that
  op, and non-finite gradients are caught as they enter each backward.

* **Graph hygiene** — running the same node's backward twice (double
  backward without re-running forward) raises :class:`GraphError`;
  :meth:`AutogradSanitizer.watch_graphs` reports interior nodes that were
  created but never backwarded and are still alive (leaked graphs).

Usage::

    from repro.nn.sanitizer import sanitize, detect_anomaly

    with sanitize():             # ownership + mutation + graph checks
        loss = model(x, targets=y)[1]
        loss.backward()

    with detect_anomaly():       # additionally pinpoint the first NaN op
        ...
"""

from __future__ import annotations

import contextlib
import gc
import weakref
from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "AnomalyError",
    "AutogradSanitizer",
    "GraphError",
    "GraphWatch",
    "MutationError",
    "OwnershipError",
    "SanitizerError",
    "detect_anomaly",
    "sanitize",
    "sanitizer",
]


class SanitizerError(RuntimeError):
    """Base class for every sanitizer finding."""


class OwnershipError(SanitizerError):
    """``_accumulate_owned`` received an array it does not own."""


class MutationError(SanitizerError):
    """A tensor saved for backward was mutated before backward ran."""


class AnomalyError(SanitizerError):
    """An op produced (or received) non-finite values."""


class GraphError(SanitizerError):
    """Graph misuse: double backward or a leaked graph."""


def _op_name(backward: Any) -> str:
    """Derive the user-facing op name from a backward closure.

    Closures are defined as ``backward`` inside the op function, so the
    qualname looks like ``softmax.<locals>.backward`` or
    ``Tensor.__mul__.<locals>.backward`` — the op is the component before
    ``.<locals>.``.
    """
    qual = getattr(backward, "__qualname__", "") or \
        getattr(backward, "__name__", "op")
    qual = qual.rsplit(".<locals>.", 1)[0]
    return qual.split(".")[-1] or "op"


def _fingerprint(arr: np.ndarray) -> Tuple[Any, ...]:
    """Cheap content fingerprint: shape + a strided byte sample.

    Byte comparison (not value comparison) so NaNs fingerprint stably.
    ``reshape(-1)`` copies for non-contiguous arrays, which only makes the
    sample a faithful snapshot.
    """
    if arr.size == 0:
        return (arr.shape, b"")
    flat = arr.reshape(-1)
    stride = max(1, flat.shape[0] // 64)
    return (arr.shape, flat[::stride].tobytes())


def _all_finite(arr: np.ndarray) -> bool:
    if not np.issubdtype(arr.dtype, np.floating) and \
            not np.issubdtype(arr.dtype, np.complexfloating):
        return True
    return bool(np.isfinite(arr).all())


class GraphWatch:
    """Collects weak references to interior nodes created while active."""

    def __init__(self, san: "AutogradSanitizer") -> None:
        self._san = san
        self._refs: List[weakref.ref] = []

    def _track(self, node: Any) -> None:
        self._refs.append(weakref.ref(node))

    def created(self) -> int:
        """Number of interior nodes created while watching."""
        return len(self._refs)

    def leaked(self) -> List[Any]:
        """Interior nodes still alive whose backward never ran.

        A non-empty result after the training step finished means a graph
        (and every activation it pins) is being kept alive — the
        out-of-memory bug class in long pipelines.
        """
        gc.collect()
        out = []
        for ref in self._refs:
            node = ref()
            if node is not None and node not in self._san._consumed:
                out.append(node)
        return out


class AutogradSanitizer:
    """Process-wide sanitizer state consulted by the autograd hot paths."""

    def __init__(self) -> None:
        #: master switch — the only attribute the hot paths read when off
        self.enabled = False
        #: additionally check forward outputs / gradients for NaN/inf
        self.anomaly = False
        # node -> [(parent, saved_version, saved_fingerprint), ...]
        self._records: "weakref.WeakKeyDictionary[Any, list]" = \
            weakref.WeakKeyDictionary()
        self._consumed: "weakref.WeakSet[Any]" = weakref.WeakSet()
        self._watch: Optional[GraphWatch] = None
        # the upstream gradient / op currently propagating in backward()
        self._current_g: Optional[np.ndarray] = None
        self._current_op: Optional[str] = None

    # -- hooks called from repro.nn.tensor ---------------------------------
    def on_node_created(self, node: Any, parents: Sequence[Any],
                        backward: Any) -> None:
        """Snapshot parents of a freshly recorded op node."""
        if self.anomaly and not _all_finite(node.data):
            raise AnomalyError(
                f"op '{_op_name(backward)}' produced non-finite values in "
                f"its forward output (shape {node.data.shape})")
        self._records[node] = [
            (p, getattr(p, "_version", 0), _fingerprint(p.data))
            for p in parents
        ]
        if self._watch is not None:
            self._watch._track(node)

    def before_backward_node(self, node: Any) -> None:
        """Checks run just before ``node._backward(node.grad)``."""
        op = _op_name(node._backward)
        if node in self._consumed:
            raise GraphError(
                f"double backward through op '{op}': this node's backward "
                f"already ran and its saved buffers were released; rerun "
                f"the forward pass to build a fresh graph")
        if self.anomaly and node.grad is not None and \
                not _all_finite(node.grad):
            raise AnomalyError(
                f"non-finite gradient entering backward of op '{op}'")
        for parent, version, fp in self._records.get(node, ()):
            if getattr(parent, "_version", 0) != version or \
                    _fingerprint(parent.data) != fp:
                raise MutationError(
                    f"a tensor saved for the backward of op '{op}' was "
                    f"mutated in place after being saved (shape "
                    f"{parent.data.shape}); clone it before mutating, or "
                    f"move the mutation after backward()")
        self._current_op = op
        self._current_g = node.grad

    def after_backward_node(self, node: Any) -> None:
        self._consumed.add(node)
        self._current_g = None
        self._current_op = None

    def check_owned(self, target: Any, grad: np.ndarray) -> None:
        """Validate the ownership-transfer contract of
        ``Tensor._accumulate_owned``."""
        op = self._current_op or "<unknown op>"
        g = self._current_g
        if g is not None and np.may_share_memory(grad, g):
            raise OwnershipError(
                f"op '{op}': backward passed the upstream gradient 'g' (or "
                f"a view of it) to _accumulate_owned; the owned variant "
                f"requires a freshly allocated array — use _accumulate, or "
                f"allocate a copy (lint rule REP001)")
        if np.may_share_memory(grad, target.data):
            raise OwnershipError(
                f"op '{op}': the gradient handed to _accumulate_owned "
                f"aliases the parent tensor's own data buffer; accumulating "
                f"would silently corrupt the parameters (lint rule REP001)")

    # -- lifecycle ---------------------------------------------------------
    def reset(self) -> None:
        """Drop all snapshots and consumption records."""
        self._records = weakref.WeakKeyDictionary()
        self._consumed = weakref.WeakSet()
        self._current_g = None
        self._current_op = None

    @contextlib.contextmanager
    def watch_graphs(self) -> Iterator[GraphWatch]:
        """Track interior nodes created in the block for leak reporting."""
        watch = GraphWatch(self)
        prev = self._watch
        self._watch = watch
        try:
            yield watch
        finally:
            self._watch = prev


#: process-wide sanitizer instance the autograd hot paths consult
sanitizer = AutogradSanitizer()


@contextlib.contextmanager
def sanitize(anomaly: bool = False) -> Iterator[AutogradSanitizer]:
    """Enable the sanitizer (ownership, mutation and graph checks) for the
    duration of the block; ``anomaly=True`` adds NaN/inf pinpointing."""
    prev_enabled, prev_anomaly = sanitizer.enabled, sanitizer.anomaly
    sanitizer.enabled = True
    sanitizer.anomaly = anomaly or sanitizer.anomaly
    try:
        yield sanitizer
    finally:
        sanitizer.enabled = prev_enabled
        sanitizer.anomaly = prev_anomaly
        sanitizer.reset()


def detect_anomaly() -> Any:
    """Shorthand for :func:`sanitize` with anomaly mode on."""
    return sanitize(anomaly=True)
