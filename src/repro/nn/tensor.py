"""Reverse-mode automatic differentiation on NumPy arrays.

This is the numerical substrate standing in for PyTorch: a :class:`Tensor`
wraps an ``ndarray`` and records the operations applied to it; calling
:meth:`Tensor.backward` walks the recorded graph in reverse topological
order accumulating gradients into ``.grad``.

Design notes
------------
* Gradients are *accumulated* (``+=``) into ``.grad`` exactly like PyTorch —
  this is what microbatch gradient accumulation in the pipeline engine
  relies on.
* Broadcasting is fully supported; :func:`_unbroadcast` reduces an upstream
  gradient back to a parent's shape.
* :func:`no_grad` disables graph recording — used by inference paths and by
  activation checkpointing's first (throwaway) forward pass.
* ``backward`` may be called from any tensor with an explicit upstream
  gradient, which is how the pipeline engine injects the boundary gradient
  received from the next stage (Algorithm 2, line 22).

Hot-path contracts
------------------
* :meth:`Tensor._make` bypasses ``__init__`` entirely; with grad disabled
  (or no grad-requiring parent) it returns a bare constant node without
  touching the closure.
* A node is as large as its op: the primitives below record one node per
  operator, the fused ops of :mod:`repro.nn.functional` one per kernel —
  up to a whole transformer block (``transformer_block``: one node, one
  closure, thirteen parents) — so the walk in :meth:`Tensor.backward`
  is a handful of nodes per pipeline-stage pass.
* Backward closures accumulate through two entry points:
  :meth:`Tensor._accumulate` *copies* (the incoming array may be a view of
  someone else's buffer), while :meth:`Tensor._accumulate_owned` takes
  ownership of a **freshly allocated** array (or a view of one) and stores
  it without the defensive copy.  Only pass an array to the owned variant
  when the closure itself just allocated it — never the upstream gradient
  ``g`` or a view of a parent's data.

  This contract is enforced twice: statically by lint rule **REP001**
  (``python -m repro.analysis lint``) and dynamically by the opt-in
  autograd sanitizer (:func:`repro.nn.sanitizer.sanitize`), which checks every
  ``_accumulate_owned`` call with ``np.may_share_memory`` against the
  in-flight upstream gradient and the destination buffer.  See DESIGN.md,
  "The analysis layer".

Instrumentation
---------------
The sanitizer hooks below compile down to a single attribute test
(``_san.enabled``) when disabled, mirroring :mod:`repro.perf.counters` —
the benchmarks assert this costs <5% step time.  Code that mutates
``Tensor.data`` in place should call :meth:`Tensor.bump_version` so the
sanitizer's mutation-after-save detection is exact (a content fingerprint
catches unannotated mutations on a best-effort basis).
"""

from __future__ import annotations

import contextlib
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..perf.counters import counters as _counters
from .sanitizer import sanitizer as _san

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "as_tensor"]

_GRAD_ENABLED = [True]


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED[-1]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of NumPy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _is_basic_index(idx) -> bool:
    """True when ``idx`` performs NumPy *basic* indexing (ints, slices,
    Ellipsis, newaxis) — which never selects an element twice, so the
    backward scatter needs no ``np.add.at``."""
    if isinstance(idx, tuple):
        return all(_is_basic_index(i) for i in idx)
    return (idx is None or idx is Ellipsis
            or isinstance(idx, (int, np.integer, slice)))


Arrayish = Union["Tensor", np.ndarray, float, int]


def as_tensor(x: Arrayish, dtype=np.float32) -> "Tensor":
    """Coerce to a (non-grad) Tensor if needed."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


class Tensor:
    """An ndarray plus an optional autograd tape entry."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "name", "_version", "__weakref__")

    def __init__(self, data: np.ndarray, requires_grad: bool = False,
                 parents: Sequence["Tensor"] = (),
                 backward: Optional[Callable[[np.ndarray], None]] = None,
                 name: str = ""):
        if not isinstance(data, np.ndarray):
            data = np.asarray(data, dtype=np.float32)
        self.data = data
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: Tuple["Tensor", ...] = tuple(parents)
        self._backward = backward
        self.name = name

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False,
              dtype=np.float32) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False,
             dtype=np.float32) -> "Tensor":
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def randn(*shape: int, rng: Optional[np.random.Generator] = None,
              scale: float = 1.0, requires_grad: bool = False) -> "Tensor":
        rng = rng or np.random.default_rng()  # lint-ok: REP003 explicit opt-in API
        return Tensor((rng.standard_normal(shape) * scale).astype(np.float32),
                      requires_grad=requires_grad)

    # -- basic info ---------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """The raw array (shared, not copied)."""
        return self.data

    # -- sanitizer support --------------------------------------------------
    # The version slot is lazily materialized: tensors never mutated in
    # place (the overwhelming majority) pay nothing for it.
    @property
    def version(self) -> int:
        """In-place mutation counter (see the autograd sanitizer)."""
        try:
            return self._version
        except AttributeError:
            return 0

    def bump_version(self) -> None:
        """Declare an in-place mutation of ``.data``.

        Call after mutating the buffer so the sanitizer's
        mutation-after-save check is exact rather than fingerprint-based.
        """
        self._version = self.version + 1

    def detach(self) -> "Tensor":
        """A view of the same data cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:  # pragma: no cover
        flag = ", grad" if self.requires_grad else ""
        return f"<Tensor {self.shape} {self.data.dtype}{flag}>"

    # -- graph construction -------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Create an op output node (or a constant if grad is off).

        ``data`` must already be an ndarray; ``__init__`` is bypassed so
        constant nodes cost only slot assignment.
        """
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.name = ""
        if _GRAD_ENABLED[-1]:
            req = [p for p in parents if p.requires_grad]
            if req:
                out.requires_grad = True
                out._parents = tuple(req)
                out._backward = backward
                if _counters.enabled:
                    _counters.bump("graph_nodes")
                if _san.enabled:
                    _san.on_node_created(out, parents, backward)
                return out
        out.requires_grad = False
        out._parents = ()
        out._backward = None
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``.grad``, defensively copying on first use
        (``grad`` may alias a buffer the caller still owns)."""
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def _accumulate_owned(self, grad: np.ndarray) -> None:
        """Add a **freshly allocated** ``grad`` into ``.grad`` without the
        defensive copy.  The caller transfers ownership: it must not read
        or write ``grad`` (or its base) after this call."""
        if _san.enabled:
            _san.check_owned(self, grad)
        if self.grad is None:
            if grad.dtype == self.data.dtype and grad.flags.writeable:
                self.grad = grad
            else:
                self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    # -- backward -----------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Accumulate gradients of this tensor w.r.t. every graph leaf.

        ``grad`` defaults to 1 for scalars; non-scalar roots require an
        explicit upstream gradient (the pipeline boundary case).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without a gradient is only valid for scalars"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"upstream gradient shape {grad.shape} does not match tensor "
                f"shape {self.data.shape}"
            )

        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        # Seed and propagate in reverse topological order.  Gradients flow
        # through .grad of intermediate nodes; leaves keep theirs, interior
        # nodes have theirs cleared to bound memory.
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            if _san.enabled:
                _san.before_backward_node(node)
                try:
                    node._backward(node.grad)
                finally:
                    _san.after_backward_node(node)
            else:
                node._backward(node.grad)
            if node._parents:  # interior node: release its gradient buffer
                node.grad = None

    def zero_grad(self) -> None:
        self.grad = None

    # ======================================================================
    # operators
    # ======================================================================
    def __add__(self, other: Arrayish) -> "Tensor":
        other = as_tensor(other, self.data.dtype)
        out_data = self.data + other.data

        def backward(g: np.ndarray, a=self, b=other) -> None:
            # _unbroadcast may return g itself — never owned.
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray, a=self) -> None:
            a._accumulate_owned(-g)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: Arrayish) -> "Tensor":
        return self + (-as_tensor(other, self.data.dtype))

    def __rsub__(self, other: Arrayish) -> "Tensor":
        return as_tensor(other, self.data.dtype) + (-self)

    def __mul__(self, other: Arrayish) -> "Tensor":
        other = as_tensor(other, self.data.dtype)
        out_data = self.data * other.data

        def backward(g: np.ndarray, a=self, b=other) -> None:
            if a.requires_grad:
                a._accumulate_owned(_unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate_owned(_unbroadcast(g * a.data, b.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Arrayish) -> "Tensor":
        other = as_tensor(other, self.data.dtype)
        out_data = self.data / other.data

        def backward(g: np.ndarray, a=self, b=other) -> None:
            if a.requires_grad:
                a._accumulate_owned(_unbroadcast(g / b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate_owned(
                    _unbroadcast(-g * a.data / (b.data * b.data),
                                 b.data.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: Arrayish) -> "Tensor":
        return as_tensor(other, self.data.dtype) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        # np.power with a scalar exponent takes a slow per-element path
        # (~100x a multiply on float32); expand the common small integer
        # powers into multiplications.
        d = self.data
        if exponent == 2:
            out_data = d * d
        elif exponent == 3:
            out_data = d * d * d
        else:
            out_data = d ** exponent

        def backward(g: np.ndarray, a=self, e=exponent) -> None:
            d = a.data
            if e == 2:
                a._accumulate_owned(g * (2.0 * d))
            elif e == 3:
                a._accumulate_owned(g * (3.0 * (d * d)))
            else:
                a._accumulate_owned(g * e * d ** (e - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = as_tensor(other, self.data.dtype)
        out_data = self.data @ other.data

        def backward(g: np.ndarray, a=self, b=other) -> None:
            if a.requires_grad:
                ga = g @ np.swapaxes(b.data, -1, -2)
                a._accumulate_owned(_unbroadcast(ga, a.data.shape))
            if b.requires_grad:
                gb = np.swapaxes(a.data, -1, -2) @ g
                b._accumulate_owned(_unbroadcast(gb, b.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __getitem__(self, idx) -> "Tensor":
        out_data = self.data[idx]

        if _is_basic_index(idx):
            # Basic indexing never aliases two output elements to one input
            # element, so the backward scatter is a plain (fast) assignment.
            def backward(g: np.ndarray, a=self, idx=idx) -> None:
                full = np.zeros_like(a.data)
                full[idx] = g
                a._accumulate_owned(full)
        else:
            def backward(g: np.ndarray, a=self, idx=idx) -> None:
                full = np.zeros_like(a.data)
                np.add.at(full, idx, g)
                a._accumulate_owned(full)

        return Tensor._make(out_data, (self,), backward)

    # -- shape ops -----------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(shape)
        orig = self.data.shape

        def backward(g: np.ndarray, a=self, orig=orig) -> None:
            a._accumulate(g.reshape(orig))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes_t = tuple(axes) if axes else tuple(reversed(range(self.ndim)))
        out_data = np.transpose(self.data, axes_t)

        def backward(g: np.ndarray, a=self, axes_t=axes_t) -> None:
            a._accumulate(np.transpose(g, np.argsort(axes_t)))

        return Tensor._make(out_data, (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        out_data = np.swapaxes(self.data, a, b)

        def backward(g: np.ndarray, t=self, a=a, b=b) -> None:
            t._accumulate(np.swapaxes(g, a, b))

        return Tensor._make(out_data, (self,), backward)

    # -- reductions -----------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        # np.sum over all axes yields a NumPy scalar; keep it an ndarray so
        # the dtype survives Tensor construction.
        out_data = np.asarray(self.data.sum(axis=axis, keepdims=keepdims))

        def backward(g: np.ndarray, a=self, axis=axis,
                     keepdims=keepdims) -> None:
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            if g.shape == a.data.shape:  # size-1 reduction: nothing to do
                a._accumulate(g)
            else:
                grad = np.ascontiguousarray(
                    np.broadcast_to(g, a.data.shape))
                a._accumulate_owned(grad)

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Mean as a single autograd node (not ``sum * 1/n``)."""
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        inv = np.asarray(1.0 / count, dtype=self.data.dtype)
        out_data = np.asarray(
            self.data.sum(axis=axis, keepdims=keepdims)) * inv

        def backward(g: np.ndarray, a=self, axis=axis,
                     keepdims=keepdims, inv=inv) -> None:
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            # One scaled-broadcast fill; no intermediate sum-gradient array.
            grad = np.empty_like(a.data)
            np.multiply(g, inv, out=grad)
            a._accumulate_owned(grad)

        return Tensor._make(out_data, (self,), backward)

    # -- elementwise nonlinearities --------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g: np.ndarray, a=self, out=out_data) -> None:
            a._accumulate_owned(g * out)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(g: np.ndarray, a=self) -> None:
            a._accumulate_owned(g / a.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(g: np.ndarray, a=self, out=out_data) -> None:
            a._accumulate_owned(g * 0.5 / out)

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g: np.ndarray, a=self, out=out_data) -> None:
            a._accumulate_owned(g * (1.0 - out * out))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0)

        def backward(g: np.ndarray, a=self) -> None:
            a._accumulate_owned(g * (a.data > 0))

        return Tensor._make(out_data, (self,), backward)
