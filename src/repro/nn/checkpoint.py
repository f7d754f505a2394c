"""Activation (gradient) checkpointing.

Implements Chen et al.'s sublinear-memory technique the way the paper uses
it (Section V-A): during the forward pass only the *inputs* of selected
segments are stored; inside a segment no graph is recorded.  During the
backward pass each segment re-runs its forward with grad enabled and then
backpropagates through the rebuilt subgraph.

The paper's ``ac = sqrt(N)`` interval rule (Eq. 1) is integer arithmetic
both substrates use: :func:`repro.partition.optimal_checkpoint_interval`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .modules import Dropout, Module
from .tensor import Tensor, no_grad

__all__ = ["checkpoint", "CheckpointedStack"]


def checkpoint(fn: Callable[[Tensor], Tensor], x: Tensor,
               rngs: Sequence[np.random.Generator] = ()) -> Tensor:
    """Run ``fn(x)`` without recording, recompute in backward.

    The returned tensor participates in the surrounding graph; when its
    gradient arrives, ``fn`` is re-executed with grad enabled on a detached
    copy of ``x`` to rebuild the segment's graph, the segment is
    backpropagated, and the input gradient is passed on.

    ``rngs`` are the generators ``fn`` draws from (its dropout streams).
    The replay must draw the masks the throwaway forward drew, or the
    gradients belong to a different network than the activations already
    sent downstream: their states are snapshotted before the forward and
    installed for the replay, and the states the replay found — other
    microbatches may have advanced the streams in between — are put back
    after it.
    """
    snapshot = [rng.bit_generator.state for rng in rngs]
    with no_grad():
        out = fn(Tensor(x.data))

    def backward(g, fn=fn, x=x, rngs=rngs, snapshot=snapshot):
        inner_in = Tensor(x.data, requires_grad=True)
        current = [rng.bit_generator.state for rng in rngs]
        for rng, state in zip(rngs, snapshot):
            rng.bit_generator.state = state
        try:
            out2 = fn(inner_in)
        finally:
            for rng, state in zip(rngs, current):
                rng.bit_generator.state = state
        out2.backward(g)
        if x.requires_grad and inner_in.grad is not None:
            x._accumulate(inner_in.grad)

    return Tensor._make(out.data, (x,), backward)


class CheckpointedStack(Module):
    """A stack of layers applying checkpointing every ``interval`` layers.

    Layers ``[i*interval, (i+1)*interval)`` form segment *i*; only segment
    inputs are kept live during the forward pass.  ``interval=0`` disables
    checkpointing (plain sequential execution).
    """

    def __init__(self, layers: Sequence[Module], interval: int):
        super().__init__()
        if interval < 0:
            raise ValueError("interval must be >= 0")
        self.stack = list(layers)
        for i, layer in enumerate(self.stack):
            setattr(self, f"stacked{i}", layer)
        self.interval = interval

    def forward(self, x: Tensor) -> Tensor:
        if self.interval == 0:
            for layer in self.stack:
                x = layer(x)
            return x
        for seg_start in range(0, len(self.stack), self.interval):
            segment = self.stack[seg_start:seg_start + self.interval]

            def run_segment(t: Tensor, segment=segment) -> Tensor:
                for layer in segment:
                    t = layer(t)
                return t

            x = checkpoint(run_segment, x,
                           [m.rng for layer in segment
                            for m in layer.modules()
                            if isinstance(m, Dropout)])
        return x
