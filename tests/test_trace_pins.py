"""Exact pins of the DES's traced spans in the shared ``ObsSpan`` schema.

Each case digests ``repr`` of the full span list a traced DES run
records — rank, stream, name, start, end, category, microbatch, nbytes
and the remaining metadata, in recording order — so any change to how
the performance model describes what it did is held to the last bit.
The cases cover every DES producer: the Fig. 7 profile (all-reduce
chunks and optimizer buckets on two streams), the ``trace --substrate
sim --fast`` batch (pipeline kernels and point-to-point messages with
their microbatch ids), and a memopt batch followed by host<->device
offload copies (the DMA engine's spans).

Nothing here may be re-recorded by a refactor.
"""

import hashlib

import pytest

from repro.cluster import Machine, summit
from repro.core import WEAK_SCALING_MODELS, AxoNNConfig, simulate_batch
from repro.experiments import fig7_profile
from repro.experiments.resilience import trace_sim


def digest(spans) -> str:
    return hashlib.sha256(repr(spans).encode()).hexdigest()


def fig7_case():
    return fig7_profile(batch_size=96)["tracer"].spans


def trace_sim_case():
    return trace_sim(fast=True)


def offload_case():
    cfg = AxoNNConfig(
        spec=WEAK_SCALING_MODELS["12B"], num_gpus=6, g_inter=3, g_data=2,
        microbatch_size=1, batch_size=12, memopt=True, bucket_size=8_000_000)
    machine = Machine(spec=summit(1), trace=True)
    simulate_batch(cfg, machine=machine)
    for g, gpu in enumerate(machine.gpus):
        machine.env.process(gpu.dma(64 << 20, "d2h"), name=f"offload{g}")
        machine.env.process(gpu.dma(48 << 20, "h2d", label=f"fetch{g}"),
                            name=f"fetch{g}")
    machine.run()
    return machine.tracer.spans


CASES = {"fig7": fig7_case, "trace_sim": trace_sim_case,
         "offload": offload_case}

#: case -> (spans recorded, sha256 of repr(spans))
PINS = {
    "fig7": (
        436,
        "171a917737788c8a3bc67657dcc945c627c7bc336d395f216e3850ad94f4046a"),
    "offload": (
        720,
        "bb40241ff3db51763d00357bd6a92c753e9d3aa9566e1119e0e1b7d18e139321"),
    "trace_sim": (
        1931,
        "2cc412ccfc20bf00de58e2d65f184d46476c5d227b710bd9126252c2561666d3"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_traced_spans_pinned(case):
    spans = CASES[case]()
    assert (len(spans), digest(spans)) == PINS[case]
