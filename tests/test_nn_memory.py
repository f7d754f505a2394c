"""The allocator policy of :mod:`repro.nn.memory`: a warmed-up training
step takes no page faults — in this process and in a forked child, which
is how the process backend's rank workers get it."""

import multiprocessing
import resource
import subprocess
import sys

import pytest

from repro.nn import GPTConfig, LMBatches, SyntheticCorpus, memory
from repro.runtime import SerialTrainer

pytestmark = pytest.mark.skipif(
    not memory.HEAP_RETAINED, reason="no glibc mallopt on this platform")

#: the spine's ``train_serial`` shape
CFG = GPTConfig(vocab_size=64, seq_len=32, n_layer=4, n_head=4, hidden=64)
BATCH = 16
WARMUP, STEPS = 3, 5
#: whole-run allowance; the default allocator takes ~4 600 *per step*
MAX_FAULTS = 64


def steady_state_faults() -> int:
    """Minor page faults of ``STEPS`` training steps after ``WARMUP``."""
    corpus = SyntheticCorpus(CFG.vocab_size, 20_000, seed=0)
    batches = LMBatches(corpus, BATCH, CFG.seq_len, seed=0)
    pool = [batches.batch(k) for k in range(WARMUP + STEPS)]
    trainer = SerialTrainer(CFG)
    for x, y in pool[:WARMUP]:
        trainer.train_batch(x, y)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for x, y in pool[WARMUP:]:
        trainer.train_batch(x, y)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def _report_faults(conn) -> None:
    conn.send(steady_state_faults())
    conn.close()


def test_steady_state_step_takes_no_page_faults():
    assert steady_state_faults() <= MAX_FAULTS


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process backend forks only where fork exists")
def test_forked_child_inherits_the_policy():
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_report_faults, args=(send,))
    child.start()
    send.close()
    try:
        assert recv.poll(60.0), "child never reported"
        faults = recv.recv()
    finally:
        child.join(timeout=10.0)
        if child.is_alive():  # pragma: no cover - stuck child
            child.kill()
            child.join(timeout=10.0)
    assert child.exitcode == 0
    assert faults <= MAX_FAULTS


def test_setting_the_policy_again_or_after_numpy_is_harmless():
    # A fresh interpreter, so NumPy really has live mmap-backed arrays
    # from before the thresholds moved; then the policy is applied twice
    # more and blocks from both regimes are freed and reallocated.
    code = (
        "import importlib\n"
        "import numpy as np\n"
        "early = np.ones(1 << 20)\n"
        "import repro.nn\n"
        "from repro.nn import memory\n"
        "assert memory.HEAP_RETAINED\n"
        "late = np.ones(1 << 20)\n"
        "importlib.reload(memory)\n"
        "importlib.reload(repro.nn)\n"
        "assert memory.HEAP_RETAINED and memory.retain_freed_heap()\n"
        "del early, late\n"
        "print(float(np.ones(1 << 20).sum()))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str(float(1 << 20))
