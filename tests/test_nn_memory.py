"""The allocator policy of :mod:`repro.nn.memory`: a warmed-up training
step takes no page faults — in this process and in a forked child, which
is how the process backend's rank workers get it.  Where the policy (or
:mod:`repro.nn.blas`'s thread cap) cannot be applied, training is
correct and merely slower."""

import multiprocessing
import os
import resource
import subprocess
import sys

import pytest

from repro.nn import GPTConfig, LMBatches, SyntheticCorpus, blas, memory
from repro.runtime import SerialTrainer

needs_glibc = pytest.mark.skipif(
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


@needs_glibc
def test_steady_state_step_takes_no_page_faults():
    assert steady_state_faults() <= MAX_FAULTS


#: a fresh interpreter that imports this module (and so the policy), then
#: forks one child that measures and reports its steady-state faults
_FORK_FROM_FRESH = """\
import multiprocessing, sys
sys.path.insert(0, {here!r})
from test_nn_memory import _report_faults
ctx = multiprocessing.get_context("fork")
recv, send = ctx.Pipe(duplex=False)
child = ctx.Process(target=_report_faults, args=(send,))
child.start()
send.close()
print(recv.recv() if recv.poll(60.0) else "no report")
child.join(timeout=10.0)
sys.exit(child.exitcode)
"""


@needs_glibc
@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process backend forks only where fork exists")
def test_forked_child_inherits_the_policy():
    # The child forks from a fresh interpreter, not from this test
    # process: a fork shares every page of its parent copy-on-write, and
    # after the ~900 tests before this one, this process's object arenas
    # and heap are fragmented enough that a child's steady-state steps
    # keep landing on inherited pages it has not written yet.  Forked
    # from there, a child took 47-49 faults per run (89 in the full runs
    # that failed), and its smaps showed them as pages moving from
    # Shared_Dirty to Private_Dirty in [anon] (Python's arenas) and
    # [heap]: copy-on-write first writes, not the allocator policy.  A
    # fresh parent is a state the test controls.
    here = os.path.dirname(os.path.abspath(__file__))
    done = subprocess.run(
        [sys.executable, "-c", _FORK_FROM_FRESH.format(here=here)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    faults = int(done.stdout.strip())
    assert faults <= MAX_FAULTS


@needs_glibc
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


# -- degraded hosts: no mallopt (musl, macOS), no /proc or no OpenBLAS --------

def test_without_mallopt_the_policy_reports_false(monkeypatch):
    monkeypatch.setattr(memory.ctypes, "CDLL", lambda name: object())
    assert memory.retain_freed_heap() is False


def test_without_proc_maps_the_blas_cap_is_a_noop(monkeypatch):
    def no_proc(path, *args, **kwargs):
        raise FileNotFoundError(path)

    monkeypatch.setattr(blas, "open", no_proc, raising=False)
    assert blas.blas_threads() is None
    assert blas.share_blas_threads(2) is None


#: one ``SerialTrainer`` step on a fixed batch, printed exactly
_ONE_STEP = (
    "import hashlib\n"
    "from repro.nn import (GPTConfig, LMBatches, SyntheticCorpus, blas,\n"
    "                      memory)\n"
    "from repro.runtime import SerialTrainer\n"
    "cfg = GPTConfig(vocab_size=64, seq_len=32, n_layer=2, n_head=4,\n"
    "                hidden=64)\n"
    "x, y = LMBatches(SyntheticCorpus(64, 20_000, seed=0), 8, 32,\n"
    "                 seed=0).batch(0)\n"
    "trainer = SerialTrainer(cfg)\n"
    "loss = trainer.train_batch(x, y)\n"
    "digest = hashlib.sha256()\n"
    "for p in trainer.model.parameters():\n"
    "    digest.update(p.data.tobytes())\n"
    "print(memory.HEAP_RETAINED, blas.blas_threads(), float(loss).hex(),\n"
    "      digest.hexdigest())\n")

#: the same, in an interpreter where neither policy can be applied
_DEGRADED = (
    "import builtins, ctypes\n"
    "real_cdll, real_open = ctypes.CDLL, builtins.open\n"
    "def cdll(name, *a, **k):\n"
    "    return object() if name is None else real_cdll(name, *a, **k)\n"
    "def no_proc(path, *a, **k):\n"
    "    if path == '/proc/self/maps':\n"
    "        raise FileNotFoundError(path)\n"
    "    return real_open(path, *a, **k)\n"
    "ctypes.CDLL, builtins.open = cdll, no_proc\n")


def _run(code: str):
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_degraded_host_trains_the_same_step():
    """Correct and merely slower: with no ``mallopt`` and no readable
    ``/proc/self/maps`` from before ``import repro.nn``, one training
    step's loss and weights equal the normal host's bit for bit."""
    retained, threads, *normal = _run(_ONE_STEP)
    assert retained == str(memory.HEAP_RETAINED)
    off, none, *degraded = _run(_DEGRADED + _ONE_STEP)
    assert (off, none) == ("False", "None")
    assert degraded == normal
