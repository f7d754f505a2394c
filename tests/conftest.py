"""Suite-wide guard (every test module must leave a clean host) and the
DES step counter shared by the kernel tests."""

import gc
import multiprocessing
import os

import pytest

from repro.sim import Environment

SHM_DIR = "/dev/shm"  # absent on some hosts: then only children are checked


@pytest.fixture(scope="module", autouse=True)
def clean_host():
    """No surviving child process and no leaked shared-memory segment
    after any test module: the process backends' ``close()`` paths run
    in many modules, and what they leak outlives the suite."""
    before = set(os.listdir(SHM_DIR)) if os.path.isdir(SHM_DIR) else None
    yield
    gc.collect()  # transports kept alive only by a reference cycle
    assert multiprocessing.active_children() == []
    if before is not None:
        assert sorted(set(os.listdir(SHM_DIR)) - before) == []


@pytest.fixture
def env_steps(monkeypatch):
    """Count processed DES events by wrapping the class attribute
    ``Environment.step``, as the spine benchmark's event count does; the
    returned list gains the clock reading after each step."""
    steps = []
    step = Environment.step

    def counted(env):
        step(env)
        steps.append(env.now)

    monkeypatch.setattr(Environment, "step", counted)
    return steps
