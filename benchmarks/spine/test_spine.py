"""Self-test of the spine harness (not part of tier-1):

    python -m pytest benchmarks/spine -q
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--smoke`` sweep; yields (result file, wall seconds)."""
    out = str(tmp_path_factory.mktemp("spine") / "smoke.json")
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--out", out], cwd=ROOT, capture_output=True, text=True,
        timeout=170)
    wall = time.monotonic() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return out, wall, proc.stdout


def test_smoke_is_quick(smoke):
    _out, wall, _stdout = smoke
    assert wall < 40.0


def test_smoke_emits_every_declared_metric(smoke):
    out, _wall, _stdout = smoke
    spec = _spec()
    with open(out) as fh:
        (one,) = json.load(fh)["sets"]
    for workload in (w["name"] for w in spec["workloads"]):
        runs = one["workloads"][workload]
        for kind in ("end_to_end", "per_layer"):
            run = runs[kind]
            assert run["failed"] == 0, (workload, kind, run["problems"])
            assert run["correct"]
            assert set(run["metrics"]) == {m["name"] for m in spec[kind]}
            units = {m["name"]: m["unit"] for m in spec[kind]}
            for name, m in run["metrics"].items():
                assert m["unit"] == units[name]
                assert isinstance(m["value"], (int, float))
        for m in runs["end_to_end"]["metrics"].values():
            assert m["value"] > 0


def test_layer_isolation(smoke):
    out, _wall, _stdout = smoke
    with open(out) as fh:
        (one,) = json.load(fh)["sets"]

    def layer(workload, name):
        return one["workloads"][workload]["per_layer"]["metrics"][name][
            "value"]

    for workload in one["workloads"]:
        msgs = layer(workload, "runtime.transport.msgs_per_op")
        assert (msgs == 0) == (workload in ("train_serial", "des_suite"))
        steps = layer(workload, "sim.env_steps_per_op")
        assert (steps > 0) == (workload == "des_suite")
        for name in ("runtime.parallel.run_batch_cu",
                     "runtime.shm.roundtrip_us"):
            assert (layer(workload, name) > 0) == \
                (workload == "train_pipe_proc")
    for workload in ("train_hybrid_coop", "serve_decode"):
        assert abs(layer(workload, "bench.budget_coverage") - 1.0) < 0.10


def test_last_line_is_a_result(smoke):
    _out, _wall, stdout = smoke
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0


def test_metric_and_workload_names():
    spec = _spec()
    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in spec[kind]] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64
    assert spec["paths"] == ["benchmarks/spine"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in spec["end_to_end"])


def test_calibration_imports_nothing_from_repro():
    with open(os.path.join(HERE, "calibrate.py")) as fh:
        tree = ast.parse(fh.read())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules.add((node.module or "").split(".")[0])
    assert modules <= {"__future__", "statistics", "time", "typing",
                       "numpy"}


def test_compare_file_against_itself(smoke):
    out, _wall, _stdout = smoke
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"), out, out],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [line for line in proc.stdout.splitlines()
            if line.endswith(("same", "worse", "unresolved"))]
    assert len(rows) == 6 * 3
    assert all(line.endswith("same") for line in rows)
