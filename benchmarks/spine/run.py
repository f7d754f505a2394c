"""The spine benchmark: train / serve / DES on one noise-normalised scale.

    python benchmarks/spine/run.py                      # all six workloads
    python benchmarks/spine/run.py --workload serve_decode --trace 1
    python benchmarks/spine/run.py --smoke              # 1 s windows

Every workload runs in its own fresh subprocess (worker.py) with BLAS
pinned to one thread.  An untraced run gives the end-to-end metrics; a
traced run gives the per-layer budget.  Metric names, units, directions
and bounds live in BENCHMARK.json at the repository root; README.md says
what each one means.  With ``--workload`` and ``--trace`` the last line
of standard output is the one-line JSON result the benchmark contract
asks for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: set to 1 before NumPy is imported here; workers inherit them
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SHM_DIR = "/dev/shm"
#: set-up is timed this many times per untraced run (median reported)
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 20.0


def load_spec() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def fingerprint(seed: int, seconds: float) -> Dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_PINS},
        "machine": platform.machine(),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
        "seconds": seconds,
    }


def _shm_entries() -> set:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def _group_alive(pgid: int) -> bool:
    """Whether a process of group ``pgid`` still runs.  Zombies do not
    count: a worker's unreaped resource tracker lingers as one until the
    container's init gets round to it."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # "pid (comm) state ppid pgrp ..."; comm may hold spaces
                state, _ppid, pgrp = fh.read().rsplit(")", 1)[1].split()[:3]
        except OSError:
            continue  # exited while we were looking
        if int(pgrp) == pgid and state != "Z":
            return True
    return False


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # gone between the check and the kill


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               timeout: float, extra: Tuple[str, ...] = ()
               ) -> Tuple[Optional[Dict], List[str]]:
    """Run one worker subprocess in its own process group.

    Returns its result (None when it produced none) and the failures the
    runner itself observed: a timeout, a crash, a child process still
    alive after exit, or a /dev/shm segment left behind.  Whatever
    survives is killed or unlinked here, so nothing outlives the call.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]]
                                       if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    shm_before = _shm_entries()
    failures: List[str] = []
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        failures.append(f"timed out after {timeout:.0f} s")
        _kill_group(proc.pid)
        stdout, _ = proc.communicate()
    # The resource tracker of a clean worker exits a moment after it.
    deadline = time.monotonic() + 3.0
    while _group_alive(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.02)
    if _group_alive(proc.pid):
        failures.append("a child process outlived the worker")
        _kill_group(proc.pid)
        while _group_alive(proc.pid):
            time.sleep(0.02)
    leaked = sorted(_shm_entries() - shm_before)
    mine = []
    for name in leaked:
        path = os.path.join(SHM_DIR, name)
        try:
            if os.stat(path).st_uid == os.getuid():
                os.unlink(path)
                mine.append(name)
        except OSError:
            pass
    if mine:
        failures.append(f"leaked shared memory: {', '.join(mine)}")

    result = None
    lines = stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
        else:
            lines = lines[:-1]
    for line in lines:
        print(line)
    if result is None and not failures:
        failures.append(f"worker exited with code {proc.returncode} "
                        "and no result")
    return result, failures


def run_workload(spec: Dict, workload: str, seed: int, seconds: float,
                 trace: int, smoke: bool) -> Dict:
    """One contract run: ``{correct, attempted, failed, metrics}`` plus
    ``diag``/``problems`` for the human-readable report."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    extra = ("--traced-ops", "3") if smoke else ()
    result, problems = run_worker(workload, seed, seconds, trace,
                                  timeout=45.0 + 2.0 * seconds, extra=extra)
    attempted = len(problems)
    failed = len(problems)
    values: Dict[str, float] = {}
    diag: Dict = {}
    if result is not None:
        attempted += result["attempted"]
        failed += result["failed"]
        values = result["metrics"]
        diag = result["diag"]
        diag["work_unit"] = result["work_unit"]
        if not trace and not smoke:
            setups = [values["setup_s"]]
            for _ in range(SETUP_SAMPLES - 1):
                probe, probe_problems = run_worker(
                    workload, seed, seconds, 0, timeout=SETUP_TIMEOUT_S,
                    extra=("--setup-only",))
                attempted += 1 + len(probe_problems)
                failed += len(probe_problems)
                problems += probe_problems
                if probe is None or probe["failed"]:
                    failed += 1
                else:
                    setups.append(probe["metrics"]["setup_s"])
            values["setup_s"] = statistics.median(setups)
            diag["setup_samples_s"] = setups
    if trace:
        unknown = sorted(set(values) - set(units)
                         - {"setup_s", "peak_rss_mb"})
        if unknown:
            problems.append(f"undeclared per-layer metrics: {unknown}")
            attempted += 1
            failed += 1
        # Layers that do not run on this workload read zero.
        values = {name: values.get(name, 0.0) for name in units}
    missing = [name for name in units if name not in values]
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units if name in values}
    return {"correct": failed == 0 and not missing,
            "attempted": max(attempted, 1), "failed": failed,
            "metrics": metrics, "diag": diag, "problems": problems,
            "missing": missing}


def report(workload: str, seed: int, trace: int, res: Dict) -> None:
    kind = "per-layer budget (traced)" if trace else "end to end (untraced)"
    print(f"\n== {workload} · seed {seed} · {kind} ==")
    diag = res["diag"]
    for name, m in res["metrics"].items():
        if trace and m["value"] == 0:
            continue
        note = ""
        if name == "work_per_cu":
            note = (f"  [{diag['work_unit']}; quartiles "
                    f"{diag['work_per_cu_q1']:.4g} .. "
                    f"{diag['work_per_cu_q3']:.4g} over "
                    f"{diag['bench.blocks']:.0f} blocks, "
                    f"{diag['bench.ops']:.0f} ops; 1 cu = "
                    f"{diag['bench.cal_ms_p50']:.2f} ms here]")
        elif name == "setup_s" and "setup_samples_s" in diag:
            note = "  [median of " + ", ".join(
                f"{s:.3f}" for s in diag["setup_samples_s"]) + "]"
        print(f"  {name:38s} {m['value']:14.6g} {m['unit']}{note}")
    if trace:
        zero = [n for n, m in res["metrics"].items() if m["value"] == 0]
        print(f"  (zero on this workload: {len(zero)} metrics of layers "
              "that do not run here)")
    print(f"  operations attempted {res['attempted']}, "
          f"failed {res['failed']}")
    for problem in res["problems"]:
        print(f"  PROBLEM: {problem}")
    if res["missing"]:
        print(f"  PROBLEM: no value for {', '.join(res['missing'])}")


def warn_if_loaded(when: str, load: float, cores: int) -> None:
    if load > cores:
        print(f"WARNING: load average {when} {load:.2f} exceeds the {cores} "
              "usable cores; timings are in cu to absorb this, but expect "
              "wider quartiles")


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", default=None,
                    help="run this workload only (default: all six)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the timed window (default: "
                         "run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics; 1: per-layer metrics "
                         "(default: both, one run each)")
    ap.add_argument("--smoke", action="store_true",
                    help="1 s windows, 3 traced ops, set-up timed once")
    ap.add_argument("--out", default=None,
                    help="append this set of runs to a JSON file "
                         "(the input of compare.py)")
    ap.add_argument("--record-reference", action="store_true",
                    help="re-record reference.json for des_suite and exit")
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("spine: src/repro not found next to benchmarks/; nothing to "
              "measure", file=sys.stderr)
        return 2
    for var in BLAS_PINS:
        os.environ[var] = "1"
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.record_reference:
        sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
        from workloads import record_reference
        record_reference(range(32))
        return 0
    if args.workload is not None and args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; one of {names}")
    seconds = args.seconds if args.seconds is not None else \
        (1.0 if args.smoke else float(spec["run_seconds"]))

    fp = fingerprint(args.seed, seconds)
    print("spine:", json.dumps(fp))
    warn_if_loaded("at start", fp["loadavg_start"][0], fp["cores"])

    todo = [args.workload] if args.workload else names
    traces = [args.trace] if args.trace is not None else [0, 1]
    runs: Dict[str, Dict] = {}
    for workload in todo:
        for trace in traces:
            res = run_workload(spec, workload, args.seed, seconds, trace,
                               args.smoke)
            report(workload, args.seed, trace, res)
            runs.setdefault(workload, {})[
                "per_layer" if trace else "end_to_end"] = res

    fp["loadavg_end"] = os.getloadavg()
    warn_if_loaded("at end", fp["loadavg_end"][0], fp["cores"])
    if args.out:
        sets = []
        if os.path.exists(args.out):
            with open(args.out) as fh:
                sets = json.load(fh)["sets"]
        sets.append({"fingerprint": fp, "workloads": runs})
        with open(args.out, "w") as fh:
            json.dump({"schema": "spine/1", "sets": sets}, fh, indent=1)
            fh.write("\n")

    everything = [res for by_kind in runs.values()
                  for res in by_kind.values()]
    if any(res["missing"] for res in everything):
        return 1
    if len(everything) == 1:
        print(json.dumps({key: everything[0][key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    else:
        print(json.dumps({
            "correct": all(res["correct"] for res in everything),
            "attempted": sum(res["attempted"] for res in everything),
            "failed": sum(res["failed"] for res in everything),
            "metrics": {f"{workload}/{name}": m
                        for workload, by_kind in runs.items()
                        for name, m in by_kind.get(
                            "end_to_end", {"metrics": {}})["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
