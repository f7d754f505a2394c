"""Compare two spine result files: ``compare.py A.json B.json``.

Each file is what ``run.py --out`` writes: one or more complete sets of
runs (running again with the same ``--out`` appends a set).  Per workload
and end-to-end metric this prints both medians with their quartiles over
the sets, the ratio B / A (base: A), and a verdict from the bounds in
BENCHMARK.json:

* ``worse``      — B's median is worse than A's by more than the bound;
* ``unresolved`` — not worse, but the quartile spread of A or B is wider
  than the bound, so "unchanged" cannot be claimed either;
* ``same``       — neither.

Exit status is non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Tuple

from calibrate import quartiles
from run import load_spec


def load_values(path: str) -> Dict[Tuple[str, str], List[float]]:
    """(workload, end-to-end metric) -> one value per set of runs."""
    with open(path) as fh:
        sets = json.load(fh)["sets"]
    values: Dict[Tuple[str, str], List[float]] = {}
    for one in sets:
        for workload, by_kind in one["workloads"].items():
            run = by_kind.get("end_to_end")
            if run is None:
                continue
            for name, m in run["metrics"].items():
                values.setdefault((workload, name), []).append(m["value"])
    return values


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """The verdict and the ratio of medians B / A."""
    a1, a2, a3 = quartiles(a)
    b1, b2, b3 = quartiles(b)
    ratio = b2 / a2
    worse_by = 1.0 - ratio if better == "higher" else ratio - 1.0
    if worse_by > bound:
        return "worse", ratio
    if max((a3 - a1) / a2, (b3 - b1) / b2) > bound:
        return "unresolved", ratio
    return "same", ratio


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = {m["name"]: m for m in load_spec()["end_to_end"]}
    a_values, b_values = load_values(argv[1]), load_values(argv[2])
    any_worse = False
    print(f"A = {argv[1]}   B = {argv[2]}   ratio = B / A")
    print(f"{'workload':18s} {'metric':12s} {'A median [q1 .. q3]':34s} "
          f"{'B median [q1 .. q3]':34s} {'ratio':>7s} {'bound':>6s}  verdict")
    for key in sorted(set(a_values) & set(b_values)):
        workload, name = key
        spec = metrics[name]
        state, ratio = verdict(a_values[key], b_values[key],
                               spec["better"], spec["bound"])
        any_worse |= state == "worse"

        def cell(values: List[float]) -> str:
            q1, q2, q3 = quartiles(values)
            return f"{q2:.5g} [{q1:.5g} .. {q3:.5g}] n={len(values)}"

        print(f"{workload:18s} {name:12s} {cell(a_values[key]):34s} "
              f"{cell(b_values[key]):34s} {ratio:7.3f} "
              f"{spec['bound']:6.2f}  {state}")
    only = sorted(set(a_values) ^ set(b_values))
    for workload, name in only:
        print(f"{workload:18s} {name:12s} present in one file only")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
