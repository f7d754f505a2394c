#!/usr/bin/env python3
"""Backend microbenchmarks (Figs. 3-4) and the Table II tuning search.

Part 1 regenerates the OSU-style measurements that motivated AxoNN's
backend split — MPI for point-to-point, NCCL for collectives.

Part 2 runs the hyperparameter tuner per framework for a chosen model
scale, reporting the selected (microbatch, G_intra, G_inter, G_data)
against the paper's Table II values.

Run:  python examples/tuning_and_microbench.py [--model 12B]
"""

import argparse

from repro.cluster import MB
from repro.core import WEAK_SCALING_MODELS
from repro.experiments import MODEL_GPUS, table2_row
from repro.comm import osu_allreduce, osu_latency
from repro.tuning import tune


def part1_microbench() -> None:
    print("Fig. 3 — point-to-point latency (one-way), region of interest:")
    sizes = [1 * MB, 4 * MB, 16 * MB, 50 * MB]
    print(f"{'bytes':>10} {'mpi intra':>10} {'nccl intra':>11} "
          f"{'mpi inter':>10} {'nccl inter':>11}")
    series = {
        (backend, intra): {r["bytes"]: r["latency_s"]
                           for r in osu_latency(backend, intra, sizes)}
        for backend in ("mpi", "nccl") for intra in (True, False)
    }
    for b in sizes:
        print(f"{b:>10} "
              f"{series[('mpi', True)][b] * 1e3:>9.2f}ms "
              f"{series[('nccl', True)][b] * 1e3:>10.2f}ms "
              f"{series[('mpi', False)][b] * 1e3:>9.2f}ms "
              f"{series[('nccl', False)][b] * 1e3:>10.2f}ms")
    print("  -> MPI wins intra-node p2p; inter-node nearly identical.\n")

    print("Fig. 4 — all-reduce latency (12 GPUs / two nodes):")
    sizes = [16 * MB, 256 * MB, 1024 * MB]
    mpi = {r["bytes"]: r["latency_s"] for r in osu_allreduce("mpi", 12, sizes)}
    nccl = {r["bytes"]: r["latency_s"]
            for r in osu_allreduce("nccl", 12, sizes)}
    for b in sizes:
        print(f"{b:>11} B: mpi {mpi[b]:7.3f}s   nccl {nccl[b]:7.3f}s")
    print("  -> NCCL wins collectives outright.\n")


def part2_tuning(model: str) -> None:
    spec = WEAK_SCALING_MODELS[model]
    gpus = MODEL_GPUS[model]
    print(f"Table II — tuning {model} on {gpus} GPUs, batch 16384 "
          f"(memory-feasible candidates only):")
    print(f"{'framework':>10} {'mbs':>4} {'G_intra':>8} {'G_inter':>8} "
          f"{'G_data':>7} {'batch time':>11} {'paper (mbs,Gi,Gp,Gd)':>22}")
    for framework in ("axonn", "deepspeed", "megatron"):
        row = tune(spec, gpus, 16384, framework, refine_top=0).as_row()
        paper = table2_row(model, framework)
        print(f"{framework:>10} {row['mbs']:>4} "
              f"{str(row['g_intra'] or '-'):>8} {row['g_inter']:>8} "
              f"{row['g_data']:>7} {row['batch_time_s']:>10.1f}s "
              f"{str((paper.microbatch, paper.g_intra or '-', paper.g_inter, paper.g_data)):>22}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="12B",
                        choices=list(WEAK_SCALING_MODELS))
    args = parser.parse_args()
    part1_microbench()
    part2_tuning(args.model)
