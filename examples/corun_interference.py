#!/usr/bin/env python3
"""Co-run interference demo: the paper's headline experiment in one file.

Runs Spark-LR with the three native applications (Snappy, Memcached,
XGBoost), each pinned to the paper's per-app core counts and 25% local
memory, on four swap systems:

  * Linux 5.5      — everything shared (partition, cache, prefetcher, QPs)
  * Fastswap       — sync/async QP split, still shared
  * Canvas (iso)   — isolation only (per-cgroup partition/cache/bandwidth)
  * Canvas (full)  — isolation + adaptive allocation + two-tier
                     prefetching + two-dimensional RDMA scheduling

and prints each application's slowdown versus running alone.  Every
run, solo or co-run, is one ``run_experiment`` call; a solo run passes
a one-name workload list.

Run:  python examples/corun_interference.py
"""

from repro.harness import ExperimentConfig, run_experiment
from repro.metrics import format_table

GROUP = ["snappy", "memcached", "xgboost", "spark_lr"]
SYSTEMS = [
    ("Linux 5.5", "linux"),
    ("Fastswap", "fastswap"),
    ("Canvas (isolation only)", "canvas-iso"),
    ("Canvas (full)", "canvas"),
]


def main() -> None:
    scale = 0.15
    base = ExperimentConfig(system="linux", scale=scale)

    print("running individual baselines ...")
    solo = {}
    for name in GROUP:
        solo[name] = run_experiment([name], base).completion_time(name)

    rows = []
    for label, system in SYSTEMS:
        print(f"running co-run on {label} ...")
        result = run_experiment(GROUP, ExperimentConfig(system=system, scale=scale))
        rows.append(
            [label]
            + [result.completion_time(name) / solo[name] for name in GROUP]
        )

    print()
    print("slowdown vs individual run (1.0 = no interference):")
    print(format_table(["system"] + GROUP, rows))
    print()
    linux_row, canvas_row = rows[0], rows[-1]
    gains = [linux_row[i] / canvas_row[i] for i in range(1, len(GROUP) + 1)]
    print(
        "Canvas speedup over Linux co-run: "
        + ", ".join(f"{name} {gain:.2f}x" for name, gain in zip(GROUP, gains))
    )


if __name__ == "__main__":
    main()
