#!/usr/bin/env python3
"""Prefetcher shoot-out on one pointer-chasing managed application.

Runs GraphX Connected Components (heavy reference chasing, the worst
case for stride detection) alone under 25% local memory with four
prefetching configurations:

  * none        — every fault is a demand fetch
  * Leap        — majority vote + aggressive contiguous fallback
  * kernel      — conservative readaround with hit feedback
  * two-tier    — kernel tier + Canvas's JVM reference-graph /
                  per-thread semantic prefetching (§5.2)

and prints completion time, contribution, and accuracy for each.  Each
configuration is one ``run_experiment([APP], config)`` call, the
harness's individual run.

Run:  python examples/prefetcher_comparison.py
"""

from repro.harness import ExperimentConfig, run_experiment
from repro.metrics import format_table

APP = "graphx_cc"


def main() -> None:
    scale = 0.2
    configs = [
        ("none", ExperimentConfig(system="linux", prefetcher="none", scale=scale)),
        ("leap", ExperimentConfig(system="linux", prefetcher="leap", scale=scale)),
        ("kernel", ExperimentConfig(system="linux", prefetcher="readahead", scale=scale)),
        (
            "two-tier",
            # Canvas with only the prefetching machinery enabled, so the
            # comparison isolates prefetching policy.
            ExperimentConfig(
                system="canvas",
                two_tier_prefetch=True,
                adaptive_allocation=False,
                horizontal_scheduling=False,
                scale=scale,
            ),
        ),
    ]
    rows = []
    for label, config in configs:
        print(f"running {APP} with {label} prefetching ...")
        result = run_experiment([APP], config)
        outcome = result.results[APP]
        rows.append(
            [
                label,
                outcome.completion_time_us / 1000,
                100 * outcome.prefetch_contribution,
                100 * outcome.prefetch_accuracy,
                outcome.stats.prefetches_issued,
            ]
        )
    print()
    print(
        format_table(
            ["prefetcher", "time (ms)", "contribution %", "accuracy %", "issued"],
            rows,
        )
    )
    print()
    print(
        "Pointer chasing defeats stride detection; only the reference-graph\n"
        "application tier (two-tier) sees the object graph's structure."
    )


if __name__ == "__main__":
    main()
