"""§6.4.2 "Time": runtime benefit of two-tier prefetching.

Paper: with isolation + adaptive allocation as the baseline, enabling
the application tier adds 33% (Spark-LR), 17% (Spark-KM), 19%
(Spark-TC), 8% (Neo4j).  This benchmark runs only the kernel-only and
two-tier Canvas configurations; the paper's other claim here, that Leap
slows managed apps 1.4x against the kernel's default prefetcher, is not
measured (see EXPERIMENTS.md, "Summary of deviations").
"""

from _common import NATIVES, config, print_header, run_cached
from repro.metrics import format_table

MANAGED = ["spark_lr", "spark_km", "spark_tc", "neo4j"]


def _run():
    kernel_only = config("canvas", two_tier_prefetch=False)
    two_tier = config("canvas", two_tier_prefetch=True)
    data = {}
    for managed in MANAGED:
        group = NATIVES + [managed]
        base = run_cached(group, kernel_only).completion_time(managed)
        tt = run_cached(group, two_tier).completion_time(managed)
        data[managed] = (base, tt)
    return data


def test_prefetch_time(benchmark):
    data = benchmark.pedantic(_run, rounds=1, iterations=1)

    print_header("§6.4.2: two-tier prefetching runtime benefit (managed apps)")
    rows = []
    gains = {}
    for managed, (base, tt) in data.items():
        gains[managed] = base / tt
        rows.append([managed, base / 1000, tt / 1000, f"{100 * (base / tt - 1):+.0f}%"])
    print(
        format_table(
            ["program", "kernel prefetcher (ms)", "two-tier (ms)", "benefit"], rows
        )
    )
    print("paper: SLR +33%, SKM +17%, STC +19%, Neo4j +8%")
    print(
        "note: at 1/1000 scale the private swap cache cannot hold one\n"
        "prefetch window per thread, so application-tier gains are muted\n"
        "relative to the paper (see EXPERIMENTS.md); the shape preserved\n"
        "here is 'two-tier never hurts and trends positive'."
    )

    # Shape: the application tier is neutral-to-positive; it never badly
    # regresses a managed app.
    import statistics

    assert statistics.mean(gains.values()) > 0.97
    assert max(gains.values()) > 1.0
    for managed, gain in gains.items():
        assert gain > 0.85, f"two-tier must not badly regress {managed}"
