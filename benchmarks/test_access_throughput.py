"""Access throughput: simulated accesses per second through the driver.

Not a paper figure — a harness micro-benchmark guarding the consume
core.  Two configurations bracket what experiments pay per simulated
memory access:

* **resident-heavy co-run** — memcached + neo4j with local memory
  larger than the working set, so (almost) every access is retired by
  the vectorized consume core;
* **fault-path co-run** — the same pair under memory pressure, where
  throughput is bounded by the event-driven slow path (faults, RDMA,
  reclaim).

Numbers are recorded in ``benchmark.extra_info`` (and the CI workflow
uploads the JSON as an artifact); ``check_regression.py`` guards the
rates against ``perf_baseline.json``.  The resident benchmark keeps its
historical name so its baseline entry still lines up.
"""

from _common import print_header
from repro.harness import ExperimentConfig, run_experiment

PAIR = ["memcached", "neo4j"]

#: Representative resident-heavy co-run: full-size working sets, local
#: memory above the working set, CPU charged in 800µs slices so runs of
#: resident accesses between engine events are long (the regime the
#: consume core targets).
RESIDENT_OVERRIDES = {
    "memcached": {"accesses_per_thread": 120_000},
    "neo4j": {"accesses_per_thread": 78_000},
}


def resident_config() -> ExperimentConfig:
    return ExperimentConfig(
        system="canvas",
        scale=1.0,
        local_memory_fraction=1.4,
        cpu_flush_us=800.0,
        workload_overrides=RESIDENT_OVERRIDES,
    )


def fault_config() -> ExperimentConfig:
    return ExperimentConfig(
        system="canvas",
        scale=0.25,
        local_memory_fraction=0.25,
    )


def run_accesses(config) -> int:
    result = run_experiment(PAIR, config)
    return sum(result.results[name].stats.accesses for name in PAIR)


def _report(benchmark, label, accesses):
    seconds = benchmark.stats.stats.min
    rate = accesses / seconds
    benchmark.extra_info["accesses"] = accesses
    benchmark.extra_info["accesses_per_second"] = rate
    print_header(f"access throughput: {label}")
    print(f"{accesses} accesses in {seconds:.3f}s -> {rate / 1e3:.0f}k accesses/s")
    return rate


def test_resident_fast_path_batched_vs_scalar(benchmark):
    """Accesses per second on the resident-heavy co-run."""
    accesses = benchmark.pedantic(
        lambda: run_accesses(resident_config()), rounds=3, iterations=1
    )
    _report(benchmark, "resident-heavy co-run", accesses)


def test_fault_path_throughput(benchmark):
    accesses = benchmark.pedantic(
        lambda: run_accesses(fault_config()), rounds=3, iterations=1
    )
    _report(benchmark, "fault-path co-run (under memory pressure)", accesses)

