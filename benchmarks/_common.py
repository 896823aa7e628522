"""Shared infrastructure for the per-figure/table benchmarks.

Every benchmark regenerates one table or figure from the paper's
evaluation: it runs the relevant experiment(s) on the simulator, prints
the same rows/series the paper reports, and asserts the qualitative
shape (who wins, roughly by how much).  Absolute numbers are simulated
microseconds, not the authors' testbed — see DESIGN.md §1.

Runs are memoized in three layers (all keyed by the full experiment
configuration, so benchmarks that share baselines — e.g. Figs. 4 and 5
use the same co-run — reuse them):

1. an in-process dict,
2. the persistent disk cache under ``$REPRO_CACHE_DIR`` (optional),
3. actual simulation, optionally prewarmed in parallel: each benchmark
   hands its full job list to :func:`prewarm`, which fans cold jobs out
   over ``REPRO_WORKERS`` processes before the serial code path reads
   the warm results back.

None of the layers can change a simulated number: workers execute the
identical serial code path, and disk keys include a fingerprint of the
``repro`` sources (see ``repro.harness.cache``).
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterable, List, Tuple

from repro.harness import ExperimentConfig, ExperimentResult
from repro.harness.cache import CACHE_STATS, cached_run, job_key
from repro.harness.parallel import default_worker_count, run_experiments_parallel

#: Scale knob for all benchmarks (working sets & access counts).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.15"))

#: ``REPRO_PROFILE=1`` attaches one shared simulation profiler to every
#: experiment a benchmark session runs and prints the per-layer host
#: time in the terminal summary.  Profiled runs bypass
#: the caches and the parallel prewarm (a cache hit or a worker process
#: would leave nothing to measure); simulated results are unchanged.
PROFILE = os.environ.get("REPRO_PROFILE", "") not in ("", "0")

PROFILER = None
if PROFILE:
    from repro.metrics.profiler import SimProfiler

    PROFILER = SimProfiler()

NATIVES = ["snappy", "memcached", "xgboost"]
#: The four managed applications Fig. 10/11/12 pair with the natives.
MANAGED_FOUR = ["spark_lr", "spark_km", "cassandra", "neo4j"]
#: All eleven managed applications (Table 3).
MANAGED_ELEVEN = [
    "cassandra",
    "neo4j",
    "spark_pr",
    "spark_km",
    "spark_lr",
    "spark_sg",
    "spark_tc",
    "mllib_bc",
    "graphx_cc",
    "graphx_pr",
    "graphx_sp",
]

_CACHE: Dict[str, ExperimentResult] = {}

#: (label, source, wall-clock seconds) per run_cached/prewarm job, printed
#: in the terminal summary so speedups show up in logs rather than silently.
RUN_LOG: List[Tuple[str, str, float]] = []


def _label(workloads: Iterable[str], config: ExperimentConfig) -> str:
    return f"{config.system}[{','.join(workloads)}]"


def run_cached(workloads: Iterable[str], config: ExperimentConfig) -> ExperimentResult:
    """Run (or reuse) an experiment: memory → disk → simulate."""
    workloads = list(workloads)
    key = job_key(workloads, config)
    result = _CACHE.get(key)
    if result is not None:
        CACHE_STATS.memory_hits += 1
        return result
    start = time.perf_counter()
    if PROFILER is not None:
        from repro.harness.experiment import run_experiment

        result, source = run_experiment(workloads, config, profiler=PROFILER), "profiled"
    else:
        result, source = cached_run(workloads, config)
    RUN_LOG.append((_label(workloads, config), source, time.perf_counter() - start))
    _CACHE[key] = result
    return result


def prewarm(
    jobs: Iterable[Tuple[Iterable[str], ExperimentConfig]],
    max_workers: int | None = None,
) -> int:
    """Fan cold jobs out in parallel so serial ``run_cached`` calls hit.

    Deduplicates the job list, drops everything already warm in the
    in-process cache, and runs the rest via
    :func:`~repro.harness.parallel.run_experiments_parallel` (workers
    still consult the disk cache, so a warm ``$REPRO_CACHE_DIR`` makes
    this near-instant).  Returns the number of jobs actually executed.
    """
    if PROFILER is not None:
        # Worker processes cannot feed the in-process profiler; let the
        # serial run_cached calls simulate (and profile) every job.
        return 0
    unique: Dict[str, Tuple[List[str], ExperimentConfig]] = {}
    for workloads, config in jobs:
        workloads = list(workloads)
        key = job_key(workloads, config)
        if key not in _CACHE and key not in unique:
            unique[key] = (workloads, config)
    if not unique:
        return 0
    if max_workers is None:
        max_workers = default_worker_count()
    start = time.perf_counter()
    results = run_experiments_parallel(list(unique.values()), max_workers=max_workers)
    elapsed = time.perf_counter() - start
    for (key, (workloads, config)), result in zip(unique.items(), results):
        _CACHE[key] = result
    RUN_LOG.append(
        (f"prewarm[{len(unique)} jobs, {max_workers} workers]", "parallel", elapsed)
    )
    return len(unique)


def config(system: str = "linux", **kwargs) -> ExperimentConfig:
    kwargs.setdefault("scale", BENCH_SCALE)
    return ExperimentConfig(system=system, **kwargs)


def solo_times(
    names: Iterable[str], base_config: ExperimentConfig
) -> Dict[str, float]:
    """Individual-run completion times, one experiment per app."""
    times = {}
    for name in names:
        result = run_cached([name], base_config)
        times[name] = result.completion_time(name)
    return times


def solo_jobs(
    names: Iterable[str], base_config: ExperimentConfig
) -> List[Tuple[List[str], ExperimentConfig]]:
    """The prewarm job list matching :func:`solo_times`."""
    return [([name], base_config) for name in names]


def slowdowns(
    corun: ExperimentResult, solo: Dict[str, float]
) -> Dict[str, float]:
    return {
        name: corun.completion_time(name) / solo[name]
        for name in corun.results
        if name in solo
    }


def geometric_mean(values: List[float]) -> float:
    import math

    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def print_header(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)
