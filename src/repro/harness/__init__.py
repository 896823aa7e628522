"""Experiment harness: machine model, thread driver, experiment runner,
parallel fan-out, and persistent result caching."""

from repro.harness.cache import (
    CACHE_STATS,
    CacheStats,
    DiskResultCache,
    cached_run,
    default_disk_cache,
    job_key,
    source_fingerprint,
)
from repro.harness.driver import run_to_completion, spawn_app
from repro.harness.experiment import (
    AppResult,
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    run_individual,
)
from repro.harness.machine import Machine
from repro.harness.parallel import (
    ExperimentJob,
    default_worker_count,
    run_experiments_parallel,
)
from repro.harness.results import result_digest
from repro.harness.trace import FaultRecord, FaultTracer, load_trace, replay_streams

__all__ = [
    "run_to_completion",
    "spawn_app",
    "AppResult",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "run_individual",
    "Machine",
    "FaultRecord",
    "FaultTracer",
    "load_trace",
    "replay_streams",
    "CACHE_STATS",
    "CacheStats",
    "DiskResultCache",
    "cached_run",
    "default_disk_cache",
    "job_key",
    "source_fingerprint",
    "ExperimentJob",
    "default_worker_count",
    "run_experiments_parallel",
    "result_digest",
]
