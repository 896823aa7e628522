"""Tests for the parallel fan-out, result snapshots, and the disk cache.

The contract under test: neither pickling, nor the process pool, nor the
persistent cache may change a single simulated number.  A result that
crossed a process boundary or a disk round-trip must read back exactly
like the live one.
"""

import pickle

import pytest

from repro.harness import (
    CACHE_STATS,
    ExperimentConfig,
    ExperimentJob,
    cached_run,
    default_disk_cache,
    default_worker_count,
    job_key,
    result_digest,
    run_experiment,
    run_experiments_parallel,
)

GROUP = ["snappy", "memcached"]


def tiny(system="linux", **kwargs):
    return ExperimentConfig(system=system, scale=0.05, **kwargs)


def assert_same_result(a, b):
    """Every number a benchmark reads back must match exactly."""
    assert set(a.apps) == set(b.apps)
    for name in a.apps:
        assert a.completion_time(name) == b.completion_time(name)
        sa, sb = a.apps[name].stats, b.apps[name].stats
        assert sa.faults == sb.faults
        assert sa.swapouts == sb.swapouts
        assert sa.clean_drops == sb.clean_drops
        assert sa.fault_stall_us == sb.fault_stall_us
        assert sa.prefetches_issued == sb.prefetches_issued
    assert a.elapsed_us == b.elapsed_us


# -- determinism: serial vs parallel ------------------------------------


def test_parallel_matches_serial_results():
    jobs = [
        (GROUP, tiny("linux")),
        (GROUP, tiny("fastswap")),
        (GROUP, tiny("canvas")),
    ]
    serial = [run_experiment(list(w), c) for w, c in jobs]
    parallel = run_experiments_parallel(jobs, max_workers=2)
    assert len(parallel) == len(serial)
    for live, shipped in zip(serial, parallel):
        assert_same_result(live, shipped)


def test_parallel_preserves_job_order():
    jobs = [(["snappy"], tiny()), (["memcached"], tiny())]
    results = run_experiments_parallel(jobs, max_workers=2)
    assert set(results[0].apps) == {"snappy"}
    assert set(results[1].apps) == {"memcached"}


def test_serial_fallback_single_worker():
    results = run_experiments_parallel([(GROUP, tiny())], max_workers=1)
    assert len(results) == 1
    assert results[0].completion_time("snappy") > 0


def test_experiment_job_normalization():
    job = ExperimentJob.of((["a", "b"], tiny()))
    assert job.workloads == ("a", "b")
    assert ExperimentJob.of(job) is job


def test_default_worker_count_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert default_worker_count() == 3
    monkeypatch.setenv("REPRO_WORKERS", "0")
    assert default_worker_count() == 1


# -- result snapshots ----------------------------------------------------


def test_pickle_round_trip_preserves_numbers():
    live = run_experiment(GROUP, tiny("canvas"))
    shipped = pickle.loads(pickle.dumps(live))
    assert_same_result(live, shipped)
    # The machine (engine heap, generators) is deliberately dropped.
    assert shipped.machine is None
    # Identity between the two stats views survives via the pickle memo.
    for name in GROUP:
        assert shipped.apps[name].stats is shipped.results[name].stats


def test_pickle_round_trip_is_idempotent():
    shipped = pickle.loads(pickle.dumps(run_experiment(GROUP, tiny())))
    again = pickle.loads(pickle.dumps(shipped))
    assert_same_result(shipped, again)


def test_snapshot_keeps_system_introspection():
    live = run_experiment(GROUP, tiny("canvas"))
    shipped = pickle.loads(pickle.dumps(live))
    for name in GROUP:
        assert shipped.system.adaptive_stats(name) == live.system.adaptive_stats(name)
    assert (
        shipped.system.scheduler.stats.prefetches_dropped
        == live.system.scheduler.stats.prefetches_dropped
    )


# -- persistent disk cache ----------------------------------------------


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    CACHE_STATS.reset()
    yield tmp_path / "cache"
    CACHE_STATS.reset()


def test_cache_disabled_without_env(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert default_disk_cache() is None
    result, source = cached_run(["snappy"], tiny())
    assert source == "simulated"
    assert result.completion_time("snappy") > 0


def test_cache_miss_then_hit(cache_dir):
    cold, source = cached_run(GROUP, tiny())
    assert source == "simulated"
    assert CACHE_STATS.misses == 1 and CACHE_STATS.stores == 1
    warm, source = cached_run(GROUP, tiny())
    assert source == "disk"
    assert CACHE_STATS.disk_hits == 1
    assert_same_result(cold, warm)


def test_cache_key_sensitive_to_config_and_workloads(cache_dir):
    base = job_key(GROUP, tiny())
    assert base == job_key(GROUP, tiny()), "key must be stable"
    assert base != job_key(GROUP, tiny(seed=1))
    assert base != job_key(GROUP, tiny("canvas"))
    assert base != job_key(list(reversed(GROUP)), tiny())
    assert base != job_key(["snappy"], tiny())


def test_cache_drops_corrupt_entries(cache_dir):
    cached_run(["snappy"], tiny())
    cache = default_disk_cache()
    (entry,) = cache.entries()
    entry.write_bytes(b"not a pickle")
    result, source = cached_run(["snappy"], tiny())
    assert source == "simulated"
    assert result.completion_time("snappy") > 0


def test_cache_clear(cache_dir):
    cached_run(["snappy"], tiny())
    cache = default_disk_cache()
    assert len(cache.entries()) == 1
    assert cache.clear() == 1
    assert cache.entries() == []


def test_parallel_workers_share_disk_cache(cache_dir):
    jobs = [(["snappy"], tiny()), (["memcached"], tiny())]
    run_experiments_parallel(jobs, max_workers=2)
    # Workers stored their results; this process now hits disk only.
    CACHE_STATS.reset()
    warm = run_experiments_parallel(jobs, max_workers=1)
    assert CACHE_STATS.disk_hits == 2 and CACHE_STATS.misses == 0
    assert warm[0].completion_time("snappy") > 0


# -- determinism: batch boundaries and the consume core -----------------


def test_result_digest_stable_and_sensitive():
    result = run_experiment(GROUP, tiny())
    again = run_experiment(GROUP, tiny())
    assert result_digest(result) == result_digest(again)
    other = run_experiment(GROUP, tiny(seed=1))
    assert result_digest(result) != result_digest(other)
    # The digest must survive a pickle/process boundary unchanged.
    shipped = pickle.loads(pickle.dumps(result))
    assert result_digest(shipped) == result_digest(result)


@pytest.mark.parametrize("system", ["linux", "canvas"])
def test_batched_streams_bit_identical_to_scalar(system, monkeypatch):
    """Where a stream's batch boundaries fall may not change a single
    simulated number.

    A co-run of snappy, memcached, spark_lr and neo4j is rerun with
    every thread stream re-chunked into 7-access batches; the digest
    must match the run on the producers' own batches.
    """
    from repro.harness import experiment
    from repro.workloads.batch import chunk_stream, flatten_batches

    corun = ["snappy", "memcached", "spark_lr", "neo4j"]
    native = run_experiment(corun, tiny(system))
    spawn = experiment.spawn_app

    def rechunked(system, app, thread_streams, *args, **kwargs):
        streams = [
            chunk_stream(flatten_batches(s), batch_size=7) for s in thread_streams
        ]
        return spawn(system, app, streams, *args, **kwargs)

    monkeypatch.setattr(experiment, "spawn_app", rechunked)
    small = run_experiment(corun, tiny(system))
    assert_same_result(native, small)
    assert result_digest(native) == result_digest(small)


def test_batched_digest_unaffected_by_profiler():
    config = tiny("canvas")
    from repro.metrics import SimProfiler

    profiler = SimProfiler()
    plain = run_experiment(GROUP, config)
    profiled = run_experiment(GROUP, tiny("canvas"), profiler=profiler)
    assert result_digest(plain) == result_digest(profiled)
    assert profiler.runs == 1
    assert profiler.wall_seconds > 0
    assert profiler.accesses == sum(
        profiled.results[name].stats.accesses for name in GROUP
    )
    # The fold leaves (almost) nothing unattributed, gives the engine its
    # own row, and counts the same work on every run.
    assert profiler.unattributed_seconds < 0.1 * profiler.wall_seconds
    assert "sim.engine" in [layer for layer, _s, _c in profiler.rows()]
    assert profiler.calls["sim.engine"] > 0
    again = SimProfiler()
    run_experiment(GROUP, tiny("canvas"), profiler=again)
    assert again.calls == profiler.calls


def test_flat_consume_core_matches_scan_core(monkeypatch):
    """The consume core's per-page side-effect branch (the one spaces
    with shared mappings take) is interchangeable with its vectorized
    scatters: forcing every space of a plain co-run onto it — and so
    also onto reclaim's per-entry drain — may not change a single
    simulated number."""
    from repro.mem.address_space import AddressSpace

    corun = ["snappy", "memcached", "spark_lr"]
    vectorized = run_experiment(corun, tiny("linux"))
    init = AddressSpace.__init__

    def flagged_foreign(self, name):
        init(self, name)
        self.has_foreign_pages = True

    monkeypatch.setattr(AddressSpace, "__init__", flagged_foreign)
    per_page = run_experiment(corun, tiny("linux"))
    assert all(app.space.has_foreign_pages for app in per_page.apps.values())
    assert_same_result(vectorized, per_page)
    assert result_digest(vectorized) == result_digest(per_page)
