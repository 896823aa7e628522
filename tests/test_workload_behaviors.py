"""Behavioural tests: each Table 2 workload shows its paper-documented
access characteristics (pattern class, write intensity, locality)."""

import numpy as np
import pytest

from repro.kernel import AppContext, CgroupConfig
from repro.sim import Engine
from repro.workloads import WORKLOADS, make_workload
from repro.workloads.batch import flatten_batches


def materialize(name, scale=0.1, max_per_thread=400):
    workload = make_workload(name, scale=scale)
    app = AppContext(
        Engine(), CgroupConfig(name=name, n_cores=4, local_memory_pages=4096)
    )
    workload.build(app, np.random.default_rng(0))
    accesses = []
    for stream in workload.thread_batch_streams(app, np.random.default_rng(1)):
        thread_accesses = []
        for access in flatten_batches(stream):
            thread_accesses.append(access)
            if len(thread_accesses) >= max_per_thread:
                break
        accesses.append(thread_accesses)
    return workload, app, accesses


def write_fraction(accesses):
    flat = [a for chunk in accesses for a in chunk]
    return sum(1 for a in flat if a[1]) / len(flat)


def sequential_fraction(thread_accesses):
    """Fraction of consecutive accesses with delta +1 (per thread)."""
    deltas = [
        b[0] - a[0] for a, b in zip(thread_accesses, thread_accesses[1:])
    ]
    if not deltas:
        return 0.0
    return sum(1 for d in deltas if d == 1) / len(deltas)


# -- natives -----------------------------------------------------------------


def test_snappy_is_streaming():
    workload, app, accesses = materialize("snappy")
    assert len(accesses) == 1  # single-threaded
    # Streaming: overwhelmingly sequential within the interleaved
    # reader/writer pattern.
    assert sequential_fraction(accesses[0]) > 0.5
    # Output writes present but reads dominate 3:1.
    wf = write_fraction(accesses)
    assert 0.15 < wf < 0.4


def test_xgboost_threads_scan_disjoint_blocks():
    workload, app, accesses = materialize("xgboost")
    # Per-thread: near-perfectly sequential.
    for thread in accesses:
        assert sequential_fraction(thread) > 0.9
    # Threads start in different blocks of the matrix.
    starts = {thread[0][0] for thread in accesses}
    assert len(starts) == workload.n_threads
    # Read-dominated.
    assert write_fraction(accesses) < 0.15


def test_memcached_is_zipf_skewed():
    workload, app, accesses = materialize("memcached", max_per_thread=2000)
    flat = [a[0] for chunk in accesses for a in chunk]
    values, counts = np.unique(flat, return_counts=True)
    counts = np.sort(counts)[::-1]
    top_decile = counts[: max(1, len(counts) // 10)].sum() / counts.sum()
    assert top_decile > 0.3  # heavy head
    # ~10% sets.
    assert 0.05 < write_fraction(accesses) < 0.2


# -- managed -------------------------------------------------------------------


@pytest.mark.parametrize("name", ["spark_lr", "spark_km", "mllib_bc"])
def test_spark_scans_are_per_thread_sequential(name):
    workload, app, accesses = materialize(name)
    app_threads = accesses[: workload.n_threads]
    for thread in app_threads:
        assert sequential_fraction(thread) > 0.9
    # Shuffle/update writes are substantial but not total.
    assert 0.1 < write_fraction(app_threads) < 0.6


@pytest.mark.parametrize("name", ["spark_pr", "spark_tc", "graphx_cc", "graphx_pr", "graphx_sp"])
def test_graph_workloads_are_pointer_chasing(name):
    workload, app, accesses = materialize(name)
    app_threads = accesses[: workload.n_threads]
    for thread in app_threads:
        # Chains jump around: almost never stride-1 for long.
        assert sequential_fraction(thread) < 0.5


def test_graph_traversal_has_group_locality():
    """Consecutive chase steps stay within a 16-page group most of the
    time (allocation-site locality) while being non-sequential."""
    workload, app, accesses = materialize("graphx_cc")
    thread = accesses[0]
    same_group = 0
    for a, b in zip(thread, thread[1:]):
        if a[0] // 16 == b[0] // 16:
            same_group += 1
    assert same_group / (len(thread) - 1) > 0.5


def test_neo4j_has_hot_core():
    """Neo4j keeps ~85% of traversal steps inside a hot quarter of the
    graph ("holds much of its graph data in local memory")."""
    workload, app, accesses = materialize("neo4j", max_per_thread=2000)
    flat = [a[0] for chunk in accesses[: workload.n_threads] for a in chunk]
    _values, counts = np.unique(flat, return_counts=True)
    # The hot *set* — a quarter of the data region — absorbs almost all
    # accesses; measure mass of the top hot-set-sized page group.
    hot_set_size = max(16, int(workload.data_vma.n_pages * workload.hot_fraction))
    hot_mass = np.sort(counts)[::-1][:hot_set_size].sum() / counts.sum()
    assert hot_mass > 0.8
    # Touched pages are far fewer than the region: strong locality.
    assert len(counts) < workload.data_vma.n_pages * 0.7
    # Traversal never writes.
    assert write_fraction(accesses[: workload.n_threads]) == 0.0


def test_cassandra_mixes_reads_and_inserts():
    workload, app, accesses = materialize("cassandra")
    wf = write_fraction(accesses[: workload.n_threads])
    assert 0.35 < wf < 0.65  # 5M reads / 5M inserts


def test_spark_sg_write_heavy_and_skewed():
    workload, app, accesses = materialize("spark_sg", max_per_thread=1000)
    app_threads = accesses[: workload.n_threads]
    assert write_fraction(app_threads) > 0.45
    flat = [a[0] for chunk in app_threads for a in chunk]
    _values, counts = np.unique(flat, return_counts=True)
    counts = np.sort(counts)[::-1]
    assert counts[: max(1, len(counts) // 10)].sum() / counts.sum() > 0.25


# -- GC threads ------------------------------------------------------------------


@pytest.mark.parametrize("name", ["spark_lr", "graphx_cc", "cassandra", "neo4j"])
def test_gc_threads_are_bursty_readers(name):
    workload, app, accesses = materialize(name)
    gc_threads = accesses[workload.n_threads :]
    assert len(gc_threads) == workload.n_aux_threads
    for thread in gc_threads:
        if not thread:
            continue
        # GC never writes, and its bursts carry a large idle CPU chunk.
        assert all(not a[1] for a in thread)
        assert max(a[2] for a in thread) > 100.0


# -- cross-cutting ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_streams_are_deterministic_per_seed(name):
    def collect():
        _w, _a, accesses = materialize(name, max_per_thread=50)
        return [a for chunk in accesses for a in chunk]

    assert collect() == collect()


def test_working_sets_reflect_paper_intensity_ordering():
    """Spark-class working sets exceed Memcached's and Snappy's, so the
    swap-throughput asymmetry of Fig. 2 has a basis."""
    sizes = {
        name: make_workload(name, scale=0.25).working_set_pages
        for name in ("spark_lr", "graphx_cc", "memcached", "snappy")
    }
    assert sizes["spark_lr"] > sizes["memcached"]
    assert sizes["graphx_cc"] > sizes["snappy"]
