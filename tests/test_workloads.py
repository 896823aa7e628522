"""Unit tests for workload generators and the registry."""

import numpy as np
import pytest

from repro.kernel import AppContext, CgroupConfig
from repro.mem import AddressSpace
from repro.sim import Engine
from repro.workloads import (
    MANAGED_WORKLOADS,
    NATIVE_WORKLOADS,
    WORKLOADS,
    ZipfSampler,
    make_workload,
)
from repro.workloads import patterns
from repro.workloads.apps import SnappyWorkload
from repro.workloads.batch import flatten_batches


# -- zipf sampler --------------------------------------------------------------


def test_zipf_sampler_range():
    sampler = ZipfSampler(100, 0.99, np.random.default_rng(0))
    draws = sampler.sample_many(1000)
    assert draws.min() >= 0
    assert draws.max() < 100


def test_zipf_sampler_skew():
    sampler = ZipfSampler(1000, 0.99, np.random.default_rng(0))
    draws = sampler.sample_many(10_000)
    top_decile = np.sum(draws < 100) / draws.size
    assert top_decile > 0.5  # heavy head


def test_zipf_theta_zero_is_uniformish():
    sampler = ZipfSampler(1000, 0.0, np.random.default_rng(0))
    draws = sampler.sample_many(10_000)
    top_decile = np.sum(draws < 100) / draws.size
    assert 0.05 < top_decile < 0.15


def test_zipf_invalid_params():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        ZipfSampler(0, 1.0, rng)
    with pytest.raises(ValueError):
        ZipfSampler(10, -1.0, rng)


def test_zipf_deterministic():
    a = ZipfSampler(100, 0.9, np.random.default_rng(7)).sample_many(50)
    b = ZipfSampler(100, 0.9, np.random.default_rng(7)).sample_many(50)
    assert list(a) == list(b)


# -- patterns -----------------------------------------------------------------


def make_vma(n_pages=64):
    return AddressSpace("t").map_region(n_pages)


def flat(batches):
    return list(flatten_batches(batches))


def test_sequential_wraps():
    vma = make_vma(8)
    vpns = [a[0] for a in flat(patterns.sequential_batches(vma, 10))]
    assert vpns[:8] == list(vma.vpns())
    assert vpns[8] == vma.start_vpn


def test_strided_pattern():
    vma = make_vma(64)
    vpns = [a[0] for a in flat(patterns.strided_batches(vma, 4, stride=8))]
    assert [v - vma.start_vpn for v in vpns] == [0, 8, 16, 24]


def test_write_ratio_deterministic_without_rng():
    vma = make_vma(16)
    writes = [a[1] for a in flat(patterns.sequential_batches(vma, 10, write_ratio=0.5))]
    assert writes == [True, False] * 5


def test_write_ratio_one():
    vma = make_vma(16)
    assert all(a[1] for a in flat(patterns.sequential_batches(vma, 5, write_ratio=1.0)))


def test_shuffled_chain_is_permutation():
    vma = make_vma(32)
    chain = patterns.shuffled_chain(vma, np.random.default_rng(0))
    assert sorted(chain) == list(vma.vpns())


def test_pointer_chase_follows_chain():
    chain = [5, 9, 2, 7]
    vpns = [a[0] for a in flat(patterns.pointer_chase_batches(chain, 6))]
    assert vpns == [5, 9, 2, 7, 5, 9]


def test_gc_bursts_carry_idle_cpu():
    chain = list(range(100))
    accesses = flat(
        patterns.gc_bursts_batches(chain, n_bursts=2, burst_len=3, idle_cpu_us=500.0)
    )
    assert len(accesses) == 6
    assert accesses[0][2] == 500.0
    assert accesses[1][2] != 500.0
    assert accesses[3][2] == 500.0


def test_zipfian_stays_in_region():
    vma = make_vma(32)
    rng = np.random.default_rng(0)
    for vpn, _w, _c in flat(patterns.zipfian_batches(vma, 100, rng)):
        assert vma.contains(vpn)


# -- registry -----------------------------------------------------------------


def test_registry_has_fourteen_table2_programs():
    assert len(WORKLOADS) == 14
    assert len(MANAGED_WORKLOADS) == 11
    assert len(NATIVE_WORKLOADS) == 3


def test_registry_known_names():
    for name in ("spark_lr", "cassandra", "neo4j", "memcached", "xgboost", "snappy"):
        assert name in WORKLOADS


def test_make_workload_unknown():
    with pytest.raises(KeyError):
        make_workload("doom")


def test_scale_shrinks_working_set():
    full = make_workload("spark_lr", scale=1.0)
    half = make_workload("spark_lr", scale=0.5)
    assert half.working_set_pages < full.working_set_pages


def test_invalid_scale():
    with pytest.raises(ValueError):
        make_workload("spark_lr", scale=0)


# -- workload builds and streams ------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_builds_and_streams(name):
    workload = make_workload(name, scale=0.1)
    engine = Engine()
    app = AppContext(
        engine,
        CgroupConfig(name=name, n_cores=4, local_memory_pages=4096),
    )
    rng = np.random.default_rng(0)
    workload.build(app, rng)
    assert app.space.total_pages >= workload.working_set_pages * 0.9
    assert app.runtime is not None
    streams = workload.thread_batch_streams(app, np.random.default_rng(1))
    assert len(streams) == workload.total_threads
    # Every generated access must be mappable and carry sane fields.
    for stream in streams:
        for i, (vpn, write, cpu) in enumerate(flatten_batches(stream)):
            assert vpn in app.space.pages, f"{name}: unmapped vpn {vpn:#x}"
            assert isinstance(write, (bool, np.bool_))
            assert cpu >= 0
            if i > 200:
                break


def test_managed_workloads_have_gc_threads():
    for name in MANAGED_WORKLOADS:
        workload = make_workload(name, scale=0.1)
        assert workload.managed
        assert workload.n_aux_threads > 0


def test_native_workloads_have_no_gc_threads():
    for name in NATIVE_WORKLOADS:
        workload = make_workload(name, scale=0.1)
        assert not workload.managed
        assert workload.n_aux_threads == 0


def test_spark_registers_large_array():
    workload = make_workload("spark_lr", scale=0.2)
    engine = Engine()
    app = AppContext(engine, CgroupConfig(name="s", n_cores=4, local_memory_pages=4096))
    workload.build(app, np.random.default_rng(0))
    assert app.runtime.in_large_array(workload.data_vma.start_vpn)


def test_graph_workload_records_reference_edges():
    workload = make_workload("graphx_cc", scale=0.2)
    engine = Engine()
    app = AppContext(engine, CgroupConfig(name="g", n_cores=4, local_memory_pages=4096))
    workload.build(app, np.random.default_rng(0))
    assert app.runtime.reference_graph.edge_count > 0


def test_snappy_single_thread():
    workload = SnappyWorkload(scale=0.2)
    assert workload.n_threads == 1
    assert workload.total_threads == 1


def test_snappy_reads_three_pages_per_page_written():
    # n % 4 == 3, and both regions wrap: every fourth access writes the
    # next output page, and the leftover input reads close the stream.
    workload = SnappyWorkload(scale=0.1005)
    n = workload.accesses_per_thread
    assert n % 4 == 3
    app = AppContext(Engine(), CgroupConfig(name="s", n_cores=1, local_memory_pages=64))
    workload.build(app, np.random.default_rng(0))
    (stream,) = workload.thread_batch_streams(app, np.random.default_rng(1))
    src, dst = workload.input_vma, workload.output_vma

    def read(k):
        return (src.start_vpn + k % src.n_pages, False, 4.0)

    expected = []
    for k in range(n // 4):
        expected += [read(3 * k + j) for j in range(3)]
        expected.append((dst.start_vpn + k % dst.n_pages, True, 4.0))
    expected += [read(3 * (n // 4) + j) for j in range(n % 4)]
    assert flat(stream) == expected


def test_thread_counts_preserve_paper_ordering():
    spark = make_workload("spark_lr")
    memcached = make_workload("memcached")
    xgboost = make_workload("xgboost")
    snappy = make_workload("snappy")
    assert spark.total_threads > xgboost.total_threads
    assert xgboost.total_threads > memcached.total_threads
    assert memcached.total_threads > snappy.total_threads
