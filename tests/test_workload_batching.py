"""The batched stream protocol: ``AccessBatch`` views and stream pins.

Every workload emits its threads' accesses as
:class:`~repro.workloads.batch.AccessBatch` streams; the pins below hold
each workload's streams fixed, so a change to a producer that moves a
single VPN, write flag or CPU cost shows up here before it shows up as
a moved result digest.
"""

import hashlib

import numpy as np
import pytest

from repro.kernel import AppContext, CgroupConfig
from repro.sim import Engine
from repro.workloads import WORKLOADS, make_workload
from repro.workloads.batch import chunk_stream, emit_batches, flatten_batches


def build_app(workload):
    app = AppContext(
        Engine(),
        CgroupConfig(name=workload.name, n_cores=4, local_memory_pages=4096),
    )
    workload.build(app, np.random.default_rng(0))
    return app


# -- AccessBatch ---------------------------------------------------------


def test_emit_batches_slices_and_broadcasts():
    batches = list(emit_batches(np.arange(10), False, 1.5, batch_size=4))
    assert [len(b) for b in batches] == [4, 4, 2]
    assert batches[0].vpn_list == [0, 1, 2, 3]
    assert batches[2].vpn_list == [8, 9]
    assert batches[0].write_list == [False] * 4
    assert batches[0].cpu_array.tolist() == [1.5] * 4


def test_constant_cpu_detected_and_cached():
    (batch,) = emit_batches(np.arange(4), False, 2.0, batch_size=8)
    assert batch.constant_cpu == 2.0
    (varying,) = chunk_stream([(1, False, 1.0), (2, True, 2.0)])
    assert varying.constant_cpu is None
    (uniform,) = chunk_stream([(1, False, 3.0), (2, True, 3.0)])
    assert uniform.constant_cpu == 3.0


def test_write_positions():
    writes = np.array([False, True, False, True, True])
    (batch,) = emit_batches(np.arange(5), writes, 1.0, batch_size=8)
    assert batch.write_pos_array.tolist() == [1, 3, 4]
    (chunked,) = chunk_stream([(0, True, 1.0), (1, False, 1.0), (2, True, 1.0)])
    assert chunked.write_pos_array.tolist() == [0, 2]


def test_chunk_stream_round_trip():
    accesses = [(vpn, vpn % 3 == 0, 0.5 * vpn) for vpn in range(10)]
    batches = list(chunk_stream(iter(accesses), batch_size=4))
    assert [len(b) for b in batches] == [4, 4, 2]
    assert [b.vpn_array.dtype for b in batches] == [np.int64] * 3
    assert [b.cpu_array.dtype for b in batches] == [np.float64] * 3
    assert list(flatten_batches(batches)) == [
        (vpn, write, cpu) for vpn, write, cpu in accesses
    ]


# -- per-workload stream pins --------------------------------------------

#: sha256 prefix of each workload's flattened ``thread_batch_streams``
#: (build seed 0, stream seed 1; per thread: access count, then the VPN,
#: write and CPU columns).  Only a change meant to alter what a workload
#: accesses may update these.
STREAM_PINS = {
    ("cassandra", 0.1): "64d8e828067c1c25",
    ("cassandra", 0.5): "bb5b9871a7efa579",
    ("graphx_cc", 0.1): "f294d7d908ddca8a",
    ("graphx_cc", 0.5): "6f69406da4db25ca",
    ("graphx_pr", 0.1): "112b9a95af3880a8",
    ("graphx_pr", 0.5): "55e95843e0857788",
    ("graphx_sp", 0.1): "4dc93b53ac0f2c9f",
    ("graphx_sp", 0.5): "fe73535be7c53d7b",
    ("memcached", 0.1): "26e7ec6de41c8a19",
    ("memcached", 0.5): "e6fe45253a0f31a7",
    ("mllib_bc", 0.1): "68fb6b398c02397d",
    ("mllib_bc", 0.5): "cf13df6a8a7d4e26",
    ("neo4j", 0.1): "5ebd450485fe6a5f",
    ("neo4j", 0.5): "e9580f4163dc01c5",
    ("snappy", 0.1): "30602f960d15a0ca",
    ("snappy", 0.5): "b375a31d8e69a774",
    ("spark_km", 0.1): "607415e87c889e49",
    ("spark_km", 0.5): "2dd58ac8eda040c5",
    ("spark_lr", 0.1): "2e7e0c6c2366ae6a",
    ("spark_lr", 0.5): "adb02db101251327",
    ("spark_pr", 0.1): "27b4c6561351f031",
    ("spark_pr", 0.5): "81869e9a26e1d311",
    ("spark_sg", 0.1): "f9e187ec665f348c",
    ("spark_sg", 0.5): "5f7aad160a6bc273",
    ("spark_tc", 0.1): "85c69cde02506e78",
    ("spark_tc", 0.5): "d875742317f3dc16",
    ("xgboost", 0.1): "4054dc4b85db7344",
    ("xgboost", 0.5): "e948abd140d9cf74",
}


def stream_digest(streams) -> str:
    digest = hashlib.sha256()
    for stream in streams:
        accesses = list(flatten_batches(stream))
        digest.update(np.int64(len(accesses)).tobytes())
        vpns, writes, cpu = zip(*accesses) if accesses else ((), (), ())
        digest.update(np.asarray(vpns, dtype=np.int64).tobytes())
        digest.update(np.asarray(writes, dtype=bool).tobytes())
        digest.update(np.asarray(cpu, dtype=np.float64).tobytes())
    return digest.hexdigest()[:16]


def test_stream_pins_cover_every_workload():
    assert {name for name, _scale in STREAM_PINS} == set(WORKLOADS)


@pytest.mark.parametrize("name,scale", sorted(STREAM_PINS))
def test_thread_streams_pinned(name, scale):
    workload = make_workload(name, scale=scale)
    app = build_app(workload)
    streams = workload.thread_batch_streams(app, np.random.default_rng(1))
    assert len(streams) == workload.total_threads
    assert stream_digest(streams) == STREAM_PINS[(name, scale)]
