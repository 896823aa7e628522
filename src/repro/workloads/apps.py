"""The Table 2 applications as synthetic page-access workloads.

Each class reproduces the characteristics the paper keys on:

=============  =======  ========  =====================================
application    threads  runtime   dominant access pattern
=============  =======  ========  =====================================
Spark LR/KM     16+4    managed   epochal partition scans over a large
                                  RDD array + GC pointer chasing
Spark PR/TC,    16+4    managed   pointer chasing over the object graph
GraphX CC/PR/SP
MLlib Bayes     16+4    managed   partition scans (instance matrix)
Spark SSG       16+4    managed   zipf-skewed shuffle writes
Cassandra       12+2    managed   zipf record reads/inserts + log append
Neo4j            8+2    managed   graph traversal with a hot core
                                  (holds data locally, swaps little)
Memcached          4    native    zipf get/set
XGBoost           16    native    per-thread feature-block scans
Snappy             1    native    pure streaming (compression)
=============  =======  ========  =====================================

Thread counts are scaled ~4-6x down from the paper's (>90 for Spark);
relative ordering — Spark ≫ XGBoost > Memcached > Snappy — is preserved,
which is what drives the interference asymmetry of Fig. 2.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from repro.kernel.cgroup import AppContext
from repro.workloads import patterns
from repro.workloads.base import Workload
from repro.workloads.batch import BATCH_SIZE, AccessBatch, emit_batches

__all__ = [
    "SparkScanWorkload",
    "SparkLR",
    "SparkKM",
    "MLlibBayes",
    "SparkGraphWorkload",
    "SparkPR",
    "SparkTC",
    "GraphXCC",
    "GraphXPR",
    "GraphXSP",
    "SparkSSG",
    "CassandraWorkload",
    "Neo4jWorkload",
    "MemcachedWorkload",
    "XGBoostWorkload",
    "SnappyWorkload",
]


class _ManagedWorkload(Workload):
    """Shared scaffolding for JVM applications: heap + GC threads."""

    managed = True
    n_aux_threads = 4
    #: Fraction of the working set that is the 'data' region (RDD /
    #: records / graph); the rest is general heap.
    data_fraction = 0.8
    gc_bursts = 6
    gc_burst_len = 60

    def build(self, app: AppContext, rng: np.random.Generator) -> None:
        data_pages = int(self.working_set_pages * self.data_fraction)
        heap_pages = max(64, self.working_set_pages - data_pages)
        self.data_vma = app.space.map_region(data_pages, name="data")
        self.heap_vma = app.space.map_region(heap_pages, name="heap")
        self.attach_runtime(app)
        # The object graph over the heap: a fixed traversal order with
        # allocation-site locality, whose page-group crossings the write
        # barrier records.
        self.heap_chain = patterns.grouped_chain(self.heap_vma, rng)
        runtime = app.runtime
        for src, dst in zip(self.heap_chain, self.heap_chain[1:]):
            runtime.record_reference(src, dst)
        self._register_data(app, rng)

    def _register_data(self, app: AppContext, rng: np.random.Generator) -> None:
        """Hook: how the data region appears to the runtime."""
        raise NotImplementedError

    def _gc_streams(
        self, app: AppContext, rng: np.random.Generator
    ) -> List[Iterator[AccessBatch]]:
        return [
            patterns.gc_bursts_batches(
                self.heap_chain,
                n_bursts=self.gc_bursts,
                burst_len=self.gc_burst_len,
                rng=np.random.default_rng(rng.integers(1 << 31)),
            )
            for _ in range(self.n_aux_threads)
        ]


class SparkScanWorkload(_ManagedWorkload):
    """Spark ML jobs (LR, KMeans, Bayes): epochal scans of a cached RDD.

    Each executor thread owns a partition of the RDD and scans it
    sequentially every epoch; model-state accesses hit the heap.  The RDD
    is one huge array, so Canvas's JVM registers it in the large-array
    tree and the thread-based pattern applies (§5.2 policy).
    """

    n_threads = 16
    working_set_pages = 6144
    accesses_per_thread = 2600
    epochs = 4
    write_ratio = 0.35
    #: Per-page record-processing cost; sized so an 8-page readahead
    #: window (~10µs of compute) can hide an unloaded remote fetch.
    cpu_us = 1.2

    def _register_data(self, app: AppContext, rng: np.random.Generator) -> None:
        app.runtime.record_large_array(self.data_vma.start_vpn, self.data_vma.n_pages)

    def thread_batch_streams(
        self, app: AppContext, rng: np.random.Generator
    ) -> List[Iterator[AccessBatch]]:
        streams: List[Iterator[AccessBatch]] = []
        partition = self.data_vma.n_pages // self.n_threads
        for tid in range(self.n_threads):
            child = np.random.default_rng(rng.integers(1 << 31))
            scan = patterns.sequential_batches(
                self.data_vma,
                self.accesses_per_thread,
                write_ratio=self.write_ratio,
                cpu_us=self.cpu_us,
                start=tid * partition,
                rng=child,
            )
            streams.append(scan)
        streams.extend(self._gc_streams(app, rng))
        return streams


class SparkLR(SparkScanWorkload):
    name = "spark_lr"
    display_name = "Spark-LR (SLR)"


class SparkKM(SparkScanWorkload):
    name = "spark_km"
    display_name = "Spark-KM (SKM)"
    write_ratio = 0.45  # centroid updates write more
    epochs = 5


class MLlibBayes(SparkScanWorkload):
    name = "mllib_bc"
    display_name = "MLlib-Bayes (MBC)"
    n_threads = 12
    working_set_pages = 4096
    accesses_per_thread = 2200
    write_ratio = 0.2


class SparkGraphWorkload(_ManagedWorkload):
    """Graph analytics on Spark/GraphX: pointer chasing, few big arrays.

    Each thread traverses the shared object graph from its own start
    offset.  The faulting stream shows no stride pattern, so only the
    reference-graph prefetcher (§5.2 pattern 1) has traction.
    """

    n_threads = 16
    working_set_pages = 6144
    accesses_per_thread = 2200
    data_fraction = 0.25  # mostly heap objects, small edge arrays
    write_ratio = 0.2
    cpu_us = 1.5

    def _register_data(self, app: AppContext, rng: np.random.Generator) -> None:
        pass  # adjacency data is reference-linked, not one large array

    def thread_batch_streams(
        self, app: AppContext, rng: np.random.Generator
    ) -> List[Iterator[AccessBatch]]:
        streams: List[Iterator[AccessBatch]] = []
        span = len(self.heap_chain)
        for tid in range(self.n_threads):
            child = np.random.default_rng(rng.integers(1 << 31))
            streams.append(
                patterns.pointer_chase_batches(
                    self.heap_chain,
                    self.accesses_per_thread,
                    write_ratio=self.write_ratio,
                    cpu_us=self.cpu_us,
                    start_index=(tid * span) // self.n_threads,
                    rng=child,
                )
            )
        streams.extend(self._gc_streams(app, rng))
        return streams

    def build(self, app: AppContext, rng: np.random.Generator) -> None:
        super().build(app, rng)
        # Graph workloads chase through the data region too: extend the
        # chain across both regions so traversals cover the working set.
        data_chain = patterns.grouped_chain(self.data_vma, rng)
        runtime = app.runtime
        for src, dst in zip(data_chain, data_chain[1:]):
            runtime.record_reference(src, dst)
        if self.heap_chain and data_chain:
            runtime.record_reference(self.heap_chain[-1], data_chain[0])
            runtime.record_reference(data_chain[-1], self.heap_chain[0])
        self.heap_chain = self.heap_chain + data_chain


class SparkPR(SparkGraphWorkload):
    name = "spark_pr"
    display_name = "Spark-PageRank (SPR)"


class SparkTC(SparkGraphWorkload):
    name = "spark_tc"
    display_name = "Spark-TriangleCount (GTC)"
    working_set_pages = 4096
    write_ratio = 0.1


class GraphXCC(SparkGraphWorkload):
    name = "graphx_cc"
    display_name = "GraphX-ConnectedComponents (GCC)"
    working_set_pages = 8192
    accesses_per_thread = 2000


class GraphXPR(SparkGraphWorkload):
    name = "graphx_pr"
    display_name = "GraphX-PageRank (GPR)"
    working_set_pages = 8192
    accesses_per_thread = 1800


class GraphXSP(SparkGraphWorkload):
    name = "graphx_sp"
    display_name = "GraphX-ShortestPath (GSP)"
    working_set_pages = 4096
    accesses_per_thread = 1800
    write_ratio = 0.15


class SparkSSG(_ManagedWorkload):
    """Skewed GroupBy: zipf-hot keys written during the shuffle."""

    name = "spark_sg"
    display_name = "Spark-SkewedGroupBy (SSG)"
    n_threads = 16
    working_set_pages = 4096
    accesses_per_thread = 2000
    data_fraction = 0.7

    def _register_data(self, app: AppContext, rng: np.random.Generator) -> None:
        app.runtime.record_large_array(self.data_vma.start_vpn, self.data_vma.n_pages)

    def thread_batch_streams(
        self, app: AppContext, rng: np.random.Generator
    ) -> List[Iterator[AccessBatch]]:
        streams: List[Iterator[AccessBatch]] = []
        for _tid in range(self.n_threads):
            child = np.random.default_rng(rng.integers(1 << 31))
            streams.append(
                patterns.zipfian_batches(
                    self.data_vma,
                    self.accesses_per_thread,
                    child,
                    theta=0.9,
                    write_ratio=0.6,
                    cpu_us=1.2,
                )
            )
        streams.extend(self._gc_streams(app, rng))
        return streams


class CassandraWorkload(_ManagedWorkload):
    """YCSB on Cassandra: 5M reads, 5M inserts → 50/50 zipf mix plus a
    sequential commit-log appender per thread."""

    name = "cassandra"
    display_name = "Cassandra"
    n_threads = 12
    n_aux_threads = 2
    working_set_pages = 6144
    accesses_per_thread = 2400
    data_fraction = 0.85

    def _register_data(self, app: AppContext, rng: np.random.Generator) -> None:
        # Records are reference-linked through the memtable/index: chain
        # the record region so reference prefetching sees structure.
        self.record_chain = patterns.grouped_chain(self.data_vma, rng)
        runtime = app.runtime
        for src, dst in zip(self.record_chain, self.record_chain[1:]):
            runtime.record_reference(src, dst)

    def thread_batch_streams(
        self, app: AppContext, rng: np.random.Generator
    ) -> List[Iterator[AccessBatch]]:
        streams: List[Iterator[AccessBatch]] = []
        for _tid in range(self.n_threads):
            child = np.random.default_rng(rng.integers(1 << 31))
            streams.append(
                patterns.zipfian_batches(
                    self.data_vma,
                    self.accesses_per_thread,
                    child,
                    theta=0.99,
                    write_ratio=0.5,  # half inserts
                    cpu_us=2.0,
                )
            )
        streams.extend(self._gc_streams(app, rng))
        return streams


class Neo4jWorkload(_ManagedWorkload):
    """Neo4j PageRank: graph traversal over a mostly-resident core.

    "Neo4j ... holds much of its graph data in local memory and thus does
    not swap as much as Spark" — modeled by concentrating 85% of
    traversal steps on a hot quarter of the graph.
    """

    name = "neo4j"
    display_name = "Neo4j"
    n_threads = 8
    n_aux_threads = 2
    working_set_pages = 4096
    accesses_per_thread = 2600
    data_fraction = 0.75
    hot_fraction = 0.25
    hot_probability = 0.85

    def _register_data(self, app: AppContext, rng: np.random.Generator) -> None:
        self.graph_chain = patterns.grouped_chain(self.data_vma, rng)
        runtime = app.runtime
        for src, dst in zip(self.graph_chain, self.graph_chain[1:]):
            runtime.record_reference(src, dst)

    def thread_batch_streams(
        self, app: AppContext, rng: np.random.Generator
    ) -> List[Iterator[AccessBatch]]:
        hot_len = max(16, int(len(self.graph_chain) * self.hot_fraction))
        hot_chain = np.asarray(self.graph_chain[:hot_len])
        cold_chain = np.asarray(self.graph_chain)

        def traversal(child: np.random.Generator) -> Iterator[AccessBatch]:
            # Each step draws one uniform; a hot step advances the hot
            # cursor (mod the hot core), a cold one the cold cursor (mod
            # the whole chain), and cursor positions are running counts of
            # steps of that kind.
            hot = child.random(self.accesses_per_thread) < self.hot_probability
            hot_pos = np.cumsum(hot) % hot_len
            cold_pos = np.cumsum(~hot) % len(self.graph_chain)
            vpns = np.where(hot, hot_chain[hot_pos], cold_chain[cold_pos])
            yield from emit_batches(vpns, False, 1.0, BATCH_SIZE)

        streams: List[Iterator[AccessBatch]] = [
            traversal(np.random.default_rng(rng.integers(1 << 31)))
            for _ in range(self.n_threads)
        ]
        streams.extend(self._gc_streams(app, rng))
        return streams


class MemcachedWorkload(Workload):
    """YCSB on Memcached: 45M gets / 5M sets → 90/10 zipf mix, 4 threads."""

    name = "memcached"
    display_name = "Memcached"
    managed = False
    n_threads = 4
    working_set_pages = 3072
    accesses_per_thread = 4000

    def build(self, app: AppContext, rng: np.random.Generator) -> None:
        self.store_vma = app.space.map_region(self.working_set_pages, name="slabs")
        self.attach_runtime(app)

    def thread_batch_streams(
        self, app: AppContext, rng: np.random.Generator
    ) -> List[Iterator[AccessBatch]]:
        return [
            patterns.zipfian_batches(
                self.store_vma,
                self.accesses_per_thread,
                np.random.default_rng(rng.integers(1 << 31)),
                theta=0.99,
                write_ratio=0.1,
                cpu_us=2.0,
            )
            for _ in range(self.n_threads)
        ]


class XGBoostWorkload(Workload):
    """XGBoost binary classification: each worker scans its feature block
    once per boosting round; read-dominated, highly sequential per thread."""

    name = "xgboost"
    display_name = "XGBoost"
    managed = False
    n_threads = 16
    working_set_pages = 6144
    accesses_per_thread = 2400

    def build(self, app: AppContext, rng: np.random.Generator) -> None:
        self.matrix_vma = app.space.map_region(self.working_set_pages, name="dmatrix")
        self.attach_runtime(app)
        app.runtime.record_large_array(self.matrix_vma.start_vpn, self.matrix_vma.n_pages)

    def thread_batch_streams(
        self, app: AppContext, rng: np.random.Generator
    ) -> List[Iterator[AccessBatch]]:
        block = self.matrix_vma.n_pages // self.n_threads
        return [
            patterns.sequential_batches(
                self.matrix_vma,
                self.accesses_per_thread,
                write_ratio=0.05,
                cpu_us=1.0,
                start=tid * block,
                rng=np.random.default_rng(rng.integers(1 << 31)),
            )
            for tid in range(self.n_threads)
        ]


class SnappyWorkload(Workload):
    """Snappy compressing enwik9: one thread streaming input to output."""

    name = "snappy"
    display_name = "Snappy"
    managed = False
    n_threads = 1
    working_set_pages = 4096
    accesses_per_thread = 6000

    def build(self, app: AppContext, rng: np.random.Generator) -> None:
        in_pages = int(self.working_set_pages * 0.75)
        out_pages = max(64, self.working_set_pages - in_pages)
        self.input_vma = app.space.map_region(in_pages, name="input")
        self.output_vma = app.space.map_region(out_pages, name="output")
        self.attach_runtime(app)

    def thread_batch_streams(
        self, app: AppContext, rng: np.random.Generator
    ) -> List[Iterator[AccessBatch]]:
        # 3 input pages consumed per output page written: every fourth
        # access is the next output page, and the n % 4 input pages left
        # over after the last write close the stream.  Each region is
        # scanned sequentially, wrapping around.
        n = self.accesses_per_thread
        n_out = n // 4
        writes = np.zeros(n, dtype=bool)
        writes[3 : 4 * n_out : 4] = True
        position = np.arange(n)
        reads = position - np.cumsum(writes)  # input pages read before
        vpns = np.where(
            writes,
            self.output_vma.start_vpn + (position // 4) % self.output_vma.n_pages,
            self.input_vma.start_vpn + reads % self.input_vma.n_pages,
        )
        # Snappy compresses ~1 GB/s: roughly 4 µs of CPU per 4 KB page.
        return [emit_batches(vpns, writes, 4.0)]
