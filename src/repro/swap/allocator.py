"""Swap-entry allocation.

Allocation is on the swap-out critical path: every evicted dirty page needs
a fresh entry, and in stock Linux that means taking a shared lock and
scanning a free list.  The paper measures four forms of Linux's allocator;
:class:`EntryAllocator` is all of them, chosen by two constructor knobs:

* ``cluster_entries=None, batch_size=1`` — Linux 5.5's lock-protected
  free-list scan (the baseline whose contention is Figs. 4, 13, 15, 16).
* ``cluster_entries=N`` — the Linux 5.8 patch [48] that gives each core a
  random cluster of ``N`` entries, with collisions when cores land on the
  same cluster (Appendix B).
* ``batch_size=B`` — the Linux 5.8 patch [46] that amortizes the lock by
  grabbing ``B`` entries per acquisition into a per-core batch (Appendix B).
* both — the Linux 5.14 comparator in Fig. 16, :class:`Linux514Allocator`.

Free entries live only in the :class:`~repro.swap.partition.SwapPartition`
(split into clusters when ``cluster_entries`` is set); the allocator adds
one lock per cluster and the per-core batches.  ``allocate(core_id)`` is
yielded from inside a simulation process and returns a
:class:`~repro.swap.entry.SwapEntry`; ``free(entry)`` is immediate (the
kernel batches frees outside the hot path via the swap-slots cache, so we
do not charge lock time for them).

Canvas's *adaptive* allocator (§5.1) builds on this one and lives in
:mod:`repro.core.adaptive_alloc`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

import numpy as np

from repro.obs.trace import ENTRY_ALLOC, ENTRY_FREE
from repro.sim.engine import Engine
from repro.sim.resources import SimLock
from repro.swap.entry import SwapEntry
from repro.swap.partition import SwapPartition

__all__ = ["AllocatorStats", "EntryAllocator", "Linux514Allocator"]


@dataclass
class AllocatorStats:
    """Per-allocator timing statistics (feeds Figs. 4, 13, 15, 16)."""

    allocations: int = 0
    frees: int = 0
    total_alloc_time_us: float = 0.0
    max_alloc_time_us: float = 0.0
    lock_acquisitions: int = 0
    #: Wall-clock window edges for rate computations, set by the harness.
    first_alloc_at_us: Optional[float] = None
    last_alloc_at_us: Optional[float] = None

    def record(self, start_us: float, end_us: float) -> None:
        elapsed = end_us - start_us
        self.allocations += 1
        self.total_alloc_time_us += elapsed
        self.max_alloc_time_us = max(self.max_alloc_time_us, elapsed)
        if self.first_alloc_at_us is None:
            self.first_alloc_at_us = start_us
        self.last_alloc_at_us = end_us

    @property
    def mean_alloc_time_us(self) -> float:
        if self.allocations == 0:
            return 0.0
        return self.total_alloc_time_us / self.allocations

    def rate_per_second(self) -> float:
        """Mean allocation throughput over the active window."""
        if (
            self.first_alloc_at_us is None
            or self.last_alloc_at_us is None
            or self.last_alloc_at_us <= self.first_alloc_at_us
        ):
            return 0.0
        window_us = self.last_alloc_at_us - self.first_alloc_at_us
        return self.allocations / (window_us / 1e6)


def _scan_cost_us(
    base_us: float, occupancy: float, scan_factor: float, max_multiplier: float = 4.0
) -> float:
    """Critical-section length of one allocation's free-space scan.

    Allocation cost rises moderately as the partition fills (cluster
    scanning skips more used slots), but it is bounded: the free list
    itself is O(1) to pop.  The paper's super-linear per-entry cost growth
    (Figs. 13/16) comes from *lock contention* — queueing delay on the
    allocator lock — which the surrounding :class:`SimLock` supplies.
    """
    headroom = max(1e-3, 1.0 - occupancy)
    multiplier = 1.0 + min(scan_factor * occupancy / headroom, max_multiplier - 1.0)
    return base_us * multiplier


class EntryAllocator:
    """The swap-entry allocator bound to one partition.

    ``cluster_entries`` (None: one free list, Linux 5.5) splits the
    partition into per-core clusters; ``batch_size`` entries are taken
    per lock acquisition into the calling core's batch.  The defaults
    are Linux 5.5's free-list scan costs.
    """

    def __init__(
        self,
        engine: Engine,
        partition: SwapPartition,
        name: str = "",
        cluster_entries: Optional[int] = None,
        batch_size: int = 1,
        base_scan_us: float = 2.5,
        scan_factor: float = 0.10,
        per_entry_batch_us: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        self.engine = engine
        self.partition = partition
        self.name = name or f"{partition.name}.alloc"
        self.stats = AllocatorStats()
        self.batch_size = batch_size
        self.base_scan_us = base_scan_us
        self.scan_factor = scan_factor
        self.per_entry_batch_us = per_entry_batch_us
        self._rng = rng if rng is not None else np.random.default_rng(0)
        if cluster_entries is not None:
            partition.split(cluster_entries)
        #: One lock per partition cluster, added as the partition grows.
        self._locks: List[SimLock] = []
        #: Each core's current cluster index and its batch of entries
        #: taken off the partition but not yet handed out.  Callers that
        #: share a core id share its batch.
        self._core_cluster: Dict[int, int] = {}
        self._core_batch: Dict[int, List[SwapEntry]] = {}
        #: Optional :class:`repro.obs.TraceBuffer`.  Every path that
        #: hands an entry out — ``allocate`` and ``take_free_untimed``
        #: alike — emits ENTRY_ALLOC, and ``free`` emits ENTRY_FREE, so
        #: alloc/free alternation per entry is checkable post-hoc.
        #: (``take_free_untimed`` charges no simulated time, but under
        #: churn a late-arriving app prepopulates mid-trace and may be
        #: handed a just-freed entry; leaving setup untraced would make
        #: its eventual free look like a double free.)
        self.tracer = None
        #: Optional :class:`repro.cluster.Rack`.  When set, ``free``
        #: consults the rack so entries homed on a dead or draining
        #: server retire instead of re-entering the partition.
        self.rack = None

    def _trace_alloc(self, entry: SwapEntry) -> None:
        if self.tracer is not None:
            self.tracer.emit(ENTRY_ALLOC, "", 0, entry.entry_id, self.name)

    @property
    def occupancy(self) -> float:
        """Fraction of the partition's entries not free."""
        return self.partition.occupancy

    @property
    def batched_count(self) -> int:
        """Entries waiting in core batches: taken, not yet handed out."""
        return sum(map(len, self._core_batch.values()))

    def _lock(self, cluster: int) -> SimLock:
        locks = self._locks
        while len(locks) <= cluster:  # new clusters from a grown partition
            locks.append(SimLock(self.engine, f"{self.name}.c{len(locks)}"))
        return locks[cluster]

    def _assign_cluster(self, core_id: int) -> int:
        """Point ``core_id`` at a random non-empty cluster."""
        nonempty = [i for i, free in enumerate(self.partition.clusters) if free]
        if not nonempty:
            raise RuntimeError(f"{self.name}: swap partition is full")
        cluster = nonempty[int(self._rng.integers(0, len(nonempty)))]
        self._core_cluster[core_id] = cluster
        return cluster

    def collision_degree(self) -> float:
        """Mean number of cores sharing each in-use cluster (>=1)."""
        if not self._core_cluster:
            return 0.0
        counts: Dict[int, int] = {}
        for cluster in self._core_cluster.values():
            counts[cluster] = counts.get(cluster, 0) + 1
        return sum(counts.values()) / len(counts)

    def allocate(self, core_id: int = 0) -> Generator:
        """Simulation sub-generator: yields until an entry is obtained."""
        start = self.engine.now
        batch = self._core_batch.setdefault(core_id, [])
        if not batch:
            partition = self.partition
            while True:
                cluster = self._core_cluster.get(core_id)
                if cluster is None or not partition.clusters[cluster]:
                    cluster = self._assign_cluster(core_id)
                lock = self._lock(cluster)
                yield lock.acquire()
                self.stats.lock_acquisitions += 1
                try:
                    free = partition.clusters[cluster]
                    if not free:
                        continue  # a collider drained it; pick again
                    take = min(self.batch_size, len(free))
                    cost = _scan_cost_us(
                        self.base_scan_us, partition.occupancy, self.scan_factor
                    )
                    yield self.engine.timeout(
                        cost + self.per_entry_batch_us * (take - 1)
                    )
                    # A rack purge may have thinned the cluster meanwhile.
                    batch.extend(partition.pop_free_batch(take, cluster))
                finally:
                    lock.release()
                if batch:
                    break
        entry = batch.pop()
        self.stats.record(start, self.engine.now)
        self._trace_alloc(entry)
        return entry

    def take_free_untimed(self) -> SwapEntry:
        """Grab an entry outside simulated time (setup and re-homing)."""
        entry = self.partition.pop_free()
        self._trace_alloc(entry)
        return entry

    def free(self, entry: SwapEntry) -> None:
        """Return an entry to its partition cluster (not timed)."""
        if self.tracer is not None:
            self.tracer.emit(ENTRY_FREE, "", 0, entry.entry_id, self.name)
        rack = self.rack
        if rack is not None and rack.entry_condemned(entry):
            rack.retire_freed(entry)
        else:
            self.partition.push_free(entry)
        self.stats.frees += 1

    def retire_matching(self, server_id: int) -> List[SwapEntry]:
        """Pull every free or batched entry homed on ``server_id``.

        Called by the rack when a memory server dies or drains, so a
        condemned entry can never be handed out again.  Returns the
        victims (the rack retires them).
        """
        victims = self.partition.purge(server_id)
        for batch in self._core_batch.values():
            matching = [e for e in batch if e.server_id == server_id]
            if matching:
                batch[:] = [e for e in batch if e.server_id != server_id]
                victims.extend(matching)
        return victims


class Linux514Allocator(EntryAllocator):
    """Linux 5.14: per-core clusters *and* batched scans combined.

    Models the state of the mainline allocator the paper compares against
    in Fig. 16: cheaper than 5.5 at low core counts, but still super-linear
    beyond ~24 cores once core collisions dominate.
    """

    def __init__(
        self,
        engine: Engine,
        partition: SwapPartition,
        name: str = "",
        cluster_entries: int = 256,
        batch_size: int = 8,
        base_scan_us: float = 0.9,
        scan_factor: float = 0.20,
        per_entry_batch_us: float = 0.25,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(
            engine,
            partition,
            name,
            cluster_entries=cluster_entries,
            batch_size=batch_size,
            base_scan_us=base_scan_us,
            scan_factor=scan_factor,
            per_entry_batch_us=per_entry_batch_us,
            rng=rng,
        )
