"""Swap-entry allocation policies.

Allocation is on the swap-out critical path: every evicted dirty page needs
a fresh entry, and in stock Linux that means taking a shared lock and
scanning a free list.  This module implements the allocator family the
paper measures:

* :class:`FreeListAllocator` — Linux 5.5's lock-protected free-list scan
  (the baseline whose contention is Figs. 4, 13, 15, 16).
* :class:`PerCoreClusterAllocator` — the Linux 5.8 patch [48] that gives
  each core a random cluster of entries, with collisions when cores land on
  the same cluster (Appendix B).
* :class:`BatchAllocator` — the Linux 5.8 patch [46] that amortizes the
  lock by grabbing several entries per acquisition (Appendix B).
* :class:`Linux514Allocator` — both patches combined, the Linux 5.14
  comparator in Fig. 16.

All allocators expose the same generator-based API: ``allocate(core_id)``
is yielded from inside a simulation process and returns a
:class:`~repro.swap.entry.SwapEntry`; ``free(entry)`` is immediate (the
kernel batches frees outside the hot path via the swap-slots cache, so we
do not charge lock time for them).

Canvas's *adaptive* allocator (§5.1) builds on these and lives in
:mod:`repro.core.adaptive_alloc`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

import numpy as np

from repro.obs.trace import ENTRY_ALLOC, ENTRY_FREE
from repro.sim.engine import Engine
from repro.sim.resources import SimLock
from repro.swap.entry import SwapEntry
from repro.swap.partition import SwapPartition

__all__ = [
    "AllocatorStats",
    "EntryAllocator",
    "FreeListAllocator",
    "PerCoreClusterAllocator",
    "BatchAllocator",
    "Linux514Allocator",
]


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


class EntryAllocator:
    """Abstract base: an allocation policy bound to one partition."""

    def __init__(self, engine: Engine, partition: SwapPartition, name: str = ""):
        self.engine = engine
        self.partition = partition
        self.name = name or f"{partition.name}.alloc"
        self.stats = AllocatorStats()
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
        #: server retire instead of re-entering any free pool.
        self.rack = None

    def _trace_alloc(self, entry: SwapEntry) -> None:
        if self.tracer is not None:
            self.tracer.emit(ENTRY_ALLOC, "", 0, entry.entry_id, self.name)

    @property
    def occupancy(self) -> float:
        """Fraction of entries in use (policy-aware; see cluster variant)."""
        return self.partition.occupancy

    def allocate(self, core_id: int = 0) -> Generator:
        """Simulation sub-generator: yields until an entry is obtained."""
        raise NotImplementedError

    def take_free_untimed(self) -> SwapEntry:
        """Grab an entry outside simulated time (experiment setup only)."""
        entry = self.partition.pop_free()
        self._trace_alloc(entry)
        return entry

    def free(self, entry: SwapEntry) -> None:
        """Return an entry to its partition's free pool (not timed)."""
        if self.tracer is not None:
            self.tracer.emit(ENTRY_FREE, "", 0, entry.entry_id, self.name)
        rack = self.rack
        if rack is not None and rack.entry_condemned(entry):
            rack.retire_freed(entry)
            self.stats.frees += 1
            return
        self.partition.push_free(entry)
        self.stats.frees += 1

    def retire_matching(self, server_id: int) -> List[SwapEntry]:
        """Pull every pooled free entry homed on ``server_id``.

        Called by the rack when a memory server dies or drains, so a
        condemned entry can never be handed out again.  Returns the
        victims (the rack retires them).  Policies with private caches
        or cluster free lists override and extend this.
        """
        free = self.partition._free
        victims = [e for e in free if e.server_id == server_id]
        if victims:
            keep = [e for e in free if e.server_id != server_id]
            free.clear()
            free.extend(keep)
        return victims


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


class FreeListAllocator(EntryAllocator):
    """Linux 5.5: one lock, one free list, scan under the lock."""

    def __init__(
        self,
        engine: Engine,
        partition: SwapPartition,
        name: str = "",
        base_scan_us: float = 2.5,
        scan_factor: float = 0.10,
    ):
        super().__init__(engine, partition, name)
        self.base_scan_us = base_scan_us
        self.scan_factor = scan_factor
        self.lock = SimLock(engine, f"{self.name}.lock")

    def allocate(self, core_id: int = 0) -> Generator:
        start = self.engine.now
        yield self.lock.acquire()
        self.stats.lock_acquisitions += 1
        try:
            cost = _scan_cost_us(self.base_scan_us, self.partition.occupancy, self.scan_factor)
            yield self.engine.timeout(cost)
            entry = self.partition.pop_free()
        finally:
            self.lock.release()
        self.stats.record(start, self.engine.now)
        self._trace_alloc(entry)
        return entry


class _Cluster:
    """A slice of a partition's entries with its own lock and free list."""

    __slots__ = ("index", "lock", "free")

    def __init__(self, index: int, lock: SimLock, free: List[SwapEntry]):
        self.index = index
        self.lock = lock
        self.free = free


class PerCoreClusterAllocator(EntryAllocator):
    """Linux 5.8 patch: per-core random cluster assignment.

    Each core allocates from "its" cluster; when the cluster drains, the
    core is assigned a new random non-empty one.  Two cores sharing a
    cluster contend on that cluster's lock — the "core collision" whose
    probability grows super-linearly with cores (Appendix B, Fig. 16).
    """

    def __init__(
        self,
        engine: Engine,
        partition: SwapPartition,
        name: str = "",
        cluster_entries: int = 256,
        base_scan_us: float = 1.2,
        scan_factor: float = 0.25,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(engine, partition, name)
        self.base_scan_us = base_scan_us
        self.scan_factor = scan_factor
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.clusters: List[_Cluster] = []
        entries = partition.entries
        for index, start in enumerate(range(0, len(entries), cluster_entries)):
            chunk = [e for e in entries[start : start + cluster_entries]]
            self.clusters.append(
                _Cluster(index, SimLock(engine, f"{self.name}.c{index}"), chunk)
            )
        self._core_cluster: Dict[int, _Cluster] = {}
        #: Entries already popped from clusters are marked allocated by the
        #: partition; we bypass the partition free deque entirely and track
        #: frees back into clusters.
        self._entry_cluster: Dict[int, _Cluster] = {}
        for cluster in self.clusters:
            for entry in cluster.free:
                self._entry_cluster[entry.entry_id] = cluster
        # The partition's own deque is unused by this policy; drain it so
        # occupancy still reads correctly via our own accounting.
        self._allocated = 0

    @property
    def occupancy(self) -> float:
        return self._allocated / self.partition.n_entries

    def _assign_cluster(self, core_id: int) -> Optional[_Cluster]:
        nonempty = [c for c in self.clusters if c.free]
        if not nonempty:
            return None
        cluster = nonempty[int(self._rng.integers(0, len(nonempty)))]
        self._core_cluster[core_id] = cluster
        return cluster

    def collision_degree(self) -> float:
        """Mean number of cores sharing each in-use cluster (>=1)."""
        if not self._core_cluster:
            return 0.0
        counts: Dict[int, int] = {}
        for cluster in self._core_cluster.values():
            counts[cluster.index] = counts.get(cluster.index, 0) + 1
        return sum(counts.values()) / len(counts)

    def allocate(self, core_id: int = 0) -> Generator:
        start = self.engine.now
        while True:
            cluster = self._core_cluster.get(core_id)
            if cluster is None or not cluster.free:
                cluster = self._assign_cluster(core_id)
                if cluster is None:
                    raise RuntimeError(f"{self.name}: all clusters exhausted")
            yield cluster.lock.acquire()
            self.stats.lock_acquisitions += 1
            try:
                if not cluster.free:
                    continue  # raced with a collider; pick a new cluster
                cost = _scan_cost_us(self.base_scan_us, self.occupancy, self.scan_factor)
                yield self.engine.timeout(cost)
                entry = cluster.free.pop()
                entry.allocated = True
                self._allocated += 1
            finally:
                cluster.lock.release()
            self.stats.record(start, self.engine.now)
            self._trace_alloc(entry)
            return entry

    def free(self, entry: SwapEntry) -> None:
        if self.tracer is not None:
            self.tracer.emit(ENTRY_FREE, "", 0, entry.entry_id, self.name)
        rack = self.rack
        if rack is not None and rack.entry_condemned(entry):
            rack.retire_freed(entry)
            self._allocated -= 1
            self.stats.frees += 1
            return
        entry.allocated = False
        entry.reserved = False
        entry.stored_vpn = None
        entry.timestamp_us = None
        entry.valid = True
        self._entry_cluster[entry.entry_id].free.append(entry)
        self._allocated -= 1
        self.stats.frees += 1

    def retire_matching(self, server_id: int) -> List[SwapEntry]:
        # This policy never pops the partition's own deque (it still
        # holds every initial entry, in-use ones included), so only the
        # cluster free lists are purged — touching the base deque here
        # would condemn entries that are actually live.
        victims: List[SwapEntry] = []
        for cluster in self.clusters:
            matching = [e for e in cluster.free if e.server_id == server_id]
            if matching:
                cluster.free[:] = [
                    e for e in cluster.free if e.server_id != server_id
                ]
                victims.extend(matching)
        return victims

    def take_free_untimed(self) -> SwapEntry:
        for cluster in self.clusters:
            if cluster.free:
                entry = cluster.free.pop()
                entry.allocated = True
                self._allocated += 1
                self._trace_alloc(entry)
                return entry
        raise RuntimeError(f"{self.name}: all clusters exhausted")


class BatchAllocator(EntryAllocator):
    """Linux 5.8 patch: scan several entries per lock acquisition.

    Each core keeps a small private cache refilled ``batch_size`` entries
    at a time; the critical section is longer (the scan covers the whole
    batch) but runs once per ``batch_size`` allocations.
    """

    def __init__(
        self,
        engine: Engine,
        partition: SwapPartition,
        name: str = "",
        batch_size: int = 16,
        base_scan_us: float = 1.5,
        scan_factor: float = 0.10,
        per_entry_batch_us: float = 0.35,
    ):
        super().__init__(engine, partition, name)
        self.batch_size = batch_size
        self.base_scan_us = base_scan_us
        self.scan_factor = scan_factor
        self.per_entry_batch_us = per_entry_batch_us
        self.lock = SimLock(engine, f"{self.name}.lock")
        self._core_cache: Dict[int, List[SwapEntry]] = {}

    def allocate(self, core_id: int = 0) -> Generator:
        start = self.engine.now
        cache = self._core_cache.setdefault(core_id, [])
        if not cache:
            yield self.lock.acquire()
            self.stats.lock_acquisitions += 1
            try:
                scan = _scan_cost_us(
                    self.base_scan_us, self.partition.occupancy, self.scan_factor
                )
                scan += self.per_entry_batch_us * (self.batch_size - 1)
                yield self.engine.timeout(scan)
                cache.extend(self.partition.pop_free_batch(self.batch_size))
            finally:
                self.lock.release()
            if not cache:
                raise RuntimeError(f"{self.name}: partition exhausted")
        entry = cache.pop()
        self.stats.record(start, self.engine.now)
        self._trace_alloc(entry)
        return entry

    def retire_matching(self, server_id: int) -> List[SwapEntry]:
        victims = super().retire_matching(server_id)
        for cache in self._core_cache.values():
            matching = [e for e in cache if e.server_id == server_id]
            if matching:
                cache[:] = [e for e in cache if e.server_id != server_id]
                victims.extend(matching)
        return victims


class Linux514Allocator(PerCoreClusterAllocator):
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
            base_scan_us=base_scan_us,
            scan_factor=scan_factor,
            rng=rng,
        )
        self.batch_size = batch_size
        self.per_entry_batch_us = per_entry_batch_us
        self._core_batch: Dict[int, List[SwapEntry]] = {}

    def allocate(self, core_id: int = 0) -> Generator:
        start = self.engine.now
        batch = self._core_batch.setdefault(core_id, [])
        if not batch:
            while True:
                cluster = self._core_cluster.get(core_id)
                if cluster is None or not cluster.free:
                    cluster = self._assign_cluster(core_id)
                    if cluster is None:
                        raise RuntimeError(f"{self.name}: all clusters exhausted")
                yield cluster.lock.acquire()
                self.stats.lock_acquisitions += 1
                try:
                    if not cluster.free:
                        continue
                    take = min(self.batch_size, len(cluster.free))
                    cost = _scan_cost_us(self.base_scan_us, self.occupancy, self.scan_factor)
                    cost += self.per_entry_batch_us * (take - 1)
                    yield self.engine.timeout(cost)
                    for _ in range(take):
                        entry = cluster.free.pop()
                        entry.allocated = True
                        self._allocated += 1
                        batch.append(entry)
                finally:
                    cluster.lock.release()
                break
        entry = batch.pop()
        self.stats.record(start, self.engine.now)
        self._trace_alloc(entry)
        return entry

    def retire_matching(self, server_id: int) -> List[SwapEntry]:
        victims = super().retire_matching(server_id)  # cluster free lists
        for batch in self._core_batch.values():
            matching = [e for e in batch if e.server_id == server_id]
            if matching:
                batch[:] = [e for e in batch if e.server_id != server_id]
                victims.extend(matching)
        return victims
