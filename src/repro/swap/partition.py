"""Swap partitions: fixed-size arrays of swap entries over remote memory.

In stock Linux a single partition (or a priority-ordered chain) is shared
by every application; Canvas gives each cgroup its own partition plus one
global partition for shared pages (§4).  The partition is the entry array
and the one home of its free entries, kept in FIFO clusters: a single
cluster until an allocator splits it (:meth:`SwapPartition.split`, for
the Linux 5.8 per-core-cluster patch), after which entry ``i`` always
returns to cluster ``i // cluster_entries``.  Allocation *policy* — which cluster,
which lock, how many entries per scan — lives in
:mod:`repro.swap.allocator`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.swap.entry import SwapEntry

__all__ = ["SwapPartition"]


class SwapPartition:
    """A swap partition of ``n_entries`` 4 KB slots."""

    def __init__(self, name: str, n_entries: int):
        if n_entries <= 0:
            raise ValueError(f"partition needs entries > 0, got {n_entries}")
        self.name = name
        self.n_entries = n_entries
        self.entries: List[SwapEntry] = [SwapEntry(i, name) for i in range(n_entries)]
        #: Free entries, one FIFO deque per cluster.
        self.clusters: List[Deque[SwapEntry]] = [deque(self.entries)]
        #: Entry ids per cluster once split; None while there is one cluster.
        self.cluster_entries: Optional[int] = None
        #: Rack hook: called as ``on_grow(partition, new_entries)`` after a
        #: demand-driven grow so freshly registered entries get homed on a
        #: memory server.  None when no rack is attached.
        self.on_grow = None

    def split(self, cluster_entries: int) -> None:
        """Regroup the free entries into clusters of ``cluster_entries`` ids."""
        if cluster_entries <= 0:
            raise ValueError(f"clusters need entries > 0, got {cluster_entries}")
        free = [entry for cluster in self.clusters for entry in cluster]
        self.cluster_entries = cluster_entries
        self.clusters = []
        self._add_clusters()
        for entry in free:
            self._home(entry).append(entry)

    def _add_clusters(self) -> None:
        if self.cluster_entries is not None:
            while len(self.clusters) * self.cluster_entries < self.n_entries:
                self.clusters.append(deque())

    def _home(self, entry: SwapEntry) -> Deque[SwapEntry]:
        if self.cluster_entries is None:
            return self.clusters[0]
        return self.clusters[entry.entry_id // self.cluster_entries]

    def grow(self, n_entries: int) -> List[SwapEntry]:
        """Append freshly registered remote memory (demand-driven, §4).

        Returns the new entries (already free, in their clusters).
        Timing — the RDMA buffer registration cost — is the caller's
        business.
        """
        if n_entries <= 0:
            raise ValueError(f"grow needs entries > 0, got {n_entries}")
        new_entries = [
            SwapEntry(self.n_entries + i, self.name) for i in range(n_entries)
        ]
        self.entries.extend(new_entries)
        self.n_entries += n_entries
        self._add_clusters()
        for entry in new_entries:
            self._home(entry).append(entry)
        if self.on_grow is not None:
            self.on_grow(self, new_entries)
        return new_entries

    @property
    def free_count(self) -> int:
        return sum(map(len, self.clusters))

    @property
    def used_count(self) -> int:
        return self.n_entries - self.free_count

    @property
    def occupancy(self) -> float:
        """Fraction of entries allocated or reserved."""
        return (self.n_entries - self.free_count) / self.n_entries

    def pop_free(self) -> SwapEntry:
        """Take the first free entry, lowest cluster first (untimed)."""
        for free in self.clusters:
            if free:
                entry = free.popleft()
                entry.allocated = True
                return entry
        raise RuntimeError(f"swap partition {self.name!r} is full")

    def pop_free_batch(self, n: int, cluster: int = 0) -> List[SwapEntry]:
        """Take up to ``n`` entries off one cluster (untimed)."""
        free = self.clusters[cluster]
        batch: List[SwapEntry] = []
        for _ in range(min(n, len(free))):
            entry = free.popleft()
            entry.allocated = True
            batch.append(entry)
        return batch

    def push_free(self, entry: SwapEntry) -> None:
        """Return an entry to its cluster."""
        if entry.partition_name != self.name:
            raise ValueError(
                f"entry {entry.entry_id} belongs to {entry.partition_name!r}, "
                f"not {self.name!r}"
            )
        if not entry.allocated:
            raise ValueError(f"double free of entry {entry.entry_id}")
        entry.allocated = False
        entry.reserved = False
        entry.stored_vpn = None
        entry.timestamp_us = None
        entry.valid = True
        self._home(entry).append(entry)

    def purge(self, server_id: int) -> List[SwapEntry]:
        """Remove and return every free entry homed on ``server_id``."""
        victims: List[SwapEntry] = []
        for free in self.clusters:
            matching = [e for e in free if e.server_id == server_id]
            if matching:
                keep = [e for e in free if e.server_id != server_id]
                free.clear()
                free.extend(keep)
                victims.extend(matching)
        return victims

    def __repr__(self) -> str:  # pragma: no cover
        return f"SwapPartition({self.name!r}, {self.used_count}/{self.n_entries} used)"
