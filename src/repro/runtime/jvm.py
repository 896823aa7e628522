"""Language-runtime models backing application-tier prefetching (§5.2).

Canvas develops its application-tier prefetcher inside the JVM because
the runtime already owns the semantic information the kernel lacks:

* the **write barrier** records references between objects on different
  page groups into a summary graph (pattern 1, reference-based);
* the **user→kernel thread map** lets faulting addresses be segregated by
  Java thread, filtering out GC/JIT threads (pattern 2, thread-based);
* a **search tree of large arrays** (allocations above 1 MB) decides
  which pattern to apply: many threads + fault inside a large array →
  per-thread stride analysis, otherwise the reference graph.

:class:`JvmRuntime` packages all three plus the uffd fault handler the
Canvas kernel forwards into.  :class:`NativeRuntime` is the pthread
equivalent: thread IDs are kernel-visible already, and the paper enables
only per-thread pattern analysis for native programs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Set, Tuple

from repro.prefetch.reference_graph import PageGroupGraph, ReferenceGraphPrefetcher
from repro.prefetch.thread_pattern import ThreadPatternPrefetcher

__all__ = ["RuntimeStats", "JvmRuntime", "NativeRuntime"]

#: §5.2: the JVM records arrays whose size exceeds 1 MB (= 256 pages).
LARGE_ARRAY_PAGES = 256
#: "Many threads" threshold for choosing the thread-based pattern.
MANY_THREADS = 4


@dataclass
class RuntimeStats:
    faults_handled: int = 0
    gc_faults_ignored: int = 0
    thread_pattern_used: int = 0
    reference_pattern_used: int = 0
    barrier_edges_recorded: int = 0


class JvmRuntime:
    """A managed runtime: GC threads, write barrier, semantic prefetching."""

    def __init__(
        self,
        app_name: str,
        group_pages: int = 16,
        max_hops: int = 3,
        prefetch_cap: int = 16,
        min_hops: int = 2,
    ):
        self.app_name = app_name
        self.reference_graph = PageGroupGraph(group_pages)
        self.thread_patterns = ThreadPatternPrefetcher(
            name=f"{app_name}.thread-pattern"
        )
        self.reference_prefetcher = ReferenceGraphPrefetcher(
            self.reference_graph,
            max_hops=max_hops,
            max_pages=prefetch_cap,
            # Hop-1 pages are usually faulted before a read could land;
            # deeper hops are what prefetching can actually win.
            min_hops=min_hops,
        )
        self.stats = RuntimeStats()
        #: The user→kernel thread map: which kernel tids are Java
        #: application threads vs auxiliary (GC, JIT) threads.
        self.app_thread_ids: Set[int] = set()
        self.aux_thread_ids: Set[int] = set()
        #: Sorted (start_vpn, end_vpn) of registered large arrays.
        self._large_arrays: List[Tuple[int, int]] = []
        self._array_starts: List[int] = []

    # -- registration (done by the workload at build time) ---------------

    def register_threads(self, app_tids: List[int], aux_tids: List[int]) -> None:
        self.app_thread_ids.update(app_tids)
        self.aux_thread_ids.update(aux_tids)

    def record_large_array(self, start_vpn: int, n_pages: int) -> None:
        """Array-allocation hook: track arrays above the 1 MB threshold."""
        if n_pages < LARGE_ARRAY_PAGES:
            return
        self._large_arrays.append((start_vpn, start_vpn + n_pages))
        self._large_arrays.sort()
        self._array_starts = [start for start, _end in self._large_arrays]

    def record_reference(self, src_vpn: int, dst_vpn: int) -> None:
        """Write-barrier hook for ``a.f = b`` crossing page groups."""
        before = self.reference_graph.edge_count
        self.reference_graph.record_reference(src_vpn, dst_vpn)
        self.stats.barrier_edges_recorded += self.reference_graph.edge_count - before

    # -- queries --------------------------------------------------------

    def in_large_array(self, vpn: int) -> bool:
        index = bisect_right(self._array_starts, vpn) - 1
        if index < 0:
            return False
        start, end = self._large_arrays[index]
        return start <= vpn < end

    @property
    def many_threads(self) -> bool:
        return len(self.app_thread_ids) >= MANY_THREADS

    # -- the uffd fault handler -------------------------------------------

    def handle_forwarded_fault(self, thread_id: int, vpn: int) -> List[int]:
        """§5.2 policy: pick the semantic pattern and propose prefetches."""
        if thread_id in self.aux_thread_ids:
            # "prefetching for a GC thread has zero benefit".
            self.stats.gc_faults_ignored += 1
            return []
        self.stats.faults_handled += 1
        if self.many_threads and self.in_large_array(vpn):
            self.stats.thread_pattern_used += 1
            return self.thread_patterns.on_fault(self.app_name, thread_id, vpn, 0.0)
        # Keep the per-thread history warm even on the reference branch so
        # a later switch to the thread pattern starts with context.
        self.thread_patterns.observe(self.app_name, thread_id, vpn)
        self.stats.reference_pattern_used += 1
        return self.reference_prefetcher.on_fault(self.app_name, thread_id, vpn, 0.0)


class NativeRuntime:
    """pthread programs: thread-based pattern analysis only (§5.2)."""

    def __init__(self, app_name: str):
        self.app_name = app_name
        self.thread_patterns = ThreadPatternPrefetcher(
            name=f"{app_name}.thread-pattern"
        )
        self.stats = RuntimeStats()

    def register_threads(self, app_tids: List[int], aux_tids: List[int]) -> None:
        pass  # kernel threads are directly visible for native programs

    def record_large_array(self, start_vpn: int, n_pages: int) -> None:
        pass

    def record_reference(self, src_vpn: int, dst_vpn: int) -> None:
        pass

    def handle_forwarded_fault(self, thread_id: int, vpn: int) -> List[int]:
        self.stats.faults_handled += 1
        self.stats.thread_pattern_used += 1
        return self.thread_patterns.on_fault(self.app_name, thread_id, vpn, 0.0)
