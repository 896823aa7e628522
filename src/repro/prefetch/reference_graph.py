"""Reference-based prefetching (Canvas application-tier pattern 1, §5.2).

The JVM's write barrier reports object-reference writes ``a.f = b``; when
the two objects live on different *page groups*, an edge is recorded on a
summary graph whose nodes are consecutive groups of pages.  On a fault,
the prefetcher walks the graph up to ``max_hops`` (3 in the paper) from
the faulting page's group and proposes the pages of every reached group,
skipping cycles.  This captures "accessing an object brings in pages
containing objects referenced by this object" — the pattern class kernel
stride detectors cannot see.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Set

from repro.prefetch.base import Prefetcher

__all__ = ["PageGroupGraph", "ReferenceGraphPrefetcher"]


class PageGroupGraph:
    """Adjacency over fixed-size groups of consecutive pages."""

    def __init__(self, group_pages: int = 16):
        if group_pages <= 0:
            raise ValueError("group size must be positive")
        self.group_pages = group_pages
        self._edges: Dict[int, Set[int]] = {}
        self.edge_count = 0

    def group_of(self, vpn: int) -> int:
        return vpn // self.group_pages

    def record_reference(self, src_vpn: int, dst_vpn: int) -> None:
        """Write-barrier hook: note a reference crossing page groups."""
        src, dst = self.group_of(src_vpn), self.group_of(dst_vpn)
        if src == dst:
            return
        neighbors = self._edges.setdefault(src, set())
        if dst not in neighbors:
            neighbors.add(dst)
            self.edge_count += 1

    def reachable_groups(
        self, start_group: int, max_hops: int, min_hops: int = 1
    ) -> List[int]:
        """BFS out to ``max_hops``, cycle-free, excluding the start group.

        ``min_hops`` filters out the nearest groups — useful for
        prefetch timeliness, since hop-1 pages are often faulted before
        a just-issued read could land.
        """
        seen = {start_group}
        frontier = deque([(start_group, 0)])
        result: List[int] = []
        while frontier:
            group, depth = frontier.popleft()
            if depth == max_hops:
                continue
            for neighbor in sorted(self._edges.get(group, ())):
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                if depth + 1 >= min_hops:
                    result.append(neighbor)
                frontier.append((neighbor, depth + 1))
        return result

    def group_vpns(self, group: int) -> Iterable[int]:
        start = group * self.group_pages
        return range(start, start + self.group_pages)


class ReferenceGraphPrefetcher(Prefetcher):
    """Graph-walking prefetcher over a write-barrier summary graph."""

    def __init__(
        self,
        graph: PageGroupGraph,
        name: str = "reference-graph",
        max_hops: int = 3,
        max_pages: int = 32,
        min_hops: int = 1,
    ):
        super().__init__(name)
        self.graph = graph
        self.max_hops = max_hops
        self.max_pages = max_pages
        self.min_hops = min_hops

    def on_fault(
        self,
        app_name: str,
        thread_id: int,
        vpn: int,
        now_us: float,
        prefetched_hit: bool = False,
    ) -> List[int]:
        self.stats.faults_observed += 1
        start = self.graph.group_of(vpn)
        vpns: List[int] = []
        for group in self.graph.reachable_groups(
            start, self.max_hops, min_hops=self.min_hops
        ):
            for candidate in self.graph.group_vpns(group):
                if candidate == vpn:
                    continue
                vpns.append(candidate)
                if len(vpns) >= self.max_pages:
                    return self._propose(vpns)
        return self._propose(vpns)
