"""Cgroups and per-application contexts.

The paper's experiments pin each application inside a cgroup with fixed
CPU and local-memory limits; Canvas extends cgroup with swap-partition,
swap-cache, and RDMA-bandwidth limits (§4).  :class:`CgroupConfig` holds
all of those knobs; :class:`AppContext` bundles the runtime state the
kernel keeps per application (address space, frame pool, LRU lists, CPU
cores, statistics, and the swap path its private pages take).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mem.address_space import AddressSpace
from repro.mem.frame_pool import FramePool
from repro.mem.lru import GenerationLRU
from repro.sim.engine import Engine
from repro.sim.resources import CoreSet

__all__ = ["CgroupConfig", "AppSwapStats", "AppContext"]


@dataclass
class CgroupConfig:
    """Static resource limits for one application."""

    name: str
    n_cores: int
    local_memory_pages: int
    #: Canvas: per-cgroup swap partition size (entries).  Baselines ignore
    #: this and use the shared partition.
    swap_partition_pages: Optional[int] = None
    #: Canvas: private swap cache budget, charged to local memory (§4).
    #: 32 MB default = 8192 pages.
    swap_cache_pages: int = 8192
    #: Canvas: weight for max-min fair RDMA scheduling (§5.3).  The paper
    #: sets weights proportional to swap-partition assignments.
    rdma_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.n_cores <= 0:
            raise ValueError(f"{self.name}: need at least one core")
        if self.local_memory_pages <= 0:
            raise ValueError(f"{self.name}: need local memory")


@dataclass
class AppSwapStats:
    """Per-application counters maintained by the swap system."""

    accesses: int = 0
    faults: int = 0
    cache_hits: int = 0
    #: Cache hits that landed on a *prefetched* page (the numerator of
    #: the paper's prefetching-contribution metric, §6.4.2).
    prefetch_cache_hits: int = 0
    demand_swapins: int = 0
    prefetches_issued: int = 0
    prefetch_frames_denied: int = 0
    swapouts: int = 0
    clean_drops: int = 0
    direct_reclaims: int = 0
    kswapd_reclaims: int = 0
    #: Total thread time stalled inside handle_fault.
    fault_stall_us: float = 0.0
    #: Total thread time spent obtaining swap entries (Fig. 15).
    alloc_stall_us: float = 0.0
    #: Lock-free swap-outs served by a Canvas reservation (§5.1).
    reserved_swapouts: int = 0
    #: §5.3: stale prefetches dropped and re-issued as demand reads.
    prefetch_drops: int = 0
    #: Faults that had to wait on an in-flight prefetch.
    blocked_on_prefetch: int = 0
    #: Faults that re-mapped a page whose writeback was still in flight.
    writeback_rescues: int = 0
    #: Addresses forwarded to the application tier (§5.2).
    uffd_forwards: int = 0
    #: Fault-injection recovery accounting (zero on a healthy fabric).
    #: Error CQEs delivered to this cgroup by the NIC.
    error_cqes: int = 0
    #: Demand reads reissued after an error CQE.
    demand_retries: int = 0
    #: Writebacks reissued after an error CQE.
    writeback_retries: int = 0
    #: Speculative prefetches cancelled on an error CQE (never retried:
    #: a later fault demand-fetches the page instead).
    prefetches_cancelled: int = 0
    #: Thread time attributable to transport retransmission timeouts,
    #: summed over this cgroup's requests; subtracting it from
    #: ``fault_stall_us`` separates retry stalls from queueing stalls.
    retry_stall_us: float = 0.0

    @property
    def fault_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.faults / self.accesses

    @property
    def prefetch_contribution(self) -> float:
        """Faults served by prefetched pages over all faults (§6.4.2)."""
        if self.faults == 0:
            return 0.0
        return self.prefetch_cache_hits / self.faults


class AppContext:
    """Everything the kernel tracks for one running application."""

    def __init__(self, engine: Engine, config: CgroupConfig):
        self.engine = engine
        self.config = config
        self.name = config.name
        self.space = AddressSpace(config.name)
        self.cores = CoreSet(engine, config.n_cores, name=f"{config.name}.cores")
        self.pool = FramePool(config.local_memory_pages, name=f"{config.name}.frames")
        #: Pages age with generation stamps over the space's VPN-indexed
        #: arrays, which the vectorized consume core scatters into.
        self.lru = GenerationLRU(self.space, name=config.name)
        self.stats = AppSwapStats()
        #: Set by the harness when the workload finishes; the app's
        #: completion time is the headline metric in Figs. 2, 9-12.
        self.finished_at_us: Optional[float] = None
        self.started_at_us: float = 0.0
        #: Writebacks in flight for this app; kswapd throttles on it so a
        #: slow write path cannot pin every frame in unfinished
        #: writebacks.  Invariants: never negative, and back to zero once
        #: the swap system drains (see tests/test_swap_invariants.py).
        self.outstanding_writebacks: int = 0
        #: Prefetch reads in flight, maintained incrementally so the
        #: issue path does not rescan every in-flight request.  Same
        #: invariants as ``outstanding_writebacks``.
        self.inflight_prefetches: int = 0
        #: Slot for runtime models (e.g. the JVM of §5.2) to attach to.
        self.runtime: Optional[object] = None
        #: The :class:`repro.kernel.swap_system.SwapPath` this app's
        #: private pages take: bound by ``register_app`` and cleared by
        #: ``unregister_app`` (None while unregistered).
        self.swap_path = None

    @property
    def completion_time_us(self) -> Optional[float]:
        if self.finished_at_us is None:
            return None
        return self.finished_at_us - self.started_at_us

    def __repr__(self) -> str:  # pragma: no cover
        return f"AppContext({self.name!r}, cores={self.config.n_cores})"
