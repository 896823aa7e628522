"""Fastswap (Amaro et al., EuroSys '20) as a swap backend.

Fastswap's contributions relative to stock Linux swapping, as modeled:

* **Sync/async QP split** — demand swap-ins go to a high-priority
  (polled) QP, prefetches to a low-priority (interrupt-completed) QP.
  This removes prefetch-induced head-of-line blocking for demand reads,
  but §3 of the Canvas paper shows the flip side: under co-running load,
  prefetches sit behind every demand read and arrive too late (Fig. 6).
* **Offloaded reclaim** — eviction work is pushed off the fault path to
  dedicated reclaim cores; modeled as a more aggressive kswapd batch, so
  direct reclaim on the fault path is rarer.

Everything else (shared partition, shared cache, one shared prefetcher)
is inherited from the Linux baseline — Fastswap does not isolate.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.cgroup import AppContext
from repro.kernel.swap_system import LinuxSwapSystem, SwapSystemConfig
from repro.kernel.telemetry import Telemetry
from repro.prefetch.base import Prefetcher
from repro.rdma.message import RdmaOp, RdmaRequest, RequestKind
from repro.rdma.nic import RNIC
from repro.sim.engine import Engine

__all__ = ["FastswapSystem"]


class FastswapSystem(LinuxSwapSystem):
    """Linux swapping with Fastswap's sync/async QP separation."""

    def __init__(
        self,
        engine: Engine,
        nic: RNIC,
        partition_pages: int,
        prefetcher: Optional[Prefetcher] = None,
        telemetry: Optional[Telemetry] = None,
        config: Optional[SwapSystemConfig] = None,
        name: str = "fastswap",
    ):
        if config is None:
            config = SwapSystemConfig()
        # Dedicated reclaim cores drain memory pressure in bigger batches.
        config.kswapd_batch = max(config.kswapd_batch, 32)
        super().__init__(
            engine,
            nic,
            partition_pages,
            prefetcher=prefetcher,
            telemetry=telemetry,
            config=config,
            name=name,
        )
        # self.read_qp (priority 0) becomes the sync QP; add the async one.
        self.sync_qp = self.read_qp
        self.async_qp = nic.create_qp(f"{name}.async", RdmaOp.READ, priority=1)

    def _submit(self, app: AppContext, request: RdmaRequest) -> None:
        if request.op is RdmaOp.WRITE:
            self.nic.submit(self.write_qp, request)
        elif request.kind is RequestKind.DEMAND:
            self.nic.submit(self.sync_qp, request)
        else:
            self.nic.submit(self.async_qp, request)
