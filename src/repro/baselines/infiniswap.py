"""Infiniswap (Gu et al., NSDI '17) as a swap backend.

Infiniswap exposes remote memory as a block device under the unmodified
kernel swap path.  Relative to the Fastswap-era systems it:

* routes every read — demand or prefetch — through one request queue
  (full head-of-line blocking, no sync/async split);
* pays block-layer overhead on each I/O (bio submission, slab mapping
  lookup), modeled as a fixed extra cost before the verb is posted;
* was built against Linux 4.4, before clean-page entry keeping.

The paper notes Infiniswap hung on XGBoost and Spark (§6.1); we model
that as the documented omission (`SUPPORTED` set), not a literal
deadlock — benchmarks skip those pairs the way Fig. 9 omits the bars.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.cgroup import AppContext
from repro.kernel.swap_system import LinuxSwapSystem, SwapSystemConfig
from repro.kernel.telemetry import Telemetry
from repro.prefetch.base import Prefetcher
from repro.rdma.message import RdmaOp, RdmaRequest
from repro.rdma.nic import RNIC
from repro.sim.engine import Engine

__all__ = ["InfiniswapSystem"]


class InfiniswapSystem(LinuxSwapSystem):
    """Block-device remote swap with per-I/O block-layer overhead."""

    #: Applications the original artifact could not run (§6.1).
    UNSUPPORTED = frozenset({"xgboost", "spark_lr", "spark_km", "spark_pr"})

    def __init__(
        self,
        engine: Engine,
        nic: RNIC,
        partition_pages: int,
        prefetcher: Optional[Prefetcher] = None,
        telemetry: Optional[Telemetry] = None,
        config: Optional[SwapSystemConfig] = None,
        block_layer_overhead_us: float = 2.5,
        name: str = "infiniswap",
    ):
        if config is None:
            config = SwapSystemConfig()
        config.entry_keeping = False  # pre-5.5 kernel
        super().__init__(
            engine,
            nic,
            partition_pages,
            prefetcher=prefetcher,
            telemetry=telemetry,
            config=config,
            name=name,
        )
        self.block_layer_overhead_us = block_layer_overhead_us

    def supports(self, workload_name: str) -> bool:
        return workload_name not in self.UNSUPPORTED

    def _submit(self, app: AppContext, request: RdmaRequest) -> None:
        # Every bio pays its own block-layer cost before the verb posts.
        request.enqueued_at_us = self.engine.now  # include block-layer time
        qp = self.read_qp if request.op is RdmaOp.READ else self.write_qp
        self.engine.call_after(
            self.block_layer_overhead_us, lambda: self.nic.submit(qp, request)
        )
