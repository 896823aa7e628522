"""The simulated host machine.

Mirrors the paper's testbed topology: one application server whose
remote memory sits behind a single 40 Gbps InfiniBand adapter.  A
:class:`Machine` bundles the event engine, the NIC, telemetry, and the
RNG registry so experiments construct everything from one seed.
"""

from __future__ import annotations

from repro.kernel.telemetry import Telemetry
from repro.rdma.nic import (
    DEFAULT_BANDWIDTH_BYTES_PER_US,
    DEFAULT_BASE_LATENCY_US,
    DEFAULT_VERB_OVERHEAD_US,
    RNIC,
)
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry

__all__ = ["Machine"]


class Machine:
    """One application host plus its remote-memory fabric."""

    def __init__(
        self,
        seed: int = 0,
        read_bandwidth_bytes_per_us: float = DEFAULT_BANDWIDTH_BYTES_PER_US,
        write_bandwidth_bytes_per_us: float = DEFAULT_BANDWIDTH_BYTES_PER_US,
        base_latency_us: float = DEFAULT_BASE_LATENCY_US,
        verb_overhead_us: float = DEFAULT_VERB_OVERHEAD_US,
        telemetry_bin_us: float = 100_000.0,
    ):
        self.engine = Engine()
        self.rng = RngRegistry(seed)
        self.telemetry = Telemetry(bin_us=telemetry_bin_us)
        self.nic = RNIC(
            self.engine,
            read_bandwidth_bytes_per_us=read_bandwidth_bytes_per_us,
            write_bandwidth_bytes_per_us=write_bandwidth_bytes_per_us,
            base_latency_us=base_latency_us,
            verb_overhead_us=verb_overhead_us,
        )
