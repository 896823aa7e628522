"""System-wide telemetry wired into the swap data path.

One :class:`Telemetry` instance per experiment collects everything the
paper's figures need: per-app swap-in/out bandwidth series (Figs. 5, 11),
RDMA latency histograms split by request kind (Figs. 6, 14), swap-out and
allocation rates (Figs. 4, 13, 16), and time spent in entry allocation
(Fig. 15).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.metrics.collectors import BandwidthMeter, Histogram, RateMeter
from repro.rdma.message import RdmaOp, RdmaRequest, RequestKind

__all__ = ["Telemetry"]


class Telemetry:
    """Shared collectors, fed by NIC completion hooks and the swap path."""

    def __init__(self, bin_us: float = 100_000.0):
        self.bin_us = bin_us
        self.read_bandwidth = BandwidthMeter(bin_us)
        self.write_bandwidth = BandwidthMeter(bin_us)
        #: Latency histograms keyed by (app, request kind).
        self._latency: Dict[Tuple[str, RequestKind], Histogram] = {}
        #: Swap-out page rates per app.
        self._swapout_rate: Dict[str, RateMeter] = {}
        #: Swap-entry allocation rates per app.
        self._alloc_rate: Dict[str, RateMeter] = {}
        #: Prefetch timeliness: time from swap-cache arrival to first use.
        self._timeliness: Dict[str, Histogram] = {}

    # -- NIC hook ---------------------------------------------------------

    def on_rdma_completion(self, request: RdmaRequest) -> None:
        if request.error:
            # Error CQE: no data moved, so neither bandwidth nor the
            # latency CDFs should see it (the retry's completion will).
            return
        app_name = request.app_name
        if request.op is RdmaOp.READ:
            self.read_bandwidth.record(
                app_name, request.completed_at_us, request.size_bytes
            )
        else:
            self.write_bandwidth.record(
                app_name, request.completed_at_us, request.size_bytes
            )
        latency = request.latency_us
        if latency is not None:
            # Inline latency_hist's hit path: this hook runs once per
            # completed RDMA.
            hist = self._latency.get((app_name, request.kind))
            if hist is None:
                hist = self.latency_hist(app_name, request.kind)
            hist.record(latency)

    # -- accessors ----------------------------------------------------------

    def latency_hist(self, app_name: str, kind: RequestKind) -> Histogram:
        key = (app_name, kind)
        hist = self._latency.get(key)
        if hist is None:
            hist = Histogram(name=f"{app_name}.{kind.value}.latency")
            self._latency[key] = hist
        return hist

    def merged_latency(self, kind: RequestKind) -> Histogram:
        """All apps' samples for one request kind, merged."""
        merged = Histogram(name=f"all.{kind.value}.latency")
        for (_app, hist_kind), hist in self._latency.items():
            if hist_kind is kind:
                merged.add_many(hist._samples)
        return merged

    def swapout_rate(self, app_name: str) -> RateMeter:
        meter = self._swapout_rate.get(app_name)
        if meter is None:
            meter = RateMeter(self.bin_us, name=f"{app_name}.swapout")
            self._swapout_rate[app_name] = meter
        return meter

    def alloc_rate(self, app_name: str) -> RateMeter:
        meter = self._alloc_rate.get(app_name)
        if meter is None:
            meter = RateMeter(self.bin_us, name=f"{app_name}.alloc")
            self._alloc_rate[app_name] = meter
        return meter

    def timeliness_hist(self, app_name: str) -> Histogram:
        hist = self._timeliness.get(app_name)
        if hist is None:
            hist = Histogram(name=f"{app_name}.timeliness")
            self._timeliness[app_name] = hist
        return hist
