"""Post-experiment analysis: per-app summaries and cross-run comparison.

Turns raw :class:`~repro.harness.experiment.ExperimentResult` objects
into flat records suitable for tables, CSV export, or assertions —
the same digestion every benchmark does by hand, packaged once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from repro.harness.experiment import ExperimentResult
from repro.rdma.message import RequestKind

__all__ = ["AppSummary", "summarize", "slowdown_matrix"]


@dataclass
class AppSummary:
    """Everything worth reporting about one application's run."""

    app: str
    completion_time_ms: float
    accesses: int
    faults: int
    fault_rate: float
    demand_swapins: int
    prefetches_issued: int
    prefetch_contribution: float
    prefetch_accuracy: float
    swapouts: int
    clean_drops: int
    reserved_swapouts: int
    direct_reclaims: int
    alloc_stall_ms: float
    fault_stall_ms: float
    mean_fault_stall_us: float
    demand_p50_us: float
    demand_p99_us: float
    read_bandwidth_mbps: float
    write_bandwidth_mbps: float

    def as_dict(self) -> dict:
        return asdict(self)


def summarize(result: ExperimentResult) -> Dict[str, AppSummary]:
    """One :class:`AppSummary` per application in the experiment."""
    summaries: Dict[str, AppSummary] = {}
    for name, app in result.apps.items():
        stats = app.stats
        elapsed = app.completion_time_us
        if elapsed is None:
            elapsed = result.elapsed_us
        demand_hist = result.telemetry.latency_hist(name, RequestKind.DEMAND)
        app_result = result.results[name]
        summaries[name] = AppSummary(
            app=name,
            completion_time_ms=elapsed / 1000.0,
            accesses=stats.accesses,
            faults=stats.faults,
            fault_rate=stats.fault_rate,
            demand_swapins=stats.demand_swapins,
            prefetches_issued=stats.prefetches_issued,
            prefetch_contribution=app_result.prefetch_contribution,
            prefetch_accuracy=app_result.prefetch_accuracy,
            swapouts=stats.swapouts,
            clean_drops=stats.clean_drops,
            reserved_swapouts=stats.reserved_swapouts,
            direct_reclaims=stats.direct_reclaims,
            alloc_stall_ms=stats.alloc_stall_us / 1000.0,
            fault_stall_ms=stats.fault_stall_us / 1000.0,
            mean_fault_stall_us=(
                stats.fault_stall_us / stats.faults if stats.faults else 0.0
            ),
            demand_p50_us=demand_hist.percentile(50),
            demand_p99_us=demand_hist.percentile(99),
            read_bandwidth_mbps=result.telemetry.read_bandwidth.mean_mbps(
                name, elapsed
            ),
            write_bandwidth_mbps=result.telemetry.write_bandwidth.mean_mbps(
                name, elapsed
            ),
        )
    return summaries


def slowdown_matrix(
    runs: Dict[str, ExperimentResult],
    baseline: Dict[str, float],
    apps: Optional[List[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """Slowdown of each app under each labelled run vs a baseline time.

    ``baseline`` maps app name → completion time in µs (typically solo
    runs).  Returns {run label: {app: slowdown}}.
    """
    matrix: Dict[str, Dict[str, float]] = {}
    for label, result in runs.items():
        row: Dict[str, float] = {}
        for name in apps if apps is not None else result.results:
            if name not in baseline:
                continue
            row[name] = result.completion_time(name) / baseline[name]
        matrix[label] = row
    return matrix
