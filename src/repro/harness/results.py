"""Portable experiment results: snapshots that survive pickling.

A live :class:`~repro.harness.experiment.ExperimentResult` references the
whole simulated machine — the event engine (whose heap holds generator
bound-methods), the NIC, daemon processes — none of which can cross a
process boundary or be stored on disk.  The parallel runner and the
persistent result cache both need exactly that, so pickling an
``ExperimentResult`` swaps those references for light snapshots carrying
the state benchmarks and analysis actually read back:

* per-app completion times, cgroup config, and swap statistics,
* the full telemetry object (histograms/meters are plain data),
* headline system attributes (kind, scheduler flags, rebalancer stats,
  per-app swap-cache stats).

Snapshotting is idempotent: a result that was already unpickled (and
therefore holds snapshots) round-trips unchanged, so disk-cached results
can be re-pickled freely between processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.kernel.cgroup import AppSwapStats, CgroupConfig

__all__ = [
    "AppSnapshot",
    "SchedulerSnapshot",
    "RebalancerSnapshot",
    "SystemSnapshot",
    "snapshot_app",
    "snapshot_system",
    "snapshot_result_state",
    "result_digest",
]


def result_digest(result) -> str:
    """A hex digest over every simulated number a benchmark reads back.

    Two runs are considered bit-identical iff their digests match:
    per-app completion times, the full per-app swap-stats counters
    (floats included — ``repr`` round-trips them exactly), and the
    machine-level elapsed time all feed the hash.  Works on live
    results and on snapshots that crossed a pickle/process boundary.
    """
    import hashlib
    from dataclasses import asdict

    parts = []
    for name in sorted(result.results):
        app_result = result.results[name]
        parts.append(
            (name, app_result.completion_time_us, sorted(asdict(app_result.stats).items()))
        )
    parts.append(("elapsed_us", result.elapsed_us))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


@dataclass
class AppSnapshot:
    """The portable subset of :class:`~repro.kernel.cgroup.AppContext`."""

    name: str
    config: CgroupConfig
    stats: AppSwapStats
    started_at_us: float = 0.0
    finished_at_us: Optional[float] = None

    @property
    def completion_time_us(self) -> Optional[float]:
        if self.finished_at_us is None:
            return None
        return self.finished_at_us - self.started_at_us


@dataclass
class SchedulerSnapshot:
    """Headline flags/stats of Canvas's two-dimensional RDMA scheduler."""

    horizontal: bool = False
    timeliness_drops: bool = False
    stats: object = None


@dataclass
class RebalancerSnapshot:
    """Stats of the dynamic swap-cache rebalancer (extension)."""

    stats: object = None


@dataclass
class SystemSnapshot:
    """The portable subset of a swap system benchmarks read back."""

    name: str
    kind: str
    scheduler: Optional[SchedulerSnapshot] = None
    rebalancer: Optional[RebalancerSnapshot] = None
    #: Per-app private swap-cache stats (shared cache under one key per app).
    cache_stats: Dict[str, object] = field(default_factory=dict)
    #: Per-app adaptive-allocation stats (Canvas only).
    adaptive: Dict[str, object] = field(default_factory=dict)

    def adaptive_stats(self, app_name: str):
        """Mirror of ``CanvasSwapSystem.adaptive_stats`` on cached results."""
        return self.adaptive.get(app_name)


def snapshot_app(app) -> AppSnapshot:
    """Snapshot a live ``AppContext`` (identity if already a snapshot)."""
    if isinstance(app, AppSnapshot):
        return app
    return AppSnapshot(
        name=app.name,
        config=app.config,
        stats=app.stats,
        started_at_us=app.started_at_us,
        finished_at_us=app.finished_at_us,
    )


def snapshot_system(system, apps) -> SystemSnapshot:
    """Snapshot a live swap system (identity if already a snapshot)."""
    if isinstance(system, SystemSnapshot):
        return system
    scheduler = getattr(system, "scheduler", None)
    scheduler_snap = None
    if scheduler is not None:
        scheduler_snap = SchedulerSnapshot(
            horizontal=bool(getattr(scheduler, "horizontal", False)),
            timeliness_drops=bool(getattr(scheduler, "timeliness_drops", False)),
            stats=getattr(scheduler, "stats", None),
        )
    rebalancer = getattr(system, "rebalancer", None)
    rebalancer_snap = (
        RebalancerSnapshot(stats=rebalancer.stats) if rebalancer is not None else None
    )
    cache_stats: Dict[str, object] = {}
    adaptive: Dict[str, object] = {}
    get_adaptive = getattr(system, "adaptive_stats", None)
    for name, app in apps.items():
        if app.swap_path is not None:  # None once a churn session departed
            cache_stats[name] = app.swap_path.cache.stats
        if get_adaptive is not None:
            adaptive[name] = get_adaptive(name)
    return SystemSnapshot(
        name=getattr(system, "name", type(system).__name__),
        kind=type(system).__name__,
        scheduler=scheduler_snap,
        rebalancer=rebalancer_snap,
        cache_stats=cache_stats,
        adaptive=adaptive,
    )


def snapshot_result_state(result) -> dict:
    """``__getstate__`` payload for an ``ExperimentResult``.

    Shares the live ``AppSwapStats``/telemetry objects rather than
    copying them, so pickling preserves object identity between
    ``result.apps[name].stats`` and ``result.results[name].stats``.
    """
    return {
        "machine": None,
        "system": snapshot_system(result.system, result.apps),
        "apps": {name: snapshot_app(app) for name, app in result.apps.items()},
        "elapsed_us": result.elapsed_us,
        "telemetry": result.telemetry,
        "results": result.results,
        # TraceBuffer drops its engine reference when pickled; the
        # records themselves are plain tuples.
        "trace": getattr(result, "trace", None),
        # The live Rack holds engine references; only its stats (a plain
        # dataclass) cross the pickle boundary.
        "rack": None,
        "rack_stats": getattr(result, "rack_stats", None),
    }
