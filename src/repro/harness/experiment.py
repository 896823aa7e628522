"""Experiment harness: build, run, and measure individual/co-run setups.

Encodes the paper's §6 methodology:

* each application runs in a cgroup with fixed cores (managed 24,
  XGBoost 16, Memcached 4, Snappy 1) and local memory equal to 25% or
  50% of its working set;
* for Canvas, each app's swap partition is sized so local + remote is
  *slightly larger* than its working set, forcing reservation
  cancellation (§5.1); RDMA weights are proportional to partition sizes;
* baselines share one partition sized to the same total remote memory,
  one swap cache, and one prefetcher instance.

``run_experiment`` handles any system kind × any set of workloads, solo
or co-run; every benchmark file drives it with different knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro.baselines.fastswap import FastswapSystem
from repro.baselines.infiniswap import InfiniswapSystem
from repro.cluster import ClusterConfig, Rack
from repro.core.canvas import CanvasConfig, CanvasSwapSystem
from repro.core.slo import SloConfig, SloController
from repro.faults import FaultConfig, make_plan
from repro.harness.driver import run_to_completion, spawn_app
from repro.harness.machine import Machine
from repro.kernel.cgroup import AppContext, AppSwapStats, CgroupConfig
from repro.kernel.swap_system import (
    BaseSwapSystem,
    LinuxSwapSystem,
    SwapSystemConfig,
)
from repro.obs.trace import TraceBuffer
from repro.prefetch.base import Prefetcher
from repro.prefetch.leap import LeapPrefetcher
from repro.prefetch.readahead import KernelReadahead
from repro.swap.allocator import FreeListAllocator, Linux514Allocator
from repro.workloads.base import Workload
from repro.workloads.batch import emit_batches
from repro.workloads.registry import make_workload
from repro.workloads.traffic import TrafficConfig, TrafficSession, make_traffic_plan

__all__ = [
    "ExperimentConfig",
    "AppResult",
    "ExperimentResult",
    "run_experiment",
    "ChurnResult",
    "run_churn",
    "churn_digest",
]

#: Paper §6: per-application core limits in co-run experiments.
DEFAULT_CORES = {
    "memcached": 4,
    "snappy": 1,
    "xgboost": 16,
}
MANAGED_CORES = 24


@dataclass
class ExperimentConfig:
    """One experiment's knobs (defaults follow the paper's §6 setup)."""

    system: str = "linux"
    seed: int = 0
    scale: float = 0.25
    local_memory_fraction: float = 0.25
    #: Extra remote memory beyond (working set - local), as a fraction of
    #: the working set.  Covers entries pinned by in-flight writebacks and
    #: swap-cache pages while keeping occupancy above the §5.1 reservation
    #: -cancellation trigger ("local + remote slightly larger than the
    #: working set").
    partition_headroom: float = 0.25
    #: Baseline prefetcher: "readahead", "leap", or "none".
    prefetcher: str = "readahead"
    #: Accumulated CPU is charged to the simulated core once it reaches
    #: this many microseconds (timing granularity of CPU bursts between
    #: faults).
    cpu_flush_us: float = 25.0
    #: Swap cache budget as a fraction of local memory (per app under
    #: Canvas; summed for the shared baseline cache).
    swap_cache_fraction: float = 0.25
    #: Canvas ablations.
    adaptive_allocation: bool = True
    two_tier_prefetch: bool = True
    horizontal_scheduling: bool = True
    #: Fig. 14 ablation: toggle timeliness drops independently of the
    #: priority split; None follows ``horizontal_scheduling``.
    timeliness_drops: Optional[bool] = None
    #: Extension: max-min dynamic swap-cache rebalancing between cgroups.
    dynamic_cache_rebalance: bool = False
    #: Override cores per workload name (falls back to paper defaults).
    cores_override: Dict[str, int] = field(default_factory=dict)
    #: Simulated-time safety limit.
    limit_us: float = 60_000_000_000.0
    #: Telemetry bin width for rate/bandwidth series.
    telemetry_bin_us: float = 5_000.0
    #: Fabric bandwidth multiplier over the 40 Gbps default.  The paper's
    #: runs keep RDMA bandwidth unsaturated (§3); our scaled-down
    #: workloads fault more intensely per byte of working set, so the
    #: simulated fabric gets matching headroom.
    bandwidth_scale: float = 2.5
    #: Attribute overrides applied to the SwapSystemConfig (e.g.
    #: {"kswapd_batch": 8, "entry_keeping": False}).
    system_config_overrides: Dict[str, object] = field(default_factory=dict)
    #: Per-workload attribute overrides applied after construction, e.g.
    #: {"memcached": {"n_threads": 48}} for the Fig. 13 core sweep.
    workload_overrides: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: RDMA scheduling weights per app.  The paper sets them proportional
    #: to each application's *individually measured* bandwidth (§6.4.3);
    #: default (empty) falls back to partition-size proportionality.
    rdma_weights: Dict[str, float] = field(default_factory=dict)
    #: Optional fault scenario (see :mod:`repro.faults`).  ``None`` runs
    #: the pre-fault code path exactly; a zero-rate config is attached
    #: but injects nothing, producing bit-identical results either way.
    fault_config: Optional[FaultConfig] = None
    #: Optional rack model (see :mod:`repro.cluster`): N memory servers
    #: behind the shared uplink, with a placement policy homing each
    #: partition's entries.  ``None`` runs the single-endpoint path; a
    #: default one-server rack is attached but bit-identical to it (the
    #: ``n_servers=1`` oracle the digest suite pins).
    cluster: Optional[ClusterConfig] = None
    #: Record a simulation-time event trace (:mod:`repro.obs`).  Tracing
    #: never touches the engine schedule or RNG, so a traced run produces
    #: bit-identical results; with ``False`` the tracepoint branches are
    #: single ``is None`` tests and no buffer exists at all.
    trace: bool = False
    #: Trace ring-buffer capacity in records; the oldest records are
    #: overwritten once full (``result.trace.truncated`` reports it).
    trace_capacity: int = 2_000_000
    #: Open-loop traffic model (see :mod:`repro.workloads.traffic`):
    #: sessions arrive, run, and unregister on a seeded curve.  Only
    #: :func:`run_churn` reads it; ``run_experiment`` rejects it.
    traffic: Optional[TrafficConfig] = None
    #: SLO feedback loop (see :mod:`repro.core.slo`): p99 demand-fault
    #: latency steered back into scheduler weights and the adaptive
    #: allocator.  ``None`` runs without a controller.  Only
    #: :func:`run_churn` runs one; ``run_experiment`` rejects it.
    slo: Optional[SloConfig] = None

    def cores_for(self, workload: Workload) -> int:
        if workload.name in self.cores_override:
            return self.cores_override[workload.name]
        if workload.name in DEFAULT_CORES:
            return DEFAULT_CORES[workload.name]
        return MANAGED_CORES


@dataclass
class AppResult:
    """Summary of one application's run."""

    name: str
    completion_time_us: float
    stats: AppSwapStats
    prefetch_contribution: float
    prefetch_accuracy: float


class ExperimentResult:
    """Everything a benchmark needs after a run."""

    def __init__(
        self,
        machine: Machine,
        system: BaseSwapSystem,
        apps: Dict[str, AppContext],
        elapsed_us: float,
        trace: Optional[TraceBuffer] = None,
        rack: Optional[Rack] = None,
    ):
        self.machine = machine
        self.system = system
        self.apps = apps
        self.elapsed_us = elapsed_us
        self.trace = trace
        #: Live rack (when a cluster config was attached) and its stats;
        #: the live object does not survive pickling, the stats do.
        self.rack = rack
        self.rack_stats = rack.stats if rack is not None else None
        self.telemetry = machine.telemetry
        self.results: Dict[str, AppResult] = {}
        for name, app in apps.items():
            issued = app.stats.prefetches_issued
            self.results[name] = AppResult(
                name=name,
                completion_time_us=app.completion_time_us or float("nan"),
                stats=app.stats,
                prefetch_contribution=app.stats.prefetch_contribution,
                prefetch_accuracy=(
                    app.stats.prefetch_cache_hits / issued if issued > 0 else 0.0
                ),
            )

    def completion_time(self, name: str) -> float:
        return self.results[name].completion_time_us

    # -- pickling ---------------------------------------------------------
    # A live result references the whole simulated machine (engine heap,
    # generators), which cannot cross process boundaries.  Pickling swaps
    # those for portable snapshots (see repro.harness.results); everything
    # benchmarks/analysis read back survives the round-trip.

    def __getstate__(self) -> dict:
        from repro.harness.results import snapshot_result_state

        return snapshot_result_state(self)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


def _build_system(
    machine: Machine, config: ExperimentConfig, total_remote_pages: int
) -> BaseSwapSystem:
    sys_config = SwapSystemConfig()
    for key, value in config.system_config_overrides.items():
        if not hasattr(sys_config, key):
            raise AttributeError(f"SwapSystemConfig has no field {key!r}")
        setattr(sys_config, key, value)
    prefetcher = _make_prefetcher(config)
    kind = config.system
    if kind == "linux":
        return LinuxSwapSystem(
            machine.engine,
            machine.nic,
            partition_pages=total_remote_pages,
            prefetcher=prefetcher,
            telemetry=machine.telemetry,
            config=sys_config,
        )
    if kind == "linux514":
        return LinuxSwapSystem(
            machine.engine,
            machine.nic,
            partition_pages=total_remote_pages,
            prefetcher=prefetcher,
            telemetry=machine.telemetry,
            config=sys_config,
            allocator_cls=Linux514Allocator,
            name="linux514",
        )
    if kind == "fastswap":
        return FastswapSystem(
            machine.engine,
            machine.nic,
            partition_pages=total_remote_pages,
            prefetcher=prefetcher,
            telemetry=machine.telemetry,
            config=sys_config,
        )
    if kind == "infiniswap":
        return InfiniswapSystem(
            machine.engine,
            machine.nic,
            partition_pages=total_remote_pages,
            prefetcher=prefetcher,
            telemetry=machine.telemetry,
            config=sys_config,
        )
    if kind in ("canvas", "canvas-iso"):
        isolation_only = kind == "canvas-iso"
        canvas_config = CanvasConfig(
            adaptive_allocation=config.adaptive_allocation and not isolation_only,
            two_tier_prefetch=config.two_tier_prefetch and not isolation_only,
            horizontal_scheduling=(
                config.horizontal_scheduling and not isolation_only
            ),
            timeliness_drops=(False if isolation_only else config.timeliness_drops),
            dynamic_cache_rebalance=config.dynamic_cache_rebalance,
        )
        return CanvasSwapSystem(
            machine.engine,
            machine.nic,
            telemetry=machine.telemetry,
            config=sys_config,
            canvas_config=canvas_config,
        )
    raise ValueError(f"unknown system kind {config.system!r}")


def _make_prefetcher(config: ExperimentConfig) -> Optional[Prefetcher]:
    if config.prefetcher == "readahead":
        return KernelReadahead()
    if config.prefetcher == "leap":
        return LeapPrefetcher()
    if config.prefetcher == "leap-isolated":
        return LeapPrefetcher(per_app_history=True)
    if config.prefetcher == "none":
        return None
    raise ValueError(f"unknown prefetcher {config.prefetcher!r}")


def run_experiment(
    workload_names: List[str],
    config: ExperimentConfig,
    profiler=None,
) -> ExperimentResult:
    """Build the machine + system + apps, run to completion, summarize.

    ``profiler`` (a :class:`repro.metrics.SimProfiler`) runs the engine
    under cProfile and folds its host time into per-layer seconds; the
    simulation runs the same code either way, so results never change.
    Open-loop traffic and the SLO loop run only under :func:`run_churn`,
    so a config carrying either is rejected here rather than ignored.
    """
    for field_name in ("traffic", "slo"):
        if getattr(config, field_name) is not None:
            raise ValueError(
                f"run_experiment cannot run config.{field_name}; use run_churn"
            )
    from repro.rdma.nic import DEFAULT_BANDWIDTH_BYTES_PER_US

    bandwidth = DEFAULT_BANDWIDTH_BYTES_PER_US * config.bandwidth_scale
    machine = Machine(
        seed=config.seed,
        telemetry_bin_us=config.telemetry_bin_us,
        read_bandwidth_bytes_per_us=bandwidth,
        write_bandwidth_bytes_per_us=bandwidth,
    )
    workloads = []
    for name in workload_names:
        workload = make_workload(name, scale=config.scale)
        for attr, value in config.workload_overrides.get(name, {}).items():
            if not hasattr(workload, attr):
                raise AttributeError(f"{name} workload has no attribute {attr!r}")
            setattr(workload, attr, value)
        workloads.append(workload)

    sizing = []
    total_remote = 0
    for workload in workloads:
        ws = workload.working_set_pages
        local_pages = max(64, int(ws * config.local_memory_fraction))
        headroom = max(160, int(ws * config.partition_headroom))
        remote_pages = max(256, ws - local_pages + headroom)
        total_remote += remote_pages
        sizing.append((workload, local_pages, remote_pages))

    system = _build_system(machine, config, total_remote)
    is_canvas = isinstance(system, CanvasSwapSystem)
    # The rack attaches before any app registers: Canvas adopts each
    # per-cgroup partition in _setup_app, and the linux-family shared
    # partition is adopted here.  It also precedes the tracer attach so
    # attach_tracer can propagate into the rack.
    rack = None
    if config.cluster is not None:
        rack = Rack(machine.engine, machine.nic, config.cluster, seed=config.seed)
        system.rack = rack
        shared_partition = getattr(system, "partition", None)
        if shared_partition is not None:
            rack.adopt(system, shared_partition, getattr(system, "allocator", None))
    # Fault plan attaches before any app registers: Canvas reads
    # ``system.fault_plan`` while provisioning per-cgroup resources.
    fault_plan = make_plan(config.fault_config, config.seed)
    if fault_plan is not None:
        machine.nic.fault_plan = fault_plan
        system.fault_plan = fault_plan
        if rack is not None:
            rack.schedule_plan(fault_plan)

    # The tracer attaches before any app registers so per-app structures
    # (LRU lists, allocators) pick it up as they are created.
    tracer = None
    if config.trace:
        tracer = TraceBuffer(machine.engine, capacity=config.trace_capacity)
        system.attach_tracer(tracer)

    apps: Dict[str, AppContext] = {}
    processes = []
    for workload, local_pages, remote_pages in sizing:
        cgroup = CgroupConfig(
            name=workload.name,
            n_cores=config.cores_for(workload),
            local_memory_pages=local_pages,
            swap_partition_pages=remote_pages if is_canvas else None,
            swap_cache_pages=max(
                96, int(local_pages * config.swap_cache_fraction)
            ),
            rdma_weight=config.rdma_weights.get(
                workload.name, float(remote_pages)
            ),
        )
        app = AppContext(machine.engine, cgroup)
        build_rng = machine.rng.child(workload.name).stream("build")
        workload.build(app, build_rng)
        system.register_app(app)
        # Resident fraction leaves kswapd headroom below the low watermark.
        resident_fraction = min(
            0.999 * local_pages / workload.working_set_pages * 0.85,
            1.0,
        )
        system.prepopulate(app, resident_fraction)
        stream_rng = machine.rng.child(workload.name).stream("streams")
        streams = workload.thread_batch_streams(app, stream_rng)
        processes.append(
            spawn_app(system, app, streams, cpu_flush_us=config.cpu_flush_us)
        )
        apps[workload.name] = app

    # The baseline swap cache is global and effectively unbounded (real
    # kernels bound it by memory pressure, which our per-app frame
    # charging plus forced shrinking models); only Canvas imposes
    # explicit per-cgroup budgets.  Cross-app interference appears in the
    # baseline when one app's pressure releases another app's cached
    # pages from the shared LRU.
    if not is_canvas:
        system.cache.capacity_pages = max(
            64, sum(app.pool.capacity_pages for app in apps.values())
        )

    if profiler is None:
        elapsed = run_to_completion(machine.engine, processes, limit_us=config.limit_us)
    else:
        elapsed = profiler.run(
            run_to_completion, machine.engine, processes, limit_us=config.limit_us
        )
        profiler.accesses += sum(app.stats.accesses for app in apps.values())
    return ExperimentResult(machine, system, apps, elapsed, trace=tracer, rack=rack)


def run_individual(
    workload_name: str, config: ExperimentConfig
) -> ExperimentResult:
    """Run one application alone (the paper's 'individual run')."""
    return run_experiment([workload_name], config)


# ----------------------------------------------------------------------
# Traffic-driven churn: sessions arrive, run, and unregister.
# ----------------------------------------------------------------------


class ChurnResult:
    """Everything a churn benchmark needs after a traffic-driven run.

    ``apps`` holds every session's :class:`AppContext` — the contexts
    outlive their unregistration (the system forgets them; the result
    keeps them), so per-session stats stay readable after teardown.
    """

    def __init__(
        self,
        machine: Machine,
        system: BaseSwapSystem,
        plan,
        apps: Dict[str, AppContext],
        elapsed_us: float,
        trace: Optional[TraceBuffer] = None,
        rack: Optional[Rack] = None,
        slo: Optional[SloController] = None,
    ):
        self.machine = machine
        self.system = system
        self.plan = plan
        self.apps = apps
        self.elapsed_us = elapsed_us
        self.trace = trace
        self.rack = rack
        self.rack_stats = rack.stats if rack is not None else None
        self.slo = slo
        self.slo_stats = slo.stats if slo is not None else None
        self.telemetry = machine.telemetry

    def digest(self) -> str:
        """Stable fingerprint of every simulated per-session outcome."""
        import hashlib

        payload = repr(
            [
                (
                    name,
                    app.stats.accesses,
                    app.stats.faults,
                    app.stats.swapouts,
                    app.started_at_us,
                    app.finished_at_us,
                )
                for name, app in sorted(self.apps.items())
            ]
            + [("elapsed", self.elapsed_us)]
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def _session_stream(plan, session: TrafficSession, vma, cpu_us: float):
    """One session's batched access stream, VMA-offset."""
    vpns, writes = plan.session_accesses(session)
    return emit_batches(vpns + vma.start_vpn, writes, cpu_us)


def run_churn(config: ExperimentConfig) -> ChurnResult:
    """Run one traffic-driven churn day: arrive → run → unregister.

    Every session is one single-core cgroup whose lifetime is one engine
    process: sleep until its seeded arrival, build + register + warm the
    cgroup, run its access stream, then tear the cgroup down through
    ``unregister_app``.  With every session departing, the end state
    must be leak-free — the churn invariant tests assert it on the live
    system this returns.
    """
    if config.traffic is None:
        raise ValueError("run_churn needs config.traffic (a TrafficConfig)")
    plan = make_traffic_plan(config.traffic, config.seed)
    traffic = config.traffic

    from repro.rdma.nic import DEFAULT_BANDWIDTH_BYTES_PER_US

    bandwidth = DEFAULT_BANDWIDTH_BYTES_PER_US * config.bandwidth_scale
    machine = Machine(
        seed=config.seed,
        telemetry_bin_us=config.telemetry_bin_us,
        read_bandwidth_bytes_per_us=bandwidth,
        write_bandwidth_bytes_per_us=bandwidth,
    )
    engine = machine.engine

    sizing = []
    total_remote = 0
    for session in plan.sessions:
        ws = session.working_set_pages
        local = session.local_memory_pages
        headroom = max(32, int(ws * config.partition_headroom))
        remote = max(64, ws - local + headroom)
        total_remote += remote
        sizing.append(remote)

    system = _build_system(machine, config, max(4096, total_remote))
    is_canvas = isinstance(system, CanvasSwapSystem)

    rack = None
    if config.cluster is not None:
        rack = Rack(engine, machine.nic, config.cluster, seed=config.seed)
        system.rack = rack
        shared_partition = getattr(system, "partition", None)
        if shared_partition is not None:
            rack.adopt(system, shared_partition, getattr(system, "allocator", None))
    fault_plan = make_plan(config.fault_config, config.seed)
    if fault_plan is not None:
        machine.nic.fault_plan = fault_plan
        system.fault_plan = fault_plan
        if rack is not None:
            rack.schedule_plan(fault_plan)

    tracer = None
    if config.trace:
        tracer = TraceBuffer(engine, capacity=config.trace_capacity)
        system.attach_tracer(tracer)

    slo = None
    if config.slo is not None:
        slo = SloController(engine, system, machine.telemetry, config.slo)

    # The baseline shared swap cache cannot follow per-app pool sums the
    # way the fixed-roster harness does (the population changes); size it
    # for the whole day's peak instead.
    if not is_canvas:
        system.cache.capacity_pages = max(
            256, sum(s.local_memory_pages for s in plan.sessions) // 4
        )

    apps: Dict[str, AppContext] = {}
    session_procs = []

    def session_lifecycle(session: TrafficSession, remote_pages: int):
        yield engine.sleep(session.arrive_us)
        cgroup = CgroupConfig(
            name=session.name,
            n_cores=1,
            local_memory_pages=session.local_memory_pages,
            swap_partition_pages=remote_pages if is_canvas else None,
            swap_cache_pages=max(
                16,
                int(session.local_memory_pages * config.swap_cache_fraction),
            ),
            rdma_weight=float(remote_pages),
        )
        app = AppContext(engine, cgroup)
        vma = app.space.map_region(session.working_set_pages, name="heap")
        system.register_app(app)
        apps[session.name] = app
        resident_fraction = min(
            0.999
            * session.local_memory_pages
            / session.working_set_pages
            * 0.85,
            1.0,
        )
        system.prepopulate(app, resident_fraction)
        stream = _session_stream(plan, session, vma, traffic.cpu_us_per_access)
        proc = spawn_app(system, app, [stream], cpu_flush_us=config.cpu_flush_us)
        yield proc
        yield from system.unregister_app(app)

    for session, remote_pages in zip(plan.sessions, sizing):
        session_procs.append(
            engine.spawn(
                session_lifecycle(session, remote_pages),
                name=f"{session.name}.lifecycle",
            )
        )

    elapsed = run_to_completion(engine, session_procs, limit_us=config.limit_us)
    return ChurnResult(
        machine,
        system,
        plan,
        apps,
        elapsed,
        trace=tracer,
        rack=rack,
        slo=slo,
    )


def churn_digest(config: ExperimentConfig) -> str:
    """Run one churn day and return only its digest (pickles trivially,
    so parallel determinism tests fan it out over worker processes)."""
    return run_churn(config).digest()
