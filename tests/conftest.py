"""Shared test fixtures/helpers: machine and co-run construction.

The swap-system suites all build the same shapes — a ``Machine``, a
system with one or two small apps, sequential access streams, pooled
requests with a fake owner — so the constructors live here once.  They
are plain helpers (importable via ``from tests.conftest import ...``),
not pytest fixtures: most tests want to parameterize the construction
per call, which fixtures make awkward.
"""

from repro.core import CanvasSwapSystem
from repro.kernel import AppContext, CgroupConfig, LinuxSwapSystem, SwapSystemConfig
from repro.kernel.swap_system import BaseSwapSystem
from repro.rdma import RdmaOp, RdmaRequest, RequestKind

__all__ = [
    "build_canvas",
    "seq_stream",
    "build_system",
    "sequential_accesses",
    "FakeOwner",
    "pooled_request",
    "record_group_sizes",
]


def build_canvas(machine, canvas_config=None, apps_spec=None):
    """A Canvas system plus small apps: ``(name, total, local, cores)``."""
    system = CanvasSwapSystem(
        machine.engine,
        machine.nic,
        telemetry=machine.telemetry,
        canvas_config=canvas_config,
    )
    apps = {}
    for name, total_pages, local_pages, n_cores in apps_spec or [
        ("a", 1024, 256, 4)
    ]:
        app = AppContext(
            machine.engine,
            CgroupConfig(
                name=name,
                n_cores=n_cores,
                local_memory_pages=local_pages,
                swap_partition_pages=int((total_pages - local_pages) * 1.3),
                swap_cache_pages=max(64, local_pages // 8),
            ),
        )
        app.space.map_region(total_pages, name="heap")
        system.register_app(app)
        system.prepopulate(app, resident_fraction=local_pages / total_pages * 0.8)
        apps[name] = app
    return system, apps


def seq_stream(app, n, write=False, cpu=0.05):
    """Sequential accesses cycling over an app's whole address space."""
    vpns = sorted(app.space.pages)
    for i in range(n):
        yield (vpns[i % len(vpns)], write, cpu)


def build_system(
    machine,
    local_pages=256,
    total_pages=1024,
    partition_pages=4096,
    prefetcher=None,
    cache_pages=64,
    n_cores=4,
    flat_state=False,
):
    """A Linux-baseline system with one app; returns (system, app, vma)."""
    config = SwapSystemConfig(shared_cache_pages=cache_pages)
    system = LinuxSwapSystem(
        machine.engine,
        machine.nic,
        partition_pages=partition_pages,
        prefetcher=prefetcher,
        telemetry=machine.telemetry,
        config=config,
    )
    app = AppContext(
        machine.engine,
        CgroupConfig(name="app", n_cores=n_cores, local_memory_pages=local_pages),
        flat_state=flat_state,
    )
    vma = app.space.map_region(total_pages, name="heap")
    system.register_app(app)
    system.prepopulate(app, resident_fraction=local_pages / total_pages * 0.8)
    return system, app, vma


def sequential_accesses(vma, n, write=False, cpu_us=0.05):
    """Sequential accesses cycling over one VMA."""
    for i in range(n):
        yield (vma.start_vpn + (i % vma.n_pages), write, cpu_us)


class FakeOwner:
    """Minimal stand-in for a swap system that pools its requests."""

    def __init__(self):
        self._request_pool = []
        self.completed = []

    def _request_completed(self, request):
        self.completed.append((request.request_id, request.op))


def pooled_request(eng, part, owner, kind=RequestKind.DEMAND):
    """A pool-participating request ready for submission to a NIC/VQP."""
    op = RdmaOp.WRITE if kind is RequestKind.SWAPOUT else RdmaOp.READ
    request = RdmaRequest(op, kind, "a", part.pop_free(), completion=eng.event())
    request.owner = owner
    request.completion.add_callback(request)
    return request


def record_group_sizes(monkeypatch):
    """Record the size of every fault group and every kswapd reclaim batch.

    Wraps ``handle_fault_group`` and ``_evict_many`` for the rest of the
    test; returns ``{"fault": [members, ...], "reclaim": [evicted, ...]}``,
    appended as each group or batch finishes.
    """
    sizes = {"fault": [], "reclaim": []}
    group = BaseSwapSystem.handle_fault_group
    evict_many = BaseSwapSystem._evict_many

    def recording_group(self, app, thread_id, batch, index, pending_cpu):
        end = yield from group(self, app, thread_id, batch, index, pending_cpu)
        sizes["fault"].append(end - index)
        return end

    def recording_evict_many(self, app, core_id, n):
        evicted = yield from evict_many(self, app, core_id, n)
        sizes["reclaim"].append(evicted)
        return evicted

    monkeypatch.setattr(BaseSwapSystem, "handle_fault_group", recording_group)
    monkeypatch.setattr(BaseSwapSystem, "_evict_many", recording_evict_many)
    return sizes
