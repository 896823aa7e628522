"""Shared test fixtures/helpers: machine and co-run construction.

The swap-system suites all build the same shapes — a ``Machine``, a
system with one or two small apps, sequential access streams, pooled
requests with a fake owner — so the constructors live here once.  They
are plain helpers (importable via ``from tests.conftest import ...``),
not pytest fixtures: most tests want to parameterize the construction
per call, which fixtures make awkward.

Everything they build is the production path: apps age pages on the
generation-stamp LRU, and the stream helpers yield ``AccessBatch``
chunks, the form ``spawn_app`` drives.
"""

from repro.core import CanvasSwapSystem
from repro.kernel import AppContext, CgroupConfig, LinuxSwapSystem, SwapSystemConfig
from repro.kernel.swap_system import BaseSwapSystem
from repro.mem import AddressSpace
from repro.rdma import RdmaOp, RdmaRequest, RequestKind
from repro.workloads.batch import chunk_stream

__all__ = [
    "mapped_pages",
    "build_canvas",
    "build_shared_corun",
    "seq_stream",
    "build_system",
    "sequential_accesses",
    "FakeOwner",
    "pooled_request",
    "record_group_sizes",
]


def mapped_pages(n, space="app"):
    """``n`` fresh pages mapped by ``map_region``, the only way a page
    is built: their flag bits live in the space's flat arrays.

    ``space`` is an ``AddressSpace`` to map into, or the name of a
    fresh one.
    """
    if isinstance(space, str):
        space = AddressSpace(space)
    vma = space.map_region(n)
    return [space.pages[vpn] for vpn in vma.vpns()]


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
    """Sequential accesses cycling over an app's whole address space,
    batched."""
    vpns = sorted(app.space.pages)
    return chunk_stream((vpns[i % len(vpns)], write, cpu) for i in range(n))


def build_system(
    machine,
    local_pages=256,
    total_pages=1024,
    partition_pages=4096,
    prefetcher=None,
    cache_pages=64,
    n_cores=4,
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
    )
    vma = app.space.map_region(total_pages, name="heap")
    system.register_app(app)
    system.prepopulate(app, resident_fraction=local_pages / total_pages * 0.8)
    return system, app, vma


def build_shared_corun(machine, system="linux", shared=True, touch_shared=True):
    """Two small apps, ``a`` and ``b``, under memory pressure.

    Each maps a 384-page heap.  ``a`` also maps a 96-page region which
    ``b`` maps shared when ``shared`` is set (the §4 shared-page path).
    Returns ``(system, apps, streams)``: per app, one batched stream of
    3,000 accesses, a third of them writes.  With ``touch_shared`` every
    app that maps the region interleaves it with its heap; otherwise
    the streams stay on the heaps.
    """
    engine = machine.engine
    if system == "canvas":
        swap = CanvasSwapSystem(engine, machine.nic, telemetry=machine.telemetry)
    else:
        swap = LinuxSwapSystem(
            engine,
            machine.nic,
            partition_pages=4096,
            telemetry=machine.telemetry,
            config=SwapSystemConfig(shared_cache_pages=64),
        )
    apps = {}
    heaps = {}
    for name in ("a", "b"):
        app = AppContext(
            engine,
            CgroupConfig(
                name=name,
                n_cores=2,
                local_memory_pages=160,
                swap_partition_pages=1024,
                swap_cache_pages=64,
            ),
        )
        heaps[name] = app.space.map_region(384, name="heap")
        apps[name] = app
    region = apps["a"].space.map_region(96, name="shm")
    if shared:
        apps["b"].space.map_shared_from(apps["a"].space, region)
    for app in apps.values():
        swap.register_app(app)
    for app in apps.values():
        swap.prepopulate(app, resident_fraction=0.3)

    def accesses(name, offset):
        heap = heaps[name]
        touch = touch_shared and (shared or name == "a")
        for i in range(3000):
            if touch and i % 2:
                vpn = region.start_vpn + (offset + i) % region.n_pages
            else:
                vpn = heap.start_vpn + (offset + i) % heap.n_pages
            yield (vpn, i % 3 == 0, 0.05)

    streams = {
        name: chunk_stream(accesses(name, offset))
        for offset, name in enumerate(apps)
    }
    return swap, apps, streams


def sequential_accesses(vma, n, write=False, cpu_us=0.05):
    """Sequential accesses cycling over one VMA, batched."""
    return chunk_stream(
        (vma.start_vpn + (i % vma.n_pages), write, cpu_us) for i in range(n)
    )


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
