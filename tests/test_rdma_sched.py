"""Unit tests for the two-dimensional RDMA scheduler (§5.3)."""

import pytest

from repro.core.rdma_sched import TwoDimensionalScheduler
from repro.kernel.telemetry import Telemetry
from repro.rdma import RNIC, RdmaOp, RdmaRequest, RequestKind
from repro.sim import Engine
from repro.swap import SwapPartition


def make_sched(engine=None, horizontal=True, **kwargs):
    engine = engine if engine is not None else Engine()
    nic = RNIC(engine)
    telemetry = Telemetry()
    nic.completion_hooks.append(telemetry.on_rdma_completion)
    sched = TwoDimensionalScheduler(
        engine, nic, telemetry=telemetry, horizontal=horizontal, **kwargs
    )
    return engine, nic, telemetry, sched


def make_request(part, app, kind=RequestKind.DEMAND, engine=None):
    op = RdmaOp.WRITE if kind is RequestKind.SWAPOUT else RdmaOp.READ
    req = RdmaRequest(op, kind, app, part.pop_free())
    if engine is not None:
        req.completion = engine.event()
    return req


def test_register_duplicate_rejected():
    engine, nic, telemetry, sched = make_sched()
    sched.register_app("a")
    with pytest.raises(ValueError):
        sched.register_app("a")


def test_register_invalid_weight():
    engine, nic, telemetry, sched = make_sched()
    with pytest.raises(ValueError):
        sched.register_app("a", weight=0)


def test_single_request_forwarded_and_completed():
    engine, nic, telemetry, sched = make_sched()
    sched.register_app("a")
    part = SwapPartition("p", 8)
    req = make_request(part, "a", engine=engine)
    sched.submit("a", req)
    engine.run(until=100)
    assert req.completed_at_us is not None
    assert sched.stats.demand_forwarded == 1


def test_demand_served_before_prefetch():
    engine, nic, telemetry, sched = make_sched()
    sched.register_app("a")
    part = SwapPartition("p", 64)
    prefetches = [
        make_request(part, "a", RequestKind.PREFETCH, engine) for _ in range(6)
    ]
    demand = make_request(part, "a", RequestKind.DEMAND, engine)
    for req in prefetches:
        sched.submit("a", req)
    sched.submit("a", demand)
    engine.run(until=1_000)
    # Demand overtakes all but the already-forwarded prefetches.
    earlier = [p for p in prefetches if p.issued_at_us < demand.issued_at_us]
    assert len(earlier) < len(prefetches)


def test_weighted_fair_sharing_across_apps():
    engine, nic, telemetry, sched = make_sched(read_window=4)
    sched.register_app("heavy", weight=3.0)
    sched.register_app("light", weight=1.0)
    part = SwapPartition("p", 4096)
    n = 300
    for _ in range(n):
        sched.submit("heavy", make_request(part, "heavy", engine=engine))
        sched.submit("light", make_request(part, "light", engine=engine))
    # Stop mid-backlog: service rates should track the 3:1 weights.
    engine.run(until=250.0)
    heavy = telemetry.read_bandwidth.totals.get("heavy", 0)
    light = telemetry.read_bandwidth.totals.get("light", 0)
    assert light > 0
    assert heavy / light == pytest.approx(3.0, rel=0.35)


def test_no_starvation_of_light_app():
    """A light app's request lands promptly despite a heavy backlog."""
    engine, nic, telemetry, sched = make_sched(read_window=4)
    sched.register_app("heavy", weight=10.0)
    sched.register_app("light", weight=1.0)
    part = SwapPartition("p", 4096)
    for _ in range(200):
        sched.submit("heavy", make_request(part, "heavy", engine=engine))
    engine.run(until=50.0)
    light_req = make_request(part, "light", engine=engine)
    sched.submit("light", light_req)
    engine.run(until=50_000)
    assert light_req.latency_us is not None
    assert light_req.latency_us < 100.0


def test_writes_scheduled_independently():
    engine, nic, telemetry, sched = make_sched()
    sched.register_app("a")
    part = SwapPartition("p", 16)
    write = make_request(part, "a", RequestKind.SWAPOUT, engine)
    read = make_request(part, "a", RequestKind.DEMAND, engine)
    sched.submit("a", write)
    sched.submit("a", read)
    engine.run(until=1_000)
    assert write.completed_at_us is not None
    assert read.completed_at_us is not None
    assert sched.stats.writes_forwarded == 1


def test_stale_prefetch_dropped_with_callback():
    dropped = []
    engine = Engine()
    nic = RNIC(engine)
    telemetry = Telemetry()
    sched = TwoDimensionalScheduler(
        engine,
        nic,
        telemetry=telemetry,
        horizontal=True,
        drop_callback=dropped.append,
        read_window=1,
    )
    sched.register_app("a", weight=1.0)
    state = sched._apps["a"]
    state.timeliness_floor_us = 10.0  # tight bound
    part = SwapPartition("p", 64)
    # Occupy the single window slot, then age a prefetch in the VQP.
    blocker = make_request(part, "a", RequestKind.DEMAND, engine)
    stale = make_request(part, "a", RequestKind.PREFETCH, engine)
    sched.submit("a", blocker)
    sched.submit("a", stale)
    engine.run(until=1_000)
    assert stale.dropped
    assert dropped == [stale]
    assert sched.stats.prefetches_dropped == 1


def test_horizontal_disabled_keeps_fifo_and_never_drops():
    engine, nic, telemetry, sched = make_sched(horizontal=False, read_window=1)
    sched.register_app("a")
    sched._apps["a"].timeliness_floor_us = 0.001
    part = SwapPartition("p", 64)
    prefetch = make_request(part, "a", RequestKind.PREFETCH, engine)
    demand = make_request(part, "a", RequestKind.DEMAND, engine)
    sched.submit("a", prefetch)
    sched.submit("a", demand)
    engine.run(until=1_000)
    assert not prefetch.dropped
    assert prefetch.issued_at_us < demand.issued_at_us  # FIFO order kept


def test_timeout_threshold_uses_timeliness_history():
    engine, nic, telemetry, sched = make_sched()
    sched.register_app("a")
    floor = sched.timeout_threshold_us("a")
    hist = telemetry.timeliness_hist("a")
    for _ in range(50):
        hist.record(500.0)
    assert sched.timeout_threshold_us("a") >= 500.0
    assert sched.timeout_threshold_us("a") >= floor


def test_timeout_threshold_is_capped():
    engine, nic, telemetry, sched = make_sched()
    sched.register_app("a")
    hist = telemetry.timeliness_hist("a")
    for _ in range(50):
        hist.record(50_000.0)  # pages that idled in the cache forever
    assert sched.timeout_threshold_us("a") <= sched.timeliness_ceiling_us


def test_service_ewma_updates_on_completion():
    engine, nic, telemetry, sched = make_sched()
    sched.register_app("a")
    initial = sched.estimated_service_us("a")
    part = SwapPartition("p", 8)
    req = make_request(part, "a", engine=engine)
    sched.submit("a", req)
    engine.run(until=1_000)
    assert sched.estimated_service_us("a") != initial


def test_dropped_after_forward_releases_window_slot():
    engine, nic, telemetry, sched = make_sched(read_window=1)
    sched.register_app("a")
    part = SwapPartition("p", 16)
    first = make_request(part, "a", RequestKind.PREFETCH, engine)
    sched.submit("a", first)
    # Mark dropped after it was forwarded to the NIC but (possibly)
    # before dispatch; the NIC's dropped hook must free the slot.
    first.dropped = True
    follow = make_request(part, "a", RequestKind.DEMAND, engine)
    sched.submit("a", follow)
    engine.run(until=1_000)
    assert follow.completed_at_us is not None


def test_prefetch_enqueued_at_time_zero_can_be_stale():
    engine, nic, telemetry, sched = make_sched()
    sched.register_app("a")
    engine.run(until=5_000)
    part = SwapPartition("p", 8)
    request = make_request(part, "a", RequestKind.PREFETCH, engine)
    request.enqueued_at_us = 0.0  # queued for 5 ms, far past the threshold
    assert sched._prefetch_is_stale("a", request)


def test_construction_starts_no_process():
    engine = Engine()
    nic = RNIC(engine)
    before = engine.pending_events
    TwoDimensionalScheduler(engine, nic)
    assert engine.pending_events == before


def test_demand_resubmitted_by_drop_callback_forwarded_by_same_pump():
    part = SwapPartition("p", 64)
    resubmitted = []

    def resubmit(dropped):
        demand = make_request(part, "a", RequestKind.DEMAND, engine)
        resubmitted.append(demand)
        sched.submit("a", demand)

    engine, nic, telemetry, sched = make_sched(
        read_window=2, drop_callback=resubmit
    )
    sched.register_app("a")
    sched._apps["a"].timeliness_floor_us = 10.0  # below the service estimate
    pumps = []
    pump = sched._pump_read

    def counted_pump():
        pumps.append(engine.now)
        pump()

    sched._pump_read = counted_pump
    stale = make_request(part, "a", RequestKind.PREFETCH, engine)
    sched.submit("a", make_request(part, "a", RequestKind.DEMAND, engine))
    sched.submit("a", stale)
    engine.run(until=0.0)
    assert stale.dropped and len(resubmitted) == 1
    assert pumps == [0.0]
    assert sched.stats.demand_forwarded == 2
