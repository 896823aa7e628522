"""Tests for the fault slow-path pooling machinery (PR 3).

The slow path recycles three kinds of objects — park/kick ``Event``s,
``_PooledTimeout`` sleeps, and ``RdmaRequest``s — and the NIC's
dispatch loop discards dropped requests without serving them.  These tests pin the invariants that make the reuse safe:

* a recycled event can never deliver a wakeup to its *previous* waiter,
* ``reset()`` refuses pending or undelivered events,
* ``grant()`` skips the empty dispatch step without reordering waiters,
* pooled timeouts are actually reused and fire at the right instants,
* pooled requests leave every queue before re-entering the pool and get
  a fresh ``request_id`` on reuse,
* the dropped-request path fires the NIC hooks, counts the skip, and
  recycles pooled requests.
"""

import pytest

from repro.rdma import RNIC, RdmaOp, RdmaRequest, RequestKind
from repro.rdma.vqp import VirtualQP
from repro.sim import Engine
from repro.sim.engine import SimulationError
from repro.swap import SwapPartition
from tests.conftest import FakeOwner, pooled_request


# -- Event reset / grant invariants -------------------------------------


def test_reset_of_pending_event_rejected():
    eng = Engine()
    event = eng.event("pending")
    with pytest.raises(SimulationError):
        event.reset()


def test_reset_with_undelivered_callbacks_rejected():
    eng = Engine()
    event = eng.event("undelivered")
    event.add_callback(lambda e: None)
    event.succeed()
    # Fired but its dispatch has not run yet: resetting now would
    # silently drop the waiter.
    with pytest.raises(SimulationError):
        event.reset()


def test_reset_bumps_generation_and_allows_reuse():
    eng = Engine()
    event = eng.event("park")
    event.succeed()
    eng.run()
    gen = event.generation
    event.reset()
    assert event.generation == gen + 1
    assert not event.fired
    event.succeed()  # reusable after reset
    eng.run()
    assert event.fired


def test_grant_rejects_fired_and_subscribed_events():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.event().grant().grant()
    subscribed = eng.event()
    subscribed.add_callback(lambda e: None)
    with pytest.raises(SimulationError):
        subscribed.grant()


def test_granted_event_delivers_to_late_subscribers_in_fifo_order():
    eng = Engine()
    order = []

    def waiter(tag):
        yield eng.granted
        order.append(tag)

    eng.spawn(waiter("a"))
    eng.spawn(waiter("b"))
    eng.run()
    assert order == ["a", "b"]
    assert eng.now == 0.0


def test_recycled_event_never_wakes_previous_waiter():
    """The core pool invariant: after a park/kick round trip and reset,
    firing the event again resumes only the *new* waiter."""
    eng = Engine()
    park = eng.event("park")
    resumed = []

    def first():
        yield park
        park.reset()
        resumed.append("first")

    def second():
        # Runs after first() has consumed the first kick.
        yield eng.sleep(5.0)
        yield park
        resumed.append("second")

    eng.spawn(first())
    eng.spawn(second())
    park.succeed()
    eng.run(until=4.0)
    assert resumed == ["first"]
    eng.run(until=10.0)
    park.succeed()
    eng.run(until=20.0)
    assert resumed == ["first", "second"]


# -- Pooled timeout recycling -------------------------------------------


def test_sleep_recycles_timeout_objects():
    eng = Engine()
    seen = []

    def sleeper():
        for _ in range(3):
            timeout = eng.sleep(1.0)
            seen.append(id(timeout))
            yield timeout

    eng.spawn(sleeper())
    eng.run()
    assert eng.now == 3.0
    # A timeout re-enters the pool only after its waiter has resumed (the
    # resumption itself issues the next sleep), so one sleeping process
    # alternates between two pooled objects: the third sleep reuses the
    # first's.
    assert len(set(seen)) == 2
    assert seen[2] == seen[0]
    assert len(eng._timeout_pool) == 2


def test_pooled_sleep_wakes_at_exact_instants():
    eng = Engine()
    wakes = []

    def sleeper(delay, n):
        for _ in range(n):
            yield eng.sleep(delay)
            wakes.append((delay, eng.now))

    eng.spawn(sleeper(1.5, 2))
    eng.spawn(sleeper(2.0, 2))
    eng.run()
    assert wakes == [(1.5, 1.5), (2.0, 2.0), (1.5, 3.0), (2.0, 4.0)]


def test_pooled_sleep_rejects_negative_delay():
    eng = Engine()

    def sleeper():
        yield eng.sleep(1.0)  # seed the pool
        yield eng.sleep(-1.0)

    eng.spawn(sleeper())
    with pytest.raises(SimulationError):
        eng.run()


# -- RdmaRequest pooling -------------------------------------------------


def test_completed_request_returns_to_owner_pool():
    eng = Engine()
    nic = RNIC(eng)
    qp = nic.create_qp("q", RdmaOp.READ)
    part = SwapPartition("p", 8)
    owner = FakeOwner()
    request = pooled_request(eng, part, owner)
    first_id = request.request_id
    nic.submit(qp, request)
    eng.run()
    # Completion was dispatched through the bound request, then the
    # request re-entered the pool with its references cleared.
    assert owner.completed == [(first_id, RdmaOp.READ)]
    assert owner._request_pool == [request]
    assert request.entry is None and request.page is None
    assert not request.completion.fired  # reset, ready for reuse
    request.reuse(RdmaOp.READ, RequestKind.PREFETCH, "a", part.pop_free(), None)
    assert request.request_id != first_id  # stale-drop bookkeeping keys on id
    assert not request.dropped


def test_dropped_request_recycled_without_completion():
    eng = Engine()
    nic = RNIC(eng)
    qp = nic.create_qp("q", RdmaOp.READ)
    part = SwapPartition("p", 8)
    owner = FakeOwner()
    skipped = []
    nic.dropped_hooks.append(skipped.append)
    dropped = pooled_request(eng, part, owner, kind=RequestKind.PREFETCH)
    live = pooled_request(eng, part, owner)
    nic.submit(qp, dropped)
    nic.submit(qp, live)
    dropped.dropped = True
    eng.run()
    assert nic.stats.dropped_skipped == 1
    assert skipped == [dropped]
    # The dropped request never completed but was still recycled; the
    # live one completed and followed.
    assert owner.completed == [(live.request_id, RdmaOp.READ)]
    assert set(owner._request_pool) == {dropped, live}
    assert nic.stats.reads_completed == 1


def test_vqp_pop_recycles_dropped_pooled_requests():
    eng = Engine()
    part = SwapPartition("p", 8)
    owner = FakeOwner()
    vqp = VirtualQP(eng, "a")
    dropped = pooled_request(eng, part, owner, kind=RequestKind.PREFETCH)
    live = pooled_request(eng, part, owner, kind=RequestKind.PREFETCH)
    vqp.push(dropped)
    vqp.push(live)
    dropped.dropped = True
    assert vqp.pop(RequestKind.PREFETCH) is live
    assert vqp.dropped_total == 1
    eng.run()  # drain the immediate lane carrying the recycle
    assert owner._request_pool == [dropped]


def test_per_kind_completion_counters():
    eng = Engine()
    nic = RNIC(eng)
    read_qp = nic.create_qp("r", RdmaOp.READ)
    write_qp = nic.create_qp("w", RdmaOp.WRITE)
    part = SwapPartition("p", 16)

    def req(kind):
        op = RdmaOp.WRITE if kind is RequestKind.SWAPOUT else RdmaOp.READ
        return RdmaRequest(op, kind, "a", part.pop_free(), completion=eng.event())

    for kind, qp, n in [
        (RequestKind.DEMAND, read_qp, 3),
        (RequestKind.PREFETCH, read_qp, 2),
        (RequestKind.SWAPOUT, write_qp, 1),
    ]:
        for _ in range(n):
            nic.submit(qp, req(kind))
    eng.run()
    assert nic.stats.demand_completed == 3
    assert nic.stats.prefetch_completed == 2
    assert nic.stats.swapout_completed == 1
    assert nic.stats.reads_completed == 5
    assert nic.stats.writes_completed == 1


# -- Drop-skip at dispatch ----------------------------------------------


def test_dropped_queued_request_is_skipped_unserved():
    eng = Engine()
    nic = RNIC(eng)
    qp = nic.create_qp("q", RdmaOp.READ)
    part = SwapPartition("p", 32)
    owner = FakeOwner()
    requests = [pooled_request(eng, part, owner) for _ in range(4)]
    for request in requests:
        nic.submit(qp, request)
    requests[2].dropped = True  # marked while queued, before dispatch
    eng.run()
    # The dropped member was peeled off by the drop-skip path, never
    # served; the rest completed and everything was recycled.
    assert nic.stats.dropped_skipped == 1
    assert nic.stats.reads_completed == 3
    assert requests[2].completed_at_us is None
    assert set(owner._request_pool) == set(requests)


def test_request_dropped_behind_one_in_service_is_skipped():
    """A drop mark that lands while the request waits behind a transfer
    already on the wire is honoured when the request reaches the head:
    the NIC serves one transfer per step and reads the mark then."""
    eng = Engine()
    nic = RNIC(eng)
    qp = nic.create_qp("q", RdmaOp.READ)
    part = SwapPartition("p", 32)
    owner = FakeOwner()
    requests = [pooled_request(eng, part, owner) for _ in range(4)]
    for request in requests:
        nic.submit(qp, request)
    eng.run(until=0.5)  # the first transfer is in service
    assert requests[0].issued_at_us == 0.0
    assert requests[2].issued_at_us is None
    requests[2].dropped = True
    eng.run()
    assert nic.stats.dropped_skipped == 1
    assert nic.stats.reads_completed == 3
    assert len(owner.completed) == 3
    assert requests[2].issued_at_us is None
    assert requests[2].completed_at_us is None
    assert set(owner._request_pool) == set(requests)
