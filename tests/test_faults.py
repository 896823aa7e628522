"""Chaos suite for the deterministic fault-injection subsystem (PR 4).

Three layers:

* **NIC unit tests** — scripted verdicts (``roll_script``) and explicit
  fault windows drive exact drop/retransmit/error-CQE sequences through
  a bare RNIC, pinning the retry/backoff arithmetic, the stats
  reconciliation identity, and the zero-plan bit-identity guarantee.
* **Kernel recovery tests** — error CQEs delivered into a live swap
  system: demand reads are retried invisibly, prefetches are cancelled
  and fully unwound, writebacks are reissued.
* **Chaos + determinism tests** — a faulted co-run completes with no
  leaked pooled requests, no stuck waiters, and every injected fault
  resolved; fixed seed + plan gives identical digests serially and
  across parallel workers; a zero plan is bit-identical to no plan on
  every system (the A/B digest guard).  Scenario runs reproduce their
  committed golden digests (``tests/golden``).
"""

import pytest

from repro.cluster import ClusterConfig
from repro.faults import (
    FAULT_DROP,
    FAULT_ERROR,
    FaultConfig,
    FaultPlan,
    RACK_SCENARIOS,
    SCENARIOS,
    make_plan,
    rack_scenario_config,
    scenario_config,
)
from repro.harness.driver import run_to_completion, spawn_app
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.machine import Machine
from repro.harness.parallel import run_experiments_parallel
from repro.harness.results import result_digest
from repro.rdma import RNIC, RdmaOp
from repro.sim import Engine
from repro.swap import SwapPartition
from tests.conftest import (
    FakeOwner,
    build_canvas,
    build_system,
    pooled_request,
    record_group_sizes,
    seq_stream,
    sequential_accesses,
)
from tests.golden import golden
from tests.golden.matrix import faulted_run, rack_run, scenario_key, system_key


def _reconciled(stats) -> bool:
    """Every injected transport fault was retransmitted or surfaced."""
    return (
        stats.wire_drops + stats.completion_errors
        == stats.retransmits + stats.transport_failures
    )


def _run_single(plan=None, config=None):
    """One pooled READ through a bare RNIC; returns (eng, nic, owner, req)."""
    eng = Engine()
    nic = RNIC(eng)
    if plan is None and config is not None:
        plan = FaultPlan(config, seed=0)
    if plan is not None:
        nic.fault_plan = plan
    qp = nic.create_qp("q", RdmaOp.READ)
    part = SwapPartition("p", 8)
    owner = FakeOwner()
    request = pooled_request(eng, part, owner)
    nic.submit(qp, request)
    eng.run()
    return eng, nic, owner, request


# -- FaultPlan schedule determinism -------------------------------------


def test_zero_plan_rolls_nothing():
    plan = FaultPlan(FaultConfig(), seed=3)
    assert not plan.config.any_faults
    assert plan.flap_windows == ()
    assert plan.degrade_windows == ()
    assert plan.server_windows == ()


def test_rto_backoff_doubles_and_caps():
    plan = FaultPlan(FaultConfig(), seed=0)
    assert plan.rto_us(1) == 150.0
    assert plan.rto_us(2) == 300.0
    assert plan.rto_us(3) == 600.0
    assert plan.rto_us(7) == 5_000.0  # capped


def test_window_placement_is_a_pure_function_of_seed():
    config = FaultConfig(n_flaps=2, n_degrade_windows=1, n_server_slowdowns=1)
    a, b = FaultPlan(config, seed=7), FaultPlan(config, seed=7)
    assert a.flap_windows == b.flap_windows
    assert a.degrade_windows == b.degrade_windows
    assert a.server_windows == b.server_windows
    other = FaultPlan(config, seed=8)
    assert other.flap_windows != a.flap_windows


def test_explicit_windows_override_placement():
    plan = FaultPlan(
        FaultConfig(
            flap_windows=((100.0, 50.0),),
            degrade_windows=((200.0, 100.0, 0.25),),
            server_windows=((400.0, 10.0),),
        ),
        seed=0,
    )
    assert plan.flap_windows == ((100.0, 150.0),)
    assert plan.degrade_windows == ((200.0, 300.0, 0.25),)
    assert plan.link_down_until(120.0) == 150.0
    assert plan.link_down_until(150.0) == 150.0  # boundary: link is back
    assert plan.bandwidth_scale(250.0) == 0.25
    assert plan.bandwidth_scale(300.0) == 1.0
    assert plan.server_delay_us(405.0) == plan.config.server_delay_us
    assert plan.registration_slowdown(405.0) == 4.0
    # Explicit windows given out of start order are still all honoured.
    unsorted = FaultPlan(
        FaultConfig(
            flap_windows=((500.0, 100.0), (100.0, 50.0)),
            degrade_windows=((800.0, 100.0, 0.5), (200.0, 100.0, 0.25)),
            server_windows=((900.0, 10.0), (400.0, 10.0)),
        ),
        seed=0,
    )
    assert unsorted.flap_windows == ((100.0, 150.0), (500.0, 600.0))
    assert unsorted.link_down_until(120.0) == 150.0
    assert unsorted.link_down_until(550.0) == 600.0
    assert unsorted.bandwidth_scale(250.0) == 0.25
    assert unsorted.bandwidth_scale(850.0) == 0.5
    assert unsorted.server_delay_us(405.0) == unsorted.config.server_delay_us
    assert unsorted.server_delay_us(905.0) == unsorted.config.server_delay_us


def test_scenario_lookup():
    assert scenario_config("degraded") is SCENARIOS["degraded"]
    with pytest.raises(ValueError):
        scenario_config("nope")
    assert make_plan(None) is None
    assert isinstance(make_plan(FaultConfig()), FaultPlan)


# -- NIC transport faults ------------------------------------------------


def test_scripted_drop_is_retransmitted_and_completes():
    plan = FaultPlan(FaultConfig(roll_script=(FAULT_DROP,)), seed=0)
    eng, nic, owner, request = _run_single(plan)
    assert len(owner.completed) == 1
    assert owner._request_pool == [request]
    stats = nic.stats
    assert stats.wire_drops == 1
    assert stats.retransmits == 1
    assert stats.transport_failures == 0
    assert stats.reads_completed == 1
    assert _reconciled(stats)
    # The RTO backoff wait was charged to the request's retry stall.
    base_eng, *_ = _run_single()
    assert eng.now > base_eng.now


def test_completion_error_is_retried_sooner_than_a_drop():
    error_eng, error_nic, _, _ = _run_single(
        FaultPlan(FaultConfig(roll_script=(FAULT_ERROR,)), seed=0)
    )
    drop_eng, *_ = _run_single(
        FaultPlan(FaultConfig(roll_script=(FAULT_DROP,)), seed=0)
    )
    assert error_nic.stats.completion_errors == 1
    assert error_nic.stats.retransmits == 1
    # Error CQE is detected at completion and retried after a fraction
    # of the RTO; a silent drop must wait out the whole timeout.
    assert error_eng.now < drop_eng.now


def test_retry_budget_exhausted_surfaces_error_cqe():
    plan = FaultPlan(
        FaultConfig(drop_prob=1.0, transport_retry_limit=2,
                    retransmit_timeout_us=10.0),
        seed=0,
    )
    eng = Engine()
    nic = RNIC(eng)
    nic.fault_plan = plan
    errors = []
    nic.completion_hooks.append(lambda r: errors.append(r.error))
    qp = nic.create_qp("q", RdmaOp.READ)
    part = SwapPartition("p", 8)
    owner = FakeOwner()
    request = pooled_request(eng, part, owner)
    nic.submit(qp, request)
    eng.run()
    stats = nic.stats
    assert stats.wire_drops == 3  # initial + 2 retransmits, all dropped
    assert stats.retransmits == 2
    assert stats.transport_failures == 1
    assert stats.error_cqes_delivered == 1
    assert _reconciled(stats)
    # The error CQE still completed the request: hooks saw the flag, the
    # owner got the completion, the pooled request was recycled, and no
    # data counters moved.
    assert errors == [True]
    assert len(owner.completed) == 1
    assert owner._request_pool == [request]
    assert stats.reads_completed == 0
    assert stats.read_bytes == 0


def test_flap_window_stalls_dispatch_and_is_accounted():
    plan = FaultPlan(FaultConfig(flap_windows=((0.0, 100.0),)), seed=0)
    eng, nic, owner, _ = _run_single(plan)
    base_eng, *_ = _run_single()
    assert nic.stats.flap_stall_us == pytest.approx(100.0)
    assert eng.now == pytest.approx(base_eng.now + 100.0)
    assert len(owner.completed) == 1


def test_degrade_window_slows_the_wire():
    plan = FaultPlan(
        FaultConfig(degrade_windows=((0.0, 1e9, 0.5),)), seed=0
    )
    eng, nic, _, _ = _run_single(plan)
    base_eng, *_ = _run_single()
    assert nic.stats.degraded_transfers == 1
    assert eng.now > base_eng.now


def test_server_window_delays_completions():
    plan = FaultPlan(
        FaultConfig(server_windows=((0.0, 1e9),), server_delay_us=25.0), seed=0
    )
    eng, nic, _, _ = _run_single(plan)
    base_eng, *_ = _run_single()
    assert nic.stats.server_delayed == 1
    assert eng.now == pytest.approx(base_eng.now + 25.0)


def test_zero_plan_is_timing_identical_to_no_plan():
    base_eng, *_ = _run_single()
    zero_eng, zero_nic, _, _ = _run_single(FaultPlan(FaultConfig(), seed=0))
    assert zero_eng.now == base_eng.now  # exact float identity
    stats = zero_nic.stats
    assert stats.wire_drops == 0
    assert stats.flap_stall_us == 0.0
    assert stats.degraded_transfers == 0
    assert stats.server_delayed == 0


def test_read_fault_scoping_skips_writes():
    plan = FaultPlan(
        FaultConfig(roll_script=(FAULT_DROP,), write_faults=False), seed=0
    )
    eng = Engine()
    nic = RNIC(eng)
    nic.fault_plan = plan
    qp = nic.create_qp("w", RdmaOp.WRITE)
    part = SwapPartition("p", 8)
    owner = FakeOwner()
    from repro.rdma import RequestKind

    request = pooled_request(eng, part, owner, kind=RequestKind.SWAPOUT)
    nic.submit(qp, request)
    eng.run()
    # The write never consumed the script: no fault, clean completion.
    assert nic.stats.wire_drops == 0
    assert nic.stats.writes_completed == 1
    assert plan.rolls == 0


# -- Kernel-side error-CQE recovery --------------------------------------


def _scripted_error_plan(**overrides):
    """A plan whose first in-scope transfer fails straight to an error CQE."""
    return FaultPlan(
        FaultConfig(
            roll_script=(FAULT_ERROR,), transport_retry_limit=0, **overrides
        ),
        seed=0,
    )


def _attach(machine, system, plan):
    machine.nic.fault_plan = plan
    system.fault_plan = plan


def test_demand_read_error_is_retried_invisibly():
    machine = Machine(seed=1)
    system, app, vma = build_system(machine)
    _attach(machine, system, _scripted_error_plan())
    cold_vpn = vma.end_vpn - 1
    page = app.space.page(cold_vpn)
    assert not page.resident

    def proc():
        yield from system.handle_fault(app, 0, cold_vpn, False)

    machine.engine.spawn(proc())
    machine.engine.run(until=100_000)
    # The first read died with an error CQE; the kernel reissued it and
    # the faulting thread saw nothing but added stall.
    assert page.resident
    assert app.stats.error_cqes == 1
    assert app.stats.demand_retries == 1
    assert app.stats.demand_swapins == 1
    assert system._inflight == {}
    assert system._inflight_req == {}


def test_prefetch_error_is_cancelled_and_unwound():
    machine = Machine(seed=1)
    system, app, vma = build_system(machine)
    _attach(machine, system, _scripted_error_plan())
    cold_vpn = vma.end_vpn - 1
    page = app.space.page(cold_vpn)
    frames_before = app.pool.used
    assert system.issue_prefetch_vpns(app, [cold_vpn]) == 1
    machine.engine.run(until=100_000)
    # Cancelled: the speculative read is shed entirely and every piece
    # of its state is unwound.
    assert app.stats.prefetches_cancelled == 1
    assert not page.resident
    assert not page.locked
    assert not page.in_swap_cache
    assert app.pool.used == frames_before
    assert system._inflight == {}
    assert system._inflight_req == {}
    # A later demand fault (script exhausted, fabric healthy) recovers.

    def proc():
        yield from system.handle_fault(app, 0, cold_vpn, False)

    machine.engine.spawn(proc())
    machine.engine.run(until=200_000)
    assert page.resident


def test_writeback_error_is_reissued():
    machine = Machine(seed=1)
    system, app, vma = build_system(machine)
    _attach(machine, system, _scripted_error_plan(read_faults=False))
    proc = spawn_app(system, app, [sequential_accesses(vma, 3000, write=True)])
    run_to_completion(machine.engine, [proc])
    assert app.finished_at_us is not None
    # The scripted error hit the first swap-out; it was reissued and the
    # logical writeback stayed outstanding until the reissue landed.
    assert app.stats.error_cqes == 1
    assert app.stats.writeback_retries == 1
    assert all(a.outstanding_writebacks == 0 for a in system.apps.values())
    assert system._inflight == {}
    assert system._inflight_req == {}


# -- Chaos co-run: no leaks, no stuck waiters ----------------------------


def test_chaos_corun_completes_without_leaks():
    machine = Machine(seed=3)
    system, apps = build_canvas(
        machine, apps_spec=[("a", 512, 128, 2), ("b", 512, 128, 2)]
    )
    plan = FaultPlan(
        FaultConfig(
            drop_prob=0.02,
            completion_error_prob=0.01,
            retransmit_timeout_us=50.0,
            flap_windows=((5_000.0, 1_000.0),),
            degrade_windows=((10_000.0, 20_000.0, 0.5),),
            server_windows=((15_000.0, 20_000.0),),
        ),
        seed=3,
    )
    _attach(machine, system, plan)
    procs = [
        spawn_app(system, app, [seq_stream(app, 2000, write=True)])
        for app in apps.values()
    ]
    run_to_completion(machine.engine, procs)
    # The apps are done but late prefetches may still be in flight (some
    # mid-retransmission); give the fabric time to resolve every one.
    machine.engine.run(until=machine.engine.now + 200_000)
    stats = machine.nic.stats
    # Faults actually fired, and every one was eventually resolved
    # (retransmitted to success) or surfaced (error CQE to the kernel).
    assert plan.rolls > 0
    assert stats.retransmits > 0
    assert stats.wire_drops == plan.verdicts[FAULT_DROP]
    assert stats.completion_errors == plan.verdicts[FAULT_ERROR]
    assert _reconciled(stats)
    assert stats.error_cqes_delivered == stats.transport_failures
    for app in apps.values():
        assert app.finished_at_us is not None
    # Nothing in flight, nothing parked, nothing half-recycled.
    assert system._inflight == {}
    assert system._inflight_req == {}
    assert all(a.outstanding_writebacks == 0 for a in system.apps.values())
    for request in system._request_pool:
        assert request._in_pool
        assert request.entry is None and request.page is None
        assert not request.completion.fired
    # Retry stalls were attributed to the cgroups that suffered them.
    if stats.retransmits:
        assert sum(a.stats.retry_stall_us for a in apps.values()) > 0.0


# -- Determinism and digest guards ---------------------------------------

_AB_SYSTEMS = ["linux", "linux514", "fastswap", "infiniswap", "canvas-iso", "canvas"]


def _digest(system, fault_config, seed=11):
    config = ExperimentConfig(
        system=system, scale=0.03, seed=seed, fault_config=fault_config
    )
    return result_digest(run_experiment(["memcached"], config))


def test_same_seed_and_plan_give_identical_digests():
    fault_config = SCENARIOS["degraded"]
    assert _digest("canvas", fault_config) == _digest("canvas", fault_config)


def test_faulted_digests_stable_across_parallel_workers():
    config = ExperimentConfig(
        system="canvas", scale=0.03, seed=11, fault_config=SCENARIOS["degraded"]
    )
    serial = result_digest(run_experiment(["memcached"], config))
    jobs = [(["memcached"], config), (["memcached"], config)]
    results = run_experiments_parallel(jobs, max_workers=2)
    assert [result_digest(r) for r in results] == [serial, serial]


@pytest.mark.parametrize("system", _AB_SYSTEMS)
def test_zero_fault_config_is_bit_identical_to_no_plan(system):
    """The A/B guard: a disabled plan must not perturb any system's run."""
    assert _digest(system, None) == _digest(system, FaultConfig())


# -- Grouped fault admission under chaos ---------------------------------


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_grouped_admission_survives_every_fault_scenario(scenario):
    """Coalesced admission under chaos: per-request verdicts still roll
    inside a group, and the run reproduces its golden digest."""
    result = faulted_run("canvas", scenario_config(scenario))
    # (a) the committed digest: drops/errors/retries resolving inside
    # fault groups move no simulated number.
    assert result_digest(result) == golden(scenario_key(scenario))
    # (b) the fault ledger reconciles: every injected transport fault
    # was retransmitted to success or surfaced as an error CQE.
    stats = result.machine.nic.stats
    assert _reconciled(stats)
    assert stats.error_cqes_delivered == stats.transport_failures
    # (c) no leaked pooled requests, no stuck parked waiters.
    system = result.system
    assert system._inflight == {}
    assert system._inflight_req == {}
    assert all(a.outstanding_writebacks == 0 for a in system.apps.values())
    assert all(a.inflight_prefetches == 0 for a in system.apps.values())
    for request in system._request_pool:
        assert request._in_pool
        assert request.entry is None and request.page is None
        assert not request.completion.fired


@pytest.mark.parametrize("system", _AB_SYSTEMS)
def test_grouped_admission_is_digest_invisible(system, monkeypatch):
    """Every system coalesces consecutive misses into multi-fault groups,
    and the run that does so reproduces its golden digest — a digest that
    one-fault-at-a-time admission also reproduced before it was removed.
    ``test_golden_digest`` pins the digest alone; this pins that grouping
    actually happened in the run it describes."""
    sizes = record_group_sizes(monkeypatch)
    result = faulted_run(system)
    assert max(sizes["fault"]) > 1
    assert result_digest(result) == golden(system_key(system))


# -- Rack-scale chaos: server death, drain, and re-homing (PR 9) ---------


def _assert_rack_clean(result):
    """No leaks, no stuck waiters, and an exactly reconciled ledger."""
    system, rack = result.system, result.rack
    assert system._inflight == {}
    assert system._inflight_req == {}
    assert all(a.outstanding_writebacks == 0 for a in system.apps.values())
    for pool in (system._request_pool, rack._request_pool):
        for request in pool:
            assert request._in_pool
            assert request.entry is None and request.page is None
            assert not request.completion.fired
    assert rack.migrations_quiesced  # no half-finished migration legs
    stats = rack.stats
    assert stats.migration_aborts == 0
    assert stats.pages_rehomed == stats.pages_lost_from_dead + stats.pages_drained
    assert rack.ledger_balanced()


def test_rack_scenario_lookup():
    assert rack_scenario_config("server-death") is RACK_SCENARIOS["server-death"]
    with pytest.raises(ValueError):
        rack_scenario_config("nope")


@pytest.mark.parametrize("system", ["canvas", "linux514"])
@pytest.mark.parametrize("scenario", sorted(RACK_SCENARIOS))
def test_rack_scenarios_complete_clean(scenario, system):
    """Every scripted rack episode resolves with nothing leaked, on
    Canvas's private partitions and on the clustered, batched Linux
    5.14 allocator (whose grown entries must reach its clusters)."""
    result = rack_run(system, rack_scenario_config(scenario))
    for app in result.apps.values():
        assert app.finished_at_us is not None
    _assert_rack_clean(result)
    stats = result.rack.stats
    # The episode actually fired and actually moved data.
    assert stats.servers_failed + stats.servers_drained > 0
    assert stats.pages_rehomed > 0


def test_rack_server_death_mid_writeback_rehomes_every_binding():
    result = rack_run("canvas", RACK_SCENARIOS["server-death"])
    stats = result.rack.stats
    assert stats.servers_failed == 1
    # Server 0 held live bindings when it died: pages whose only copy
    # sat there were re-read from a replica and re-homed.
    assert stats.pages_lost_from_dead > 0
    assert stats.pages_rehomed == stats.pages_lost_from_dead
    # Verbs in flight against the dead server surfaced error CQEs that
    # the kernel hooks retargeted (counted separately from losses).
    nic_stats = result.machine.nic.stats
    assert nic_stats.dead_target_errors == (
        stats.writeback_rebinds + stats.demand_rebinds
    )
    # No entry survives on the dead server.
    assert result.rack.homed_counts()[0] == 0
    _assert_rack_clean(result)


def test_rack_drain_during_fault_storm_migrates_clean():
    """Background drain under transport chaos: both ledgers reconcile."""
    result = rack_run("canvas", RACK_SCENARIOS["drain-storm"])
    rack_stats = result.rack.stats
    assert rack_stats.servers_drained == 1
    assert rack_stats.pages_drained > 0
    nic_stats = result.machine.nic.stats
    plan = result.machine.nic.fault_plan
    assert plan.rolls > 0  # the storm actually fired
    assert _reconciled(nic_stats)
    _assert_rack_clean(result)


@pytest.mark.parametrize("system", ["canvas", "infiniswap", "linux514"])
def test_rack_drain_at_scale_grows_the_exhausted_partition(system):
    """At scale 0.3 the drain retires so many entries that a partition
    runs dry mid-run: memcached's own partition on Canvas (after the
    adaptive manager's emergency release found nothing to cancel), the
    shared one on Infiniswap and Linux 5.14.  The allocation path grows the partition
    by one rack chunk instead of failing, and the co-run finishes
    clean."""
    result = rack_run(
        system,
        RACK_SCENARIOS["server-drain"],
        apps=("snappy", "memcached"),
        scale=0.3,
    )
    for app in result.apps.values():
        assert app.finished_at_us is not None
    assert result.rack.stats.servers_drained == 1
    _assert_rack_clean(result)


def test_rack_double_failure_survivors_absorb_both_waves():
    result = rack_run("canvas", RACK_SCENARIOS["double-failure"])
    stats = result.rack.stats
    assert stats.servers_failed == 2
    counts = result.rack.homed_counts()
    assert counts[0] == 0 and counts[1] == 0
    assert sum(counts.values()) > 0  # survivors hold everything
    _assert_rack_clean(result)


def test_rack_chaos_is_deterministic():
    fault_config = RACK_SCENARIOS["double-failure"]
    a = rack_run("canvas", fault_config)
    b = rack_run("canvas", fault_config)
    assert result_digest(a) == result_digest(b)
    assert a.rack.stats == b.rack.stats


# -- The n_servers=1 oracle: a one-server rack is digest-invisible -------


def _rack_digest(system, cluster, apps=("memcached",)):
    config = ExperimentConfig(
        system=system, scale=0.03, seed=11, cluster=cluster
    )
    return result_digest(run_experiment(list(apps), config))


@pytest.mark.parametrize("system", _AB_SYSTEMS)
def test_one_server_rack_is_bit_identical_to_no_rack(system):
    """The permanent oracle: ``n_servers=1`` must never perturb a run."""
    assert _rack_digest(system, ClusterConfig()) == _rack_digest(system, None)


def test_one_server_rack_is_bit_identical_on_a_corun():
    """The fig10-style co-run shape holds the oracle too."""
    apps = ("snappy", "memcached")
    assert _rack_digest("canvas", ClusterConfig(), apps) == _rack_digest(
        "canvas", None, apps
    )
