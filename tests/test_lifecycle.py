"""App lifecycle: first-class teardown under traffic-driven churn.

The acceptance bar for ``unregister_app``: a traffic-driven run in which
**every** app departs must end with zero leaked swap entries, zero
residual frame charges, and zero parked waiters — on all six systems,
and in at least one rack + fault-storm scenario — and a traced churn
run must pass every ``repro.obs.check`` lint, including the new
app-lifecycle rule (no event may reference an app after its
unregistration).
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.core.slo import SloConfig, SloController, SloStats
from repro.faults import scenario_config
from repro.harness.experiment import ExperimentConfig, run_churn
from repro.obs import check_trace
from repro.obs.trace import APP_REGISTER, APP_UNREGISTER, PF_ISSUE, PF_PROPOSE
from repro.workloads.traffic import TrafficConfig

SYSTEMS = ["linux", "linux514", "fastswap", "infiniswap", "canvas-iso", "canvas"]

SMALL_TRAFFIC = TrafficConfig(n_sessions=8, day_us=20_000.0, accesses_mean=1500)


def churn_config(system="canvas", **kwargs):
    kwargs.setdefault("traffic", SMALL_TRAFFIC)
    kwargs.setdefault("seed", 3)
    return ExperimentConfig(system=system, **kwargs)


def assert_leak_free(result):
    """Every session departed; nothing it owned survives anywhere."""
    system = result.system
    assert len(system.apps) == 0
    assert system._inflight == {} and system._inflight_req == {}
    assert system._kswapd_proc == {} and system._kswapd_stop == {}
    for name, app in result.apps.items():
        assert app.finished_at_us is not None, f"{name} never finished"
        assert app.pool.used == 0, f"{name} left {app.pool.used} frames charged"
        assert app.pool.stats.charges == app.pool.stats.uncharges
        assert app.outstanding_writebacks == 0
        assert app.inflight_prefetches == 0
        for page in app.space.pages.values():
            assert not page.resident
            assert page.swap_entry is None
            assert not page.locked


def shared_allocator_reconciles(system):
    """Shared-partition systems: every entry is back in a free pool."""
    allocator = getattr(system, "allocator", None)
    if allocator is None:
        return  # Canvas private partitions die with their apps.
    free = allocator.partition.free_count + allocator.batched_count
    assert free == allocator.partition.n_entries


@pytest.mark.parametrize("system", SYSTEMS)
def test_churn_leak_free_and_lint_clean(system):
    result = run_churn(churn_config(system, trace=True))
    assert_leak_free(result)
    shared_allocator_reconciles(result.system)
    records = result.trace.records()
    assert check_trace(records, truncated=result.trace.truncated) == []
    # One register and one unregister per session, in that order per app.
    n = len(result.apps)
    assert len([r for r in records if r[1] == APP_REGISTER]) == n
    assert len([r for r in records if r[1] == APP_UNREGISTER]) == n


def test_rack_fault_storm_churn_leak_free():
    config = churn_config(
        "canvas",
        seed=5,
        trace=True,
        cluster=ClusterConfig(n_servers=3),
        fault_config=dataclasses.replace(
            scenario_config("chaos"), fault_seed=11
        ),
    )
    result = run_churn(config)
    assert_leak_free(result)
    assert result.rack is not None and result.rack.ledger_balanced()
    assert (
        check_trace(result.trace.records(), truncated=result.trace.truncated)
        == []
    )


def test_no_prefetch_records_after_unregister():
    """Satellite regression: a departed app's VPNs are never proposed
    again (end-to-end via the trace; unit-level below)."""
    result = run_churn(churn_config("canvas", trace=True))
    departed_at = {}
    for t, kind, app, _thread, _key, _arg in result.trace.records():
        if kind == APP_UNREGISTER:
            departed_at[app] = t
        elif kind in (PF_PROPOSE, PF_ISSUE):
            assert app not in departed_at, (
                f"prefetch for {app} at t={t} after departure at "
                f"{departed_at.get(app)}"
            )


def test_churn_digest_deterministic():
    a = run_churn(churn_config("canvas"))
    b = run_churn(churn_config("canvas"))
    assert a.digest() == b.digest()
    c = run_churn(churn_config("canvas", seed=4))
    assert a.digest() != c.digest()


def test_zero_session_plan_runs_empty():
    config = churn_config("linux", traffic=TrafficConfig(n_sessions=0))
    result = run_churn(config)
    assert result.apps == {} and len(result.system.apps) == 0


def test_unregister_unknown_app_rejected():
    from repro.harness.machine import Machine
    from tests.conftest import build_system

    machine = Machine(seed=1)
    system, app, vma = build_system(machine)

    class Ghost:
        name = "ghost"

    def proc():
        with pytest.raises(ValueError):
            yield from system.unregister_app(Ghost())
        yield from system.unregister_app(app)
        # Double unregistration: the app is no longer registered.
        with pytest.raises(ValueError):
            yield from system.unregister_app(app)

    machine.engine.spawn(proc())
    machine.engine.run()
    assert system.apps == {}


def test_reregistration_after_teardown():
    """A name can come back: teardown leaves no poisoned state behind."""
    from repro.harness.driver import run_to_completion, spawn_app
    from repro.harness.machine import Machine
    from tests.conftest import build_system, sequential_accesses

    machine = Machine(seed=2)
    system, app, vma = build_system(machine)
    proc = spawn_app(system, app, [sequential_accesses(vma, 2000, write=True)])
    run_to_completion(machine.engine, [proc])

    outcome = {}

    def lifecycle():
        yield from system.unregister_app(app)
        from repro.kernel.cgroup import AppContext, CgroupConfig

        fresh = AppContext(
            machine.engine,
            CgroupConfig(
                name=app.name,
                n_cores=1,
                local_memory_pages=app.pool.capacity_pages,
                swap_cache_pages=32,
            ),
        )
        vma2 = fresh.space.map_region(app.space.total_pages, name="heap")
        system.register_app(fresh)
        system.prepopulate(fresh, 0.2)
        proc2 = spawn_app(
            system, fresh, [sequential_accesses(vma2, 2000, write=True)]
        )
        yield proc2
        outcome["fresh"] = fresh

    machine.engine.spawn(lifecycle())
    machine.engine.run()
    fresh = outcome["fresh"]
    assert fresh.finished_at_us is not None
    assert fresh.stats.accesses == 2000


# -- prefetcher forget_app (satellite a, unit level) ---------------------------


def test_readahead_forget_app_clamps_everything():
    from repro.prefetch.readahead import KernelReadahead

    pf = KernelReadahead()
    pf.note_region("a", 0, 512)
    # A sequential scan earns proposals.
    proposals = []
    for vpn in range(16):
        proposals += pf.on_fault("a", 0, vpn, float(vpn))
    assert proposals
    pf.forget_app("a")
    assert "a" not in pf._regions
    assert not any(k[0] == "a" for k in pf._buckets)
    clamped_before = pf.stats.proposals_clamped
    after = []
    for vpn in range(16, 32):
        after += pf.on_fault("a", 0, vpn, float(vpn))
    assert after == []
    assert pf.stats.proposals_clamped > clamped_before
    # A fresh registration under the same name starts clean.
    pf.note_region("a", 0, 512)
    revived = []
    for vpn in range(64, 96):
        revived += pf.on_fault("a", 0, vpn, float(vpn))
    assert revived


@pytest.mark.parametrize("per_app_history", [False, True])
def test_leap_forget_app_drops_history(per_app_history):
    from repro.prefetch.leap import LeapPrefetcher

    pf = LeapPrefetcher(per_app_history=per_app_history)
    for vpn in range(32):
        pf.on_fault("a", 0, vpn, float(vpn))
        pf.on_fault("b", 0, 1000 + vpn, float(vpn))
    pf.forget_app("a")
    if per_app_history:
        for table in (pf._histories, pf._prev_vpn, pf._window):
            assert "a" not in table
            assert "b" in table
    # Either way the prefetcher keeps working for live apps.
    assert isinstance(pf.on_fault("b", 0, 1040, 99.0), list)


def test_thread_pattern_forget_app_drops_threads():
    from repro.prefetch.thread_pattern import ThreadPatternPrefetcher

    pf = ThreadPatternPrefetcher()
    for vpn in range(16):
        pf.on_fault("a", 0, vpn, float(vpn))
        pf.on_fault("a", 1, 500 + vpn, float(vpn))
        pf.on_fault("b", 0, 1000 + vpn, float(vpn))
    pf.forget_app("a")
    assert not any(k[0] == "a" for k in pf._histories)
    assert any(k[0] == "b" for k in pf._histories)


# -- SLO controller ------------------------------------------------------------


class _StubHist:
    def __init__(self):
        self.values = []

    @property
    def count(self):
        return len(self.values)

    def percentile(self, q):
        if not self.values:
            return 0.0
        return float(np.percentile(self.values, q))


class _StubScheduler:
    def __init__(self):
        self.weights = {}

    def weight_of(self, name):
        return self.weights.get(name, 1.0)

    def set_weight(self, name, weight):
        self.weights[name] = weight


class _StubTelemetry:
    def __init__(self):
        self.hists = {}

    def latency_hist(self, app, kind):
        return self.hists.setdefault(app, _StubHist())


class _StubSystem:
    def __init__(self):
        self.apps = {}
        self.scheduler = _StubScheduler()


class _StubEngine:
    now = 0.0

    def spawn(self, gen, name=""):
        return None

    def sleep(self, us):  # pragma: no cover - loop never driven
        raise NotImplementedError


def _controller():
    system = _StubSystem()
    telemetry = _StubTelemetry()
    controller = SloController.__new__(SloController)
    controller.engine = _StubEngine()
    controller.system = system
    controller.telemetry = telemetry
    controller.config = SloConfig(target_p99_us=100.0, min_samples=4)
    controller.stats = SloStats()
    controller._states = {}
    controller._scheduler = system.scheduler
    return controller, system, telemetry


def test_slo_breach_boosts_then_decays():
    controller, system, telemetry = _controller()
    system.apps["a"] = object()
    hist = telemetry.latency_hist("a", None)
    hist.values += [500.0] * 8  # p99 far above the 100us target
    controller._control_round()
    assert controller.stats.breaches == 1
    boosted = system.scheduler.weights["a"]
    assert boosted > 1.0
    # Compliant samples decay the boost back toward the base weight
    # (enough of them that the reservoir's p99 drops under the target).
    hist.values += [10.0] * 2000
    controller._control_round()
    assert system.scheduler.weights["a"] < boosted
    assert controller.stats.decays_applied >= 1


def test_slo_boost_is_bounded():
    controller, system, telemetry = _controller()
    system.apps["a"] = object()
    hist = telemetry.latency_hist("a", None)
    for _ in range(50):
        hist.values += [500.0] * 8
        controller._control_round()
    assert system.scheduler.weights["a"] <= controller.config.max_boost


def test_slo_insufficient_samples_take_no_action():
    controller, system, telemetry = _controller()
    system.apps["a"] = object()
    hist = telemetry.latency_hist("a", None)
    hist.values += [500.0] * 2  # below min_samples
    controller._control_round()
    assert controller.stats.breaches == 0
    assert "a" not in system.scheduler.weights


def test_slo_departed_apps_are_dropped():
    controller, system, telemetry = _controller()
    system.apps["a"] = object()
    telemetry.latency_hist("a", None).values += [500.0] * 8
    controller._control_round()
    assert "a" in controller._states
    del system.apps["a"]
    controller._control_round()
    assert "a" not in controller._states


def test_slo_end_to_end_under_churn():
    """The controller runs under real churn: rounds tick, per-app p99
    observations appear, and (for Canvas) boosted weights stay bounded."""
    traffic = dataclasses.replace(
        SMALL_TRAFFIC, pressured_every=1, pressured_local_fraction=0.5
    )
    config = churn_config(
        "canvas",
        traffic=traffic,
        slo=SloConfig(target_p99_us=5.0, period_us=500.0, min_samples=4),
    )
    result = run_churn(config)
    assert_leak_free(result)
    assert result.slo_stats is not None
    assert result.slo_stats.rounds > 10
    assert result.slo_stats.breaches > 0
    assert result.slo_stats.last_p99


def test_slo_is_measurement_only_on_baselines():
    config = churn_config(
        "linux", slo=SloConfig(target_p99_us=5.0, period_us=500.0, min_samples=4)
    )
    result = run_churn(config)
    assert_leak_free(result)
    assert result.slo_stats is not None and result.slo_stats.rounds > 0


def test_slo_feedback_changes_the_run():
    """Closing the loop must actually matter: the same churn day with a
    breach-everything target diverges from the uncontrolled run."""
    traffic = dataclasses.replace(
        SMALL_TRAFFIC, pressured_every=1, pressured_local_fraction=0.5
    )
    base = run_churn(churn_config("canvas", traffic=traffic))
    tight = run_churn(
        churn_config(
            "canvas",
            traffic=traffic,
            slo=SloConfig(target_p99_us=1.0, period_us=250.0, min_samples=2),
        )
    )
    assert tight.slo_stats.boosts_applied > 0
    assert base.digest() != tight.digest()
