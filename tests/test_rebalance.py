"""Tests for the dynamic swap-cache rebalancing extension."""

import pytest

from repro.core.canvas import CanvasConfig, CanvasSwapSystem
from repro.core.rebalance import CacheRebalancer
from repro.harness.machine import Machine
from repro.kernel import AppContext, CgroupConfig
from repro.sim import Engine
from repro.swap import SwapCache, SwapPartition
from tests.conftest import mapped_pages


def make_caches(engine, budgets):
    return {
        name: SwapCache(name, pages) for name, pages in budgets.items()
    }


def fill(cache, part, n, prefetched=False):
    for page in mapped_pages(n):
        cache.insert(part.pop_free(), page, prefetched=prefetched)


def test_budget_conserved_across_rounds():
    engine = Engine()
    caches = make_caches(engine, {"a": 256, "b": 256})
    rebalancer = CacheRebalancer(engine, caches, floor_pages=64)
    part = SwapPartition("p", 1024)
    fill(caches["a"], part, 250)  # pressured
    caches["a"].stats.shrink_evictions = 50
    total_before = rebalancer.total_budget
    for _ in range(5):
        rebalancer.rebalance_once()
    assert rebalancer.total_budget == total_before


def test_surplus_flows_to_pressured_cache():
    engine = Engine()
    caches = make_caches(engine, {"idle": 256, "busy": 128})
    rebalancer = CacheRebalancer(engine, caches, floor_pages=64)
    part = SwapPartition("p", 1024)
    fill(caches["busy"], part, 128)  # at the lid
    caches["busy"].stats.shrink_evictions = 100
    moved = rebalancer.rebalance_once()
    assert moved > 0
    assert caches["busy"].capacity_pages > 128
    assert caches["idle"].capacity_pages < 256
    assert caches["idle"].capacity_pages >= rebalancer.floor_pages


def test_no_movement_without_pressure():
    engine = Engine()
    caches = make_caches(engine, {"a": 256, "b": 256})
    rebalancer = CacheRebalancer(engine, caches)
    assert rebalancer.rebalance_once() == 0
    assert rebalancer.stats.pages_moved == 0


def test_floor_respected():
    engine = Engine()
    caches = make_caches(engine, {"donor": 80, "busy": 128})
    rebalancer = CacheRebalancer(engine, caches, floor_pages=64)
    part = SwapPartition("p", 1024)
    fill(caches["busy"], part, 128)
    caches["busy"].stats.shrink_evictions = 10
    for _ in range(20):
        rebalancer.rebalance_once()
    assert caches["donor"].capacity_pages >= 64


def test_daemon_runs_periodically():
    engine = Engine()
    caches = make_caches(engine, {"a": 256, "b": 128})
    rebalancer = CacheRebalancer(engine, caches, period_us=1_000.0)
    part = SwapPartition("p", 1024)
    fill(caches["b"], part, 128)
    caches["b"].stats.shrink_evictions = 5
    engine.run(until=10_500.0)
    assert rebalancer.stats.rounds == 10
    assert caches["b"].capacity_pages > 128


def test_canvas_wires_rebalancer_when_enabled():
    machine = Machine(seed=0)
    system = CanvasSwapSystem(
        machine.engine,
        machine.nic,
        canvas_config=CanvasConfig(dynamic_cache_rebalance=True),
    )
    app = AppContext(
        machine.engine,
        CgroupConfig(
            name="a", n_cores=2, local_memory_pages=256,
            swap_partition_pages=1024, swap_cache_pages=128,
        ),
    )
    app.space.map_region(512)
    system.register_app(app)
    assert system.rebalancer is not None
    assert "a" in system._rebalance_caches
    assert system.rebalancer.total_budget == 128


def test_canvas_default_has_no_rebalancer():
    machine = Machine(seed=0)
    system = CanvasSwapSystem(machine.engine, machine.nic)
    assert system.rebalancer is None
