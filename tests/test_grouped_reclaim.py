"""Grouped reclaim: kswapd's batched eviction path, pinned by golden digests.

``_evict_many`` batches kswapd's eviction → entry-allocation → writeback
egress pipeline: one generator per batch, one revalidated
``select_victims`` pass per round (cut at the first writeback-needing
victim), and the round's writeback submitted as soon as it is built.
Each victim goes through the same per-victim body as direct reclaim's
``_evict_one``.

Layers:

* **Batching guards** — on every system, a co-run, and every named
  fault scenario, kswapd evicts in multi-victim batches and the run
  reproduces its committed golden digest (``tests/golden``).
* **Chaos unwind** — a scripted writeback error landing inside a grouped
  eviction batch reissues and reconciles to the recorded counts.
* **Counter invariants** — the per-app ``outstanding_writebacks`` /
  ``inflight_prefetches`` counters never go negative and reconcile to
  zero once the system drains, sampled live during a faulted co-run.
"""

import pytest

from repro.faults import SCENARIOS, scenario_config
from repro.harness.driver import run_to_completion, spawn_app
from repro.harness.machine import Machine
from repro.harness.results import result_digest
from tests.conftest import build_system, record_group_sizes, sequential_accesses
from tests.golden import golden
from tests.golden.matrix import (
    SYSTEMS,
    faulted_run,
    scenario_key,
    system_key,
    writeback_error_digest,
    writeback_error_run,
)


@pytest.mark.parametrize("system", SYSTEMS)
def test_grouped_reclaim_is_digest_invisible(system, monkeypatch):
    """Every system's kswapd evicts in multi-victim batches, and the run
    that does so reproduces its golden digest — a digest that
    victim-at-a-time reclaim also reproduced before it was removed.  ``test_golden_digest``
    pins the digest alone; this pins that batching actually happened in
    the run it describes."""
    sizes = record_group_sizes(monkeypatch)
    result = faulted_run(system)
    assert max(sizes["reclaim"]) > 1
    assert result_digest(result) == golden(system_key(system))


def test_grouped_reclaim_digest_invisible_on_co_run(monkeypatch):
    """The fig. 10 shape: a canvas co-run under memory pressure."""
    sizes = record_group_sizes(monkeypatch)
    result = faulted_run("canvas", workloads=["memcached", "neo4j"])
    assert max(sizes["reclaim"]) > 1
    assert result_digest(result) == golden(system_key("canvas", "memcached+neo4j"))


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_grouped_reclaim_survives_every_fault_scenario(scenario, monkeypatch):
    """Grouped reclaim under chaos: kswapd keeps evicting in multi-victim
    batches while writebacks drop, error and retry, and the run still
    reproduces its golden digest.  The ledger and leak checks for these
    runs are in ``test_faults.py``'s grouped-admission chaos test."""
    sizes = record_group_sizes(monkeypatch)
    result = faulted_run("canvas", scenario_config(scenario))
    assert max(sizes["reclaim"]) > 1
    assert result_digest(result) == golden(scenario_key(scenario))


# -- chaos unwind: a writeback error inside a grouped batch --------------


def test_grouped_writeback_error_unwinds_like_scalar():
    """The scripted error lands inside a grouped eviction batch; the
    reissue, ledger, and end state match the recorded run exactly."""
    machine, system, app = writeback_error_run()
    # The error was absorbed: reissued once, then the run completed.
    assert app.finished_at_us is not None
    assert app.stats.error_cqes == 1
    assert app.stats.writeback_retries == 1
    assert system._inflight == {}
    assert system._inflight_req == {}
    assert app.outstanding_writebacks == 0
    pool = app.pool
    assert pool.stats.charges - pool.stats.uncharges == pool.used
    # The recorded unwind: one error CQE, one reissue, and every
    # swap-out written exactly once on the wire.
    assert app.stats.swapouts == app.stats.kswapd_reclaims == 2361
    assert app.stats.faults == app.stats.demand_swapins == 2388
    nic = machine.nic.stats
    assert nic.completion_errors == nic.transport_failures == 1
    assert nic.error_cqes_delivered == 1
    assert nic.retransmits == 0
    assert nic.writes_completed == nic.swapout_completed == 2361
    # Every stat, the finish time, and the final clock, bit for bit.
    assert writeback_error_digest(machine, app) == golden("unwind/writeback-error")


# -- per-app counter invariants ------------------------------------------


def test_grouped_reclaim_counters_stay_nonnegative_and_drain():
    """Sample the per-app counters live through a faulted grouped co-run:
    never negative mid-flight, exactly zero once the system drains."""
    result = faulted_run(
        "canvas",
        scenario_config("errors"),
        workloads=["memcached", "neo4j"],
    )
    system = result.system
    samples = []

    # Re-drive the same shape with an in-engine monitor for live samples.
    machine = Machine(seed=1)
    mon_system, app, vma = build_system(machine)

    def monitor():
        while app.finished_at_us is None:
            samples.append((app.outstanding_writebacks, app.inflight_prefetches))
            yield machine.engine.sleep(50.0)

    proc = spawn_app(mon_system, app, [sequential_accesses(vma, 4000, write=True)])
    machine.engine.spawn(monitor())
    run_to_completion(machine.engine, [proc])

    assert samples, "monitor never sampled"
    assert all(wb >= 0 and pf >= 0 for wb, pf in samples)
    assert any(wb > 0 for wb, _ in samples), "no writeback ever in flight"
    # Both the monitored machine and the faulted experiment drain to zero.
    assert app.outstanding_writebacks == 0
    assert app.inflight_prefetches == 0
    for ctx in system.apps.values():
        assert ctx.outstanding_writebacks == 0
        assert ctx.inflight_prefetches == 0
