"""Swap-out storm microbenchmarks: pages evicted per second.

Not paper figures — the harness micro-benchmarks guarding the reclaim
egress pipeline (``_evict_many``: batched victim selection, one
per-victim eviction body, writebacks submitted as built), the write-side
counterpart of ``test_fault_group_throughput``.  Two storms:

* ``test_reclaim_storm`` — the end-to-end co-run under steady memory
  pressure.  Reclaim is a minor share of the wall clock here (every
  eviction is preceded by a costlier demand fault) and kswapd's batches
  average ~3 pages.
* ``test_reclaim_drain`` — a partition shrink leaves kswapd a deep
  backlog of entry-kept clean pages (the Canvas adaptive-partitioning
  story); each kswapd batch pops its victims with one ``select_victims``
  walk of the victim queue, which costs the entries it walks, not the
  backlog's length.

Every round of a storm must land on the same digest (the drain: the
same stats, pool, and clock).  A traced run must also agree with the
untraced numbers, show reclaim rounds actually formed
(``reclaim_groups`` > 0), and pass every ``repro.obs.check`` lint
including the reclaim-group-pairing rule.

``pages_evicted_per_second`` (both storms) feeds ``check_regression.py``
against ``perf_baseline.json``.
"""

import dataclasses

from _common import print_header
from repro.harness import ExperimentConfig, result_digest, run_experiment
from repro.harness.driver import run_to_completion
from repro.harness.machine import Machine
from repro.kernel import AppContext, CgroupConfig, LinuxSwapSystem, SwapSystemConfig
from repro.obs.check import check_trace
from repro.obs.trace import TraceBuffer, summarize_trace

PAIR = ["memcached", "neo4j"]

#: Local memory fraction of the working set.  At 10% the resident set
#: churns constantly: every demand swap-in needs a frame, kswapd stays
#: below its watermarks, and eviction throughput dominates the run.
STORM_LOCAL_FRACTION = 0.10

#: Resident pages for the backlog drain: the pool starts full, so the
#: drain target is capacity minus the low watermark (~10%).
DRAIN_PAGES = 40_000


def storm_config(**kwargs) -> ExperimentConfig:
    """The swap-out storm co-run: memcached + neo4j far above budget."""
    return ExperimentConfig(
        system="canvas",
        scale=0.25,
        local_memory_fraction=STORM_LOCAL_FRACTION,
        **kwargs,
    )


def _run(config):
    result = run_experiment(PAIR, config)
    evicted = sum(
        result.results[name].stats.swapouts
        + result.results[name].stats.clean_drops
        for name in PAIR
    )
    return evicted, result_digest(result), result


def test_reclaim_storm(benchmark):
    config = storm_config()
    digests = set()

    def run_storm():
        evicted, digest, _ = _run(config)
        digests.add(digest)
        return evicted

    evicted = benchmark.pedantic(run_storm, rounds=3, iterations=1)
    seconds = benchmark.stats.stats.min
    assert len(digests) == 1, "repeated storm runs diverged"
    (digest,) = digests

    # Traced run: digest-inert, proves kswapd really grouped its
    # batches, and must be clean under every causality lint (the
    # reclaim-group-pairing rule included).
    _, traced_digest, traced = _run(storm_config(trace=True))
    assert traced_digest == digest, "tracing changed simulated numbers"
    records = traced.trace.records()
    violations = check_trace(records, truncated=traced.trace.truncated)
    assert not violations, f"trace lints failed: {violations[:5]}"
    summaries = summarize_trace(records)
    groups = sum(s["reclaim_groups"] for s in summaries.values())
    assert groups > 0, "storm drove no grouped reclaim rounds"

    rate = evicted / seconds
    benchmark.extra_info["pages_evicted"] = evicted
    benchmark.extra_info["pages_evicted_per_second"] = rate
    benchmark.extra_info["reclaim_groups"] = groups

    print_header("swap-out storm: reclaim")
    print(f"{evicted} evictions in {seconds:.3f}s -> {rate / 1e3:.1f}k pages/s")
    print(f"{groups} reclaim groups traced")

    assert evicted > 0


# -- the backlog drain: a partition shrink's worth of clean pages --------


def _build_drain(tracer=False):
    """A full frame pool of entry-kept clean pages over a fat LRU.

    The state a Canvas partition shrink leaves behind: every resident
    page came in from swap (entry retained, ``stored_vpn`` valid) and
    was only read since, so kswapd's whole backlog — pool capacity down
    to the low watermark — drains as clean drops.
    """
    machine = Machine(seed=3)
    trace_buffer = TraceBuffer(machine.engine, capacity=200_000) if tracer else None
    system = LinuxSwapSystem(
        machine.engine,
        machine.nic,
        partition_pages=DRAIN_PAGES + 512,
        telemetry=machine.telemetry,
        config=SwapSystemConfig(),
    )
    if trace_buffer is not None:
        system.attach_tracer(trace_buffer)
    app = AppContext(
        machine.engine,
        CgroupConfig(name="app", n_cores=4, local_memory_pages=DRAIN_PAGES),
    )
    vma = app.space.map_region(DRAIN_PAGES, name="heap")
    system.register_app(app)
    assert app.pool.try_charge(DRAIN_PAGES)
    for vpn in range(vma.start_vpn, vma.start_vpn + DRAIN_PAGES):
        page = app.space.pages[vpn]
        entry = system._allocator_for(app, page).take_free_untimed()
        entry.stored_vpn = vpn
        page.swap_entry = entry
        page.resident = True
        app.lru.insert(page)
    return machine, system, app, trace_buffer


def _drain(machine, app):
    """Run the engine until kswapd has drained the backlog."""
    backlog = app.pool.reclaim_target()

    def monitor():
        while app.pool.reclaim_target() > 0:
            yield machine.engine.sleep(5.0)

    proc = machine.engine.spawn(monitor())
    run_to_completion(machine.engine, [proc])
    return backlog


def test_reclaim_drain(benchmark):
    ends = []

    def setup():
        machine, _, app, _ = _build_drain()
        ends.append((machine, app))
        return (machine, app), {}

    def run(machine, app):
        return _drain(machine, app)

    drained = benchmark.pedantic(run, setup=setup, rounds=3)
    seconds = benchmark.stats.stats.min
    first_machine, first_app = ends[0]
    assert drained == DRAIN_PAGES - first_app.pool.low_watermark
    assert first_app.stats.clean_drops == drained
    assert first_app.stats.swapouts == 0
    assert first_app.pool.used == first_app.pool.low_watermark
    # Every round lands on the identical end state and clock.
    for machine, app in ends[1:]:
        assert dataclasses.asdict(app.stats) == dataclasses.asdict(first_app.stats)
        assert machine.engine.now == first_machine.engine.now
        assert app.pool.used == first_app.pool.used

    # Traced drain: same end state, reclaim rounds visible, every
    # causality lint clean.
    machine, _, app, trace_buffer = _build_drain(tracer=True)
    traced_drained = _drain(machine, app)
    assert traced_drained == drained
    assert dataclasses.asdict(app.stats) == dataclasses.asdict(first_app.stats)
    assert machine.engine.now == first_machine.engine.now
    records = trace_buffer.records()
    violations = check_trace(records, truncated=trace_buffer.truncated)
    assert not violations, f"trace lints failed: {violations[:5]}"
    groups = sum(s["reclaim_groups"] for s in summarize_trace(records).values())
    assert groups > 0, "drain drove no grouped reclaim rounds"

    rate = drained / seconds
    benchmark.extra_info["pages_evicted"] = drained
    benchmark.extra_info["pages_evicted_per_second"] = rate
    benchmark.extra_info["reclaim_groups"] = groups

    print_header("backlog drain: reclaim")
    print(f"{drained} clean drops in {seconds:.3f}s -> {rate / 1e3:.1f}k pages/s")
