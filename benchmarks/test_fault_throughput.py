"""Fault throughput: simulated page faults per second through the slow path.

Not a paper figure — a harness micro-benchmark guarding the fault slow
path (PR 3).  Where ``test_access_throughput`` measures the batched
resident fast path, this one pins the co-run under heavy memory
pressure so wall-clock is dominated by everything a fault touches:
pooled park/kick events, recycled ``RdmaRequest`` objects, the NIC's
dispatch loop, bound-method completion delivery, and
(for the Leap configuration) the incremental majority vote.

Two configurations:

* **canvas fault-heavy co-run** — memcached + neo4j on Canvas with
  local memory at 25% of the working set; exercises the two-tier
  scheduler, timeliness drops, and the dropped-request recycle path.
* **linux + Leap** — the same pair on the shared-baseline kernel with
  the Leap prefetcher, so the incremental Boyer-Moore vote sits on the
  measured path.

Numbers land in ``benchmark.extra_info`` (faults/sec plus the NIC's
served request mix) and the CI workflow uploads the JSON as an
artifact; ``benchmarks/check_regression.py`` compares them against the
checked-in baseline.  When the slow-path overhaul landed, the canvas
configuration measured 1.67x faults/sec over the previous slow path
(interleaved min-of-mins: 0.564s -> 0.338s per run) and linux+leap
1.36x, with every simulated number bit-identical.  The grouped-admission
pass (coalesced fault groups, doorbell-batched submission since
retired, the append-fed LRU victim queue, and assorted hot-path
micro-work) measured
a further ~1.25x on this canvas configuration and ~1.38x under a denser
fault storm (local memory at 10%, see ``test_fault_group_throughput``),
with linux+leap roughly unchanged (~1.05x) — all interleaved
median-of-ratios A/B against the pre-PR tree, digests identical.  Each
test also re-runs its configuration with the simulation profiler
attached and asserts digest equality.  The profiler only wraps the run
in cProfile, so the profiled run executes the same slow path (the NIC's
serve step included) and must produce a bit-identical simulation.
"""

from _common import print_header
from repro.harness import ExperimentConfig, result_digest, run_experiment

PAIR = ["memcached", "neo4j"]


def fault_config(system: str = "canvas", **kwargs) -> ExperimentConfig:
    """Fault-heavy co-run: local memory well below the working set."""
    return ExperimentConfig(
        system=system,
        scale=0.25,
        local_memory_fraction=0.25,
        **kwargs,
    )


def _run(config):
    """One experiment; returns (total faults, nic stats, digest)."""
    result = run_experiment(PAIR, config)
    faults = sum(result.results[name].stats.faults for name in PAIR)
    return faults, result.machine.nic.stats, result_digest(result)


def _report(benchmark, label, faults, nic):
    seconds = benchmark.stats.stats.min
    rate = faults / seconds
    benchmark.extra_info["faults"] = faults
    benchmark.extra_info["faults_per_second"] = rate
    benchmark.extra_info["nic_demand_completed"] = nic.demand_completed
    benchmark.extra_info["nic_prefetch_completed"] = nic.prefetch_completed
    benchmark.extra_info["nic_swapout_completed"] = nic.swapout_completed
    benchmark.extra_info["nic_dropped_skipped"] = nic.dropped_skipped
    print_header(f"fault throughput: {label}")
    print(f"{faults} faults in {seconds:.3f}s -> {rate / 1e3:.1f}k faults/s")
    print(
        f"NIC served: {nic.demand_completed} demand / "
        f"{nic.prefetch_completed} prefetch / {nic.swapout_completed} swap-out "
        f"({nic.dropped_skipped} dropped before dispatch)"
    )
    return rate


def _assert_profiled_parity(config, digest):
    """The profiled slow path must simulate the exact same numbers."""
    from repro.metrics import SimProfiler

    profiler = SimProfiler()
    profiled = run_experiment(PAIR, config, profiler=profiler)
    assert result_digest(profiled) == digest, (
        "profiler attachment changed simulated numbers on the fault path"
    )
    assert profiler.runs == 1 and profiler.wall_seconds > 0


def test_fault_throughput_canvas(benchmark):
    last = {}

    def run():
        faults, nic, digest = _run(fault_config("canvas"))
        last["nic"], last["digest"] = nic, digest
        return faults

    faults = benchmark.pedantic(run, rounds=3, iterations=1)
    nic = last["nic"]
    _report(benchmark, "canvas fault-heavy co-run", faults, nic)
    assert faults > 0 and nic.demand_completed > 0
    # Canvas under pressure must exercise every request kind, including
    # the timeliness-drop path the recycler has to unwind.
    assert nic.prefetch_completed > 0 and nic.swapout_completed > 0
    _assert_profiled_parity(fault_config("canvas"), last["digest"])


def test_fault_throughput_linux_leap(benchmark):
    config = fault_config("linux", prefetcher="leap")
    last = {}

    def run():
        faults, nic, digest = _run(config)
        last["nic"], last["digest"] = nic, digest
        return faults

    faults = benchmark.pedantic(run, rounds=3, iterations=1)
    nic = last["nic"]
    _report(benchmark, "linux + leap fault-heavy co-run", faults, nic)
    assert faults > 0 and nic.demand_completed > 0
    # Leap must actually be prefetching, or the incremental vote is
    # not on the measured path.
    assert nic.prefetch_completed > 0
    _assert_profiled_parity(config, last["digest"])
