"""Fault-storm microbenchmark: faults/second through grouped admission.

Not a paper figure — the harness micro-benchmark guarding the coalesced
fault slow path.  ``test_fault_throughput`` pins a fault-heavy co-run;
this one goes further and provokes a genuine *fault storm*: local memory
at 10% of the working set, so per-thread batches are dominated by dense
runs of consecutive non-resident accesses — exactly the shape
``handle_fault_group`` admits in one call, resolving each member through
``handle_fault``.

The storm runs three times for the rate.  A traced run must agree with
the untraced digest, show the storm actually formed groups
(``fault_groups`` > 0 in the trace summary), and pass every
``repro.obs.check`` lint including the group-pairing rule.

``faults_per_second`` feeds ``check_regression.py`` against
``perf_baseline.json``.
"""

from _common import print_header
from repro.harness import ExperimentConfig, result_digest, run_experiment
from repro.obs.check import check_trace
from repro.obs.trace import summarize_trace

PAIR = ["memcached", "neo4j"]

#: Local memory fraction of the working set.  At 10% the batched driver
#: truncates at a miss almost immediately and the remainder of the batch
#: is one long non-resident run: mean group size sits well above 1, so
#: the grouped path's per-group costs are actually amortized.
STORM_LOCAL_FRACTION = 0.10


def storm_config(**kwargs) -> ExperimentConfig:
    """The fault-storm co-run: memcached + neo4j far above local memory."""
    return ExperimentConfig(
        system="canvas",
        scale=0.25,
        local_memory_fraction=STORM_LOCAL_FRACTION,
        **kwargs,
    )


def _run(config):
    result = run_experiment(PAIR, config)
    faults = sum(result.results[name].stats.faults for name in PAIR)
    return faults, result_digest(result), result


def test_fault_group_storm(benchmark):
    config = storm_config()
    digests = set()

    def run_storm():
        faults, digest, _ = _run(config)
        digests.add(digest)
        return faults

    faults = benchmark.pedantic(run_storm, rounds=3, iterations=1)
    seconds = benchmark.stats.stats.min
    assert len(digests) == 1, "repeated storm runs diverged"
    (digest,) = digests

    # Traced run: digest-inert, proves the storm really coalesced, and
    # must be clean under every causality lint (group pairing included).
    _, traced_digest, traced = _run(storm_config(trace=True))
    assert traced_digest == digest, "tracing changed simulated numbers"
    records = traced.trace.records()
    violations = check_trace(records, truncated=traced.trace.truncated)
    assert not violations, f"trace lints failed: {violations[:5]}"
    summaries = summarize_trace(records)
    groups = sum(s["fault_groups"] for s in summaries.values())
    traced_faults = sum(s["faults"] for s in summaries.values())
    assert groups > 0, "storm produced no fault groups"
    mean_group = traced_faults / groups

    rate = faults / seconds
    benchmark.extra_info["faults"] = faults
    benchmark.extra_info["faults_per_second"] = rate
    benchmark.extra_info["fault_groups"] = groups
    benchmark.extra_info["mean_group_size"] = mean_group

    print_header("fault storm: grouped admission")
    print(f"{faults} faults in {seconds:.3f}s -> {rate / 1e3:.1f}k faults/s")
    print(f"{groups} groups, mean size {mean_group:.1f} faults/group")

    assert faults > 0
    # Dense runs actually formed: a storm where most "groups" are single
    # faults would not exercise the coalesced path at all.
    assert mean_group > 1.5, f"storm too sparse: {mean_group:.2f} faults/group"
