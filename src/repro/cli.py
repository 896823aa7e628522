"""Command-line interface: run simulated swap experiments from a shell.

Examples
--------
Run one application alone on Canvas::

    canvas-sim run --system canvas --apps memcached

Co-run the paper's headline group on every system and compare, one
worker process per system::

    canvas-sim compare --apps snappy memcached xgboost spark_lr --workers 4

Attribute the simulator's own wall-clock time to subsystems::

    canvas-sim profile --system canvas --apps memcached neo4j

Record a Perfetto-loadable trace of a faulted co-run and lint it::

    canvas-sim trace --apps snappy memcached --scenario degraded

Inspect or clear the persistent result cache (``$REPRO_CACHE_DIR``)::

    canvas-sim cache info
    canvas-sim cache clear

List available workloads and systems::

    canvas-sim list
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cluster import PLACEMENTS
from repro.faults import RACK_SCENARIOS, SCENARIOS
from repro.harness.cache import CACHE_DIR_ENV, CACHE_STATS, default_disk_cache
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.parallel import default_worker_count, run_experiments_parallel
from repro.harness.results import result_digest
from repro.metrics.report import (
    FAULT_STALL_HEADERS,
    fault_stall_rows,
    format_cache_summary,
    format_fault_summary,
    format_table,
)
from repro.workloads.registry import WORKLOADS
from repro.workloads.traffic import TRAFFIC_SCENARIOS

SYSTEMS = ["linux", "linux514", "fastswap", "infiniswap", "canvas-iso", "canvas"]

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canvas-sim",
        description="Canvas (NSDI 2023) swap-system simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="run one experiment and print per-app stats")
    _add_common(run_cmd)

    compare_cmd = sub.add_parser(
        "compare", help="run the same workload group on several systems"
    )
    _add_common(compare_cmd, with_system=False)
    compare_cmd.add_argument(
        "--systems",
        nargs="+",
        default=["linux", "fastswap", "canvas-iso", "canvas"],
        choices=SYSTEMS,
    )
    compare_cmd.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes to fan the systems out over; default is "
        "the machine's CPU count ($REPRO_WORKERS overrides the "
        "default, 1 = serial)",
    )

    profile_cmd = sub.add_parser(
        "profile",
        help="run one experiment under the simulation profiler and print "
        "host time per simulator layer",
    )
    _add_common(profile_cmd)
    profile_cmd.add_argument(
        "--flush-us",
        type=float,
        default=None,
        metavar="US",
        help="CPU-charge granularity in simulated µs (default 25)",
    )

    chaos_cmd = sub.add_parser(
        "chaos",
        help="co-run under a named fault scenario and report degradation "
        "and per-cgroup retry-vs-queueing stalls",
    )
    _add_common(chaos_cmd)
    chaos_cmd.add_argument(
        "--scenario",
        default="degraded",
        choices=sorted(SCENARIOS),
        help="named fault scenario (see repro.faults.SCENARIOS)",
    )
    chaos_cmd.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        metavar="N",
        help="override the fault plan's RNG seed (default derives from --seed)",
    )
    chaos_cmd.add_argument(
        "--drop-prob",
        type=float,
        default=None,
        metavar="P",
        help="override the scenario's silent wire-drop probability",
    )
    chaos_cmd.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the fault-free reference run (no slowdown column)",
    )

    trace_cmd = sub.add_parser(
        "trace",
        help="run with the simulation-time tracer, dump a Perfetto/Chrome "
        "trace, print per-cgroup timelines, and lint the trace for "
        "causality violations",
    )
    _add_common(trace_cmd)
    trace_cmd.add_argument(
        "--scenario",
        default=None,
        choices=sorted(SCENARIOS),
        help="optionally run under a named fault scenario",
    )
    trace_cmd.add_argument(
        "--out",
        default="canvas-trace.json",
        metavar="PATH",
        help="Chrome trace_event JSON output (load in ui.perfetto.dev)",
    )
    trace_cmd.add_argument(
        "--capacity",
        type=int,
        default=2_000_000,
        metavar="N",
        help="trace ring-buffer capacity in records",
    )

    rack_cmd = sub.add_parser(
        "rack",
        help="sweep a multi-server rack (fig13-style scalability) and "
        "optionally inject server-death/drain episodes",
    )
    _add_common(rack_cmd)
    rack_cmd.add_argument(
        "--servers",
        nargs="+",
        type=int,
        default=[1, 2, 4, 8],
        metavar="N",
        help="memory-server counts to sweep (default: 1 2 4 8)",
    )
    rack_cmd.add_argument(
        "--placement",
        default="stripe",
        choices=sorted(PLACEMENTS),
        help="cluster placement policy homing swap entries on servers",
    )
    rack_cmd.add_argument(
        "--scenario",
        default=None,
        choices=sorted(RACK_SCENARIOS),
        help="rack fault scenario (see repro.faults.RACK_SCENARIOS); "
        "server ids are taken modulo the rack size, and a scenario "
        "that would kill every server is skipped for that point",
    )

    churn_cmd = sub.add_parser(
        "churn",
        help="run an open-loop traffic day (sessions arrive, run, and "
        "unregister on a seeded curve) and report lifecycle/SLO stats",
    )
    churn_cmd.add_argument("--system", default="canvas", choices=SYSTEMS)
    churn_cmd.add_argument(
        "--scenario",
        default="diurnal",
        choices=sorted(TRAFFIC_SCENARIOS),
        help="traffic curve (see repro.workloads.traffic.TRAFFIC_SCENARIOS)",
    )
    churn_cmd.add_argument(
        "--sessions",
        type=int,
        default=None,
        metavar="N",
        help="override the scenario's session count",
    )
    churn_cmd.add_argument(
        "--day-us",
        type=float,
        default=None,
        metavar="US",
        help="override the simulated day length",
    )
    churn_cmd.add_argument("--seed", type=int, default=0)
    churn_cmd.add_argument(
        "--slo-target-us",
        type=float,
        default=None,
        metavar="US",
        help="enable the SLO controller with this p99 demand-latency target",
    )
    churn_cmd.add_argument(
        "--fault-scenario",
        default=None,
        choices=sorted(SCENARIOS),
        help="run the day under a named fault scenario",
    )

    cache_cmd = sub.add_parser(
        "cache", help=f"inspect or clear the ${CACHE_DIR_ENV} result cache"
    )
    cache_cmd.add_argument("action", choices=["info", "clear"])

    sub.add_parser("list", help="list workloads and system kinds")
    return parser


def _add_common(cmd: argparse.ArgumentParser, with_system: bool = True) -> None:
    cmd.add_argument("--apps", nargs="+", required=True, choices=sorted(WORKLOADS))
    if with_system:
        cmd.add_argument("--system", default="canvas", choices=SYSTEMS)
    cmd.add_argument("--scale", type=float, default=0.15)
    cmd.add_argument("--local", type=float, default=0.25, help="local-memory fraction")
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument(
        "--prefetcher",
        default="readahead",
        choices=["readahead", "leap", "leap-isolated", "none"],
        help="baseline-system prefetcher (Canvas manages its own)",
    )
    cmd.add_argument(
        "--csv",
        default=None,
        metavar="PATH",
        help="also write per-app summaries as CSV",
    )


def _config(args, system: Optional[str] = None) -> ExperimentConfig:
    return ExperimentConfig(
        system=system if system is not None else args.system,
        scale=args.scale,
        local_memory_fraction=args.local,
        seed=args.seed,
        prefetcher=args.prefetcher,
    )


def _cmd_run(args) -> int:
    result = run_experiment(args.apps, _config(args))
    if args.csv:
        from repro.analysis import export_summaries, summarize

        export_summaries(args.csv, summarize(result))
        print(f"wrote {args.csv}", file=sys.stderr)
    rows = []
    for name in args.apps:
        app_result = result.results[name]
        stats = app_result.stats
        rows.append(
            [
                name,
                app_result.completion_time_us / 1000,
                stats.faults,
                f"{100 * stats.fault_rate:.1f}%",
                f"{100 * app_result.prefetch_contribution:.1f}%",
                stats.swapouts + stats.clean_drops,
            ]
        )
    print(
        format_table(
            ["app", "time (ms)", "faults", "fault rate", "prefetch contrib", "evictions"],
            rows,
        )
    )
    return 0


def _cmd_compare(args) -> int:
    jobs = [(args.apps, _config(args, system=system)) for system in args.systems]
    workers = (
        default_worker_count() if args.workers is None else max(1, args.workers)
    )
    print(
        f"running {args.apps} on {len(args.systems)} systems "
        f"({workers} workers) ...",
        file=sys.stderr,
    )
    results = run_experiments_parallel(jobs, max_workers=workers)
    times = {}
    csv_rows = []
    for system, result in zip(args.systems, results):
        times[system] = {
            name: result.completion_time(name) / 1000 for name in args.apps
        }
        if args.csv:
            from repro.analysis import summarize

            for summary in summarize(result).values():
                csv_rows.append({"system": system, **summary.as_dict()})
    if args.csv and csv_rows:
        from repro.analysis import export_rows

        headers = list(csv_rows[0].keys())
        export_rows(args.csv, headers, ([r[h] for h in headers] for r in csv_rows))
        print(f"wrote {args.csv}", file=sys.stderr)
    rows = [[system] + [times[system][name] for name in args.apps]
            for system in args.systems]
    print(format_table(["system (ms)"] + args.apps, rows))
    if CACHE_STATS.total_lookups:
        print(format_cache_summary(CACHE_STATS), file=sys.stderr)
    return 0


def _cmd_profile(args) -> int:
    from repro.metrics.profiler import SimProfiler

    config = _config(args)
    if args.flush_us is not None:
        config.cpu_flush_us = args.flush_us
    profiler = SimProfiler()
    result = run_experiment(args.apps, config, profiler=profiler)
    print(f"profile: {args.system} / {', '.join(args.apps)}")
    print(profiler.format())
    rows = [
        [name, result.completion_time(name) / 1000, result.results[name].stats.faults]
        for name in args.apps
    ]
    print()
    print(format_table(["app", "time (ms)", "faults"], rows))
    print(f"digest: {result_digest(result)}")
    return 0


def _cmd_chaos(args) -> int:
    from dataclasses import replace

    fault_config = SCENARIOS[args.scenario]
    overrides = {}
    if args.fault_seed is not None:
        overrides["fault_seed"] = args.fault_seed
    if args.drop_prob is not None:
        overrides["drop_prob"] = args.drop_prob
    if overrides:
        fault_config = replace(fault_config, **overrides)
    base = _config(args)
    faulted = replace(base, fault_config=fault_config)
    baseline = None
    if not args.no_baseline:
        print("running fault-free baseline ...", file=sys.stderr)
        baseline = run_experiment(args.apps, base)
    print(f"running scenario {args.scenario!r} ...", file=sys.stderr)
    result = run_experiment(args.apps, faulted)

    headers = ["app", "time (ms)", "faults"]
    if baseline is not None:
        headers.append("slowdown (x)")
    rows = []
    for name in args.apps:
        app_result = result.results[name]
        row = [name, app_result.completion_time_us / 1000, app_result.stats.faults]
        if baseline is not None:
            reference = baseline.completion_time(name)
            row.append(
                app_result.completion_time_us / reference
                if reference
                else float("nan")
            )
        rows.append(row)
    print(f"chaos scenario {args.scenario!r} on {args.system}")
    print(format_table(headers, rows))
    print()
    print(format_table(FAULT_STALL_HEADERS, fault_stall_rows(result.results)))
    print()
    print(format_fault_summary(result.machine.nic.stats))
    if args.csv:
        from repro.analysis import export_summaries, summarize

        export_summaries(args.csv, summarize(result))
        print(f"wrote {args.csv}", file=sys.stderr)
    return 0


def _cmd_trace(args) -> int:
    from dataclasses import replace

    from repro.metrics.report import format_trace_summary
    from repro.obs import check_trace, dump_chrome_trace

    config = replace(_config(args), trace=True, trace_capacity=args.capacity)
    if args.scenario is not None:
        config = replace(config, fault_config=SCENARIOS[args.scenario])
        print(f"running scenario {args.scenario!r} with tracing ...", file=sys.stderr)
    else:
        print("running with tracing ...", file=sys.stderr)
    result = run_experiment(args.apps, config)
    trace = result.trace
    records = trace.records()
    dump_chrome_trace(args.out, records)
    print(
        f"wrote {args.out} ({len(records)} records"
        + (", ring truncated" if trace.truncated else "")
        + ")",
        file=sys.stderr,
    )
    print(f"trace: {args.system} / {', '.join(args.apps)}")
    print(format_trace_summary(trace.summarize()))
    violations = check_trace(records, truncated=trace.truncated)
    if violations:
        print()
        print(f"invariant checker: {len(violations)} violation(s)")
        for violation in violations[:20]:
            print(f"  {violation}")
        return 1
    print()
    print("invariant checker: ok")
    return 0


def _cmd_rack(args) -> int:
    from dataclasses import replace

    from repro.cluster import ClusterConfig

    base = _config(args)
    rows = []
    for n in args.servers:
        config = replace(
            base,
            cluster=ClusterConfig(n_servers=n, placement=args.placement),
        )
        note = ""
        if args.scenario is not None:
            fc = RACK_SCENARIOS[args.scenario]
            deaths = tuple((sid % n, at) for sid, at in fc.server_deaths)
            drains = tuple((sid % n, at) for sid, at in fc.server_drains)
            if len({sid for sid, _ in deaths}) >= n:
                note = "scenario skipped (would kill every server)"
            else:
                config = replace(
                    config,
                    fault_config=replace(
                        fc, server_deaths=deaths, server_drains=drains
                    ),
                )
        print(f"running {n}-server rack ...", file=sys.stderr)
        result = run_experiment(args.apps, config)
        stats = result.rack_stats
        worst_ms = max(result.completion_time(name) for name in args.apps) / 1000
        if not note:
            note = (
                "ledger ok"
                if result.rack.ledger_balanced()
                else "LEDGER IMBALANCE"
            )
        rows.append(
            [
                n,
                worst_ms,
                stats.pages_rehomed,
                stats.pages_lost_from_dead,
                stats.pages_drained,
                stats.entries_retired,
                note,
            ]
        )
    print(
        f"rack sweep ({args.placement}): {args.system} / {', '.join(args.apps)}"
        + (f" under {args.scenario!r}" if args.scenario else "")
    )
    print(
        format_table(
            ["servers", "worst time (ms)", "rehomed", "lost", "drained",
             "retired", "status"],
            rows,
        )
    )
    return 0


def _cmd_churn(args) -> int:
    from dataclasses import replace as dc_replace

    from repro.core.slo import SloConfig
    from repro.harness.experiment import run_churn

    traffic = TRAFFIC_SCENARIOS[args.scenario]
    overrides = {}
    if args.sessions is not None:
        overrides["n_sessions"] = args.sessions
    if args.day_us is not None:
        overrides["day_us"] = args.day_us
    if overrides:
        traffic = dc_replace(traffic, **overrides)
    config = ExperimentConfig(
        system=args.system,
        seed=args.seed,
        traffic=traffic,
        slo=(
            SloConfig(target_p99_us=args.slo_target_us)
            if args.slo_target_us is not None
            else None
        ),
        fault_config=(
            SCENARIOS[args.fault_scenario]
            if args.fault_scenario is not None
            else None
        ),
    )
    print(
        f"running {traffic.n_sessions}-session "
        f"{args.scenario!r} day on {args.system} ...",
        file=sys.stderr,
    )
    result = run_churn(config)
    leaked = len(result.system.apps)
    pressured = sum(1 for s in result.plan.sessions if s.pressured)
    faults = sum(app.stats.faults for app in result.apps.values())
    accesses = sum(app.stats.accesses for app in result.apps.values())
    print(f"churn day: {args.scenario} x{len(result.plan.sessions)} on {args.system}")
    rows = [
        ["sessions", len(result.plan.sessions)],
        ["pressured", pressured],
        ["accesses", accesses],
        ["faults", faults],
        ["elapsed (ms)", result.elapsed_us / 1000],
        ["still registered", leaked],
    ]
    if result.slo_stats is not None:
        rows.append(["slo rounds", result.slo_stats.rounds])
        rows.append(["slo breaches", result.slo_stats.breaches])
    print(format_table(["metric", "value"], rows))
    if leaked:
        print(f"ERROR: {leaked} cgroup(s) never unregistered", file=sys.stderr)
        return 1
    print(f"digest: {result.digest()}")
    return 0


def _cmd_cache(args) -> int:
    cache = default_disk_cache()
    if cache is None:
        print(f"result cache disabled (set ${CACHE_DIR_ENV} to enable)")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.root}")
        return 0
    entries = cache.entries()
    total_bytes = sum(path.stat().st_size for path in entries)
    print(f"cache dir: {cache.root}")
    print(f"entries:   {len(entries)}")
    print(f"size:      {total_bytes / 1024:.1f} KiB")
    return 0


def _cmd_list(_args) -> int:
    rows = [
        [cls.name, cls.display_name, "managed" if cls.managed else "native",
         cls.n_threads]
        for cls in sorted(WORKLOADS.values(), key=lambda c: c.name)
    ]
    print(format_table(["name", "description", "runtime", "threads"], rows))
    print()
    print("systems: " + ", ".join(SYSTEMS))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "rack":
        return _cmd_rack(args)
    if args.command == "churn":
        return _cmd_churn(args)
    if args.command == "cache":
        return _cmd_cache(args)
    return _cmd_list(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
