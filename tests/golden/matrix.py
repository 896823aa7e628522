"""The golden digest matrix: every pinned run, by key.

Each entry is a zero-argument function returning one hex digest.  The
matrix covers the six swap systems on a single app and on a co-run, every
named fault scenario, every scripted rack episode, one churn day, the scripted
writeback-error unwind, a two-app co-run over a shared mapping on
Linux and on Canvas, and a churn day on a three-server rack on Linux and
on Canvas (which pin the order partitions are homed on the rack).
``tests/test_golden_digests.py`` checks each entry against
``tests/golden/digests.json``; ``tests/golden/regen.py`` lists and
rewrites the entries that changed.

Runs here use exactly the configurations the chaos suites use, so a
suite that pins one of these runs looks its digest up by key instead of
re-deriving it.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Callable, Dict, List

from repro.cluster import ClusterConfig
from repro.faults import (
    FAULT_ERROR,
    RACK_SCENARIOS,
    SCENARIOS,
    FaultConfig,
    FaultPlan,
)
from repro.harness.driver import run_to_completion, spawn_app
from repro.harness.experiment import (
    ExperimentConfig,
    churn_digest,
    run_churn,
    run_experiment,
)
from repro.harness.machine import Machine
from repro.harness.results import result_digest
from tests.conftest import build_shared_corun, build_system, sequential_accesses
from tests.test_lifecycle import churn_config

__all__ = [
    "SYSTEMS",
    "ENTRIES",
    "system_key",
    "scenario_key",
    "rack_key",
    "faulted_run",
    "rack_run",
    "writeback_error_run",
    "writeback_error_digest",
    "shared_run",
    "shared_ledger_errors",
]

SYSTEMS = ["linux", "linux514", "fastswap", "infiniswap", "canvas-iso", "canvas"]

#: The single-app and co-run shapes of the system matrix.
WORKLOADS = {"memcached": ["memcached"], "memcached+neo4j": ["memcached", "neo4j"]}


def system_key(system: str, workloads: str = "memcached") -> str:
    return f"system/{system}/{workloads}"


def scenario_key(scenario: str) -> str:
    return f"scenario/{scenario}"


def rack_key(scenario: str) -> str:
    return f"rack/{scenario}"


def faulted_run(system, fault_config=None, workloads=("memcached",), seed=11):
    """A scale-0.03 run, optionally under a fault scenario."""
    config = ExperimentConfig(
        system=system, scale=0.03, seed=seed, fault_config=fault_config
    )
    return run_experiment(list(workloads), config)


def rack_run(
    system, fault_config, n_servers=4, apps=("memcached",), seed=11, scale=0.03
):
    """A scaled run on an n-server rack, drained past app completion.

    Apps finish before background migration necessarily does; the
    post-run drain lets every in-flight verb and migration leg resolve
    before callers check for leaks.
    """
    config = ExperimentConfig(
        system=system,
        scale=scale,
        seed=seed,
        cluster=ClusterConfig(n_servers=n_servers),
        fault_config=fault_config,
    )
    result = run_experiment(list(apps), config)
    result.machine.engine.run(until=result.machine.engine.now + 200_000)
    return result


def writeback_error_run():
    """A write-heavy run whose first swap-out fails straight to an error
    CQE; returns ``(machine, system, app)``."""
    machine = Machine(seed=1)
    system, app, vma = build_system(machine)
    plan = FaultPlan(
        FaultConfig(
            roll_script=(FAULT_ERROR,),
            transport_retry_limit=0,
            read_faults=False,
        ),
        seed=0,
    )
    machine.nic.fault_plan = plan
    system.fault_plan = plan
    proc = spawn_app(system, app, [sequential_accesses(vma, 3000, write=True)])
    run_to_completion(machine.engine, [proc])
    return machine, system, app


def writeback_error_digest(machine, app) -> str:
    """Digest over the unwind's app stats, finish time, final clock, and
    NIC stats."""
    nic = dataclasses.asdict(machine.nic.stats)
    parts = (
        sorted(dataclasses.asdict(app.stats).items()),
        app.finished_at_us,
        machine.engine.now,
        sorted(nic.items()),
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def shared_run(system):
    """Two apps touching a shared region under memory pressure, drained
    past completion; returns ``(machine, system, apps)``."""
    machine = Machine(seed=5)
    swap, apps, streams = build_shared_corun(machine, system)
    procs = [spawn_app(swap, apps[name], [streams[name]]) for name in apps]
    run_to_completion(machine.engine, procs)
    machine.engine.run(until=machine.engine.now + 200_000)
    return machine, swap, apps


def shared_ledger_errors(system, apps) -> List[str]:
    """End-state ledgers of a drained run whose apps may share pages.

    Every present page (resident or in a swap cache) holds one charged
    frame, every resident page sits on exactly one app's LRU, nothing is
    in flight, and every allocated swap entry is held by a page (no
    leaked entry, none held twice).
    """
    pages = {id(p): p for app in apps.values() for p in app.space.pages.values()}
    pages = list(pages.values())
    errors = []
    resident = sum(p.resident for p in pages)
    present = resident + sum(p.in_swap_cache for p in pages)
    charged = sum(app.pool.used for app in apps.values())
    if charged != present:
        errors.append(f"{charged} frames charged for {present} present pages")
    on_lru = sum(len(app.lru) for app in apps.values())
    if on_lru != resident:
        errors.append(f"{on_lru} LRU members for {resident} resident pages")
    if system._inflight or system._inflight_req:
        errors.append("I/O still in flight")
    if any(app.outstanding_writebacks for app in apps.values()):
        errors.append("writebacks still outstanding")
    held = [p.swap_entry for p in pages if p.swap_entry is not None]
    held += [
        p.reserved_entry
        for p in pages
        if p.reserved_entry is not None and p.reserved_entry is not p.swap_entry
    ]
    if len({id(e) for e in held}) != len(held):
        errors.append("a swap entry is held by two pages")
    paths = [system.shared_path] + [app.swap_path for app in system.apps.values()]
    partitions = {id(path.partition): path.partition for path in paths}
    allocated = sum(part.used_count for part in partitions.values())
    if allocated != len(held):
        errors.append(f"{allocated} entries allocated, {len(held)} held by pages")
    return errors


def _shared(system) -> str:
    machine, swap, apps = shared_run(system)
    errors = shared_ledger_errors(swap, apps)
    if errors:
        raise AssertionError(f"shared/{system}: " + "; ".join(errors))
    parts = [
        (name, sorted(dataclasses.asdict(app.stats).items()), app.finished_at_us)
        for name, app in sorted(apps.items())
    ]
    parts.append(machine.engine.now)
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _churn() -> str:
    return churn_digest(churn_config("canvas"))


def _rack_churn(system: str, fault_config: FaultConfig) -> str:
    """A churn day on a three-server rack: the session digest plus the
    rack's ledger (entries retired, pages re-homed), which moves when
    partitions are homed in a different order or at a different time."""
    result = run_churn(
        churn_config(
            system, cluster=ClusterConfig(n_servers=3), fault_config=fault_config
        )
    )
    parts = (result.digest(), sorted(dataclasses.asdict(result.rack.stats).items()))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _writeback_error() -> str:
    machine, _, app = writeback_error_run()
    return writeback_error_digest(machine, app)


def _build() -> Dict[str, Callable[[], str]]:
    entries: Dict[str, Callable[[], str]] = {}
    for system in SYSTEMS:
        for label, workloads in WORKLOADS.items():
            entries[system_key(system, label)] = (
                lambda s=system, w=workloads: result_digest(
                    faulted_run(s, workloads=w)
                )
            )
    for name in sorted(SCENARIOS):
        entries[scenario_key(name)] = lambda n=name: result_digest(
            faulted_run("canvas", SCENARIOS[n])
        )
    for name in sorted(RACK_SCENARIOS):
        entries[rack_key(name)] = lambda n=name: result_digest(
            rack_run("canvas", RACK_SCENARIOS[n])
        )
    entries["churn/canvas"] = _churn
    entries["unwind/writeback-error"] = _writeback_error
    for system in ("linux", "canvas"):
        entries[f"shared/{system}"] = lambda s=system: _shared(s)
    # Canvas homes each cgroup's partition, then the global one, as the
    # cgroup registers; the linux family's one partition is homed when the
    # rack attaches, so a death before the first arrival retires entries.
    entries["rack-churn/canvas"] = lambda: _rack_churn(
        "canvas", RACK_SCENARIOS["server-death"]
    )
    entries["rack-churn/linux"] = lambda: _rack_churn(
        "linux", FaultConfig(server_deaths=((0, 50.0),))
    )
    return entries


#: key -> zero-argument digest function, in file order.
ENTRIES: Dict[str, Callable[[], str]] = _build()
