"""Tests for the experiment harness."""

import math

import pytest

from repro.baselines.fastswap import FastswapSystem
from repro.baselines.infiniswap import InfiniswapSystem
from repro.cli import SYSTEMS
from repro.core import CanvasSwapSystem
from repro.harness import ExperimentConfig, run_experiment
from repro.kernel.swap_system import LinuxSwapSystem
from repro.swap.allocator import EntryAllocator, Linux514Allocator


def small(system="linux", **kwargs):
    return ExperimentConfig(system=system, scale=0.1, **kwargs)


def test_individual_run_produces_result():
    res = run_experiment(["memcached"], small())
    assert "memcached" in res.results
    assert res.completion_time("memcached") > 0
    assert res.apps["memcached"].stats.faults > 0


def test_corun_all_apps_finish():
    res = run_experiment(["memcached", "snappy"], small())
    for name in ("memcached", "snappy"):
        assert not math.isnan(res.completion_time(name))


def test_unknown_system_rejected():
    with pytest.raises(ValueError):
        run_experiment(["snappy"], small(system="windows"))


def test_unknown_prefetcher_rejected():
    with pytest.raises(ValueError):
        run_experiment(["snappy"], small(prefetcher="psychic"))


@pytest.mark.parametrize("field_name", ["traffic", "slo"])
def test_run_experiment_rejects_churn_only_fields(field_name):
    from repro.core.slo import SloConfig
    from repro.workloads.traffic import TrafficConfig

    value = TrafficConfig() if field_name == "traffic" else SloConfig()
    with pytest.raises(ValueError, match=f"config.{field_name}"):
        run_experiment(["snappy"], small(system="canvas", **{field_name: value}))


def test_cores_follow_paper_defaults():
    res = run_experiment(["spark_lr", "memcached", "snappy", "xgboost"], small())
    assert res.apps["spark_lr"].config.n_cores == 24
    assert res.apps["xgboost"].config.n_cores == 16
    assert res.apps["memcached"].config.n_cores == 4
    assert res.apps["snappy"].config.n_cores == 1


def test_cores_override():
    cfg = small(cores_override={"snappy": 8})
    res = run_experiment(["snappy"], cfg)
    assert res.apps["snappy"].config.n_cores == 8


def test_local_memory_fraction_respected():
    cfg = small(local_memory_fraction=0.5)
    res = run_experiment(["memcached"], cfg)
    app = res.apps["memcached"]
    ws = app.space.total_pages
    assert app.pool.capacity_pages == pytest.approx(ws * 0.5, rel=0.1)


def test_canvas_gets_private_partitions():
    res = run_experiment(["memcached", "snappy"], small(system="canvas"))
    from repro.core import CanvasSwapSystem

    assert isinstance(res.system, CanvasSwapSystem)
    assert res.system.partition_of("memcached").name == "memcached.swap"


def test_canvas_iso_disables_optimizations():
    res = run_experiment(["memcached"], small(system="canvas-iso"))
    assert res.system.adaptive_stats("memcached") is None


def test_system_config_overrides_applied():
    cfg = small(system_config_overrides={"kswapd_batch": 2})
    res = run_experiment(["snappy"], cfg)
    assert res.system.config.kswapd_batch == 2


def test_system_config_overrides_unknown_key():
    with pytest.raises(AttributeError):
        run_experiment(["snappy"], small(system_config_overrides={"bogus": 1}))


def test_determinism_same_seed_same_result():
    a = run_experiment(["memcached"], small(seed=7))
    b = run_experiment(["memcached"], small(seed=7))
    assert a.completion_time("memcached") == b.completion_time("memcached")
    assert a.apps["memcached"].stats.faults == b.apps["memcached"].stats.faults


def test_different_seeds_differ():
    a = run_experiment(["memcached"], small(seed=1))
    b = run_experiment(["memcached"], small(seed=2))
    assert a.completion_time("memcached") != b.completion_time("memcached")


def test_prefetch_metrics_populated():
    res = run_experiment(["snappy"], small())
    result = res.results["snappy"]
    assert 0.0 <= result.prefetch_contribution <= 1.0
    assert result.prefetch_accuracy >= 0.0


#: Every CLI system kind -> (system class, system.name, allocator class).
SYSTEM_KINDS = {
    "linux": (LinuxSwapSystem, "linux", EntryAllocator),
    "linux514": (LinuxSwapSystem, "linux514", Linux514Allocator),
    "fastswap": (FastswapSystem, "fastswap", EntryAllocator),
    "infiniswap": (InfiniswapSystem, "infiniswap", EntryAllocator),
    "canvas-iso": (CanvasSwapSystem, "canvas", EntryAllocator),
    "canvas": (CanvasSwapSystem, "canvas", EntryAllocator),
}


@pytest.mark.parametrize("kind", SYSTEMS)
def test_system_kind_table(kind):
    system_cls, name, allocator_cls = SYSTEM_KINDS[kind]
    res = run_experiment(["memcached"], small(system=kind))
    assert type(res.system) is system_cls
    assert res.system.name == name
    if system_cls is CanvasSwapSystem:
        allocator = res.system.global_allocator
    else:
        allocator = res.system.allocator
    assert type(allocator) is allocator_cls
    assert res.completion_time("memcached") > 0


def test_zero_completion_time_is_not_missing():
    """An app with no accesses finishes at time 0.0, which is a
    completion time, not a missing one."""
    from repro.analysis.summary import summarize

    res = run_experiment(
        ["snappy", "memcached"],
        small(workload_overrides={"snappy": {"accesses_per_thread": 0}}),
    )
    assert res.apps["snappy"].completion_time_us == 0.0
    assert res.completion_time("snappy") == 0.0
    assert res.elapsed_us > 0
    assert summarize(res)["snappy"].completion_time_ms == 0.0


#: One valid per-app value for each config field keyed by app name.
PER_APP_VALUES = {
    "workload_overrides": {"n_threads": 2},
    "cores_override": 2,
    "rdma_weights": 1.0,
}


@pytest.mark.parametrize("field_name", sorted(PER_APP_VALUES))
def test_per_app_override_for_absent_app_rejected(field_name):
    value = {"snapy": PER_APP_VALUES[field_name]}
    with pytest.raises(ValueError, match=f"config.{field_name} names 'snapy'"):
        run_experiment(["snappy"], small(**{field_name: value}))


@pytest.mark.parametrize("field_name", sorted(PER_APP_VALUES))
def test_run_churn_rejects_per_app_overrides(field_name):
    from repro.harness.experiment import run_churn
    from repro.workloads.traffic import TrafficConfig

    with pytest.raises(ValueError, match=f"config.{field_name}"):
        run_churn(
            small(
                system="canvas",
                traffic=TrafficConfig(n_sessions=2),
                **{field_name: {"s0": PER_APP_VALUES[field_name]}},
            )
        )


def test_churn_result_is_an_experiment_result():
    """A churn result reads like any other result, and never pickles into
    one that has silently lost its plan or SLO stats."""
    import pickle

    from repro.core.slo import SloConfig
    from repro.harness import ExperimentResult
    from repro.harness.experiment import run_churn
    from repro.workloads.traffic import TrafficConfig

    res = run_churn(
        small(system="linux", traffic=TrafficConfig(n_sessions=4), slo=SloConfig())
    )
    assert isinstance(res, ExperimentResult)
    assert sorted(res.results) == sorted(res.apps)
    for name, app in res.apps.items():
        assert res.completion_time(name) == app.completion_time_us
    assert res.slo_stats is not None and len(res.plan.sessions) == 4
    with pytest.raises(TypeError):
        pickle.dumps(res)


# -- Disk-cache key coverage ----------------------------------------------


def _alternates(value):
    """Candidate replacement values for one config field, by type."""
    import dataclasses

    from repro.cluster import ClusterConfig
    from repro.core.slo import SloConfig
    from repro.faults import FaultConfig
    from repro.workloads.traffic import TrafficConfig

    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1]
    if isinstance(value, float):
        return [value + 1.0, value / 2 + 0.0078125]
    if isinstance(value, str):
        pool = ["canvas", "leap", "constant", "locality"]
        return [p for p in pool if p != value] + [value + "-alt"]
    if isinstance(value, dict):
        return [dict(value, probe=1)]
    if isinstance(value, tuple):
        return [value + ((0.25, 1_000.0),), value + (1,), (1.0,)]
    if dataclasses.is_dataclass(value):
        return [None]  # the nested sweep below flips individual fields
    if value is None:
        return [1, 1.0, True, FaultConfig(), ClusterConfig(), TrafficConfig(), SloConfig()]
    return []


def test_job_key_covers_every_config_field():
    """Cache-poisoning audit: flipping any single ``ExperimentConfig``
    field — including every field of the nested fault / cluster /
    traffic / SLO configs — must yield a distinct disk-cache key.  A
    field the key ignored would let two different experiments silently
    share one cached result."""
    import dataclasses

    from repro.cluster import ClusterConfig
    from repro.core.slo import SloConfig
    from repro.faults import FaultConfig
    from repro.harness import job_key
    from repro.workloads.traffic import TrafficConfig

    base = small(
        fault_config=FaultConfig(),
        cluster=ClusterConfig(),
        traffic=TrafficConfig(),
        slo=SloConfig(),
    )
    workloads = ["memcached"]
    seen = {job_key(workloads, base)}

    def sweep(config_obj, rebuild, label):
        for field in dataclasses.fields(config_obj):
            value = getattr(config_obj, field.name)
            for candidate in _alternates(value):
                try:
                    mutated = dataclasses.replace(
                        config_obj, **{field.name: candidate}
                    )
                except (ValueError, TypeError):
                    continue  # candidate tripped config validation
                key = job_key(workloads, rebuild(mutated))
                assert key not in seen, (
                    f"{label}.{field.name} change did not change the key"
                )
                seen.add(key)
                break
            else:
                pytest.fail(f"no valid alternate value for {label}.{field.name}")

    sweep(base, lambda mutated: mutated, "ExperimentConfig")
    for attr in ("fault_config", "cluster", "traffic", "slo"):
        nested = getattr(base, attr)
        sweep(
            nested,
            lambda mutated, attr=attr: dataclasses.replace(
                base, **{attr: mutated}
            ),
            type(nested).__name__,
        )
    # Sanity: the sweep really visited every field of every layer.
    n_fields = sum(
        len(dataclasses.fields(obj))
        for obj in (base, base.fault_config, base.cluster, base.traffic, base.slo)
    )
    assert len(seen) == 1 + n_fields
