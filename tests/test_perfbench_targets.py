"""The repo benchmark's patch targets exist where its tracer looks.

``perfbench/tracer.py`` times layers by wrapping methods by name, and
wraps a method only where a class defines it in its own ``__dict__``; a
missing name is skipped silently, so the benchmark would keep running
with a layer quietly unattributed.  These checks fail instead when a
refactor renames one of those entry points or moves it into a base or
mixin class the tracer does not patch.
"""

import inspect

import pytest

import repro.harness.experiment as experiment
from repro.core.adaptive_alloc import AdaptiveSwapManager
from repro.core.canvas import CanvasSwapSystem
from repro.core.rdma_sched import TwoDimensionalScheduler
from repro.kernel.swap_system import BaseSwapSystem
from repro.prefetch.base import Prefetcher
from repro.rdma.nic import RNIC
from repro.sim.engine import Engine
from repro.swap.allocator import EntryAllocator

#: (class, method) pairs the tracer wraps, each defined on that class.
PATCHED = [
    (BaseSwapSystem, "consume_batch"),
    (BaseSwapSystem, "handle_fault"),
    (BaseSwapSystem, "handle_fault_group"),
    (BaseSwapSystem, "issue_prefetch_vpns"),
    (BaseSwapSystem, "register_app"),
    (BaseSwapSystem, "prepopulate"),
    (BaseSwapSystem, "unregister_app"),
    (CanvasSwapSystem, "prepopulate"),
    (Prefetcher, "on_fault"),
    (EntryAllocator, "allocate"),
    (AdaptiveSwapManager, "obtain_entry"),
    (RNIC, "submit"),
    (RNIC, "_complete"),
    (TwoDimensionalScheduler, "submit"),
]


@pytest.mark.parametrize(
    "cls,name", PATCHED, ids=[f"{cls.__name__}.{name}" for cls, name in PATCHED]
)
def test_patched_method_is_defined_on_its_class(cls, name):
    assert callable(cls.__dict__.get(name)), (
        f"{cls.__name__} no longer defines {name} itself"
    )


def test_engine_spawn_takes_a_process_name():
    # Process names map processes to layers.
    assert "name" in inspect.signature(Engine.spawn).parameters


@pytest.mark.parametrize("name", ["spawn_app", "_session_stream", "run_to_completion"])
def test_harness_entry_point_exists(name):
    assert callable(getattr(experiment, name, None)), (
        f"repro.harness.experiment has no {name}"
    )
