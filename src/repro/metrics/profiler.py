"""Opt-in simulation profiler: host time per simulator layer.

Answers "where does the *simulator's* time go" (host seconds, not
simulated microseconds), so fast-path changes are measured rather than
asserted.  ``run_experiment`` runs the engine under the standard
library's :mod:`cProfile` while a profiler is attached and folds the
per-function statistics into perfbench's layers plus ``sim.engine``:

* :data:`LAYER_TABLE` owns code by module path under ``repro/``, with
  function-name sets only where one file serves several layers.  A
  function's own time goes to the layer that owns it.
* A function the table does not own (``repro.mem``, telemetry, the swap
  cache, numpy, the stdlib, builtins, ``<genexpr>``/``<lambda>`` code)
  inherits from its callers: its own time under each caller, which
  pstats records per call edge, is charged to that caller's layers.  An
  unowned caller passes time on in proportion to the cumulative time of
  its own incoming edges.
* ``calls`` is the primitive call count of a layer's owned functions (a
  generator counts once per resume).

The simulator runs the same code with or without a profiler, so
profiling never changes simulated results.  cProfile does slow the run
(about 3.5x on a 3-app co-run) and weighs on many cheap calls most, so
the ``sim.engine`` share reads a few points high.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import repro
from repro.metrics.report import format_table

__all__ = ["LAYERS", "LAYER_TABLE", "SimProfiler", "layer_of"]

#: perfbench's twelve layers (``perfbench/tracer.py``) plus the engine.
LAYERS = (
    "workloads", "harness.driver", "kernel.consume", "kernel.fault", "prefetch",
    "kernel.reclaim", "swap.allocator", "rdma.nic", "core.rdma_sched",
    "core.daemons", "kernel.lifecycle", "core.slo", "sim.engine",
)

#: ``(module, layer, function names)``, first match wins.  ``module`` is
#: a file path under ``repro/`` or a package directory ending in ``/``;
#: ``None`` names take every function of the module not named above.
LAYER_TABLE = tuple(
    (module, layer, frozenset(names.split()) if names else None)
    for module, layer, names in (
        ("sim/", "sim.engine", ""),
        ("workloads/", "workloads", ""),
        ("harness/driver.py", "harness.driver", ""),
        ("kernel/swap_system.py", "kernel.consume", "consume_batch"),
        ("kernel/swap_system.py", "kernel.lifecycle",
         "register_app _setup_app prepopulate unregister_app _teardown_app"),
        ("kernel/swap_system.py", "kernel.reclaim",
         "_needs_writeback _obtain_writeback_entry _on_writeback_error "
         "_evict_victim _evict_one _evict_many _on_writeback_complete "
         "_shrink_cache_if_needed _kick_kswapd _kswapd_loop"),
        ("kernel/swap_system.py", "prefetch",
         "_issue_prefetches issue_prefetch_vpns _post_prefetch_hook "
         "_inflight_prefetches _dec_inflight_prefetch"),
        ("kernel/swap_system.py", "kernel.fault", ""),
        ("core/canvas.py", "kernel.lifecycle",
         "_setup_app prepopulate _teardown_app attach_runtime_handler"),
        ("core/canvas.py", "kernel.reclaim", "_obtain_writeback_entry _on_evicted"),
        ("core/canvas.py", "prefetch", "_post_prefetch_hook _on_prefetch_dropped"),
        ("core/canvas.py", "kernel.fault", ""),
        ("prefetch/", "prefetch", ""),
        ("swap/allocator.py", "swap.allocator", ""),
        ("core/adaptive_alloc.py", "core.daemons", "_scan_loop _scan_once"),
        ("core/adaptive_alloc.py", "swap.allocator", ""),
        ("rdma/nic.py", "rdma.nic", ""),
        ("core/rdma_sched.py", "core.rdma_sched", ""),
        ("kernel/userfaultfd.py", "core.daemons", ""),
        ("core/rebalance.py", "core.daemons", ""),
        ("core/slo.py", "core.slo", ""),
    )
)

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(module: str, name: str) -> Optional[str]:
    """The layer that owns function ``name`` of ``repro/<module>``, if any."""
    if name.startswith("<"):
        return None
    for path, layer, names in LAYER_TABLE:
        if (module == path or (path.endswith("/") and module.startswith(path))) and (
            names is None or name in names
        ):
            return layer
    return None


def _owner(func) -> Optional[str]:
    filename, _line, name = func
    module = filename[len(_REPRO_DIR):].replace(os.sep, "/")
    return layer_of(module, name) if filename.startswith(_REPRO_DIR) else None


class SimProfiler:
    """Accumulates host seconds and calls per simulator layer."""

    def __init__(self) -> None:
        self.sections: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: Total wall seconds of profiled simulation runs.
        self.wall_seconds = 0.0
        #: Total simulated accesses across profiled runs.
        self.accesses = 0
        #: Profiled experiment runs folded into this profile.
        self.runs = 0

    def run(self, fn, *args, **kwargs):
        """Call ``fn`` under cProfile and fold the run into the totals."""
        # Imported here so an unprofiled process never loads them.
        import cProfile
        import pstats

        profile = cProfile.Profile()
        start = perf_counter()
        result = profile.runcall(fn, *args, **kwargs)
        self.wall_seconds += perf_counter() - start
        self.runs += 1
        self._fold(pstats.Stats(profile).stats)
        return result

    def _fold(self, stats) -> None:
        owner = {func: _owner(func) for func in stats}
        shares = {func: {layer: 1.0} for func, layer in owner.items() if layer}

        def share(func) -> Dict[str, float]:
            """``func``'s split over layers: its own, or its callers' mix."""
            if func not in shares:
                # An edge back into a function still being resolved adds nothing.
                shares[func] = {}
                mix = dict.fromkeys(LAYERS, 0.0)
                for caller, edge in stats[func][4].items():
                    if caller != func:
                        for layer, part in share(caller).items():
                            mix[layer] += edge[3] * part
                total = sum(mix.values())
                shares[func] = {k: w / total for k, w in mix.items() if w > 0}
            return shares[func]

        for func, (cc, _nc, tt, _ct, callers) in stats.items():
            if owner[func] is not None:
                self.sections[owner[func]] += tt
                self.calls[owner[func]] += cc
                continue
            for caller, edge in callers.items():
                for layer, part in share(caller).items():
                    self.sections[layer] += edge[2] * part

    # -- reporting -------------------------------------------------------

    @property
    def unattributed_seconds(self) -> float:
        return max(0.0, self.wall_seconds - sum(self.sections.values()))

    def rows(self) -> List[Tuple[str, float, int]]:
        """(layer, seconds, calls) rows in layer order, then ``unattributed``."""
        rows = [(layer, self.sections[layer], self.calls[layer]) for layer in LAYERS]
        return rows + [("unattributed", self.unattributed_seconds, 0)]

    def format(self) -> str:
        total = self.wall_seconds or 1.0
        table = format_table(
            ["layer", "wall (s)", "share", "calls"],
            [
                [layer, f"{seconds:.3f}", f"{100.0 * seconds / total:.1f}%", calls or ""]
                for layer, seconds, calls in self.rows()
            ],
        )
        return (
            f"{table}\ntotal: {self.wall_seconds:.3f}s wall under cProfile over "
            f"{self.runs} run(s), {self.accesses} accesses "
            f"({self.accesses / total / 1e3:.1f}k accesses/s)"
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "sections": dict(self.sections),
            "calls": dict(self.calls),
            "unattributed_seconds": self.unattributed_seconds,
            "wall_seconds": self.wall_seconds,
            "accesses": self.accesses,
            "runs": self.runs,
        }
