"""Workload interface.

A :class:`Workload` describes one Table 2 application: how many threads
it runs, how big its working set is, whether it is managed (JVM) or
native, and — through :meth:`build` and :meth:`thread_batch_streams` — the
page regions it maps and the :class:`~repro.workloads.batch.AccessBatch`
stream each thread produces.

``scale`` shrinks working sets and access counts together so experiments
run at laptop scale; all paper-relevant ratios (local-memory fraction,
fault rates, thread counts) are scale-invariant.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from repro.kernel.cgroup import AppContext
from repro.runtime.jvm import JvmRuntime, NativeRuntime
from repro.workloads.batch import AccessBatch

__all__ = ["Workload"]


class Workload:
    """Base class; concrete applications live in :mod:`repro.workloads.apps`."""

    #: Registry key (e.g. ``"spark_lr"``).
    name: str = ""
    #: Paper label (e.g. ``"Spark-LR (SLR)"``).
    display_name: str = ""
    #: Managed (JVM) applications get a JvmRuntime with GC threads.
    managed: bool = False
    n_threads: int = 1
    n_aux_threads: int = 0
    working_set_pages: int = 1024
    accesses_per_thread: int = 2000

    def __init__(self, scale: float = 1.0):
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.scale = scale
        self.working_set_pages = max(64, int(self.working_set_pages * scale))
        self.accesses_per_thread = max(100, int(self.accesses_per_thread * scale))

    # -- interface ----------------------------------------------------------

    def build(self, app: AppContext, rng: np.random.Generator) -> None:
        """Map regions into ``app.space`` and attach the runtime model."""
        raise NotImplementedError

    def thread_batch_streams(
        self, app: AppContext, rng: np.random.Generator
    ) -> List[Iterator[AccessBatch]]:
        """One batched access stream per thread (app threads first, then aux)."""
        raise NotImplementedError

    # -- helpers ----------------------------------------------------------

    @property
    def total_threads(self) -> int:
        return self.n_threads + self.n_aux_threads

    def attach_runtime(self, app: AppContext) -> None:
        """Create the runtime model and register the thread map."""
        if self.managed:
            runtime = JvmRuntime(app.name)
        else:
            runtime = NativeRuntime(app.name)
        runtime.register_threads(
            list(range(self.n_threads)),
            list(range(self.n_threads, self.total_threads)),
        )
        app.runtime = runtime

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(scale={self.scale})"
