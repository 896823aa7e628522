"""Opt-in simulation profiler: wall-clock attribution per subsystem.

Answers "where does the *simulator's* time go" (host ``perf_counter``
seconds, not simulated microseconds), so fast-path changes are measured
rather than asserted.  Sections:

* ``stream_gen``  — producing workload access streams/batches,
* ``fast_path``   — resident classification + CPU clock advance
  (``consume_batch``),
* ``lru``         — per-access page/LRU maintenance,
* ``fault_path``  — the swap system's fault handler (its own execution
  slices only; time blocked on simulated I/O is not wall time).  This
  is the whole fault group, the CPU flushes between its members
  included,
* ``rdma``        — the RNIC model (dispatch selection + completions),
* ``engine/other``— everything unattributed (event heap, callbacks,
  kswapd, schedulers), computed as total wall minus the above.

Profiling never changes simulated results — only wall-clock readings
are taken.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Iterator, List, Tuple

from repro.metrics.report import format_table

__all__ = ["SimProfiler"]

#: Display order for known sections (unknown ones follow alphabetically).
_SECTION_ORDER = ["stream_gen", "fast_path", "lru", "fault_path", "rdma"]


class SimProfiler:
    """Accumulates wall-clock seconds per simulator subsystem."""

    def __init__(self) -> None:
        self.sections: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        #: Total wall seconds of profiled simulation runs.
        self.wall_seconds = 0.0
        #: Total simulated accesses across profiled runs.
        self.accesses = 0
        #: Profiled experiment runs folded into this profile.
        self.runs = 0

    # -- recording -------------------------------------------------------

    def add(self, section: str, seconds: float, count: int = 1) -> None:
        self.sections[section] = self.sections.get(section, 0.0) + seconds
        self.counts[section] = self.counts.get(section, 0) + count

    def timed_iter(self, section: str, iterator: Iterator) -> Iterator:
        """Wrap an iterator, attributing time spent inside ``next()``."""
        while True:
            t0 = perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                self.add(section, perf_counter() - t0)
                return
            self.add(section, perf_counter() - t0)
            yield item

    def timed_generator_fn(self, section: str, fn):
        """Wrap a generator function, timing only its execution slices.

        The wrapped generator is resumed and suspended exactly like the
        original, so yield sequences (and simulated results) are
        untouched; time the generator spends *suspended* (blocked on
        simulated I/O) is not attributed.
        """

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                item = gen.send(None)
                self.add(section, perf_counter() - t0)
                while True:
                    try:
                        received = yield item
                    except BaseException as exc:  # forward throws faithfully
                        t0 = perf_counter()
                        item = gen.throw(exc)
                    else:
                        t0 = perf_counter()
                        item = gen.send(received)
                    self.add(section, perf_counter() - t0)
            except StopIteration as stop:
                self.add(section, perf_counter() - t0)
                return stop.value

        return wrapper

    def record_run(self, wall_seconds: float, accesses: int) -> None:
        """Fold one profiled experiment run into the totals."""
        self.wall_seconds += wall_seconds
        self.accesses += accesses
        self.runs += 1

    # -- reporting -------------------------------------------------------

    @property
    def attributed_seconds(self) -> float:
        return sum(self.sections.values())

    @property
    def other_seconds(self) -> float:
        return max(0.0, self.wall_seconds - self.attributed_seconds)

    def rows(self) -> List[Tuple[str, float, int]]:
        """(section, seconds, count) rows, known sections first."""
        ordered = [s for s in _SECTION_ORDER if s in self.sections]
        ordered += sorted(set(self.sections) - set(_SECTION_ORDER))
        rows = [(s, self.sections[s], self.counts.get(s, 0)) for s in ordered]
        rows.append(("engine/other", self.other_seconds, 0))
        return rows

    def format(self) -> str:
        total = self.wall_seconds or self.attributed_seconds
        table_rows = []
        for section, seconds, count in self.rows():
            share = 100.0 * seconds / total if total > 0 else 0.0
            table_rows.append(
                [section, f"{seconds:.3f}", f"{share:.1f}%", count or ""]
            )
        table = format_table(["section", "wall (s)", "share", "calls"], table_rows)
        lines = [table]
        if self.wall_seconds > 0:
            rate = self.accesses / self.wall_seconds if self.accesses else 0.0
            lines.append(
                f"total: {self.wall_seconds:.3f}s wall over {self.runs} run(s), "
                f"{self.accesses} accesses ({rate / 1e3:.1f}k accesses/s)"
            )
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return {
            "sections": dict(self.sections),
            "wall_seconds": self.wall_seconds,
            "accesses": self.accesses,
            "runs": self.runs,
        }
