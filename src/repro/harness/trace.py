"""Fault-trace recording and replay.

Attach a :class:`FaultTracer` to any swap system to capture every page
fault as ``(time, app, thread, vpn, stall)``; dump the trace to JSON
lines for offline analysis, or turn it back into a workload with
:func:`replay_streams` — the recorded inter-fault gaps become compute
time, so a trace taken on one system configuration can be replayed
against another (e.g. record on Linux, replay on Canvas) to compare how
each serves the *same* fault sequence.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.kernel.swap_system import BaseSwapSystem
from repro.workloads.batch import AccessBatch, chunk_stream

__all__ = ["FaultRecord", "FaultTracer", "load_trace", "replay_streams"]


@dataclass
class FaultRecord:
    """One recorded page fault."""

    time_us: float
    app: str
    thread_id: int
    vpn: int
    stall_us: float


class FaultTracer:
    """Record every fault a swap system serves."""

    def __init__(self, system: BaseSwapSystem, apps: Optional[List[str]] = None):
        self.records: List[FaultRecord] = []
        self._filter = set(apps) if apps is not None else None
        system.fault_hooks.append(self._on_fault)

    def _on_fault(
        self, app_name: str, thread_id: int, vpn: int, start_us: float, end_us: float
    ) -> None:
        if self._filter is not None and app_name not in self._filter:
            return
        self.records.append(
            FaultRecord(start_us, app_name, thread_id, vpn, end_us - start_us)
        )

    def __len__(self) -> int:
        return len(self.records)

    def by_app(self) -> Dict[str, List[FaultRecord]]:
        grouped: Dict[str, List[FaultRecord]] = {}
        for record in self.records:
            grouped.setdefault(record.app, []).append(record)
        return grouped

    def dump(self, path) -> int:
        """Write JSON lines; returns the number of records written."""
        path = Path(path)
        with path.open("w") as handle:
            for record in self.records:
                handle.write(json.dumps(asdict(record)) + "\n")
        return len(self.records)


def load_trace(path) -> List[FaultRecord]:
    records = []
    with Path(path).open() as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(FaultRecord(**json.loads(line)))
    return records


def replay_streams(
    records: List[FaultRecord], write: bool = False
) -> List[Iterator[AccessBatch]]:
    """Turn one app's recorded trace back into per-thread batched streams.

    Stream ``k`` replays recorded thread ``k`` (a thread that took no
    fault gets an empty stream), so thread ids — and with them the
    runtime's app/GC thread roles — survive the replay.  Each recorded
    fault becomes one access; the gap between consecutive faults of the
    same thread (minus the recorded stall) becomes that access's compute
    time, so replaying against a faster swap system genuinely finishes
    sooner.
    """
    if len({record.app for record in records}) > 1:
        raise ValueError("replay_streams takes one app's records (see by_app)")
    per_thread: Dict[int, List[FaultRecord]] = {}
    for record in records:
        per_thread.setdefault(record.thread_id, []).append(record)

    def make_stream(thread_records: List[FaultRecord]):
        thread_records = sorted(thread_records, key=lambda r: r.time_us)
        previous_end = thread_records[0].time_us if thread_records else 0.0
        for record in thread_records:
            compute = max(0.0, record.time_us - previous_end)
            previous_end = record.time_us + record.stall_us
            yield (record.vpn, write, compute)

    n_threads = max(per_thread, default=-1) + 1
    return [chunk_stream(make_stream(per_thread.get(k, []))) for k in range(n_threads)]
