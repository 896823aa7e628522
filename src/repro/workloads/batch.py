"""Batched access streams: the one stream protocol.

A workload stream is the sequence of ``(vpn, is_write, cpu_us)`` accesses
one thread performs.  Handing the driver one tuple per access would cost
a Python-level generator round-trip per access, which dominates
wall-clock time once the simulation itself is cheap (resident accesses
trigger no events).  So streams travel in :class:`AccessBatch` chunks of
about a thousand accesses, produced vectorized (numpy) by the pattern
generators in :mod:`repro.workloads.patterns` and consumed by
``BaseSwapSystem.consume_batch``.  Simulated results do not depend on
where batch boundaries fall.

:func:`flatten_batches` is the inspection view (one tuple per access);
:func:`chunk_stream` is the one adapter from a scalar stream, used by
tests and by :func:`repro.harness.trace.replay_streams`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["BATCH_SIZE", "AccessBatch", "flatten_batches", "chunk_stream"]

Access = Tuple[int, bool, float]

#: Default accesses per batch.  Large enough to amortize per-batch numpy
#: and call overhead, small enough that partially-consumed batches (the
#: common case around faults) stay cache-friendly.
BATCH_SIZE = 1024

#: Sentinel for "constant-cpu not computed yet" (None is a valid answer).
_UNKNOWN = object()


class AccessBatch:
    """A chunk of one thread's access stream, as three numpy columns.

    ``vpn_array`` (int64) and ``cpu_array`` (float64) are the columns the
    vectorized consume path slices; the ``*_list`` views are what the
    per-access fault loop indexes — plain Python ints/bools, so that
    loop never pays numpy scalar-boxing costs.  Every derived view is
    built on first use and cached.
    """

    __slots__ = (
        "vpn_array",
        "cpu_array",
        "_writes",
        "_vpn_list",
        "_write_list",
        "_constant_cpu",
        "_write_pos_arr",
    )

    def __init__(self, vpns: np.ndarray, writes: np.ndarray, cpu_us: np.ndarray):
        self.vpn_array = vpns
        self.cpu_array = cpu_us
        self._writes = writes
        self._vpn_list: Optional[List[int]] = None
        self._write_list: Optional[List[bool]] = None
        self._constant_cpu: Optional[float] = _UNKNOWN
        self._write_pos_arr: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.vpn_array)

    @property
    def vpn_list(self) -> List[int]:
        if self._vpn_list is None:
            self._vpn_list = self.vpn_array.tolist()
        return self._vpn_list

    @property
    def write_list(self) -> List[bool]:
        if self._write_list is None:
            self._write_list = self._writes.tolist()
        return self._write_list

    @property
    def constant_cpu(self) -> Optional[float]:
        """The per-access CPU cost if it is uniform, else None.

        Most patterns broadcast one scalar cost over the whole batch;
        the consume loop then skips a per-access index.
        """
        if self._constant_cpu is _UNKNOWN:
            cpu = self.cpu_array
            if len(cpu) and bool((cpu == cpu[0]).all()):
                self._constant_cpu = float(cpu[0])
            else:
                self._constant_cpu = None
        return self._constant_cpu

    @property
    def write_pos_array(self) -> np.ndarray:
        """Sorted batch indices of write accesses.

        Lets the consume loop skip the per-access write check: dirty
        bits for a consumed run are applied afterwards, range-sliced
        from this (usually short) array with searchsorted.
        """
        if self._write_pos_arr is None:
            self._write_pos_arr = np.flatnonzero(self._writes)
        return self._write_pos_arr

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AccessBatch(n={len(self)})"


def _columns(
    vpns: Sequence[int], writes, cpu_us, n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize producer output to same-length column arrays."""
    vpns = np.asarray(vpns)
    if np.isscalar(writes) or (isinstance(writes, np.ndarray) and writes.ndim == 0):
        writes = np.full(n, bool(writes), dtype=bool)
    else:
        writes = np.asarray(writes, dtype=bool)
    if np.isscalar(cpu_us) or (isinstance(cpu_us, np.ndarray) and cpu_us.ndim == 0):
        cpu_us = np.full(n, float(cpu_us), dtype=np.float64)
    else:
        cpu_us = np.asarray(cpu_us, dtype=np.float64)
    return vpns, writes, cpu_us


def emit_batches(
    vpns: Sequence[int], writes, cpu_us, batch_size: int = BATCH_SIZE
) -> Iterator[AccessBatch]:
    """Slice full column arrays into :class:`AccessBatch` chunks.

    ``writes`` and ``cpu_us`` may be scalars (broadcast over the batch).
    """
    n = len(vpns)
    vpns, writes, cpu_us = _columns(vpns, writes, cpu_us, n)
    for start in range(0, n, batch_size):
        stop = start + batch_size
        yield AccessBatch(vpns[start:stop], writes[start:stop], cpu_us[start:stop])


def flatten_batches(batches: Iterable[AccessBatch]) -> Iterator[Access]:
    """The batched stream as one ``(vpn, is_write, cpu_us)`` tuple per access."""
    for batch in batches:
        yield from zip(batch.vpn_list, batch.write_list, batch.cpu_array.tolist())


def chunk_stream(
    stream: Iterable[Access], batch_size: int = BATCH_SIZE
) -> Iterator[AccessBatch]:
    """Chunk a scalar ``(vpn, is_write, cpu_us)`` stream into batches."""
    vpns: List[int] = []
    writes: List[bool] = []
    cpu: List[float] = []

    def batch() -> AccessBatch:
        return AccessBatch(
            np.array(vpns, dtype=np.int64),
            np.array(writes, dtype=bool),
            np.array(cpu, dtype=np.float64),
        )

    for vpn, write, cpu_us in stream:
        vpns.append(vpn)
        writes.append(write)
        cpu.append(cpu_us)
        if len(vpns) >= batch_size:
            yield batch()
            vpns.clear()
            writes.clear()
            cpu.clear()
    if vpns:
        yield batch()
