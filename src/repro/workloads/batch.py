"""Batched access streams: the form every driver thread consumes.

A workload stream is the sequence of ``(vpn, is_write, cpu_us)`` accesses
one thread performs.  Handing the driver one tuple per access would cost
a Python-level generator round-trip per access, which dominates
wall-clock time once the simulation itself is cheap (resident accesses
trigger no events).  So streams travel in :class:`AccessBatch` chunks of
about a thousand accesses, produced vectorized (numpy) by the pattern
generators and consumed in a tight loop by
``BaseSwapSystem.consume_batch``.

Equivalence contract: ``flatten_batches(batches)`` yields exactly the
scalar access sequence — same VPNs, same write flags, same per-access
CPU, same RNG draw order.  The scalar pattern generators in
:mod:`repro.workloads.patterns` (kept as an inspection API) are
implemented as ``flatten_batches`` over their batched variants, so both
views share one source of truth; workloads without a native batched
stream fall back to :func:`chunk_stream`, which re-chunks a scalar
stream.  Simulated results do not depend on where batch boundaries fall.
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
    """A chunk of one thread's access stream.

    Stores the three columns either as numpy arrays (vectorized
    producers) or plain lists (:func:`chunk_stream` fallback); the
    ``*_list`` views are what the consume loop indexes — plain Python
    ints/bools/floats, so the per-access hot loop never pays numpy
    scalar-boxing costs.
    """

    __slots__ = (
        "_vpns",
        "_writes",
        "_cpu",
        "_vpn_list",
        "_write_list",
        "_cpu_list",
        "_constant_cpu",
        "_write_positions",
        "_write_pos_arr",
        "_cpu_arr",
    )

    def __init__(
        self,
        vpns: Optional[np.ndarray] = None,
        writes: Optional[np.ndarray] = None,
        cpu_us: Optional[np.ndarray] = None,
    ):
        self._vpns = vpns
        self._writes = writes
        self._cpu = cpu_us
        self._vpn_list: Optional[List[int]] = None
        self._write_list: Optional[List[bool]] = None
        self._cpu_list: Optional[List[float]] = None
        self._constant_cpu: Optional[float] = _UNKNOWN
        self._write_positions: Optional[List[int]] = None
        self._write_pos_arr: Optional[np.ndarray] = None
        self._cpu_arr: Optional[np.ndarray] = None

    @classmethod
    def from_lists(
        cls, vpns: List[int], writes: List[bool], cpu_us: List[float]
    ) -> "AccessBatch":
        batch = cls()
        batch._vpn_list = vpns
        batch._write_list = writes
        batch._cpu_list = cpu_us
        return batch

    def __len__(self) -> int:
        if self._vpn_list is not None:
            return len(self._vpn_list)
        return len(self._vpns)

    @property
    def vpn_list(self) -> List[int]:
        if self._vpn_list is None:
            self._vpn_list = self._vpns.tolist()
        return self._vpn_list

    @property
    def write_list(self) -> List[bool]:
        if self._write_list is None:
            self._write_list = self._writes.tolist()
        return self._write_list

    @property
    def cpu_list(self) -> List[float]:
        if self._cpu_list is None:
            self._cpu_list = self._cpu.tolist()
        return self._cpu_list

    @property
    def constant_cpu(self) -> Optional[float]:
        """The per-access CPU cost if it is uniform, else None.

        Most patterns broadcast one scalar cost over the whole batch;
        the consume loop then skips a per-access list index.  Computed
        once and cached (the all-equal check is vectorized).
        """
        if self._constant_cpu is _UNKNOWN:
            cpu = self._cpu
            if cpu is None:
                cpu = np.asarray(self._cpu_list, dtype=np.float64)
            if len(cpu) and bool((cpu == cpu[0]).all()):
                self._constant_cpu = float(cpu[0])
            else:
                self._constant_cpu = None
        return self._constant_cpu

    @property
    def write_positions(self) -> List[int]:
        """Sorted batch indices of write accesses.

        Lets the consume loop skip the per-access write check: dirty
        bits for a consumed run are applied afterwards from this
        (usually short) list.
        """
        if self._write_positions is None:
            if self._writes is not None:
                self._write_positions = np.nonzero(self._writes)[0].tolist()
            else:
                self._write_positions = [
                    k for k, w in enumerate(self._write_list) if w
                ]
        return self._write_positions

    # -- columns as arrays (the vectorized consume path's views) ---------

    @property
    def vpn_array(self) -> np.ndarray:
        """The VPN column as a numpy array (built lazily for list batches)."""
        if self._vpns is None:
            self._vpns = np.asarray(self._vpn_list, dtype=np.int64)
        return self._vpns

    @property
    def cpu_array(self) -> np.ndarray:
        """The CPU column as float64 (only needed when cpu is non-constant)."""
        if self._cpu_arr is None:
            if self._cpu is not None:
                self._cpu_arr = np.asarray(self._cpu, dtype=np.float64)
            else:
                self._cpu_arr = np.asarray(self._cpu_list, dtype=np.float64)
        return self._cpu_arr

    @property
    def write_pos_array(self) -> np.ndarray:
        """``write_positions`` as an array, for searchsorted range slicing."""
        if self._write_pos_arr is None:
            if self._writes is not None:
                self._write_pos_arr = np.flatnonzero(self._writes)
            else:
                self._write_pos_arr = np.asarray(self.write_positions, dtype=np.int64)
        return self._write_pos_arr

    def accesses(self) -> Iterator[Access]:
        """The batch as scalar ``(vpn, is_write, cpu_us)`` tuples."""
        return zip(self.vpn_list, self.write_list, self.cpu_list)

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
    """Adapt a batched stream to the scalar one-tuple-per-access protocol."""
    for batch in batches:
        yield from zip(batch.vpn_list, batch.write_list, batch.cpu_list)


def chunk_stream(
    stream: Iterator[Access], batch_size: int = BATCH_SIZE
) -> Iterator[AccessBatch]:
    """Adapt a scalar access stream to the batched protocol.

    The generic fallback for workloads without a native batched stream
    (e.g. Snappy's stateful reader/writer interleaving): semantics are
    identical, only the transport changes.
    """
    vpns: List[int] = []
    writes: List[bool] = []
    cpu: List[float] = []
    for vpn, write, cpu_us in stream:
        vpns.append(vpn)
        writes.append(bool(write))
        cpu.append(float(cpu_us))
        if len(vpns) >= batch_size:
            yield AccessBatch.from_lists(vpns, writes, cpu)
            vpns, writes, cpu = [], [], []
    if vpns:
        yield AccessBatch.from_lists(vpns, writes, cpu)
