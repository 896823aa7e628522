"""Access-stream combinators.

Workloads are built by composing these primitives: Snappy is one
sequential stream, Memcached is a Zipf stream, Spark is epochal scans
plus pointer chasing plus GC bursts, and so on.

Every primitive is a ``*_batches`` producer: it computes the whole
stream's columns vectorized and yields them as
:class:`~repro.workloads.batch.AccessBatch` chunks, the form the driver
consumes.  Wrap one in :func:`~repro.workloads.batch.flatten_batches` to
inspect it access by access.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.mem.address_space import VMA
from repro.workloads.batch import BATCH_SIZE, AccessBatch, emit_batches
from repro.workloads.zipf import ZipfSampler

__all__ = [
    "shuffled_chain",
    "grouped_chain",
    "sequential_batches",
    "strided_batches",
    "zipfian_batches",
    "pointer_chase_batches",
    "gc_bursts_batches",
]


# -- batched producers ----------------------------------------------------


def sequential_batches(
    vma: VMA,
    n: int,
    write_ratio: float = 0.0,
    cpu_us: float = 0.05,
    start: int = 0,
    rng: Optional[np.random.Generator] = None,
    batch_size: int = BATCH_SIZE,
) -> Iterator[AccessBatch]:
    """Wrap-around sequential scan from ``start`` (page offset)."""
    writes = _write_flags(n, write_ratio, rng)
    vpns = vma.start_vpn + (start + np.arange(n)) % vma.n_pages
    yield from emit_batches(vpns, writes, cpu_us, batch_size)


def strided_batches(
    vma: VMA,
    n: int,
    stride: int,
    write_ratio: float = 0.0,
    cpu_us: float = 0.05,
    start: int = 0,
    rng: Optional[np.random.Generator] = None,
    batch_size: int = BATCH_SIZE,
) -> Iterator[AccessBatch]:
    """Wrap-around strided scan (e.g. column access of a row-major matrix)."""
    writes = _write_flags(n, write_ratio, rng)
    vpns = vma.start_vpn + (start + np.arange(n) * stride) % vma.n_pages
    yield from emit_batches(vpns, writes, cpu_us, batch_size)


def zipfian_batches(
    vma: VMA,
    n: int,
    rng: np.random.Generator,
    theta: float = 0.99,
    write_ratio: float = 0.1,
    cpu_us: float = 0.1,
    batch_size: int = BATCH_SIZE,
) -> Iterator[AccessBatch]:
    """Zipf-popular page accesses (YCSB-style key lookups)."""
    sampler = ZipfSampler(vma.n_pages, theta, rng)
    ranks = sampler.sample_many(n)
    # Scatter ranks over the region so popular pages are not contiguous.
    permutation = rng.permutation(vma.n_pages)
    writes = _write_flags(n, write_ratio, rng)
    vpns = vma.start_vpn + permutation[ranks]
    yield from emit_batches(vpns, writes, cpu_us, batch_size)


def pointer_chase_batches(
    chain: Sequence[int],
    n: int,
    write_ratio: float = 0.0,
    cpu_us: float = 0.15,
    start_index: int = 0,
    rng: Optional[np.random.Generator] = None,
    batch_size: int = BATCH_SIZE,
) -> Iterator[AccessBatch]:
    """Follow a fixed pointer chain repeatedly.

    The chain is deterministic (the heap's object graph does not change
    between traversals), which is exactly why reference-graph prefetching
    works on it while stride detectors see noise.
    """
    writes = _write_flags(n, write_ratio, rng)
    vpns = np.asarray(chain)[(start_index + np.arange(n)) % len(chain)]
    yield from emit_batches(vpns, writes, cpu_us, batch_size)


def gc_bursts_batches(
    chain: Sequence[int],
    n_bursts: int,
    burst_len: int,
    idle_cpu_us: float = 400.0,
    cpu_us: float = 0.05,
    rng: Optional[np.random.Generator] = None,
    batch_size: int = BATCH_SIZE,
) -> Iterator[AccessBatch]:
    """A GC thread: long compute pauses, then a burst of graph traversal.

    The first access of each burst carries the accumulated idle CPU so the
    thread occupies a core between collections without generating events.
    """
    span = len(chain)
    vpns = np.asarray(chain)
    position = 0
    vpn_parts: List[np.ndarray] = []
    cpu_parts: List[np.ndarray] = []
    for _ in range(n_bursts):
        if rng is not None:
            position = int(rng.integers(0, span))
        if burst_len > 0:
            vpn_parts.append(vpns[(position + np.arange(burst_len)) % span])
            costs = np.full(burst_len, cpu_us, dtype=np.float64)
            costs[0] = idle_cpu_us
            cpu_parts.append(costs)
        position += burst_len
    if not vpn_parts:
        return
    yield from emit_batches(
        np.concatenate(vpn_parts), False, np.concatenate(cpu_parts), batch_size
    )


# -- chains ---------------------------------------------------------------


def shuffled_chain(vma: VMA, rng: np.random.Generator) -> List[int]:
    """A fixed random permutation of the region's VPNs: the 'object graph'
    traversal order used by :func:`pointer_chase_batches` and recorded as
    reference edges by managed workloads."""
    order = np.array(range(vma.start_vpn, vma.end_vpn))
    rng.shuffle(order)
    return [int(v) for v in order]


def grouped_chain(
    vma: VMA, rng: np.random.Generator, group_pages: int = 16
) -> List[int]:
    """An object-graph traversal order with allocation-site locality.

    Real managed heaps allocate related objects together: a traversal
    bounces *randomly within* a page group (defeating stride detectors)
    but moves *between* few groups (so the write-barrier summary graph is
    sparse and reference-based prefetching sees exactly the future).  The
    chain visits page groups in one fixed random order, shuffling pages
    inside each group.
    """
    vpns = np.array(range(vma.start_vpn, vma.end_vpn))
    groups = [
        vpns[start : start + group_pages]
        for start in range(0, len(vpns), group_pages)
    ]
    group_order = rng.permutation(len(groups))
    chain: List[int] = []
    for index in group_order:
        members = groups[index].copy()
        rng.shuffle(members)
        chain.extend(int(v) for v in members)
    return chain


def _write_flags(
    n: int, write_ratio: float, rng: Optional[np.random.Generator]
) -> np.ndarray:
    if write_ratio <= 0.0 or rng is None:
        if write_ratio >= 1.0:
            return np.ones(n, dtype=bool)
        if write_ratio > 0.0:
            # Deterministic thinning when no RNG is supplied.
            period = max(1, round(1.0 / write_ratio))
            return np.arange(n) % period == 0
        return np.zeros(n, dtype=bool)
    return rng.random(n) < write_ratio
