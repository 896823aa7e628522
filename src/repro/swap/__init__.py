"""Swap substrate: entries, partitions, allocators, and the swap cache."""

from repro.swap.allocator import (
    AllocatorStats,
    EntryAllocator,
    Linux514Allocator,
)
from repro.swap.entry import SwapEntry
from repro.swap.partition import SwapPartition
from repro.swap.swap_cache import SwapCache, SwapCacheStats

__all__ = [
    "AllocatorStats",
    "EntryAllocator",
    "Linux514Allocator",
    "SwapEntry",
    "SwapPartition",
    "SwapCache",
    "SwapCacheStats",
]
