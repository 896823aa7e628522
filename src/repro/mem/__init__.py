"""Memory substrate: pages, address spaces, LRU aging, frame accounting."""

from repro.mem.address_space import VMA, AddressSpace
from repro.mem.frame_pool import FramePool, FramePoolStats
from repro.mem.lru import GenerationLRU
from repro.mem.page import PAGE_SHIFT, PAGE_SIZE, Page, PageState

__all__ = [
    "VMA",
    "AddressSpace",
    "FramePool",
    "FramePoolStats",
    "GenerationLRU",
    "PAGE_SHIFT",
    "PAGE_SIZE",
    "Page",
    "PageState",
]
