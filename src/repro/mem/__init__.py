"""Physical-memory substrate: regions, frame metadata, and allocators.

This package models the machine's physical memory the way a kernel sees
it: a set of technology-typed regions (DRAM, NVM), a per-frame metadata
table (Linux's ``struct page`` — whose cost the paper's §2 calls out), a
buddy allocator for page frames, a slab allocator for kernel objects, a
block bitmap for file-system allocation (a view over :class:`ExtentSet`,
the sorted run set the simulator's free-space and shadow ledgers share),
and a pre-zeroed frame pool used by the O(1) erase strategies.
"""

from repro.mem.physical import MemoryRegion, PhysicalMemory
from repro.mem.frame_meta import FrameMeta, FrameTable, PageFlags
from repro.mem.bitmap import Bitmap
from repro.mem.extentset import ExtentSet
from repro.mem.buddy import BuddyAllocator
from repro.mem.slab import SlabCache
from repro.mem.zeropool import ZeroPool

__all__ = [
    "Bitmap",
    "BuddyAllocator",
    "ExtentSet",
    "FrameMeta",
    "FrameTable",
    "MemoryRegion",
    "PageFlags",
    "PhysicalMemory",
    "SlabCache",
    "ZeroPool",
]
