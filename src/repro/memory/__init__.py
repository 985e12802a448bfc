"""Shared memory hierarchy (see :mod:`repro.memory.hierarchy`)."""

from repro.memory.cache import CacheStats, SetAssociativeCache
from repro.memory.dram import DRAM
from repro.memory.hierarchy import MemLevel, MemoryHierarchy
from repro.memory.lmq import LoadMissQueue
from repro.memory.tlb import TLB

__all__ = [
    "SetAssociativeCache",
    "CacheStats",
    "TLB",
    "DRAM",
    "LoadMissQueue",
    "MemoryHierarchy",
    "MemLevel",
]
