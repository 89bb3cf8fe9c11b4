"""Behavioral memory-system substrate: caches, DRAM, coherence, hierarchy.

This package is the reproduction's stand-in for gem5's memory system.  It
models a blocking (TimingSimpleCPU-style) multi-level cache hierarchy:
private L1I/L1D per core, a shared inclusive LLC, and a DRAM backend, with
MESI-lite coherence between private caches through an LLC directory.
Every cache level replaces its LRU line.

The TimeCache defense (:mod:`repro.core`) hooks this substrate in two
places.  :class:`~repro.memsys.hierarchy.MemoryHierarchy` reads its
:class:`~repro.common.config.TimeCacheConfig` on the access path (the
s-bit check on every hit, the first-access probe, the fill rule and the
Section VII hardening options), and
:class:`repro.core.context.ContextSwitchEngine` operates on each cache's
s-bit and Tc arrays at context switches (save, restore and the
timestamp comparator).
"""

from repro.memsys.cache import Cache
from repro.memsys.cacheset import CacheSet
from repro.memsys.coherence import Directory
from repro.memsys.dram import Dram
from repro.memsys.fastengine import FastCache, FastHierarchy
from repro.memsys.hierarchy import (
    AccessKind,
    AccessResult,
    BatchResult,
    MemoryHierarchy,
)
from repro.memsys.line import CacheLine

__all__ = [
    "AccessKind",
    "AccessResult",
    "BatchResult",
    "Cache",
    "CacheLine",
    "CacheSet",
    "Directory",
    "Dram",
    "FastCache",
    "FastHierarchy",
    "MemoryHierarchy",
]
