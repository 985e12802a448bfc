"""Translation lookaside buffer model.

POWER5's TLB is shared between the two SMT threads of a core; a thread
streaming through a huge footprint can evict the sibling's translations.
The balancer also monitors TLB misses (paper section 3.1).

A TLB is a set-associative LRU cache over page numbers, so it reuses
the cache's flat-set lookup with pages in place of lines.
"""

from __future__ import annotations

from repro.config import TLBConfig
from repro.memory.cache import SetAssociativeCache


class TLB(SetAssociativeCache):
    """Set-associative TLB over page numbers, LRU replacement."""

    def __init__(self, config: TLBConfig):
        if config.entries % config.associativity:
            raise ValueError("TLB entries must divide by associativity")
        self.config = config
        self.name = "TLB"
        self._init_sets(config.entries // config.associativity,
                        config.associativity, config.page_bytes)

    def __repr__(self) -> str:
        cfg = self.config
        return (f"TLB({cfg.entries} entries, {cfg.associativity}-way, "
                f"{cfg.page_bytes}B pages)")
