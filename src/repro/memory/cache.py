"""Set-associative cache model with true-LRU replacement.

The timing model only needs hit/miss decisions, so the cache tracks
tags and recency, not data.  Both SMT threads of the core share every
cache level, exactly as on POWER5 -- inter-thread conflict and capacity
interference are emergent.

Each set is a pair of parallel lists, tags and their last-access
stamps, in insertion order.  A hit rewrites the stamp in place; a miss
evicts (when the set is full) the way with the smallest stamp --
the earliest-inserted one on ties, which is exactly what ``index``
finds after a C-level ``min`` -- and appends the new tag.  Stamps are
*issue* times and are not monotone (an out-of-order load may touch a
line "earlier" than the previous access), so recency is the stamp
ranking, not the list order: a move-to-end list would pick different
victims.

The array engine's compiled kernels run the TLB+L1D hit test inline
against these lists (see :mod:`repro.isa.kernelgen`), so the per-set
lists and the per-thread counter lists keep their identity for the
life of the object: every mutation, ``reset`` included, is in place.
"""

from __future__ import annotations

from repro.config import CacheConfig


class CacheStats:
    """Hit/miss counters, kept per thread; totals are derived."""

    __slots__ = ("thread_hits", "thread_misses")

    def __init__(self, num_threads: int = 2):
        self.thread_hits = [0] * num_threads
        self.thread_misses = [0] * num_threads

    def reset(self) -> None:
        """Zero all counters (in place)."""
        for i in range(len(self.thread_hits)):
            self.thread_hits[i] = 0
            self.thread_misses[i] = 0

    @property
    def hits(self) -> int:
        """Total hits over all threads."""
        return sum(self.thread_hits)

    @property
    def misses(self) -> int:
        """Total misses over all threads."""
        return sum(self.thread_misses)

    @property
    def accesses(self) -> int:
        """Total number of lookups."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Miss fraction, 0.0 when no accesses were made."""
        total = self.accesses
        return self.misses / total if total else 0.0


class SetAssociativeCache:
    """One cache level: tags + LRU recency, shared by both threads."""

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.config = config
        self.name = name
        self._init_sets(config.num_sets, config.associativity,
                        config.line_bytes)

    def _init_sets(self, num_sets: int, assoc: int,
                   block_bytes: int) -> None:
        self._num_sets = num_sets
        self._assoc = assoc
        self._line_bytes = block_bytes
        # Per set: tags and their last-access stamps, in insertion
        # order (at most ``assoc`` entries each).
        self._tags: list[list[int]] = [[] for _ in range(num_sets)]
        self._stamps: list[list[int]] = [[] for _ in range(num_sets)]
        self.stats = CacheStats()

    def reset(self) -> None:
        """Invalidate all lines and zero statistics."""
        for tags in self._tags:
            tags.clear()
        for stamps in self._stamps:
            stamps.clear()
        self.stats.reset()

    def line_address(self, addr: int) -> int:
        """The line-granular address containing byte ``addr``."""
        return addr // self._line_bytes

    def access(self, addr: int, now: int, thread_id: int = 0) -> bool:
        """Look up byte address ``addr`` at time ``now``.

        Returns True on a hit.  On a miss the line is allocated
        (write-allocate for stores as well), evicting the LRU way when
        the set is full.
        """
        line = addr // self._line_bytes
        idx = line % self._num_sets
        tag = line // self._num_sets
        tags = self._tags[idx]
        if tag in tags:
            self._stamps[idx][tags.index(tag)] = now
            self.stats.thread_hits[thread_id] += 1
            return True
        self.stats.thread_misses[thread_id] += 1
        stamps = self._stamps[idx]
        if len(tags) >= self._assoc:
            way = stamps.index(min(stamps))
            del tags[way]
            del stamps[way]
        tags.append(tag)
        stamps.append(now)
        return False

    def probe(self, addr: int) -> bool:
        """Non-destructive lookup: True when the line is resident."""
        line = addr // self._line_bytes
        idx = line % self._num_sets
        tag = line // self._num_sets
        return tag in self._tags[idx]

    def recency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per set, its ``(tag, stamp)`` pairs in insertion order."""
        return tuple(tuple(zip(tags, stamps))
                     for tags, stamps in zip(self._tags, self._stamps))

    def resident_lines(self) -> int:
        """Number of lines currently allocated (for tests/inspection)."""
        return sum(len(tags) for tags in self._tags)

    def __repr__(self) -> str:
        cfg = self.config
        return (f"SetAssociativeCache({self.name}: {cfg.size_bytes}B, "
                f"{cfg.associativity}-way, {cfg.line_bytes}B lines)")
