"""Unit tests for the set-associative cache and TLB models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import POWER5, CacheConfig, CoreConfig, TLBConfig
from repro.memory import SetAssociativeCache, TLB


def make_cache(size=1024, line=64, assoc=2):
    return SetAssociativeCache(
        CacheConfig(size_bytes=size, line_bytes=line,
                    associativity=assoc, latency=2))


class TestCacheBasics:
    def test_cold_miss_then_hit(self):
        c = make_cache()
        assert not c.access(0x100, now=0)
        assert c.access(0x100, now=1)

    def test_same_line_hits(self):
        c = make_cache(line=64)
        c.access(0x100, 0)
        assert c.access(0x100 + 63, 1)

    def test_adjacent_line_misses(self):
        c = make_cache(line=64)
        c.access(0x100, 0)
        assert not c.access(0x100 + 64, 1)

    def test_probe_is_non_destructive(self):
        c = make_cache()
        assert not c.probe(0x100)
        c.access(0x100, 0)
        assert c.probe(0x100)
        assert c.stats.accesses == 1  # probe not counted

    def test_resident_lines(self):
        c = make_cache()
        for i in range(5):
            c.access(i * 64, i)
        assert c.resident_lines() == 5


class TestLRUReplacement:
    def test_lru_victim_evicted(self):
        c = make_cache(size=256, line=64, assoc=2)  # 2 sets
        set_span = 2 * 64
        a, b, d = 0, set_span, 2 * set_span  # same set, three lines
        c.access(a, 0)
        c.access(b, 1)
        c.access(a, 2)      # refresh a; b is now LRU
        c.access(d, 3)      # evicts b
        assert c.probe(a)
        assert not c.probe(b)
        assert c.probe(d)

    def test_cyclic_walk_over_capacity_always_misses(self):
        # The construction behind ldint_l2/l3/mem: walking more lines
        # than the associativity through one set in LRU order misses
        # on every access after warmup.
        c = make_cache(size=256, line=64, assoc=2)
        set_span = 128
        addrs = [i * set_span for i in range(3)]  # 3 lines, 2 ways
        now = 0
        for _ in range(2):  # warmup
            for a in addrs:
                c.access(a, now)
                now += 1
        c.stats.reset()
        for _ in range(4):
            for a in addrs:
                c.access(a, now)
                now += 1
        assert c.stats.hits == 0
        assert c.stats.misses == 12

    def test_within_capacity_walk_always_hits(self):
        c = make_cache(size=256, line=64, assoc=2)
        addrs = [0, 128]  # 2 lines in one 2-way set
        now = 0
        for a in addrs:
            c.access(a, now)
            now += 1
        c.stats.reset()
        for _ in range(4):
            for a in addrs:
                assert c.access(a, now)
                now += 1


class TestCacheStats:
    def test_per_thread_counters(self):
        c = make_cache()
        c.access(0, 0, thread_id=0)
        c.access(0, 1, thread_id=1)
        assert c.stats.thread_misses == [1, 0]
        assert c.stats.thread_hits == [0, 1]

    def test_miss_rate(self):
        c = make_cache()
        assert c.stats.miss_rate == 0.0
        c.access(0, 0)
        c.access(0, 1)
        assert c.stats.miss_rate == pytest.approx(0.5)

    def test_reset_clears_contents_and_stats(self):
        c = make_cache()
        c.access(0, 0)
        c.reset()
        assert c.resident_lines() == 0
        assert c.stats.accesses == 0


class TestCacheConfigValidation:
    def test_indivisible_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, line_bytes=64,
                        associativity=2, latency=2)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=0, line_bytes=64,
                        associativity=2, latency=2)

    def test_num_sets(self):
        cfg = CacheConfig(size_bytes=1024, line_bytes=64,
                          associativity=2, latency=2)
        assert cfg.num_sets == 8


class TestTLB:
    def test_page_granularity(self):
        tlb = TLB(TLBConfig(entries=8, associativity=2, page_bytes=4096))
        assert not tlb.access(0, 0)
        assert tlb.access(4095, 1)      # same page
        assert not tlb.access(4096, 2)  # next page

    def test_tlb_lru_eviction(self):
        tlb = TLB(TLBConfig(entries=4, associativity=2, page_bytes=4096))
        span = 2 * 4096  # pages in the same set are span apart
        tlb.access(0 * span, 0)
        tlb.access(1 * span, 1)
        tlb.access(2 * span, 2)  # evicts page 0
        assert not tlb.access(0, 3)

    def test_entries_must_divide(self):
        with pytest.raises(ValueError):
            TLB(TLBConfig(entries=10, associativity=4))

    def test_reset(self):
        tlb = TLB(TLBConfig(entries=8, associativity=2))
        tlb.access(0, 0)
        tlb.reset()
        assert not tlb.access(0, 1)
        assert tlb.stats.misses == 1


class TestRecencyView:
    def test_insertion_order_with_stamps(self):
        c = make_cache(size=256, line=64, assoc=2)  # 2 sets
        c.access(0, 5)
        c.access(128, 3)
        c.access(0, 9)  # a hit keeps its position, rewrites its stamp
        assert c.recency() == (((0, 9), (1, 3)), ())

    def test_tlb_view(self):
        tlb = TLB(TLBConfig(entries=4, associativity=2, page_bytes=4096))
        tlb.access(4096, 7)
        assert tlb.recency() == ((), ((0, 7),))


# ----------------------------------------------------------------------
# Exactness against the dict-per-set LRU model
# ----------------------------------------------------------------------

class DictLRU:
    """The previous cache/TLB model, kept verbatim as the oracle.

    Per set: a dict tag -> last-access stamp; a hit rewrites the stamp
    (the key keeps its insertion position), a miss evicts the first key
    with the smallest stamp when the set is full.
    """

    def __init__(self, num_sets, assoc, block_bytes):
        self.num_sets, self.assoc, self.block = num_sets, assoc, block_bytes
        self.sets = [dict() for _ in range(num_sets)]
        self.thread_hits = [0, 0]
        self.thread_misses = [0, 0]

    def access(self, addr, now, thread_id):
        line = addr // self.block
        idx = line % self.num_sets
        tag = line // self.num_sets
        cache_set = self.sets[idx]
        if tag in cache_set:
            cache_set[tag] = now
            self.thread_hits[thread_id] += 1
            return True
        self.thread_misses[thread_id] += 1
        if len(cache_set) >= self.assoc:
            victim = min(cache_set, key=cache_set.__getitem__)
            del cache_set[victim]
        cache_set[tag] = now
        return False


def _units(config: CoreConfig):
    """(name, unit under test, oracle) for every level of ``config``."""
    out = []
    for name in ("l1d", "l2", "l3"):
        cfg = getattr(config, name)
        out.append((name, SetAssociativeCache(cfg, name),
                    DictLRU(cfg.num_sets, cfg.associativity,
                            cfg.line_bytes)))
    tlb = config.tlb
    out.append(("tlb", TLB(tlb),
                DictLRU(tlb.entries // tlb.associativity,
                        tlb.associativity, tlb.page_bytes)))
    return out


GEOMETRIES = {"default": CoreConfig(), "small": POWER5.small()}

#: One access: (set slot, tag, byte offset, stamp, thread).  Three
#: sets and up to twice the associativity of tags per set force
#: conflict evictions; stamps are small, so they repeat and go
#: backwards (issue times are not monotone).
accesses = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 24), st.integers(0, 255),
              st.integers(0, 40), st.integers(0, 1)),
    min_size=1, max_size=300)


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@settings(max_examples=40, deadline=None)
@given(stream=accesses)
def test_flat_sets_match_dict_lru(geometry, stream):
    """Hit/miss, per-thread stats and recency equal the dict model
    after every access, at every level of both machine presets."""
    for _name, unit, oracle in _units(GEOMETRIES[geometry]):
        sets, block = oracle.num_sets, oracle.block
        for slot, tag, offset, stamp, tid in stream:
            idx = slot * (sets // 3 or 1) % sets
            addr = (tag * sets + idx) * block + offset % block
            assert unit.access(addr, stamp, tid) == oracle.access(
                addr, stamp, tid)
            assert unit.stats.thread_hits == oracle.thread_hits
            assert unit.stats.thread_misses == oracle.thread_misses
            assert unit.stats.hits == sum(oracle.thread_hits)
            assert unit.stats.misses == sum(oracle.thread_misses)
            assert (unit.recency()[idx]
                    == tuple(oracle.sets[idx].items()))
        assert unit.recency() == tuple(tuple(s.items())
                                       for s in oracle.sets)
