"""Unit tests for the DRAM bus and the load-miss queue."""

from bisect import bisect_right, insort

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MemoryConfig
from repro.memory import DRAM, LoadMissQueue


def make_dram(latency=200, gap=50):
    return DRAM(MemoryConfig(dram_latency=latency, dram_bus_gap=gap))


class TestDRAM:
    def test_single_access_latency(self):
        d = make_dram(latency=200)
        assert d.access(start=10, now=0) == 210

    def test_bus_serialization(self):
        d = make_dram(latency=200, gap=50)
        first = d.access(0, 0)
        second = d.access(0, 0)  # wants the bus at the same time
        assert first == 200
        assert second == 250  # pushed one gap later

    def test_spaced_accesses_do_not_queue(self):
        d = make_dram(latency=200, gap=50)
        d.access(0, 0)
        assert d.access(60, 0) == 260
        assert d.total_queue_cycles == 0

    def test_future_access_does_not_block_earlier_one(self):
        # The decode-order inversion bug: a chain access scheduled far
        # in the future must not delay one that is ready now.
        d = make_dram(latency=200, gap=50)
        d.access(1000, 0)             # future transfer
        assert d.access(0, 0) == 200  # unaffected

    def test_earlier_gap_window_respected(self):
        d = make_dram(latency=200, gap=50)
        d.access(100, 0)
        # Wants the bus at 80: within 50 of the transfer at 100.
        assert d.access(80, 0) == 150 + 200

    def test_saturated_stream_spaces_by_gap(self):
        d = make_dram(latency=100, gap=30)
        completes = [d.access(0, 0) for _ in range(5)]
        assert completes == [100, 130, 160, 190, 220]

    def test_thread_accounting(self):
        d = make_dram()
        d.access(0, 0, thread_id=1)
        d.access(0, 0, thread_id=1)
        assert d.thread_accesses == [0, 2]

    def test_pruning_bounds_state(self):
        d = make_dram(gap=10)
        for t in range(0, 20000, 100):
            d.access(t, t)
        assert d.scheduled_transfers() < 200

    def test_reset(self):
        d = make_dram()
        d.access(0, 0)
        d.reset()
        assert d.accesses == 0
        assert d.access(0, 0) == d.config.dram_latency


class TestLoadMissQueue:
    def test_free_slot_immediate(self):
        q = LoadMissQueue(2)
        assert q.acquire(start=5, now=0) == 5

    def test_full_queue_waits_for_earliest_release(self):
        q = LoadMissQueue(2)
        q.acquire(0, 0)
        q.fill(100)
        q.acquire(0, 0)
        q.fill(150)
        # Both slots busy over [0,100) and [0,150).
        assert q.acquire(10, 0) == 100
        q.fill(300)

    def test_interval_semantics_future_slot_free_now(self):
        q = LoadMissQueue(1)
        q.acquire(500, 0)
        q.fill(700)  # busy only during [500, 700)
        assert q.acquire(0, 0) == 0  # free right now
        q.fill(100)

    def test_occupancy_and_is_full(self):
        q = LoadMissQueue(2)
        q.acquire(0, 0)
        q.fill(50)
        assert q.occupancy(10) == 1
        assert not q.is_full(10)
        q.acquire(0, 0)
        q.fill(60)
        assert q.is_full(10)
        assert not q.is_full(70)

    def test_wait_cycles_accounted(self):
        q = LoadMissQueue(1)
        q.acquire(0, 0)
        q.fill(80)
        q.acquire(20, 0)
        q.fill(160)
        assert q.total_wait_cycles == 60

    def test_needs_at_least_one_entry(self):
        with pytest.raises(ValueError):
            LoadMissQueue(0)

    def test_thread_accounting(self):
        q = LoadMissQueue(4)
        q.acquire(0, 0, thread_id=1)
        q.fill(10)
        assert q.thread_acquisitions == [0, 1]

    def test_reset(self):
        q = LoadMissQueue(1)
        q.acquire(0, 0)
        q.fill(1000)
        q.reset()
        assert q.acquire(0, 0) == 0


# ----------------------------------------------------------------------
# Exactness against the interval-scan LMQ
# ----------------------------------------------------------------------

class ScanLMQ:
    """The previous load-miss queue, kept verbatim as the oracle.

    Records ``(end, start)`` sorted by end; a saturated request is
    resolved by rescanning the active records at every probe point.
    """

    def __init__(self, entries):
        self.entries = entries
        self._intervals = []
        self._pending_start = 0
        self.acquisitions = 0
        self.total_wait_cycles = 0
        self.thread_acquisitions = [0, 0]
        self.thread_wait_cycles = [0, 0]

    def acquire(self, start, now, thread_id=0, duration=1):
        self.acquisitions += 1
        self.thread_acquisitions[thread_id] += 1
        intervals = self._intervals
        entries = self.entries
        if len(intervals) >= entries:
            i = bisect_right(intervals, (now, 1 << 62))
            if i:
                del intervals[:i]
        if len(intervals) < entries:
            self._pending_start = start
            return start
        t = start
        while True:
            retry = self._conflict(t, t + max(1, duration))
            if retry is None:
                break
            t = retry
        self.total_wait_cycles += t - start
        self.thread_wait_cycles[thread_id] += t - start
        self._pending_start = t
        return t

    def _conflict(self, begin, end):
        intervals = self._intervals
        entries = self.entries
        n = len(intervals)
        p = begin
        while True:
            count = 0
            retry = 0
            j = bisect_right(intervals, (p, 1 << 62))
            first = j
            while j < n:
                rec = intervals[j]
                if rec[1] <= p:
                    if not count:
                        retry = rec[0]
                    count += 1
                    if count >= entries:
                        return retry
                j += 1
            nxt = end
            for j in range(first, n):
                s = intervals[j][1]
                if p < s < nxt:
                    nxt = s
            if nxt == end:
                return None
            p = nxt

    def fill(self, completion):
        insort(self._intervals, (completion, self._pending_start))


#: One request: (cycles ``now`` advances, how far in the future the
#: miss wants to issue, duration, extra cycles past the reserved span
#: before the fill, thread).  Small advances against long durations
#: keep the queue saturated; the lead time puts starts in the future.
requests = st.lists(
    st.tuples(st.integers(0, 30), st.sampled_from([0, 0, 1, 4, 40, 250]),
              st.integers(1, 300), st.sampled_from([0, 0, 0, 3, 90]),
              st.integers(0, 1)),
    min_size=1, max_size=200)


def _replay(entries, stream):
    """Drive both queues with ``stream``; returns the total wait."""
    lmq, oracle = LoadMissQueue(entries), ScanLMQ(entries)
    now = 0
    for advance, lead, duration, extra, tid in stream:
        now += advance
        start = now + lead
        got = lmq.acquire(start, now, tid, duration)
        assert got == oracle.acquire(start, now, tid, duration)
        lmq.fill(got + duration + extra)
        oracle.fill(got + duration + extra)
        assert lmq.acquisitions == oracle.acquisitions
        assert lmq.total_wait_cycles == oracle.total_wait_cycles
        assert lmq.thread_acquisitions == oracle.thread_acquisitions
        assert lmq.thread_wait_cycles == oracle.thread_wait_cycles
    return lmq.total_wait_cycles


@settings(max_examples=150, deadline=None)
@given(entries=st.integers(1, 8), stream=requests)
def test_sweep_matches_interval_scan(entries, stream):
    """Every returned start and every wait counter equals the scan
    model's, with pruning, future starts and a saturated queue."""
    _replay(entries, stream)


def test_saturated_stream_matches_interval_scan():
    """A fixed stream that keeps all 8 slots busy and waits often."""
    stream = [(i % 3, (0, 1, 40, 250)[i % 4], 1 + (i * 37) % 300,
               (0, 3, 90)[i % 3], i % 2) for i in range(400)]
    assert _replay(8, stream) > 0
