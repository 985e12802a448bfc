"""Load-miss queue (LMQ) model.

POWER5 tracks outstanding L1D misses in a small queue shared by the two
SMT threads.  When all entries are busy, further misses wait: a thread
with many in-flight misses starves its sibling's memory parallelism.

A slot is busy during the *interval* an actual miss is outstanding
(issue to fill).  The trace-driven core schedules loads at their
operand-ready times, which may lie in the future, so the queue is an
interval scheduler: a miss that wants to issue at cycle ``t`` occupies
a slot at the earliest cycle >= ``t`` when fewer than ``entries``
intervals overlap -- a far-future chain load never blocks a miss that
is ready now.

The occupancy records are kept as ``(end, start)`` pairs sorted by end
time, with their start times mirrored in a second sorted list.  The
number of slots busy at cycle ``p`` is then two bisects: starts at or
before ``p`` minus ends at or before ``p`` (every record starts no
later than it ends).  Pruning at ``now`` drops the records that ended
by then together with as many of the smallest starts, which all lie
at or before ``now``, so both counts stay exact at every probe point
at or after ``now`` -- the only ones the core makes.

A saturated request is resolved by one forward sweep over the merged
start/end events from the requested cycle: the candidate slides to
the first cycle the occupancy drops below ``entries``, and is accepted
once no start event inside the requested span raises it back to
``entries``.  Occupancy only rises at starts, so those are the only
points inside the span that can saturate, and the sweep returns the
earliest feasible cycle.
"""

from __future__ import annotations

from bisect import bisect_right, insort


class LoadMissQueue:
    """Fixed number of outstanding-miss slots, shared by both threads."""

    def __init__(self, entries: int):
        if entries < 1:
            raise ValueError("LMQ needs at least one entry")
        self.entries = entries
        # Occupancy records (end, start) of outstanding misses, sorted
        # ascending (by end time first), and their start times, sorted.
        # Bounded by the in-flight window (GCT) plus expired leftovers,
        # which acquire trims.
        self._intervals: list[tuple[int, int]] = []
        self._starts: list[int] = []
        self._pending_start = 0
        self.acquisitions = 0
        self.total_wait_cycles = 0
        self.thread_acquisitions = [0, 0]
        self.thread_wait_cycles = [0, 0]

    def reset(self) -> None:
        """Free all slots and zero statistics."""
        self._intervals.clear()
        self._starts.clear()
        self._pending_start = 0
        self.acquisitions = 0
        self.total_wait_cycles = 0
        self.thread_acquisitions = [0, 0]
        self.thread_wait_cycles = [0, 0]

    def occupancy(self, at: int) -> int:
        """Number of slots busy at cycle ``at``."""
        return sum(1 for e, s in self._intervals if s <= at < e)

    def is_full(self, at: int) -> bool:
        """True when no slot is free at cycle ``at``."""
        return self.occupancy(at) >= self.entries

    def acquire(self, start: int, now: int, thread_id: int = 0,
                duration: int = 1) -> int:
        """Reserve a slot over ``[t, t+duration)`` for the first
        feasible ``t >= start``.

        Feasible means the whole reserved interval keeps the number of
        concurrently outstanding misses at or under ``entries``.
        ``now`` is the core's current cycle, used only to prune expired
        intervals (every future query issues at or after ``now``).
        The caller must follow up with :meth:`fill` to record the
        actual release time.
        """
        self.acquisitions += 1
        self.thread_acquisitions[thread_id] += 1
        intervals = self._intervals
        entries = self.entries
        if len(intervals) >= entries:
            # Trim expired records: every probe point lies at or after
            # ``now`` (loads issue no earlier than the decode cycle),
            # so records ending by then can never be active at one and
            # dropping them is behaviour-invisible.  They are a sorted
            # prefix, so one bisect finds the cut; their starts go with
            # the same number of smallest starts (see the module
            # docstring).
            i = bisect_right(intervals, (now, 1 << 62))
            if i:
                del intervals[:i]
                del self._starts[:i]
        j = bisect_right(intervals, (start, 1 << 62))
        if len(intervals) - j < entries:
            # Fewer records than slots end after ``start``: no probe
            # point can be saturated, the requested start is feasible
            # as-is.
            self._pending_start = start
            return start
        t = self._earliest(start, max(1, duration), j)
        self.total_wait_cycles += t - start
        self.thread_wait_cycles[thread_id] += t - start
        self._pending_start = t
        return t

    def _earliest(self, t: int, duration: int, j: int) -> int:
        """First ``t' >= t`` with ``[t', t'+duration)`` unsaturated.

        ``j`` counts the records ending at or before ``t``.  One sweep
        over the start/end events after ``t`` in time order, keeping
        the occupancy ``busy`` at the current point.
        """
        intervals = self._intervals
        starts = self._starts
        entries = self.entries
        n = len(intervals)
        big = 1 << 62
        i = bisect_right(starts, t)
        busy = i - j
        ns = starts[i] if i < n else big
        ne = intervals[j][0] if j < n else big
        while True:
            # Saturated at ``t``: no cycle before the occupancy next
            # drops below ``entries`` is feasible.  Only ends lower
            # it, and one is pending while any record is active.
            while busy >= entries:
                t = ne if ne < ns else ns
                while ns == t:
                    busy += 1
                    i += 1
                    ns = starts[i] if i < n else big
                while ne == t:
                    busy -= 1
                    j += 1
                    ne = intervals[j][0] if j < n else big
            # Unsaturated at ``t``: accept unless a start inside the
            # span saturates it, and resume from that start if so.
            lim = t + duration
            while True:
                q = ne if ne < ns else ns
                if q >= lim:
                    return t
                while ns == q:
                    busy += 1
                    i += 1
                    ns = starts[i] if i < n else big
                while ne == q:
                    busy -= 1
                    j += 1
                    ne = intervals[j][0] if j < n else big
                if busy >= entries:
                    t = q
                    break

    def fill(self, completion: int) -> None:
        """Record the interval of the miss most recently acquired.

        ``completion`` is at or after the start :meth:`acquire`
        returned (a miss never completes before it issues).
        """
        insort(self._intervals, (completion, self._pending_start))
        insort(self._starts, self._pending_start)

    def __repr__(self) -> str:
        return f"LoadMissQueue(entries={self.entries})"
