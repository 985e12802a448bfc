"""Shared fixtures for the test suite.

Simulation-backed tests use the ``small`` preset and short FAME
budgets; expensive measurements that several tests inspect are cached
at session scope.
"""

from __future__ import annotations

import pytest

from repro.config import POWER5
from repro.core import SMTCore
from repro.fame import FameRunner
from repro.microbench import make_microbenchmark

#: Address offset for the secondary thread in pair runs.
SECONDARY_BASE = (1 << 27) + 8192


@pytest.fixture(scope="session")
def config():
    """The fast machine preset used throughout the tests."""
    return POWER5.small()


@pytest.fixture(scope="session")
def runner(config):
    """A FAME runner with short budgets for test speed."""
    return FameRunner(config, min_repetitions=3, max_cycles=2_000_000)


@pytest.fixture
def core(config):
    """A fresh core."""
    return SMTCore(config)


@pytest.fixture(scope="session")
def bench(config):
    """Factory for micro-benchmarks on the test config."""
    def make(name, base_address=0, iterations=None):
        return make_microbenchmark(name, config,
                                   base_address=base_address,
                                   iterations=iterations)
    return make


class MeasurementCache:
    """Session-wide cache of FAME measurements keyed by scenario."""

    def __init__(self, runner, bench_factory):
        self._runner = runner
        self._bench = bench_factory
        self._cache = {}

    def single(self, name):
        key = ("single", name)
        if key not in self._cache:
            self._cache[key] = self._runner.run_single(self._bench(name))
        return self._cache[key]

    def pair(self, primary, secondary, priorities=(4, 4)):
        key = ("pair", primary, secondary, priorities)
        if key not in self._cache:
            self._cache[key] = self._runner.run_pair(
                self._bench(primary),
                self._bench(secondary, base_address=SECONDARY_BASE),
                priorities=priorities)
        return self._cache[key]


@pytest.fixture(scope="session")
def machine_state():
    """The engine-independent digest of a core's machine state.

    Differential tests compare it across engines (and step chunkings)
    at the same cycle; see :func:`_machine_state`.
    """
    return _machine_state


def _recency_sig(recency):
    """Canonical (tags, recency order) form of one cache/TLB level.

    ``recency`` is the unit's :meth:`recency` view: per set, its
    ``(tag, stamp)`` pairs in insertion order.  Lookups compare stamps
    only within a set, so two states behave identically iff each set
    holds the same tags in the same insertion order with the same
    stamp ranking.
    """
    out = []
    for pairs in recency:
        if pairs:
            vals = [stamp for _tag, stamp in pairs]
            out.append((tuple(tag for tag, _stamp in pairs),
                        tuple(sorted(range(len(vals)),
                                     key=vals.__getitem__))))
        else:
            out.append(())
    return tuple(out)


def _machine_state(core):
    """Everything observable about post-run machine state.

    Compared across engines at the same cycle, so live timestamps
    (future-dated records) are compared absolutely.  Two classes are
    canonicalised because their raw values are unobservable: expired
    timestamps (a stale scoreboard/reservation entry at or before
    ``now`` acts exactly like any other -- "ready") and cache stamps
    (lookups compare them only within a set, so the recency order is
    the state).  The object engine's scoreboard lacks the array
    engine's two sentinel slots, hence the ``NUM_REGS`` slice.
    """
    from repro.isa.registers import NUM_REGS

    now = core._cycle
    threads = []
    for th in core._threads:
        if th is None:
            threads.append(None)
            continue
        threads.append((
            th.pos, th.rep_index, th.finished, th.gct_held,
            max(th.stall_until, now), tuple(th.inflight),
            tuple(r if r > now else now for r in th.reg_ready[:NUM_REGS]),
            tuple(th.rep_end_times), tuple(th.rep_end_retired),
            tuple(th.rep_start_times),
            tuple(getattr(th, f) for f in (
                "owned_slots", "wasted_slots", "slots_lost_gct",
                "slots_lost_stall", "slots_lost_balancer",
                "slots_lost_throttle", "slots_lost_other", "decoded",
                "retired", "groups_dispatched", "mispredicts", "flushes",
                "flushed_instructions", "operand_wait_cycles",
                "fu_wait_cycles", "priority_changes",
                "window_l2_misses", "window_retired"))))
    hier = core.hierarchy
    gap = hier.dram.config.dram_bus_gap
    mem = (tuple(tuple(v) for v in hier.level_counts.values()),
           tuple(hier.store_counts),
           hier.lmq.acquisitions, hier.lmq.total_wait_cycles,
           tuple(hier.lmq.thread_acquisitions),
           tuple(hier.lmq.thread_wait_cycles),
           tuple((e, s) for e, s in hier.lmq._intervals if e > now),
           hier.dram.accesses, hier.dram.total_queue_cycles,
           tuple(hier.dram.thread_accesses),
           tuple(hier.dram.thread_queue_cycles),
           tuple(s for s in hier.dram._starts if s > now - gap))
    caches = tuple(
        (unit.stats.hits, unit.stats.misses,
         tuple(unit.stats.thread_hits), tuple(unit.stats.thread_misses),
         _recency_sig(unit.recency()))
        for unit in (hier.tlb, hier.l1d, hier.l2, hier.l3))
    pools = tuple(
        (p.issues, p.total_wait, tuple(p.thread_issues),
         tuple(sorted((t, v) for t, v in p._occupied.items() if t >= now)))
        for p in core.fus.pools())
    bht = (bytes(core.bht._table), core.bht.predictions,
           core.bht.mispredictions, tuple(core.bht.thread_predictions),
           tuple(core.bht.thread_mispredictions))
    bal = tuple(tuple(getattr(core.balancer.stats, n)) for n in
                ("stall_events", "stall_cycles", "flush_events",
                 "flushed_groups", "throttle_windows"))
    return (core._cycle, core._gct_used, tuple(threads), mem, caches,
            pools, bht, bal)


@pytest.fixture(scope="session")
def measured(runner, bench):
    """Cached FAME measurements shared across behavioural tests."""
    return MeasurementCache(runner, bench)
