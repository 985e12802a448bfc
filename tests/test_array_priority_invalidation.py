"""Regression: priority changes invalidate compiled dispatch tables.

The array engine compiles each (priorities, honor-nops) arbiter state
into dense per-cycle dispatch tables.  A mid-run priority change --
``set_priorities`` directly, a sysfs write from a governor hook, or an
in-trace priority nop -- rebuilds the arbiter, and the compiled tables
keyed on the old arbiter must never be consulted again.  The bug this
pins down: a stale table serving the pre-change slot interleave for
the rest of the run, which only shows up when priorities change *after*
the tables are warm.

Each test drives the same scenario through the array and object
engines; the object engine rebuilds its arbiter state per decode and
cannot serve anything stale, so bit-identical results prove the array
engine invalidated correctly.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import POWER5
from repro.core import make_core
from repro.isa import FixedTraceSource, OpClass, Trace
from repro.isa.instruction import branch, fp, fx, fx_mul, load, store
from repro.isa.priority_ops import encode_priority_nop as prio_nop
from repro.microbench import make_microbenchmark
from repro.priority import PrioritySlotArbiter
from repro.priority.levels import PrivilegeLevel
from repro.syskernel import PatchedKernel

SECONDARY_BASE = (1 << 27) + 8192

PERIOD = 101
TOTAL = 5_000

BEFORE = (4, 4)
AFTER = (6, 1)


@pytest.fixture(scope="module")
def configs():
    array = POWER5.small()
    obj = dataclasses.replace(array, engine="object")
    return array, obj


def _run(config, actuate=None, warmup=0):
    """A compute pair, optionally actuating priorities at PERIOD.

    ``warmup`` steps the core before installing the hook so the
    compiled tables for the BEFORE arbiter are definitely hot.
    """
    core = make_core(config)
    core.load([make_microbenchmark("cpu_int", config),
               make_microbenchmark("cpu_fp", config,
                                   base_address=SECONDARY_BASE)],
              priorities=BEFORE)
    if warmup:
        core.step(warmup)
    fired: list[int] = []
    if actuate is not None:
        kernel = PatchedKernel()
        kernel.install(core)

        def hook(c, now):
            if not fired:
                actuate(c, kernel)
            fired.append(now)

        core.add_periodic_hook(PERIOD, hook)
    while core.cycle < TOTAL:
        core.step(TOTAL - core.cycle)
    return core, fired


def _sysfs(core, kernel):
    for tid, prio in enumerate(AFTER):
        kernel.sysfs.write(f"{kernel.SYSFS_DIR}/thread{tid}", str(prio))


def _direct(core, kernel):
    core.set_priorities(*AFTER)


@pytest.mark.parametrize("actuate", [_sysfs, _direct],
                         ids=["sysfs", "set_priorities"])
def test_midrun_change_identical_across_engines(configs, actuate):
    """Array results match the object engine across a priority flip."""
    array_cfg, obj_cfg = configs
    array_core, array_fired = _run(array_cfg, actuate)
    obj_core, obj_fired = _run(obj_cfg, actuate)
    assert array_fired == obj_fired == list(range(PERIOD, TOTAL + 1,
                                                  PERIOD))
    assert array_core.priorities == AFTER
    assert array_core.result() == obj_core.result()


def test_midrun_change_matches_closed_form(configs):
    """The array engine's slot split is exact, not merely consistent:
    old arbiter strictly before the actuation's decode boundary, new
    arbiter (same absolute phase) from it on.  Both threads stay alive
    all run, so the expected split is the arbiters' owners, counted
    cycle by cycle."""
    core, fired = _run(configs[0], _sysfs)
    assert fired[0] == PERIOD
    old, new = PrioritySlotArbiter(*BEFORE), PrioritySlotArbiter(*AFTER)
    for tid in (0, 1):
        expected = (sum(1 for c in range(0, PERIOD) if old.owner(c) == tid)
                    + sum(1 for c in range(PERIOD, TOTAL)
                          if new.owner(c) == tid))
        assert core.thread(tid).owned_slots == expected


def test_warm_tables_rebuilt_after_direct_set(configs):
    """Tables compiled during a hookless warmup (the fully-compiled
    fast path, no dense fallback) are dropped by set_priorities."""
    array_cfg, obj_cfg = configs

    def run(config):
        core = make_core(config)
        core.load([make_microbenchmark("cpu_int", config),
                   make_microbenchmark("cpu_fp", config,
                                       base_address=SECONDARY_BASE)],
                  priorities=BEFORE)
        core.step(2_048)  # warm the BEFORE tables
        core.set_priorities(*AFTER)
        core.step(TOTAL - core.cycle)
        return core

    array_core, obj_core = run(array_cfg), run(obj_cfg)
    assert array_core.priorities == AFTER
    assert array_core.result() == obj_core.result()


def test_repeated_flips_stay_identical(configs):
    """A/B priority toggling every PERIOD cycles never drifts --
    every flip must hit a freshly compiled (or re-validated) table."""
    array_cfg, obj_cfg = configs

    def run(config):
        core = make_core(config)
        core.load([make_microbenchmark("cpu_int", config),
                   make_microbenchmark("cpu_fp", config,
                                       base_address=SECONDARY_BASE)],
                  priorities=BEFORE)
        flips = [0]

        def hook(c, now):
            flips[0] += 1
            c.set_priorities(*(AFTER if flips[0] % 2 else BEFORE))

        core.add_periodic_hook(PERIOD, hook)
        core.step(TOTAL)
        return core

    array_core, obj_core = run(array_cfg), run(obj_cfg)
    assert array_core.result() == obj_core.result()
    # 49 fires in 5000 cycles; the last (odd) flip lands on AFTER.
    assert array_core.priorities == AFTER


# ----------------------------------------------------------------------
# In-trace priority nops
# ----------------------------------------------------------------------
#
# A group holding an ``or X,X,X`` nop has no compiled kernel: the array
# loop walks it with ``SMTCore._decode_group`` -- the object engine's
# own decoder -- and feeds the result to the same dispatch tail as a
# kernel.  A nop that drops both threads to priority 1 switches decode
# to one instruction per group, so decode resumes at width 5 off the
# compiled chain and those groups are walked too.

NOP_TOTAL = 6_000


class _Alternating:
    """Repetitions alternate between two traces.

    Even and odd repetitions may differ in branch outcomes (the same
    branch key flips, so the predictor mispredicts) and nop targets.
    """

    def __init__(self, name, even, odd):
        self.name = name
        self._reps = (Trace(name, even), Trace(name, odd))

    def repetition(self, rep_index):
        return self._reps[rep_index % 2]


def _mid_group(p):
    # Width 5: the nop sits in the middle of the group [0, 5).
    return [fx(1), fx(2, 1), prio_nop(p), fx(3, 2), fx(4, 3),
            load(5, 4096 + 128 * p), fx(6, 5), fx_mul(7, 6),
            branch(True, 7)]


def _mispredict(taken, p):
    # The group [fx, nop, fx, branch] ends in a branch whose outcome
    # flips between repetitions.
    return [fx(1), prio_nop(p), fx(2, 1), branch(taken, 2),
            fp(8), fp(9, 8), store(9, 8192), branch(True)]


def _low_and_back():
    # The nop to 1 ends the width-5 group [0, 5); with the sibling at 1
    # (or absent) decode drops to one instruction per group until the
    # nop back to 4, then resumes at position 9, off the width-5 chain
    # (starts 0, 5, 10, ...), until the branch realigns it.
    return [fx(1), prio_nop(1), fx(2, 1), fx(3), fx(4),
            fx(5, 4), fx(6), fx(7, 6), prio_nop(4), fx(8), fx(9, 8),
            fx(10), fx(11, 10), fx(12), fx(13), fx(14, 13),
            branch(True, 14)]


def _partner():
    body = [fx(1), fx(2, 1), load(3, 65536), fx_mul(4, 3), fp(5),
            fp(6, 5), store(6, 65536 + 256), fx(7), branch(True, 7)]
    return FixedTraceSource(Trace("partner", body))


#: name -> (nop-thread source, its privilege, its sibling's priority,
#: honour nops).  The sibling runs at priority 1 in "low_and_back" so
#: the nop to 1 enters the (1,1) low-power mode.
NOP_CASES = {
    "mid_group": (lambda: _Alternating("mid", _mid_group(6),
                                       _mid_group(3)),
                  PrivilegeLevel.SUPERVISOR, 4, True),
    "mispredict": (lambda: _Alternating("misp", _mispredict(True, 5),
                                        _mispredict(False, 2)),
                   PrivilegeLevel.SUPERVISOR, 4, True),
    "low_and_back": (lambda: FixedTraceSource(
                         Trace("lowback", _low_and_back())),
                     PrivilegeLevel.SUPERVISOR, 1, True),
    "refused": (lambda: _Alternating("refused", _mid_group(6),
                                     _mid_group(1)),
                PrivilegeLevel.USER, 4, True),
    "nops_ignored": (lambda: _Alternating("ignored", _mid_group(6),
                                          _mid_group(3)),
                     PrivilegeLevel.SUPERVISOR, 4, False),
}


def _nop_run(config, case, placement, chunk, walked=None):
    """Run ``case`` with the nop thread at ``placement``.

    ``walked`` (a list) records every group the array loop hands to
    ``_decode_group`` as ``(trace, pos, next_pos)``.
    """
    make_source, privilege, sibling, honour = NOP_CASES[case]
    user = PrivilegeLevel.USER
    core = make_core(config)
    core.honor_priority_nops = honour
    if placement == "st":
        core.load([make_source()], priorities=(4, 4),
                  privileges=(privilege, user))
    elif placement == "t0":
        core.load([make_source(), _partner()], priorities=(4, sibling),
                  privileges=(privilege, user))
    else:
        core.load([_partner(), make_source()], priorities=(sibling, 4),
                  privileges=(user, privilege))
    if walked is not None:
        decode_group = core._decode_group

        def spy(th, pos, tid, now, width):
            out = decode_group(th, pos, tid, now, width)
            walked.append((th.trace, pos, out[0]))
            return out

        core._decode_group = spy
    while core.cycle < NOP_TOTAL:
        core.step(min(chunk, NOP_TOTAL - core.cycle))
    return core


@pytest.mark.parametrize("chunk", [97, 4096])
@pytest.mark.parametrize("placement", ["t0", "t1", "st"])
@pytest.mark.parametrize("case", sorted(NOP_CASES))
def test_priority_nops_identical_across_engines(configs, machine_state,
                                                case, placement, chunk):
    """In-trace nops: array == object on results, priorities and the
    complete machine state, whatever the step chunking."""
    array_cfg, obj_cfg = configs
    walked: list = []
    array_core = _nop_run(array_cfg, case, placement, chunk, walked)
    obj_core = _nop_run(obj_cfg, case, placement, NOP_TOTAL)
    tid = 1 if placement == "t1" else 0

    assert array_core.result() == obj_core.result()
    assert array_core.priorities == obj_core.priorities
    changes = array_core.thread(tid).priority_changes
    assert changes == obj_core.thread(tid).priority_changes
    assert machine_state(array_core) == machine_state(obj_core)

    # Not vacuous: nop groups really took the walk, and nops changed
    # priorities exactly when they may.
    prio = OpClass.PRIO_NOP
    has_nop = [any(ins.op is prio for ins in trace[pos:nxt])
               for trace, pos, nxt in walked]
    assert any(has_nop)
    _source, privilege, _sibling, honour = NOP_CASES[case]
    assert (changes > 0) == (honour and privilege
                             is PrivilegeLevel.SUPERVISOR)
    if case == "mispredict":
        assert array_core.thread(tid).mispredicts > 0
    if case == "low_and_back":
        # Some walked groups hold no nop: starts off the compiled chain.
        assert not all(has_nop)
