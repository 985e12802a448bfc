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
from repro.microbench import make_microbenchmark
from repro.priority import PrioritySlotArbiter
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
