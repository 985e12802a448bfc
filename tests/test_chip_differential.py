"""Differential validation of the chip layer.

The chip model wraps existing cores, so it must inherit every
determinism guarantee the single-core simulator already proves:

- **core bit-identity**: a ``Chip(n_cores=1)`` core run through FAME
  is byte-identical to a bare ``SMTCore`` run (no bus, no ports, no
  behavioural difference whatsoever);
- **engine bit-identity**: multi-core scheduled runs agree between the
  compiled array engine and the per-cycle object engine (the
  shared-bus grants depend only on request times, which both engines
  compute identically);
- **process bit-identity**: chip sweep cells computed by worker
  processes (``jobs > 1``) equal the serial in-process computation.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.chip import Chip, ChipConfig
from repro.core import SMTCore
from repro.experiments import ExperimentContext, chip_cell
from repro.fame import FameRunner
from repro.microbench import make_microbenchmark
from repro.sched import Job, OsScheduler, make_allocation_policy

SECONDARY_BASE = (1 << 27) + 8192

PAIRS = [("cpu_int", "ldint_mem"), ("ldint_l2", "cpu_fp")]


@pytest.fixture(scope="module")
def configs():
    from repro.config import POWER5
    array = POWER5.small()
    obj = dataclasses.replace(array, engine="object")
    assert array.engine == "array"
    return array, obj


@pytest.mark.parametrize("primary,secondary", PAIRS)
def test_single_core_chip_is_bit_identical_to_smtcore(
        config, primary, secondary):
    """A 1-core chip core behaves exactly like a bare SMTCore."""
    runner = FameRunner(config, min_repetitions=3, max_cycles=500_000)

    def run(core):
        return runner.run_pair(
            make_microbenchmark(primary, config),
            make_microbenchmark(secondary, config,
                                base_address=SECONDARY_BASE),
            priorities=(5, 3), core=core)

    chip = Chip(ChipConfig(core=config, n_cores=1))
    assert chip.cores[0].hierarchy.chip_port is None
    assert run(chip.cores[0]) == run(SMTCore(config))


def test_single_core_schedule_is_quantum_invariant(config):
    """On one core there is no arbitration, so the sync quantum can
    only affect chip-global bookkeeping -- never a job's own cycles."""
    jobs = [Job("cpu_int", 2), Job("ldint_l2", 2), Job("cpu_fp", 2)]

    def run(quantum):
        chip = Chip(ChipConfig(core=config, n_cores=1,
                               sync_quantum=quantum))
        sched = OsScheduler(chip, make_allocation_policy("round_robin"),
                            quantum=quantum)
        return sched.run(list(jobs))

    a, b = run(512), run(4096)
    for ra, rb in zip(a.jobs, b.jobs):
        assert (ra.name, ra.retired, ra.repetitions) == \
            (rb.name, rb.retired, rb.repetitions)
        assert ra.ipc == rb.ipc
        assert ra.avg_rep_cycles == rb.avg_rep_cycles
    # PM_CYC includes the idle padding up to the next quantum boundary
    # after a round drains, so it legitimately tracks the quantum; all
    # work counters must not.
    work = lambda res: [kv for kv in res.counters  # noqa: E731
                        if kv[0] != "PM_CYC"]
    assert work(a) == work(b)


@pytest.mark.parametrize("governor", [None, "ipc_balance"])
def test_scheduled_run_engine_bit_identity(configs, governor):
    """2-core scheduled runs agree between the array and object
    engines, with and without per-core governors in the loop."""
    jobs = [Job("cpu_int", 3), Job("ldint_mem", 2),
            Job("ldint_l2", 3), Job("cpu_fp", 2)]

    def run(config):
        chip = Chip(ChipConfig(core=config, n_cores=2))
        sched = OsScheduler(chip, make_allocation_policy("round_robin"),
                            governor=governor, governor_epoch=200)
        return sched.run(list(jobs))

    array_cfg, object_cfg = configs
    array, obj = run(array_cfg), run(object_cfg)
    assert array.jobs == obj.jobs
    assert array.decisions == obj.decisions
    assert array.counters == obj.counters
    assert array.bus == obj.bus
    assert array.makespan == obj.makespan
    if governor:
        assert sum(r.governor_changes for r in obj.jobs) > 0


def test_serial_vs_parallel_chip_cells(config):
    """Chip sweep cells are byte-identical under jobs=1 and jobs=2."""
    cells = [chip_cell("spec", "round_robin", 2, 2),
             chip_cell("background", "background", 2, 2)]
    kwargs = dict(config=config, min_repetitions=2,
                  max_cycles=300_000, chip_quota=2,
                  chip_governor="ipc_balance", governor_epoch=200)
    serial = ExperimentContext(jobs=1, **kwargs)
    parallel = ExperimentContext(jobs=2, **kwargs)
    serial.prefetch(cells)
    parallel.prefetch(cells)
    for cell in cells:
        a, b = serial.cell(cell), parallel.cell(cell)
        assert a == b, f"serial/parallel divergence for {cell}"
    # The comparison proves nothing if nothing actually ran.
    assert all(serial.cell(c).jobs for c in cells)
