"""Differential exactness of the emulated PMU.

The PMU's headline guarantee: every counter, interval sample and FAME
telemetry point is **bit-identical** between the compiled array
engine and the per-cycle object engine, over the full
microbenchmark x priority-difference matrix -- and a parallel
(``jobs=N``) instrumented sweep is byte-identical to the serial one.

:class:`repro.pmu.PmuReport` is a frozen value type, so a single
equality assertion covers the counter bank, the sample series, the
convergence telemetry and the repetition spans at once.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import POWER5
from repro.experiments.base import (
    ExperimentContext,
    pair_cell,
    priority_pair,
    single_cell,
)
from repro.fame import FameRunner
from repro.microbench import EVALUATED_BENCHMARKS, make_microbenchmark
from repro.pmu import Pmu

SECONDARY_BASE = (1 << 27) + 8192

#: Priority differences exercised by the differential matrix.
DIFFS = (-5, -2, 0, 2, 5)

MATRIX = [(bench, EVALUATED_BENCHMARKS[(i + 1) % len(EVALUATED_BENCHMARKS)],
           diff)
          for i, bench in enumerate(EVALUATED_BENCHMARKS)
          for diff in DIFFS]

#: Deliberately awkward sampling period: prime, unaligned with decode
#: patterns, repetition lengths and the step chunk, so samples land
#: mid-group and between the array engine's bookkeeping deadlines.
SAMPLE_PERIOD = 1009


@pytest.fixture(scope="module")
def configs():
    """(array, object) config pair -- identical but for the engine."""
    array = POWER5.small()
    obj = dataclasses.replace(array, engine="object")
    assert array.engine == "array"
    return array, obj


def _instrumented(config, primary, secondary, priorities):
    runner = FameRunner(config, min_repetitions=2, max_cycles=250_000)
    pmu = Pmu(sample_period=SAMPLE_PERIOD)
    fame = runner.run_pair(
        make_microbenchmark(primary, config),
        make_microbenchmark(secondary, config,
                            base_address=SECONDARY_BASE),
        priorities=priorities, pmu=pmu)
    return fame, pmu.report()


@pytest.mark.parametrize("primary,secondary,diff", MATRIX)
def test_counters_identical_across_engines(configs, primary, secondary,
                                           diff):
    """Counters, samples and telemetry match the object engine."""
    array_cfg, object_cfg = configs
    priorities = priority_pair(diff)
    array_fame, array_report = _instrumented(array_cfg, primary,
                                             secondary, priorities)
    object_fame, object_report = _instrumented(object_cfg, primary,
                                               secondary, priorities)
    assert array_fame == object_fame
    assert array_report == object_report
    # The assertion above must be comparing real content.
    assert array_report.counter("PM_INST_CMPL", 0) > 0
    assert array_report.samples or array_report.cycles < SAMPLE_PERIOD
    assert array_report.fame_samples
    # And the stack partition survives both engines.
    for tid in (0, 1):
        assert array_report.cpi_stack(tid).total == array_report.cycles


# ----------------------------------------------------------------------
# Serial vs parallel instrumented sweeps
# ----------------------------------------------------------------------

SWEEP_BENCHES = ("ldint_l1", "cpu_int")
SWEEP_CELLS = ([single_cell(b) for b in SWEEP_BENCHES]
               + [pair_cell(p, s, priority_pair(d))
                  for p in SWEEP_BENCHES for s in SWEEP_BENCHES
                  for d in (0, 2, -2)])


def _context(jobs: int) -> ExperimentContext:
    return ExperimentContext(min_repetitions=2, max_cycles=300_000,
                             jobs=jobs, pmu=True,
                             pmu_sample=SAMPLE_PERIOD)


def test_instrumented_parallel_sweep_identical_to_serial():
    """PMU reports survive the worker round-trip byte-identically."""
    serial = _context(jobs=1)
    parallel = _context(jobs=2)
    assert serial.prefetch(SWEEP_CELLS) == len(SWEEP_CELLS)
    assert parallel.prefetch(SWEEP_CELLS) == len(SWEEP_CELLS)
    assert list(serial._cache) == list(parallel._cache)
    assert serial._cache == parallel._cache
    # Byte-identical: PmuReport and its samples are frozen value
    # types, so equal reprs mean every counter and every float of the
    # sampled series is exactly the same bit pattern.
    assert (repr(serial._cache).encode()
            == repr(parallel._cache).encode())
    # Every cell actually carries an instrumented report.
    for value in serial._cache.values():
        assert value.pmu is not None
        assert value.pmu.counter("PM_CYC", 0) == value.pmu.cycles
