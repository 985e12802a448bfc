"""Differential exactness of the array engine.

The compiled-kernel engine (``CoreConfig.engine="array"``) carries the
repo's performance budget, so its guarantee is absolute: over the full
microbenchmark x priority matrix it must be **bit-identical** to the
object engine on every observable -- each ThreadResult counter, the
repetition time/retired series (hence the CPI stack and every figure),
the PMU counter bank and interval samples, and the byte representation
of whole sweeps whether computed serially or by worker processes.

A long uninstrumented run additionally pins the complete machine
state: the array engine's final state matches the object engine's
exactly, and a single large ``step`` call matches the same run chopped
into runner-sized chunks (the array engine keeps hot state in locals
and must sync it out at every ``step`` boundary).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import POWER5, CoreConfig
from repro.core import make_core
from repro.experiments.base import (
    ExperimentContext,
    pair_cell,
    priority_pair,
    single_cell,
)
from repro.fame import FameRunner
from repro.microbench import MICROBENCHMARKS, make_microbenchmark
from repro.pmu import Pmu

SECONDARY_BASE = (1 << 27) + 8192

#: Every registered Table 2 micro-benchmark (15 of them).
BENCHES = tuple(sorted(MICROBENCHMARKS))

#: Priority assignments per ISSUE: single-thread plus three SMT pairs
#: covering equal, strongly-favoured and inverted priorities.
PRIORITIES = (None, (4, 4), (6, 1), (2, 5))


def _partner(bench: str) -> str:
    """A deterministic, varied sibling workload for pair cells."""
    i = BENCHES.index(bench)
    return BENCHES[(i + 4) % len(BENCHES)]


@pytest.fixture(scope="module")
def configs():
    """(array, object) config pair -- identical but for the engine."""
    array = POWER5.small()
    obj = dataclasses.replace(array, engine="object")
    assert array.engine == "array" and obj.engine == "object"
    return array, obj


def _run(config, bench, priorities, pmu=None):
    runner = FameRunner(config, min_repetitions=2, max_cycles=200_000)
    if priorities is None:
        return runner.run_single(make_microbenchmark(bench, config),
                                 pmu=pmu)
    return runner.run_pair(
        make_microbenchmark(bench, config),
        make_microbenchmark(_partner(bench), config,
                            base_address=SECONDARY_BASE),
        priorities=priorities, pmu=pmu)


@pytest.mark.parametrize("priorities", PRIORITIES,
                         ids=lambda p: "st" if p is None else f"{p[0]}_{p[1]}")
@pytest.mark.parametrize("bench", BENCHES)
def test_fame_results_identical_across_engines(configs, bench, priorities):
    """Every counter and repetition record matches the object engine.

    ``FameResult`` is a frozen value type wrapping ThreadResult (all 16
    counters, repetition end/retired series) and the convergence flags,
    so one equality assertion covers the complete measurement.
    """
    array_cfg, obj_cfg = configs
    array_fame = _run(array_cfg, bench, priorities)
    obj_fame = _run(obj_cfg, bench, priorities)
    assert array_fame == obj_fame
    assert array_fame.result.threads[0].retired > 0


#: Instrumented subset: the paper's six evaluated benchmarks, favoured
#: and inverted priorities: pins the dense kernel path
#: sample-by-sample.
PMU_MATRIX = [(b, p) for b in ("cpu_int", "cpu_fp", "ldint_l1",
                               "ldint_l2", "ldint_mem", "lng_chain_cpuint")
              for p in ((4, 4), (6, 1))]


@pytest.mark.parametrize("bench,priorities", PMU_MATRIX,
                         ids=[f"{b}-{p[0]}{p[1]}" for b, p in PMU_MATRIX])
def test_pmu_reports_identical_across_engines(configs, bench, priorities):
    """Counter bank, interval samples and telemetry are bit-equal."""
    array_cfg, obj_cfg = configs
    array_fame = _run(array_cfg, bench, priorities,
                      pmu=(array_pmu := Pmu(sample_period=1009)))
    obj_fame = _run(obj_cfg, bench, priorities,
                    pmu=(obj_pmu := Pmu(sample_period=1009)))
    assert array_fame == obj_fame
    array_report, obj_report = array_pmu.report(), obj_pmu.report()
    assert array_report == obj_report
    assert array_report.counter("PM_INST_CMPL", 0) > 0


#: Sweep cells for the serial-vs-workers identity: two singles plus
#: pairs over three priority differences.
SWEEP_CELLS = ([single_cell(b) for b in ("ldint_l1", "cpu_int")]
               + [pair_cell("cpu_int", "ldint_l1", priority_pair(d))
                  for d in (0, 2, -2)]
               + [pair_cell("ldint_l1", "cpu_int", priority_pair(d))
                  for d in (0, 2, -2)])


def test_array_sweep_serial_vs_jobs2_identical():
    """A jobs=2 array-engine sweep is byte-identical to serial."""
    serial = ExperimentContext(min_repetitions=2, max_cycles=300_000,
                               jobs=1)
    workers = ExperimentContext(min_repetitions=2, max_cycles=300_000,
                                jobs=2)
    assert serial.config.engine == "array"
    assert serial.prefetch(SWEEP_CELLS) == len(SWEEP_CELLS)
    assert workers.prefetch(SWEEP_CELLS) == len(SWEEP_CELLS)
    assert list(serial._cache) == list(workers._cache)
    assert (repr(serial._cache).encode()
            == repr(workers._cache).encode())


# ----------------------------------------------------------------------
# Complete machine state after long runs
# ----------------------------------------------------------------------

def _loaded(config, secondary):
    core = make_core(config)
    sources = [make_microbenchmark("cpu_int", config)]
    if secondary:
        sources.append(make_microbenchmark(
            secondary, config, base_address=SECONDARY_BASE))
    core.load(sources, priorities=(4, 4))
    return core


@pytest.mark.parametrize("secondary,horizon",
                         [(None, 300_000), ("ldint_l2", 400_000)],
                         ids=["st", "smt"])
def test_telescoped_state_matches_object_engine(secondary, horizon,
                                                machine_state):
    """An array run's final state is the object engine's, exactly.

    Counters and repetition series must match bit-for-bit; time-stamped
    records (scoreboard, reservations, queue intervals) may differ only
    below ``now`` where staleness is unobservable -- the state digest
    above includes them all, so any live divergence fails loudly.
    """
    config = CoreConfig()
    array = _loaded(config, secondary)
    array.step(horizon)
    obj = _loaded(dataclasses.replace(config, engine="object"), secondary)
    obj.step(horizon)
    assert machine_state(array) == machine_state(obj)


def test_telescoping_invariant_to_step_chunking(machine_state):
    """One big step call equals the same run in runner-sized chunks."""
    config = CoreConfig()
    one = _loaded(config, None)
    one.step(300_000)
    chunked = _loaded(config, None)
    stepped = 0
    while stepped < 300_000:
        n = min(8192, 300_000 - stepped)
        chunked.step(n)
        stepped += n
    assert machine_state(one) == machine_state(chunked)
