"""Differential exactness of energy reports.

Energy is a pure function of a run's counter bank and cycle count, so
bit-identity across engines is inherited from the PMU's own identity
guarantee -- but only if nothing on the pricing path sneaks in
engine-dependent state.  These tests pin that end to end: the
:class:`repro.energy.EnergyReport` computed from an array-engine run,
and an object-engine run must be *repr-identical*
(frozen dataclass of floats; equal reprs mean equal bit patterns), and
a ``jobs=2`` sweep must price exactly like a serial one.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import POWER5
from repro.energy import EnergyConfig
from repro.experiments.base import (
    ExperimentContext,
    pair_cell,
    priority_pair,
    single_cell,
)

#: Three cells spanning single/pair and compute/memory behaviour.
CELLS = [
    single_cell("cpu_int"),
    pair_cell("cpu_int", "ldint_mem", (4, 4)),
    pair_cell("cpu_int", "ldint_l1", priority_pair(3)),
]

#: Price at a non-reference operating point so the scaling path (node
#: factors, DVFS voltage) is part of the identity, not just the sums.
PRICE = EnergyConfig(node=22, freq_frac=0.8)


def _ctx(config=None, jobs: int = 1) -> ExperimentContext:
    return ExperimentContext(config=config or POWER5.small(),
                             min_repetitions=2, max_cycles=250_000,
                             jobs=jobs, pmu=True)


def _reports(ctx) -> list[str]:
    ctx.prefetch(CELLS)
    out = []
    for key in CELLS:
        rep = ctx.cell(key).energy(PRICE)
        assert rep.retired > 0 and rep.avg_power_w > 0
        out.append(repr(rep))
    return out


def test_energy_identical_across_engines():
    """The array and object engines price to the same bits."""
    array_cfg = POWER5.small()
    obj_cfg = dataclasses.replace(array_cfg, engine="object")
    assert array_cfg.engine == "array"
    assert _reports(_ctx(array_cfg)) == _reports(_ctx(obj_cfg))


def test_energy_identical_serial_vs_workers():
    """A jobs=2 instrumented sweep prices like the serial one."""
    assert _reports(_ctx(jobs=1)) == _reports(_ctx(jobs=2))


def test_repricing_needs_no_resimulation():
    """One measurement prices every operating point: re-pricing a
    cached cell at another (node, freq) touches no simulator state."""
    ctx = _ctx()
    ctx.prefetch(CELLS)
    runs = ctx.cached_runs()
    metrics = ctx.pair("cpu_int", "ldint_mem", (4, 4))
    at45 = metrics.energy(EnergyConfig())
    at14 = metrics.energy(EnergyConfig(node=14, freq_frac=0.6))
    assert ctx.cached_runs() == runs  # no new cells
    assert at45.node == 45 and at14.node == 14
    assert at45.dynamic_j != at14.dynamic_j
    assert at45.cycles == at14.cycles  # same underlying measurement


def test_energy_requires_instrumentation():
    """Uninstrumented metrics refuse to price rather than guess."""
    ctx = ExperimentContext(config=POWER5.small(), min_repetitions=2,
                            max_cycles=250_000)  # pmu=False
    with pytest.raises(ValueError, match="PMU"):
        ctx.single("cpu_int").energy()
