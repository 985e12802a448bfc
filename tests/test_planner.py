"""The cross-experiment cell planner.

:func:`repro.experiments.planner.prefetch_all` measures the
deduplicated union of every cell a set of experiments will consume.
Two properties matter: the union really is deduplicated (shared cells
are planned once), and running experiments after the planner produces
byte-identical reports to running them unplanned -- the planner may
change *when* cells are simulated, never *what* they contain.
"""

from __future__ import annotations

import pytest

from repro.config import POWER5, CoreConfig
from repro.experiments import EXPERIMENTS, ExperimentContext, run_many
from repro.experiments import dse, figure2, figure3, figure4, table3
from repro.experiments import prefetch as prefetch_exp
from repro.experiments.base import governed_cell, pair_cell
from repro.prefetch import PrefetchConfig
from repro.experiments.planner import (
    CELL_PLANNERS,
    DEFERRED_PLANNERS,
    planned_cells,
    prefetch_all,
)


def _ctx(**kwargs) -> ExperimentContext:
    return ExperimentContext(min_repetitions=2, max_cycles=200_000,
                             **kwargs)


def test_union_deduplicates_shared_cells():
    """Figures 2/3/4 and Table 3 share one sweep; the plan reflects it."""
    ids = ["table3", "figure2", "figure3", "figure4"]
    phase1, deferred = planned_cells(_ctx(), ids)
    total = (len(table3.cells()) + len(figure2.cells())
             + len(figure3.cells()) + len(figure4.cells()))
    assert len(phase1) < total          # overlap removed
    assert len(phase1) == len(set(phase1))
    assert not deferred                 # no result-dependent keys here
    # Every cell each experiment will ask for is in the plan.
    for cells in (table3.cells(), figure2.cells(), figure3.cells(),
                  figure4.cells()):
        assert set(cells) <= set(phase1)


def test_every_cell_experiment_has_a_planner():
    """Each registered experiment either has a planner or provably
    consumes no measurement cells (drives the simulator directly)."""
    cell_free = {"table1", "figure1", "table4", "noise"}
    for eid in EXPERIMENTS:
        planned = eid in CELL_PLANNERS or eid in DEFERRED_PLANNERS
        assert planned or eid in cell_free, eid


def test_planned_execution_is_invisible_and_up_front():
    """Planned runs match sequential runs and simulate nothing late."""
    ids = ["table3", "modelcheck"]
    planned_ctx = _ctx()
    stats = prefetch_all(planned_ctx, ids)
    assert (stats["cells"] == stats["simulated"]
            == planned_ctx.cached_runs())
    before = planned_ctx.cached_runs()
    planned = [EXPERIMENTS[eid](planned_ctx) for eid in ids]
    assert planned_ctx.cached_runs() == before  # prefetches were no-ops

    ctx = _ctx()
    sequential = [EXPERIMENTS[eid](ctx) for eid in ids]
    for a, b in zip(planned, sequential):
        assert repr(a) == repr(b), a.experiment_id


def test_dse_planner_registration_and_gating():
    """dse plans its static matrix up front and defers the governed
    cell (its key embeds a cap measured from phase-1 results)."""
    assert "dse" in CELL_PLANNERS and "dse" in DEFERRED_PLANNERS
    pmu_ctx = _ctx(pmu=True)
    planned = CELL_PLANNERS["dse"](pmu_ctx)
    assert planned == dse.cells(pmu_ctx) and planned
    # A context the experiment cannot own cells for plans nothing --
    # run_dse measures through its PMU twin instead.
    assert CELL_PLANNERS["dse"](_ctx()) == []
    assert DEFERRED_PLANNERS["dse"](_ctx()) == []


def test_energy_point_never_invalidates_performance_cells():
    """Post-hoc pricing discipline: the energy operating point is NOT
    part of performance cell keys.  Re-pricing a cached sweep at a
    different node/frequency must hit, never re-simulate."""
    base = _ctx(pmu=True)
    repriced = _ctx(pmu=True, energy_node=14, energy_freq=0.6)
    for cell in dse.cells(base):
        assert (base._simcache_key(cell)
                == repriced._simcache_key(cell))


def test_energy_point_invalidates_governed_cells():
    """The governed energy_budget cell is the one exception: its
    params change the policy's decisions, so they live in the key."""
    ctx = _ctx(pmu=True)

    def key(params):
        return ctx._simcache_key(governed_cell(
            "cpu_int", "ldint_mem", (4, 4), "energy_budget", params))

    base = {"power_cap": 1.5, "node": 45, "freq_frac": 1.0}
    assert key(base) == key(dict(base))
    assert key(base) != key({**base, "power_cap": 1.2})
    assert key(base) != key({**base, "node": 22})
    assert key(base) != key({**base, "freq_frac": 0.8})


def test_run_many_single_experiment_skips_planning():
    """One experiment plans its own cells; run_many adds nothing."""
    ctx = _ctx()
    (report,) = run_many(["table1"], ctx)
    assert report.experiment_id == "table1"


def test_run_many_rejects_unknown_ids():
    with pytest.raises(ValueError, match="unknown experiments"):
        run_many(["table3", "figureX"], _ctx())


def test_prefetch_planner_registration_and_gating():
    """prefetch plans its baseline (prefetch-off) matrix up front and
    defers the governed cell (its key embeds the measured best
    priority-only assignment from phase 1); prefetch-on cells belong
    to twin contexts and never ride the shared batch."""
    assert "prefetch" in CELL_PLANNERS and "prefetch" in DEFERRED_PLANNERS
    pmu_ctx = _ctx(pmu=True)
    planned = CELL_PLANNERS["prefetch"](pmu_ctx)
    assert planned == prefetch_exp.cells(pmu_ctx) and planned
    # A context the experiment cannot own cells for plans nothing.
    assert CELL_PLANNERS["prefetch"](_ctx()) == []
    assert DEFERRED_PLANNERS["prefetch"](_ctx()) == []


# Goldens: the config fingerprints as they were before the prefetch
# subsystem existed, and one full cell key built on them.  A
# default-off PrefetchConfig must reproduce them exactly, so cached
# cells stay reachable.
_GOLDEN_SMALL_FP = "ee1ae9a08cdb8e03"
_GOLDEN_DEFAULT_FP = "e5d9b083509524cf"
_GOLDEN_PAIR_KEY = (
    2, 1, "ee1ae9a08cdb8e03",
    (2, 64, 0.01, 200000, 8192, 1), (False, 0), (None, 0),
    ("pair", "cpu_int", "ldint_mem", (4, 4)),
    ("b58b968bf6b8a68a", "3dca7769eb3cc09a"))


def test_prefetch_default_off_reuses_pre_prefetch_cells():
    """Key discipline, silent side: default-off configs fingerprint
    and key exactly like a machine without a prefetcher, whether the
    PrefetchConfig is the implicit default or spelled out."""
    assert POWER5.small().fingerprint() == _GOLDEN_SMALL_FP
    assert CoreConfig().fingerprint() == _GOLDEN_DEFAULT_FP
    cell = pair_cell("cpu_int", "ldint_mem", (4, 4))
    assert _ctx()._simcache_key(cell) == _GOLDEN_PAIR_KEY
    explicit = _ctx(config=POWER5.small().replace(
        prefetch=PrefetchConfig()))
    assert explicit._simcache_key(cell) == _GOLDEN_PAIR_KEY


def test_prefetch_knobs_enter_performance_cell_keys():
    """Key discipline, loud side: every prefetch knob that changes
    simulated behaviour changes the config fingerprint and therefore
    every performance cell key."""
    cell = pair_cell("cpu_int", "ldint_mem", (4, 4))

    def key(**knobs):
        config = POWER5.small().replace(prefetch=PrefetchConfig(**knobs))
        return _ctx(config=config)._simcache_key(cell)

    off = key()
    on = key(enabled=(True, True), depth=4, degree=2)
    assert on != off
    assert key(enabled=(True, True), depth=8, degree=2) != on
    assert key(enabled=(True, True), depth=4, degree=4) != on
    assert key(enabled=(True, False), depth=4, degree=2) != on
    assert (key(enabled=(True, True), depth=4, degree=2,
                streams=4) != on)
    assert (key(enabled=(True, True), depth=4, degree=2,
                stride_matches=1) != on)
