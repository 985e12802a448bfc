"""Tests of the benchmark itself (not part of the program's suite).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
for path in (BENCH, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def digests():
    return checks.load_digests()


def test_same_seed_gives_same_cells(digests):
    paper = digests["paper_cells"]
    assert checks.draw_sample(paper, 7) == checks.draw_sample(paper, 7)


def test_other_seed_gives_other_sample_that_verifies(digests):
    from repro.experiments import ExperimentContext
    paper = digests["paper_cells"]
    first = checks.draw_sample(paper, 1)
    second = checks.draw_sample(paper, 2)
    assert first != second
    assert len(first) == len(second) == -(-len(paper) // checks.STRATUM)
    # The strata keep the amount of work nearly seed-independent.
    work = [sum(paper[c]["cost_ms"] for c in s) for s in (first, second)]
    assert abs(work[0] - work[1]) / work[0] < 0.05
    new = sorted(set(second) - set(first),
                 key=lambda c: paper[c]["cycles"])[:4]
    ctx = ExperimentContext()
    for cell in new:
        value = ctx.compute_cell(checks.parse_cell(cell))
        assert checks.digest(value) == paper[cell]["digest"], cell


def test_sample_comes_from_the_planner(digests):
    from repro.experiments import ExperimentContext
    from repro.experiments.planner import planned_cells
    plan = planned_cells(ExperimentContext(), checks.PAPER_IDS)[0]
    assert [checks.cell_id(k) for k in plan] == list(digests["paper_cells"])


def test_every_module_maps_to_a_layer():
    package = os.path.join(SRC, "repro")
    modules = []
    for dirpath, _, filenames in os.walk(package):
        for name in filenames:
            if name.endswith(".py"):
                rel = os.path.relpath(os.path.join(dirpath, name), package)
                modules.append(rel.replace(os.sep, "/"))
    unmapped = [m for m in modules if ledger.layer_of_module(m) is None]
    assert not unmapped, f"modules with no layer in LAYERS: {unmapped}"
    # And no layer names a module that no longer exists.
    for layer, owned in ledger.LAYERS.items():
        for entry in owned:
            if entry == ledger.KERNEL_FILE:
                continue
            assert any(m == entry or (entry.endswith("/")
                                      and m.startswith(entry))
                       for m in modules), (layer, entry)


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        ledger.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(checks.WORKLOADS)


def test_host_gauge_divides_out_the_host_speed():
    gauge = ledger.HostGauge()
    ref = gauge.SLICE_REFERENCE_S
    # Slices at half the reference speed: 4 s of program time between
    # them read as 2 s at the reference speed.
    gauge.slices = [(-2 * ref, 2 * ref), (1.0, 2 * ref),
                    (3.0 + 2 * ref, 2 * ref)]
    wall, norm = gauge.result()
    assert wall == pytest.approx(3.0)
    assert norm == pytest.approx(1.5)
    # A speed change between two slices is averaged over the span.
    gauge.slices = [(0.0, ref), (1.0 + ref, 3 * ref)]
    assert gauge.result()[1] == pytest.approx(0.5)


def test_canonical_form_ignores_defaulted_fields():
    from repro.experiments.base import ThreadMetrics
    metrics = ThreadMetrics("cpu_int", 4, 1.25, 800.0, 3)
    assert "pmu" not in checks.canonical(metrics)
    assert checks.canonical(0.1) == "0.1"


def test_traced_run_reports_the_ledger(tmp_path, digests):
    cells = sorted(digests["paper_cells"],
                   key=lambda c: digests["paper_cells"][c]["cycles"])[:3]
    cells_file = tmp_path / "cells.json"
    cells_file.write_text(json.dumps(cells))
    out = tmp_path / "out.json"
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--mode",
         "traced", "--workload", "sweep_cold", "--simcache",
         str(tmp_path / "simcache"), "--out", str(out), "--cells",
         str(cells_file)], cwd=ROOT, env=env, check=True, timeout=300)
    result = json.loads(out.read_text())
    assert "error" not in result, result.get("error")
    assert result["failed"] == 0 and result["attempted"] == 3
    assert result["cycles"] == result["expected_cycles"]
    layers = result["layers"]
    parent_only = {"trace.overhead_ratio", "host.slice_s", "host.wall_s"}
    assert set(layers) == set(ledger.PER_LAYER_UNITS) - parent_only
    assert 0.0 <= layers["trace.unattributed_share"] < 0.5
    assert layers["experiments.cells_simulated"] == 3
    assert layers["core.dense.self_s"] > 0
