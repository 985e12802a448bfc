"""One benchmark run in a fresh interpreter.

``run.py`` starts this script once per run, with ``PYTHONPATH`` set to
the checkout's ``src``, and reads the JSON it writes to ``--out``::

    python3 perfbench/worker.py --mode timed --workload suite_warm \\
        --simcache DIR --out result.json [--cells sample.json]

Modes: ``setup`` (set up, then stop), ``timed`` (one run, no tracing),
``traced`` (one run with spans and the profiler on, see
:mod:`ledger`), and ``record`` (one run whose outputs are written out
instead of checked; ``record.py`` uses it to make ``digests.json``).

Workloads: ``sweep_cold``, ``extensions_cold`` and ``suite_warm`` (see
``perfbench/README.md``), plus ``suite_fill``, the cold full suite that
fills the simcache ``suite_warm`` reads.

A timed run writes its wall time and its wall time at the reference
host speed (``norm_wall_s``, see :class:`ledger.HostGauge`).

Set-up time runs from ``--spawned`` (the parent's monotonic clock
just before it started this process; the clock is system-wide on
Linux) to the start of the timed region, so it includes interpreter
start-up and imports.  ``setup_s`` is read at the reference host speed
between the parent's reference slice (``--slice``, its seconds) and
the worker's first; ``setup_raw_s`` is the wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import checks
import ledger


def _setup(workload: str, simcache_dir: str, cells_path: str | None):
    """Imports, context construction, planning; returns the run state."""
    from repro.experiments import EXPERIMENTS, ExperimentContext
    from repro.experiments.planner import planned_cells
    from repro.simcache import SimCache
    from repro.workloads import tracecache

    counter = ledger.CycleCounter()
    counter.install()
    computed: list = []
    _record_cells(counter, computed)
    tracecache.clear_cache()
    simcache = SimCache(simcache_dir)
    ctx = ExperimentContext(simcache=simcache)
    sample: list = []
    if workload == "sweep_cold":
        with open(cells_path) as fh:
            sample = [checks.parse_cell(text) for text in json.load(fh)]
        planned = set(planned_cells(ctx, checks.PAPER_IDS)[0])
        unknown = [key for key in sample if key not in planned]
        if unknown:
            raise ValueError(f"cells not in the paper plan: {unknown[:3]}")
    elif workload == "suite_warm":
        simcache.stats()  # opens the packed shard's index
    return {"counter": counter, "computed": computed, "ctx": ctx,
            "simcache": simcache, "sample": sample,
            "experiments": EXPERIMENTS}


def _record_cells(counter, computed: list) -> None:
    """Keep (context identity, key, value, cycles) of every computed
    cell, to check after the timed region."""
    from repro.experiments.base import ExperimentContext

    compute_cell = ExperimentContext.compute_cell

    def recorded(ctx, key):
        before = counter.cycles
        value = compute_cell(ctx, key)
        computed.append((checks.context_ident(ctx), key, value,
                         counter.cycles - before))
        return value

    ExperimentContext.compute_cell = recorded


def _run(workload: str, state: dict):
    """The timed region: returns the reports (if any)."""
    from repro.experiments.registry import run_many
    ctx, simcache = state["ctx"], state["simcache"]
    if workload == "sweep_cold":
        ctx.prefetch(state["sample"])
        simcache.pack()
        return []
    if workload == "extensions_cold":
        reports = run_many(list(checks.EXTENSION_IDS), ctx)
        simcache.pack()
        return reports
    reports = run_many(list(state["experiments"]), ctx)
    if workload == "suite_fill":
        simcache.pack()
    return reports


def _check(workload: str, state: dict, reports, digests: dict) -> dict:
    """Compare outputs with the recorded digests."""
    failures: list[str] = []
    attempted = 0
    if workload == "sweep_cold":
        paper = digests["paper_cells"]
        expected_cycles = 0
        ctx = state["ctx"]
        for key in state["sample"]:
            attempted += 1
            cell = checks.cell_id(key)
            expected_cycles += paper[cell]["cycles"]
            if checks.digest(ctx.cell(key)) != paper[cell]["digest"]:
                failures.append(f"cell {cell}")
    elif workload == "extensions_cold":
        cells = digests["extension_cells"]
        for ident, key, value, _ in state["computed"]:
            attempted += 1
            name = f"{ident} {checks.cell_id(key)}"
            if cells.get(name) != checks.digest(value):
                failures.append(f"cell {name}")
    if workload != "sweep_cold":
        expected_cycles = digests[f"{workload}_cycles"]
        recorded = digests[("suite" if workload.startswith("suite")
                            else "extension") + "_reports"]
        for report in reports:
            attempted += 1
            if recorded.get(report.experiment_id) != \
                    checks.report_digest(report):
                failures.append(f"report {report.experiment_id}")
        missing = set(recorded) - {r.experiment_id for r in reports}
        attempted += len(missing)
        failures.extend(f"report {eid} missing" for eid in sorted(missing))
    return {"attempted": attempted, "failed": len(failures),
            "failures": failures[:10], "expected_cycles": expected_cycles}


def _record(workload: str, state: dict, reports) -> dict:
    """The outputs of a ``record`` run, in ``digests.json`` layout."""
    out: dict = {f"{workload}_cycles": state["counter"].cycles}
    if workload == "sweep_cold":
        out["paper_cells"] = {
            checks.cell_id(key): {"digest": checks.digest(value),
                                  "cycles": cycles}
            for _, key, value, cycles in state["computed"]}
    if workload == "extensions_cold":
        out["extension_cells"] = {
            f"{ident} {checks.cell_id(key)}": checks.digest(value)
            for ident, key, value, _ in state["computed"]}
        out["extension_reports"] = {r.experiment_id: checks.report_digest(r)
                                    for r in reports}
    if workload.startswith("suite"):
        out["suite_reports"] = {r.experiment_id: checks.report_digest(r)
                                for r in reports}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", required=True,
                        choices=("setup", "timed", "traced", "record"))
    parser.add_argument("--workload", required=True,
                        choices=checks.WORKLOADS + ("suite_fill",))
    parser.add_argument("--simcache", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--cells", default=None)
    parser.add_argument("--spans", default=None,
                        help="traced mode: write the spans here")
    parser.add_argument("--spawned", type=float, default=None)
    parser.add_argument("--slice", type=float, default=None,
                        help="seconds of the parent's reference slice")
    args = parser.parse_args(argv)
    spawned = args.spawned if args.spawned is not None else time.monotonic()
    workload = args.workload
    result: dict = {"mode": args.mode, "workload": workload}
    try:
        state = _setup(workload, args.simcache, args.cells)
        result["setup_raw_s"] = time.monotonic() - spawned
        gauge = ledger.HostGauge()
        gauge.slice()
        took = gauge.slices[0][1]
        result["setup_s"] = gauge.normalise(
            result["setup_raw_s"], args.slice or took, took)
        if args.mode == "setup":
            return _write(args.out, result)
        tracer = None
        if args.mode == "traced":
            tracer = ledger.Tracer(state["counter"],
                                   os.path.join(_root(), "src"))
            tracer.install(state["experiments"])
            with tracer:
                reports = _run(workload, state)
            wall = tracer.wall_s
        else:
            state["counter"].checkpoint = gauge.checkpoint
            reports = _run(workload, state)
            gauge.slice()
            state["counter"].checkpoint = None
            wall, result["norm_wall_s"] = gauge.result()
            result["slice_s"] = gauge.median_slice_s()
        result["peak_rss_mb"] = (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        result["wall_s"] = wall
        result["cycles"] = state["counter"].cycles
        if args.mode == "record":
            result["record"] = _record(workload, state, reports)
        else:
            result.update(_check(workload, state, reports,
                                 checks.load_digests()))
        table3 = [r for r in reports if r.experiment_id == "table3"]
        if table3:
            result["paper_table3_mae_ipc"] = checks.table3_mae(table3[0])
        if tracer is not None:
            from repro.workloads.tracecache import cache_info
            result["layers"] = tracer.metrics(state["simcache"],
                                              cache_info())
            if args.spans:
                with open(args.spans, "w") as fh:
                    json.dump(tracer.spans, fh)
    except Exception:
        result["error"] = traceback.format_exc()
        _write(args.out, result)
        return 1
    return _write(args.out, result)


def _root() -> str:
    return os.path.dirname(checks.HERE)


def _write(path: str, result: dict) -> int:
    with open(path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
