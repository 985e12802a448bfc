"""Record ``digests.json``: the outputs the benchmark checks runs against.

Run from the root of a checkout whose outputs are known good::

    python3 perfbench/record.py

It runs each workload once in ``record`` mode (``sweep_cold`` over all
462 paper cells) and writes every cell and report digest and each
run's exact modelled-cycle count.  It then times each paper cell once
more with warm trace caches: the costs only form the strata of the
``sweep_cold`` sample.  Re-record only in a change that
means to change the program's outputs, and say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import checks


def _worker(root: str, workload: str, simcache: str, tmp: str,
            cells: str | None = None) -> dict:
    out = os.path.join(tmp, f"{workload}.json")
    cmd = [sys.executable, os.path.join(checks.HERE, "worker.py"),
           "--mode", "record", "--workload", workload,
           "--simcache", simcache, "--out", out]
    if cells:
        cmd += ["--cells", cells]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    subprocess.run(cmd, cwd=root, env=env, check=False,
                   stdout=subprocess.DEVNULL)
    with open(out) as fh:
        result = json.load(fh)
    if "error" in result:
        raise SystemExit(f"{workload} failed:\n{result['error']}")
    print(f"{workload}: {result['wall_s']:.1f} s, "
          f"{result['cycles']} cycles", file=sys.stderr)
    return result


def _costs(plan: list) -> dict:
    """Simulation milliseconds of each paper cell, measured after a
    first pass has built and compiled every trace (the strata of the
    ``sweep_cold`` sample; see :func:`checks.draw_sample`)."""
    import time

    from repro.experiments import ExperimentContext
    ctx = ExperimentContext()
    for key in plan:
        ctx.compute_cell(key)
    costs = {}
    for key in plan:
        start = time.perf_counter()
        ctx.compute_cell(key)
        costs[key] = round(1e3 * (time.perf_counter() - start), 1)
    return costs


def main() -> int:
    root = os.path.dirname(checks.HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    from repro.experiments import ExperimentContext
    from repro.experiments.planner import planned_cells

    plan = planned_cells(ExperimentContext(), checks.PAPER_IDS)[0]
    digests: dict = {}
    scratch = os.path.join(root, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        cells = os.path.join(tmp, "cells.json")
        with open(cells, "w") as fh:
            json.dump([checks.cell_id(key) for key in plan], fh)
        runs = [
            _worker(root, "sweep_cold", os.path.join(tmp, "sweep"), tmp,
                    cells),
            _worker(root, "extensions_cold", os.path.join(tmp, "ext"),
                    tmp),
            _worker(root, "suite_fill", os.path.join(tmp, "fill"), tmp),
        ]
        shutil.copytree(os.path.join(tmp, "fill"),
                        os.path.join(tmp, "warm"))
        runs.append(_worker(root, "suite_warm", os.path.join(tmp, "warm"),
                            tmp))
        if runs[2]["record"]["suite_reports"] != \
                runs[3]["record"]["suite_reports"]:
            raise SystemExit("cold and warm suite reports differ")
        for run in runs:
            digests.update(run["record"])
        digests["paper_table3_mae_ipc"] = runs[3]["paper_table3_mae_ipc"]
    if len(digests["paper_cells"]) != len(plan):
        raise SystemExit("sweep record is missing paper cells")
    for key, cost in _costs(plan).items():
        digests["paper_cells"][checks.cell_id(key)]["cost_ms"] = cost
    with open(checks.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    print(f"wrote {checks.DIGESTS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
