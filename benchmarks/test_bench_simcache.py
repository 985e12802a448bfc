"""Bench: persistent result cache, cold vs warm full suite.

Runs the complete experiment suite (the ``power5-repro all``
equivalent: cross-experiment planner + every experiment) three times
against a fresh cache directory:

- **cold** -- empty cache, every cell simulated and stored;
- **warm** -- new context, same directory, every cell served from
  disk;
- **warm, jobs=2** -- same again with the parallel path enabled (all
  hits, so no pool is ever forked; the path must still be identical).

The three report lists must be byte-identical -- the cache is pure
memoisation -- and the warm run must be at least ``WARM_FLOOR`` times
faster than the cold one (the cell-free experiments: table1, figure1,
table4 and noise are recomputed either way and bound the achievable
speedup).  Results land in the ``"simcache"`` section of
``BENCH_simcore.json`` via read-modify-write, so the engine bench's
wholesale rewrite and this section never clobber each other.
"""

from __future__ import annotations

import json
import pathlib
import tempfile
import time

from repro.config import POWER5
from repro.experiments import EXPERIMENTS, ExperimentContext, run_many
from repro.simcache import SimCache
from repro.workloads.tracecache import clear_cache

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Minimum cold/warm wall-clock ratio for the full suite.
WARM_FLOOR = 5.0


def _run_suite(cache_dir, jobs: int = 1):
    """One full planned suite run; returns (reports, wall, stats)."""
    clear_cache()
    cache = SimCache(cache_dir) if cache_dir else None
    ctx = ExperimentContext(config=POWER5.small(), min_repetitions=3,
                            max_cycles=2_500_000, jobs=jobs,
                            simcache=cache)
    start = time.perf_counter()
    reports = run_many(list(EXPERIMENTS), ctx)
    wall = time.perf_counter() - start
    stats = cache.stats() if cache else {}
    return reports, wall, stats


def test_bench_simcache_cold_vs_warm():
    with tempfile.TemporaryDirectory() as tmp:
        cold_reports, cold_wall, cold_stats = _run_suite(tmp)
        warm_reports, warm_wall, warm_stats = _run_suite(tmp)
        jobs_reports, jobs_wall, _ = _run_suite(tmp, jobs=2)

    # Transparency: the cache changes when work happens, never what
    # any experiment reports.
    assert repr(cold_reports) == repr(warm_reports)
    assert repr(cold_reports) == repr(jobs_reports)

    # The cold run filled the cache; the warm runs only read it.  The
    # cold run also looks up a few cells it stored earlier in the same
    # run (cold hits), so every cold lookup -- hit or miss -- must be
    # a warm hit.
    assert cold_stats["stores"] == cold_stats["misses"] > 0
    assert warm_stats["misses"] == 0
    assert warm_stats["hits"] == cold_stats["hits"] + cold_stats["misses"]

    speedup = cold_wall / warm_wall if warm_wall else None
    section = {
        "cold_wall_s": round(cold_wall, 2),
        "warm_wall_s": round(warm_wall, 2),
        "warm_jobs2_wall_s": round(jobs_wall, 2),
        "speedup_warm": round(speedup, 2) if speedup else None,
        "cells_cached": cold_stats["stores"],
        "cache_bytes": cold_stats["bytes"],
        "reports_identical": True,
    }

    # Read-modify-write: only this bench owns the "simcache" section.
    out = ROOT / "BENCH_simcore.json"
    try:
        payload = json.loads(out.read_text())
    except (OSError, ValueError):
        payload = {}
    payload["simcache"] = section
    out.write_text(json.dumps(payload, indent=2) + "\n")

    assert speedup is not None and speedup >= WARM_FLOOR, (
        f"warm suite only {speedup:.2f}x faster than cold "
        f"({warm_wall:.2f}s vs {cold_wall:.2f}s), floor {WARM_FLOOR}")
