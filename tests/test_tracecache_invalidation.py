"""Trace-cache schema versioning: stale entries are never served.

The sweep/trace cache key starts with ``SCHEMA_VERSION``; an entry
written by any other version of the result schema (e.g. a pickle from
the single-core era, v1) can therefore never satisfy a lookup made by
the current code, no matter how the rest of the key matches.  Compiled
kernels bake in the TLB/L1D geometry, so their cache key carries it
and two machine shapes never share one.  Every non-empty trace gets a
kernel factory, however long.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import POWER5, CoreConfig
from repro.core import make_core
from repro.fame import FameRunner
from repro.isa import TraceBuilder
from repro.isa.trace import FixedTraceSource
from repro.microbench import make_microbenchmark
from repro.pmu import Pmu
from repro.workloads import tracecache
from repro.workloads.fft import FFTTraceProgram
from repro.workloads.tracecache import (
    SCHEMA_VERSION,
    cache_info,
    cached_workload,
    clear_cache,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


def test_schema_version_is_first_key_component(config):
    cached_workload("cpu_int", config)
    (key,) = tracecache._CACHE
    assert key[0] == SCHEMA_VERSION
    assert key[1:] == ("cpu_int", 0, config.fingerprint())


def test_old_version_entry_is_rejected(config):
    """An entry planted under the previous schema version is ignored:
    the lookup misses and rebuilds under the current version."""
    stale = object()  # stands in for an incompatibly-shaped result
    tracecache._CACHE[
        (SCHEMA_VERSION - 1, "cpu_int", 0, config.fingerprint())] = stale
    source = cached_workload("cpu_int", config)
    assert source is not stale
    info = cache_info()
    assert (info["hits"], info["misses"], info["entries"]) == (0, 1, 2)
    # The stale entry stays inert; the fresh one is the one served.
    assert cached_workload("cpu_int", config) is source
    assert cache_info()["hits"] == 1


def test_legacy_unversioned_key_is_never_served(config):
    """Pre-versioning 3-tuple keys cannot collide with current keys."""
    stale = object()
    tracecache._CACHE[("cpu_int", 0, config.fingerprint())] = stale
    assert cached_workload("cpu_int", config) is not stale


def test_hit_requires_same_config_fingerprint(config):
    a = cached_workload("cpu_int", config)
    changed = dataclasses.replace(
        config, fx_latency=config.fx_latency + 1)
    b = cached_workload("cpu_int", changed)
    assert a is not b
    assert cache_info()["misses"] == 2


def test_clear_cache_resets_everything(config):
    cached_workload("cpu_int", config)
    cached_workload("cpu_int", config)
    clear_cache()
    assert all(v == 0 for v in cache_info().values())


def test_compiled_cache_keyed_by_trace_content(config):
    """The compiled-trace cache key is the instruction tuple itself:
    identical content hits regardless of provenance, any content
    change (a different workload here) builds a distinct entry."""
    trace = tuple(cached_workload("cpu_int", config).repetition(0))
    compiled = tracecache.compiled_trace(trace)
    assert tracecache.compiled_trace(tuple(trace)) is compiled
    info = cache_info()
    assert (info["compiled_hits"], info["compiled_misses"]) == (1, 1)
    other = tuple(cached_workload("ldint_l1", config).repetition(0))
    assert tracecache.compiled_trace(other) is not compiled
    assert cache_info()["compiled_entries"] == 2


def test_compiled_cache_invalidated_by_clear(config):
    trace = tuple(cached_workload("cpu_int", config).repetition(0))
    compiled = tracecache.compiled_trace(trace)
    clear_cache()
    assert cache_info()["compiled_entries"] == 0
    rebuilt = tracecache.compiled_trace(trace)
    assert rebuilt is not compiled  # genuinely rebuilt, not served stale


def test_worker_handshake_rejects_version_mismatch(config):
    """A worker initialised by a coordinator speaking another schema
    version refuses to start instead of silently mixing results."""
    from repro.experiments.parallel import _init_worker
    with pytest.raises(RuntimeError, match="schema mismatch"):
        _init_worker(config, min_repetitions=2, maiv=0.02,
                     max_cycles=250_000,
                     schema_version=SCHEMA_VERSION + 1)


# ----------------------------------------------------------------------
# Kernels bake the TLB/L1D geometry: no stale set/tag reuse
# ----------------------------------------------------------------------

def _store_heavy():
    """Three stores per load over 96 lines (1 KiB apart), so stores
    both hit and miss the TLB and the L1D of either preset."""
    b = TraceBuilder()
    for k in range(96):
        addr = (1 << 22) + k * 1024
        b.load(3, addr)
        b.store(3, addr)
        b.store(4, addr + 8192)
        b.store(5, addr + 3 * 4096)
        b.fx(4, 3)
        if k % 8 == 7:
            b.loop_overhead(6, taken=k < 95)
    return FixedTraceSource(b.build("store_heavy"))


def test_geometries_get_distinct_kernels():
    """Default and small presets never share a compiled kernel: their
    baked constants differ, so one trace gets one factory per preset."""
    configs = (CoreConfig(), POWER5.small())
    trace = tuple(_store_heavy().repetition(0))
    consts = [make_core(c)._consts(c.decode_width) for c in configs]
    assert consts[0] != consts[1]
    assert ((consts[0].tlb_sets, consts[0].l1_sets)
            != (consts[1].tlb_sets, consts[1].l1_sets))
    factories = [tracecache.kernel_factory(trace, k) for k in consts]
    assert None not in factories
    assert factories[0] is not factories[1]
    assert [tracecache.kernel_factory(trace, k) for k in consts] == factories
    assert cache_info()["factory_entries"] == 2


def test_both_geometries_bit_identical_in_one_process():
    """Alternating presets in one process, the array engine matches the
    object engine on a memory-bound pair and on a store-heavy kernel,
    counter bank and samples included."""
    secondary = (1 << 27) + 8192

    def run(config, pair):
        runner = FameRunner(config, min_repetitions=2, max_cycles=150_000)
        if pair == "mem":
            sources = (make_microbenchmark("ldint_l2", config),
                       make_microbenchmark("ldint_mem", config,
                                           base_address=secondary))
        else:
            sources = (_store_heavy(),
                       make_microbenchmark("ldint_l1", config,
                                           base_address=secondary))
        pmu = Pmu(sample_period=1009)
        fame = runner.run_pair(*sources, priorities=(6, 2), pmu=pmu)
        return fame, pmu.report()

    for pair in ("mem", "stores"):
        for config in (CoreConfig(), POWER5.small()):
            array = run(config, pair)
            obj = run(dataclasses.replace(config, engine="object"), pair)
            assert array == obj, (pair, config.l1d)
            assert array[1].counter("PM_ST_CMPL", 0) > 0


def test_fft128_compiles_and_matches_object_engine():
    """FFT-128, table4's producer and the longest built-in trace,
    compiles at the full and the low-power decode width (no length
    cap), and its single-thread FAME run is bit-identical across
    engines."""
    config = POWER5.small()
    trace = tuple(FFTTraceProgram(128, config).repetition(0))
    assert len(trace) > 8192
    core = make_core(config)
    for width in (config.decode_width, 1):
        assert tracecache.kernel_factory(trace, core._consts(width)) \
            is not None

    def run(cfg):
        runner = FameRunner(cfg, min_repetitions=2, max_cycles=2_000_000)
        return runner.run_single(FFTTraceProgram(128, cfg))

    array = run(config)
    assert array == run(dataclasses.replace(config, engine="object"))
    assert array.thread(0).repetitions >= 2
