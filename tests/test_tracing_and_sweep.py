"""Tests for the pipeline tracer and the public sweep API."""

import dataclasses

import pytest

from repro.core import PipelineTracer, SMTCore, make_core
from repro.experiments import ExperimentContext, PrioritySweep
from repro.experiments.base import priority_pair
from repro.isa import OpClass
from repro.microbench import make_microbenchmark


class TestPipelineTracer:
    @pytest.fixture
    def traced_core(self, config):
        core = SMTCore(config)
        core.load([make_microbenchmark("ldint_l2", config)])
        tracer = PipelineTracer(limit=2000)
        core.attach_tracer(tracer)
        core.step(1000)
        return core, tracer

    def test_events_recorded_in_decode_order(self, traced_core):
        _, tracer = traced_core
        assert len(tracer) > 10
        decodes = [e.decode for e in tracer.thread_events(0)]
        assert decodes == sorted(decodes)

    def test_event_ordering_invariants(self, traced_core):
        _, tracer = traced_core
        for e in tracer.events:
            assert e.decode <= e.issue <= e.complete
            assert e.issue_delay >= 0
            assert e.latency >= 0

    def test_load_latency_visible(self, traced_core):
        _, tracer = traced_core
        lat = tracer.latency_by_class()
        # ldint_l2's loads are long-latency; its FX adds are short.
        assert lat[OpClass.LOAD] > lat[OpClass.FX]

    def test_limit_drops_excess(self, config):
        core = SMTCore(config)
        core.load([make_microbenchmark("cpu_int", config)])
        tracer = PipelineTracer(limit=50)
        core.attach_tracer(tracer)
        core.step(2000)
        assert len(tracer) == 50
        assert tracer.dropped > 0

    def test_detach_stops_recording(self, config):
        core = SMTCore(config)
        core.load([make_microbenchmark("cpu_int", config)])
        tracer = PipelineTracer()
        core.attach_tracer(tracer)
        core.step(100)
        n = len(tracer)
        core.detach_tracer()
        core.step(100)
        assert len(tracer) == n

    def test_render_timeline(self, traced_core):
        _, tracer = traced_core
        text = tracer.render_timeline(0, first=0, count=5)
        assert "LOAD" in text or "FX" in text
        assert "D" in text

    def test_render_empty(self):
        assert PipelineTracer().render_timeline(0) == "(no events)"

    def test_clear(self, traced_core):
        _, tracer = traced_core
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0

    def test_limit_validated(self):
        with pytest.raises(ValueError):
            PipelineTracer(limit=0)

    def test_tracer_does_not_change_timing(self, config):
        plain = SMTCore(config)
        plain.load([make_microbenchmark("cpu_int", config)])
        plain.step(2000)
        traced = SMTCore(config)
        traced.load([make_microbenchmark("cpu_int", config)])
        traced.attach_tracer(PipelineTracer())
        traced.step(2000)
        assert plain.thread(0).retired == traced.thread(0).retired


# ----------------------------------------------------------------------
# Tracing is exact across engines
# ----------------------------------------------------------------------
#
# A traced array-engine core runs the object decode loop (the compiled
# kernels record nothing), so its event stream must match an object
# core's event for event -- including across repetition advances and
# flush rewinds, which go through the array engine's thread state.

SECONDARY_BASE = (1 << 27) + 8192

TRACE_PAIRS = [("cpu_int", "ldint_mem"), ("ldint_l2", "cpu_fp"),
               ("lng_chain_cpuint", "ldint_l1")]


def _engine_configs(config):
    return (dataclasses.replace(config, engine="array"),
            dataclasses.replace(config, engine="object"))


def _traced_run(config, primary, secondary, priorities, cap=120_000,
                sample_period=None):
    from repro.pmu import IntervalSampler
    core = make_core(config)
    core.load([make_microbenchmark(primary, config),
               make_microbenchmark(secondary, config,
                                   base_address=SECONDARY_BASE)],
              priorities=priorities)
    tracer = PipelineTracer(limit=200_000)
    core.attach_tracer(tracer)
    sampler = None
    if sample_period is not None:
        sampler = IntervalSampler(sample_period)
        sampler.attach(core)
    while not core.all_finished() and core.cycle < cap:
        core.step(4096)
    core.drain()
    samples = tuple(sampler.samples) if sampler is not None else ()
    return core.result(), tracer, samples


@pytest.mark.parametrize("primary,secondary", TRACE_PAIRS)
@pytest.mark.parametrize("diff", (-5, 0, 5))
def test_trace_identical_across_engines(config, primary, secondary, diff):
    """Event streams match the object engine event for event."""
    array_cfg, object_cfg = _engine_configs(config)
    priorities = priority_pair(diff)
    array_res, array_tr, _ = _traced_run(array_cfg, primary, secondary,
                                         priorities)
    object_res, object_tr, _ = _traced_run(object_cfg, primary,
                                           secondary, priorities)
    assert array_res == object_res
    assert len(object_tr) > 0
    assert array_tr.dropped == object_tr.dropped
    assert array_tr.events == object_tr.events


def test_tracer_coexists_with_pmu_sampling(config):
    """Tracing + PMU sampling together stay exact across engines."""
    runs = []
    for cfg in _engine_configs(config):
        result, tracer, samples = _traced_run(
            cfg, "cpu_int", "ldint_mem", (6, 2), sample_period=1009)
        runs.append((result, tracer.events, samples))
    assert runs[0] == runs[1]
    assert runs[0][2]  # the sampler really fired


class TestPrioritySweep:
    @pytest.fixture(scope="class")
    def sweep_result(self, config):
        ctx = ExperimentContext(config=config, min_repetitions=3,
                                max_cycles=1_500_000)
        return PrioritySweep(ctx).run("cpu_int", "ldint_mem",
                                      diffs=(-4, -2, 0, 2, 4))

    def test_points_sorted_and_anchored(self, sweep_result):
        diffs = [p.diff for p in sweep_result.points]
        assert diffs == sorted(diffs)
        assert 0 in diffs

    def test_baseline_point_is_unity(self, sweep_result):
        base = sweep_result.point(0)
        assert base.primary_speedup == pytest.approx(1.0)
        assert base.secondary_slowdown == pytest.approx(1.0)

    def test_best_primary_at_high_priority(self, sweep_result):
        assert sweep_result.best_primary().diff > 0

    def test_throughput_gain_positive(self, sweep_result):
        assert sweep_result.throughput_gain() > 1.0

    def test_saturation_diff(self, sweep_result):
        sat = sweep_result.saturation_diff(fraction=0.85)
        assert sat in (2, 4)

    def test_missing_diff_raises(self, sweep_result):
        with pytest.raises(KeyError):
            sweep_result.point(3)

    def test_render(self, sweep_result):
        text = sweep_result.render()
        assert "cpu_int" in text and "ldint_mem" in text
        assert "+4" in text and "-4" in text

    def test_baseline_always_measured(self, config):
        ctx = ExperimentContext(config=config, min_repetitions=3,
                                max_cycles=1_000_000)
        result = PrioritySweep(ctx).run("cpu_int", "cpu_fp", diffs=(2,))
        assert {p.diff for p in result.points} == {0, 2}
