"""Tests for result objects and FAME accounting semantics."""

import pytest

from repro.config import POWER5
from repro.core.results import CoreResult, ThreadResult


def make_thread(thread_id=0, **overrides):
    kwargs = dict(
        thread_id=thread_id, workload="w", priority=4, cycles=1000,
        retired=520, repetitions=2, rep_end_times=(400, 900),
        rep_end_retired=(250, 500))
    kwargs.update(overrides)
    return ThreadResult(**kwargs)


class TestThreadResult:
    def test_fame_window_closes_at_last_complete_rep(self):
        tr = make_thread()
        assert tr.accounted_cycles == 900
        assert tr.accounted_retired == 500

    def test_ipc_uses_steady_window(self):
        # With warmup=1 and two complete repetitions, the window is
        # repetition 2 only: (500-250) instructions / (900-400) cycles.
        tr = make_thread()
        assert tr.ipc == pytest.approx(250 / 500)

    def test_ipc_includes_warmup_when_too_few_reps(self):
        tr = make_thread(repetitions=1, rep_end_times=(400,),
                         rep_end_retired=(250,))
        assert tr.ipc == pytest.approx(250 / 400)

    def test_warmup_zero_uses_full_window(self):
        tr = make_thread(warmup=0)
        assert tr.ipc == pytest.approx(500 / 900)

    def test_ipc_fallback_without_complete_reps(self):
        tr = make_thread(repetitions=0, rep_end_times=(),
                         rep_end_retired=())
        assert tr.ipc == pytest.approx(520 / 1000)

    def test_avg_repetition_cycles_steady(self):
        # Warmup repetition excluded: (900 - 400) cycles / 1 rep.
        tr = make_thread()
        assert tr.avg_repetition_cycles == 500.0

    def test_avg_repetition_cycles_without_warmup(self):
        tr = make_thread(warmup=0)
        assert tr.avg_repetition_cycles == 450.0

    def test_avg_repetition_infinite_without_reps(self):
        tr = make_thread(repetitions=0, rep_end_times=(),
                         rep_end_retired=())
        assert tr.avg_repetition_cycles == float("inf")

    def test_seconds_conversion(self):
        cfg = POWER5.default()
        tr = make_thread()
        assert tr.avg_repetition_seconds(cfg) == pytest.approx(
            500 / cfg.clock_hz)


class TestCoreResult:
    def _result(self):
        return CoreResult(
            cycles=1000, priorities=(6, 2),
            threads=(make_thread(0), make_thread(1, retired=100,
                                                 rep_end_retired=(50, 100))))

    def test_thread_lookup(self):
        res = self._result()
        assert res.thread(1).thread_id == 1
        with pytest.raises(KeyError):
            res.thread(2)

    def test_total_ipc_sums_threads(self):
        res = self._result()
        assert res.total_ipc == pytest.approx(
            res.thread(0).ipc + res.thread(1).ipc)

    def test_speedup_over_baseline(self):
        fast = CoreResult(cycles=500, priorities=(6, 2),
                          threads=(make_thread(rep_end_times=(200, 450)),))
        slow = CoreResult(cycles=1000, priorities=(4, 4),
                          threads=(make_thread(),))
        assert fast.speedup_over(slow) == pytest.approx(900 / 450 * 0.5
                                                        * 2)

    def test_throughput_factor(self):
        a = self._result()
        assert a.throughput_factor(a) == pytest.approx(1.0)


class TestConfig:
    def test_default_preset_geometry(self):
        cfg = POWER5.default()
        assert cfg.gct_groups == 20
        assert cfg.decode_width == 5
        assert cfg.l1d.size_bytes == 32 * 1024
        assert cfg.num_fxu == cfg.num_lsu == cfg.num_fpu == 2

    def test_small_preset_keeps_latencies(self):
        small, full = POWER5.small(), POWER5.default()
        assert small.l1d.latency == full.l1d.latency
        assert small.l2.latency == full.l2.latency
        assert small.memory.dram_latency == full.memory.dram_latency
        assert small.l1d.size_bytes < full.l1d.size_bytes

    def test_replace_produces_new_config(self):
        cfg = POWER5.small()
        other = cfg.replace(decode_width=4)
        assert other.decode_width == 4
        assert cfg.decode_width == 5

    def test_zero_decode_width_rejected(self):
        # A width-0 machine could never decode a group; the kernel
        # compiler has no such group to emit.
        with pytest.raises(ValueError, match="decode_width"):
            POWER5.small().replace(decode_width=0)

    def test_seconds(self):
        cfg = POWER5.default()
        assert cfg.seconds(cfg.clock_hz) == pytest.approx(1.0)

    def test_configs_are_frozen(self):
        cfg = POWER5.small()
        with pytest.raises(Exception):
            cfg.decode_width = 1  # type: ignore[misc]
