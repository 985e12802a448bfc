"""Unit tests for the chip subsystem: config, bus, Chip, ChipKernel."""

from __future__ import annotations

import pytest

from repro.chip import BusChannel, Chip, ChipConfig, SharedChipBus
from repro.microbench import make_microbenchmark
from repro.pmu import CounterBank
from repro.syskernel import ChipKernel, SysFSError

SECONDARY_BASE = (1 << 27) + 8192


# ----------------------------------------------------------------------
# ChipConfig
# ----------------------------------------------------------------------


class TestChipConfig:
    def test_defaults_match_power5(self, config):
        cfg = ChipConfig(core=config)
        assert cfg.n_cores == 2
        assert cfg.core is config

    @pytest.mark.parametrize("field,value", [
        ("n_cores", 0), ("sync_quantum", 0),
        ("l2_slot_gap", -1), ("mem_slot_gap", -1)])
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            ChipConfig(**{field: value})

    def test_fingerprint_sensitivity(self, config):
        base = ChipConfig(core=config)
        assert base.fingerprint() == ChipConfig(core=config).fingerprint()
        assert (base.replace(n_cores=4).fingerprint()
                != base.fingerprint())
        assert (base.replace(mem_slot_gap=7).fingerprint()
                != base.fingerprint())

    def test_fingerprint_ignores_engine(self, config):
        import dataclasses
        obj = dataclasses.replace(config, engine="object")
        assert (ChipConfig(core=config).fingerprint()
                == ChipConfig(core=obj).fingerprint())


# ----------------------------------------------------------------------
# BusChannel
# ----------------------------------------------------------------------


class TestBusChannel:
    def test_zero_gap_grants_immediately(self):
        ch = BusChannel(0, 2)
        assert ch.grant(17, 0, 0) == 17
        assert ch.grant(17, 1, 1) == 17
        assert ch.core_wait(0) == ch.core_wait(1) == 0
        assert ch.core_grants(0) == ch.core_grants(1) == 1

    def test_gap_serializes_conflicting_grants(self):
        ch = BusChannel(10, 2)
        assert ch.grant(100, 0, 0) == 100
        # Second request inside the gap window queues behind the first.
        assert ch.grant(105, 1, 0) == 110
        assert ch.wait_cycles[1][0] == 5
        # A request past the window is untouched.
        assert ch.grant(200, 0, 1) == 200
        assert ch.wait_cycles[0] == [0, 0]

    def test_grant_before_existing_slot_fits(self):
        ch = BusChannel(10, 1)
        assert ch.grant(100, 0, 0) == 100
        # 80 is >= 10 away from 100: no conflict.
        assert ch.grant(80, 0, 0) == 80

    def test_cascading_conflicts(self):
        ch = BusChannel(10, 1)
        for want, got in [(0, 0), (1, 10), (2, 20), (3, 30)]:
            assert ch.grant(want, 0, 0) == got

    def test_advance_prunes_expired_slots(self):
        ch = BusChannel(5, 1)
        for i in range(100):
            ch.grant(i * 5, 0, 0)
        ch.advance(10_000)
        # Trigger the pruning path (len > 64) with one more grant.
        ch.grant(10_000, 0, 0)
        assert len(ch._starts) < 64

    def test_shared_bus_core_stats(self, config):
        cfg = ChipConfig(core=config)
        bus = SharedChipBus(cfg)
        bus.l2.grant(0, 0, 0)
        bus.l2.grant(1, 1, 0)   # queues: wait = gap - 1
        bus.mem.grant(0, 1, 1)
        l2g, l2w, memg, memw = bus.core_stats(1)
        assert (l2g, memg) == (1, 1)
        assert l2w == cfg.l2_slot_gap - 1
        assert bus.core_stats(0) == (1, 0, 0, 0)


# ----------------------------------------------------------------------
# Chip
# ----------------------------------------------------------------------


class TestChip:
    def test_single_core_builds_no_bus(self, config):
        chip = Chip(ChipConfig(core=config, n_cores=1))
        assert chip.bus is None
        assert chip.cores[0].hierarchy.chip_port is None

    def test_multi_core_installs_ports(self, config):
        chip = Chip(ChipConfig(core=config, n_cores=2))
        assert chip.bus is not None
        for cid, core in enumerate(chip.cores):
            assert core.hierarchy.chip_port is not None
            assert core.hierarchy.chip_port.core_id == cid

    def test_port_survives_reload(self, config):
        chip = Chip(ChipConfig(core=config, n_cores=2))
        src = make_microbenchmark("cpu_int", config)
        chip.load_core(0, (src, None))
        port = chip.cores[0].hierarchy.chip_port
        assert port is not None
        chip.step(2048)
        chip.load_core(0, (src, None))
        assert chip.cores[0].hierarchy.chip_port is port
        assert port.offset == chip.now

    def test_offsets_track_dispatch_time(self, config):
        chip = Chip(ChipConfig(core=config, n_cores=2))
        src = make_microbenchmark("cpu_int", config)
        chip.load_core(0, (src, None))
        assert chip.core_offset(0) == 0
        chip.step(1024)
        chip.load_core(1, (make_microbenchmark(
            "cpu_int", config, base_address=SECONDARY_BASE), None))
        assert chip.core_offset(1) == 1024
        assert chip.now == 1024

    def test_idle_cores_do_not_advance(self, config):
        chip = Chip(ChipConfig(core=config, n_cores=2))
        src = make_microbenchmark("cpu_int", config)
        chip.load_core(0, (src, None))
        chip.step(512)
        assert chip.cores[0].cycle == 512
        assert chip.cores[1].cycle == 0

    def test_shared_memory_contention_is_accounted(self, config):
        """Two memory-bound cores wait on the shared channel."""
        chip = Chip(ChipConfig(core=config, n_cores=2))
        for cid in range(2):
            base = 0 if cid == 0 else SECONDARY_BASE
            chip.load_core(cid, (make_microbenchmark(
                "ldint_mem", config, base_address=base), None))
        chip.step(200_000)
        waits = [chip.bus.mem.core_wait(c) for c in range(2)]
        grants = [chip.bus.mem.core_grants(c) for c in range(2)]
        assert all(g > 0 for g in grants)
        assert sum(waits) > 0

    def test_contention_slows_down_vs_solo(self, config):
        """A memory-bound thread is slower when the other core hits
        memory too -- the chip effect the single-core model lacks."""
        def run(other):
            chip = Chip(ChipConfig(core=config, n_cores=2))
            chip.load_core(0, (make_microbenchmark(
                "ldint_mem", config), None))
            if other:
                chip.load_core(1, (make_microbenchmark(
                    "ldint_mem", config,
                    base_address=SECONDARY_BASE), None))
            while not chip.core_idle(0) and chip.now < 2_000_000:
                chip.step(4096)
            th = chip.cores[0].result().thread(0)
            assert th.repetitions > 0
            return th.avg_repetition_cycles

        assert run(other=True) > run(other=False)


# ----------------------------------------------------------------------
# ChipKernel
# ----------------------------------------------------------------------


class TestChipKernel:
    @pytest.fixture
    def loaded(self, config):
        chip = Chip(ChipConfig(core=config, n_cores=2))
        kernel = ChipKernel(chip)
        for cid in range(2):
            base = 0 if cid == 0 else SECONDARY_BASE
            chip.load_core(cid, (
                make_microbenchmark("cpu_int", config,
                                    base_address=base),
                make_microbenchmark("ldint_l2", config,
                                    base_address=base + 4096)))
            kernel.attach(cid)
        return chip, kernel

    def test_topology_files(self, loaded):
        _, kernel = loaded
        fs = kernel.sysfs
        assert fs.read("/sys/devices/system/cpu/online") == "0-3"
        assert fs.read(
            "/sys/devices/system/cpu/cpu2/topology/core_id") == "1"
        assert fs.read("/sys/devices/system/cpu/cpu3/topology/"
                       "thread_siblings_list") == "2-3"

    def test_chipwide_priority_files(self, loaded):
        chip, kernel = loaded
        path = f"{kernel.SYSFS_DIR}/core1/thread0"
        assert kernel.sysfs.read(path) == "4"
        kernel.sysfs.write(path, "6")
        assert chip.cores[1].priorities == (6, 4)
        assert kernel.sysfs.read(path) == "6"
        # The other core is untouched.
        assert chip.cores[0].priorities == (4, 4)

    def test_priority_change_counts_pm_prio_change(self, loaded):
        chip, kernel = loaded
        kernel.set_priority(0, 1, 2)
        bank = CounterBank.capture(chip.cores[0])
        assert bank.value("PM_PRIO_CHANGE", 1) == 1
        assert bank.value("PM_PRIO_CHANGE", 0) == 0

    def test_invalid_write_rejected(self, loaded):
        _, kernel = loaded
        with pytest.raises(SysFSError):
            kernel.sysfs.write(f"{kernel.SYSFS_DIR}/core0/thread0", "9")

    def test_reattach_after_reload(self, config):
        """attach() re-installs the per-core kernel every dispatch."""
        chip = Chip(ChipConfig(core=config, n_cores=2))
        kernel = ChipKernel(chip)
        src = make_microbenchmark("cpu_int", config)
        chip.load_core(0, (src, None))
        k1 = kernel.attach(0)
        chip.load_core(0, (src, None))   # clears hooks
        k2 = kernel.attach(0)
        assert k1 is k2                   # same per-core kernel object
        # The chip-wide file still actuates after the reload.
        kernel.sysfs.write(f"{kernel.SYSFS_DIR}/core0/thread0", "5")
        assert chip.cores[0].priorities[0] == 5
