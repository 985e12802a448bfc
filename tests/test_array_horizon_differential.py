"""Hooked and chip-attached array runs: the bit-identity matrix.

The array engine's dense loop keeps hot thread state in locals and
syncs it out before every periodic hook (interval samplers, governor
epochs, kernel timers) and around chip-port grants.  Every observable
of such a run -- retired counts, repetition logs, PMU sample series,
governor decision logs, chip schedule results -- must be
bit-identical between the array engine and the object engine (the
per-cycle reference).

The experiment-level test at the bottom closes the loop at the
orchestration layer: the ``governor`` experiment must render the same
report serially, with worker processes, and through the HTTP service
backend (worker processes run the array engine too).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.chip import Chip, ChipConfig
from repro.config import POWER5
from repro.core import make_core
from repro.governor import (
    Governor,
    GovernorConfig,
    IpcBalancePolicy,
    PrefetchAdaptPolicy,
)
from repro.microbench import make_microbenchmark
from repro.pmu.sampling import IntervalSampler
from repro.sched import Job, OsScheduler, make_allocation_policy

SECONDARY_BASE = (1 << 27) + 8192

#: Governor epoch: a governed 400k-cycle run crosses a dozen epochs.
EPOCH = 32_768

ENGINES = ("array", "object")


def _cfg(engine):
    return dataclasses.replace(POWER5.small(), engine=engine)


def _loaded_core(engine, names, priorities=(4, 4)):
    config = _cfg(engine)
    core = make_core(config)
    sources = [make_microbenchmark(names[0], config)]
    if len(names) > 1:
        sources.append(make_microbenchmark(names[1], config,
                                           base_address=SECONDARY_BASE))
    core.load(sources, priorities=priorities)
    return core


def _core_sig(core):
    """Every per-thread observable a stale local could corrupt."""
    sig = [core.cycle]
    for th in core._threads:
        if th is None:
            sig.append(None)
            continue
        sig.append((th.retired, th.decoded, th.owned_slots,
                    th.wasted_slots, th.slots_lost_gct,
                    th.slots_lost_stall, th.stall_until, th.pos,
                    tuple(th.rep_end_times), tuple(th.rep_end_retired),
                    tuple(th.rep_start_times)))
    return tuple(sig)


# -- governed runs ------------------------------------------------------


def _governed_sig(engine, policy_cls, names):
    core = _loaded_core(engine, names)
    gcfg = GovernorConfig(epoch=EPOCH)
    gov = Governor(gcfg, policy_cls(gcfg))
    gov.attach(core)
    core.step(400_000)
    return _core_sig(core), repr(gov.decision_log())


@pytest.mark.parametrize("policy_cls,names", [
    (IpcBalancePolicy, ("cpu_int", "cpu_int")),
    (PrefetchAdaptPolicy, ("cpu_int", "ldint_l2")),
], ids=["ipc_balance", "prefetch_adapt"])
def test_governed_run_bit_identical_across_engines(policy_cls, names):
    """Same decisions, same machine state on both engines.

    The governor's actuations rebuild the arbiter and retune the
    prefetch knobs mid-run, so the array run must reproduce the object
    engine's decision log exactly -- including the epoch-boundary IPC
    readings each decision was based on.
    """
    sigs = [_governed_sig(engine, policy_cls, names)
            for engine in ENGINES]
    assert sigs[0] == sigs[1]


# -- sampled runs -------------------------------------------------------


@pytest.mark.parametrize("names", [("cpu_int",), ("cpu_int", "ldint_l2")],
                         ids=["st", "smt"])
def test_sampled_run_bit_identical_across_engines(names):
    """The interval-sample series is the same on both engines."""
    sigs = []
    for engine in ENGINES:
        core = _loaded_core(engine, names)
        sampler = IntervalSampler(8192)
        sampler.attach(core)
        core.step(300_000)
        sigs.append((_core_sig(core), repr(sampler.samples)))
    assert sigs[0] == sigs[1]


# -- scheduled chip runs ------------------------------------------------


def test_scheduled_chip_run_bit_identical_across_engines():
    """A 2-core scheduled run: every decision, account and counter.

    Scheduled cores carry the patched kernel's timer hook and a chip
    port, so the array engine's hook syncs and the shared-bus grants
    both run in every chip quantum.
    """
    reprs = []
    for engine in ENGINES:
        chip = Chip(ChipConfig(n_cores=2, core=_cfg(engine)))
        sched = OsScheduler(chip, make_allocation_policy("round_robin"),
                            quantum=32_768)
        result = sched.run([Job("cpu_int", repetitions=60)
                            for _ in range(4)])
        reprs.append(repr(result))
    assert reprs[0] == reprs[1]


# -- experiment-level transparency --------------------------------------


def test_governor_experiment_serial_jobs_backend_identical(tmp_path):
    """The governor experiment renders one report on every path.

    Serial, ``--jobs 2`` (worker processes) and the HTTP service
    backend must agree byte for byte under the array engine -- the
    workers and the service workers all step governed cells through
    hooked array runs.
    """
    from repro.experiments import run_many
    from repro.experiments.base import ExperimentContext
    from repro.service import ServiceBackend
    from repro.service.server import ServerConfig, ServiceHandle

    def ctx(**kwargs):
        return ExperimentContext(config=POWER5.small(),
                                 min_repetitions=2,
                                 max_cycles=200_000, **kwargs)

    (serial,) = run_many(["governor"], ctx())
    (jobs2,) = run_many(["governor"], ctx(jobs=2))
    assert repr(jobs2) == repr(serial)

    handle = ServiceHandle(ServerConfig(
        port=0, workers=2, cache_dir=str(tmp_path / "svc-cache"),
        retry_backoff=0.05)).start()
    try:
        (remote,) = run_many(
            ["governor"], ctx(backend=ServiceBackend(handle.url)))
    finally:
        handle.stop()
    assert repr(remote) == repr(serial)
