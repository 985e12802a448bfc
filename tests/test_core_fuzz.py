"""Property-based fuzzing of the SMT core with random traces.

Hypothesis generates arbitrary (valid) instruction traces and priority
pairs; the core must uphold its structural invariants on all of them:
bounded GCT occupancy, monotone accounting, retirement never ahead of
decode, and clean termination of finite workloads.  A second generator
drives both engines over random traces (priority nops included),
machine configurations, hook schedules and step chunkings, and they
must agree exactly.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import POWER5
from repro.core import SMTCore, make_core
from repro.isa import FixedTraceSource, Instruction, OpClass, Trace
from repro.isa.priority_ops import OR_REGISTER_TO_PRIORITY
from repro.priority.levels import PrivilegeLevel

_CONFIG = POWER5.small()

regs = st.integers(min_value=0, max_value=63)
maybe_reg = st.one_of(st.just(-1), regs)
addrs = st.integers(min_value=0, max_value=1 << 22)


def _instruction(draw_op, dst, s1, s2, addr, taken):
    op = draw_op
    if op is OpClass.LOAD:
        return Instruction(op, dst, s1, -1, addr)
    if op is OpClass.STORE:
        return Instruction(op, -1, max(s1, 0), s2, addr)
    if op is OpClass.BRANCH:
        return Instruction(op, -1, s1, -1, -1, 1 if taken else 0)
    if op in (OpClass.NOP, OpClass.PRIO_NOP):
        return Instruction(OpClass.NOP)
    return Instruction(op, dst, s1, s2)


instructions = st.builds(
    _instruction,
    st.sampled_from(list(OpClass)),
    regs, maybe_reg, maybe_reg, addrs, st.booleans())

traces = st.lists(instructions, min_size=1, max_size=60)
priorities = st.integers(min_value=0, max_value=7)


def _source(items, name):
    return FixedTraceSource(Trace(name, items))


class TestCoreInvariantsUnderFuzz:
    @given(traces, traces, priorities, priorities)
    @settings(max_examples=40, deadline=None)
    def test_structural_invariants(self, t0, t1, p0, p1):
        core = SMTCore(_CONFIG)
        core.load([_source(t0, "a"), _source(t1, "b")],
                  priorities=(p0, p1))
        last = [0, 0]
        for _ in range(8):
            core.step(256)
            held = 0
            for tid in (0, 1):
                th = core.thread(tid)
                held += th.gct_held
                # Retirement is bounded by decode.
                assert th.retired <= th.decoded
                # Progress counters are monotone.
                assert th.retired >= last[tid]
                last[tid] = th.retired
                # Repetition accounting is ordered and consistent.
                ends = list(th.rep_end_times)
                assert ends == sorted(ends)
                assert len(th.rep_end_times) == len(th.rep_end_retired)
                assert th.gct_held == len(th.inflight)
            assert held <= _CONFIG.gct_groups

    @given(traces, priorities)
    @settings(max_examples=30, deadline=None)
    def test_single_thread_progress_or_off(self, t0, p0):
        core = SMTCore(_CONFIG)
        core.load([_source(t0, "a")], priorities=(p0, 0))
        core.step(4096)
        th = core.thread(0)
        if p0 == 0:
            assert th.retired == 0
        else:
            assert th.retired > 0

    @given(traces, traces)
    @settings(max_examples=20, deadline=None)
    def test_result_snapshot_consistent(self, t0, t1):
        core = SMTCore(_CONFIG)
        core.load([_source(t0, "a"), _source(t1, "b")])
        core.step(1024)
        result = core.result()
        for tr in result.threads:
            assert 0.0 <= tr.ipc <= 5.0 + 1e-9
            assert tr.retired >= tr.accounted_retired - tr.retired \
                or tr.accounted_retired <= tr.retired
        assert result.total_ipc >= 0.0

    @given(traces)
    @settings(max_examples=20, deadline=None)
    def test_determinism(self, t0):
        runs = []
        for _ in range(2):
            core = SMTCore(_CONFIG)
            core.load([_source(t0, "a"), _source(t0[::-1] or t0, "b")])
            core.step(2048)
            runs.append((core.thread(0).retired,
                         core.thread(1).retired))
        assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# Cross-engine differential
# ----------------------------------------------------------------------
#
# The array engine must be bit-identical to the object engine on any
# trace, configuration and hook schedule, not only on the built-in
# workloads.  Unlike ``instructions`` above, this generator keeps real
# ``or X,X,X`` priority nops (every Table 1 encoding plus one the
# decoder does not recognise), so nop groups, refused requests and
# mid-run width changes all occur.

_NOP_REGS = sorted(OR_REGISTER_TO_PRIORITY) + [9]


def _diff_instruction(op, dst, s1, s2, addr, taken, nop_reg):
    if op is OpClass.PRIO_NOP:
        return Instruction(op, nop_reg, nop_reg, nop_reg, aux=nop_reg)
    if op is OpClass.NOP:
        return Instruction(op)
    return _instruction(op, dst, s1, s2, addr, taken)


diff_traces = st.lists(
    st.builds(_diff_instruction, st.sampled_from(list(OpClass)),
              regs, maybe_reg, maybe_reg, addrs, st.booleans(),
              st.sampled_from(_NOP_REGS)),
    min_size=1, max_size=40)

machines = st.builds(
    lambda base, **fields: dataclasses.replace(base, **fields),
    st.sampled_from([POWER5.small(), POWER5.default()]),
    decode_width=st.integers(1, 5),
    gct_groups=st.integers(4, 24),
    num_fxu=st.integers(1, 3),
    num_lsu=st.integers(1, 3),
    num_fpu=st.integers(1, 2),
    num_bxu=st.integers(1, 2),
    break_group_on_long_dep=st.booleans(),
    branch_ends_group=st.booleans(),
    low_power_decode_interval=st.integers(1, 40))

#: Hypervisor set_priorities targets: ordinary pairs plus low power
#: (1,1), shut-off (0) and single-thread (7) transitions.
prio_pairs = st.sampled_from([(4, 4), (6, 1), (2, 5), (1, 1), (0, 4),
                              (4, 0), (7, 3), (3, 7), (0, 0), (1, 4)])
privileges = st.sampled_from(list(PrivilegeLevel))


def _diff_run(config, t0, t1, prios, privs, hook_period, hook_pairs,
              chunks, total):
    core = make_core(config)
    sources = [_source(t0, "a")] + ([_source(t1, "b")] if t1 else [])
    core.load(sources, priorities=prios, privileges=privs)
    fired = []

    def retune(c, now):
        c.set_priorities(*hook_pairs[len(fired) % len(hook_pairs)])
        fired.append(now)

    core.add_periodic_hook(hook_period, retune)
    i = 0
    while core.cycle < total:
        core.step(min(chunks[i % len(chunks)], total - core.cycle))
        i += 1
    stats = core.balancer.stats
    return (core.result(), core.priorities, fired,
            tuple(tuple(getattr(stats, f)) for f in stats.__slots__))


class TestEnginesAgreeUnderFuzz:
    @given(machine=machines, t0=diff_traces,
           t1=st.one_of(st.none(), diff_traces),
           prios=st.tuples(st.integers(1, 7), st.integers(1, 7)),
           privs=st.tuples(privileges, privileges),
           hook_period=st.integers(50, 900),
           hook_pairs=st.lists(prio_pairs, min_size=1, max_size=4),
           chunks=st.lists(st.integers(1, 1500), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_array_matches_object(self, machine, t0, t1, prios, privs,
                                  hook_period, hook_pairs, chunks):
        total = 3000
        array = _diff_run(machine, t0, t1, prios, privs, hook_period,
                          hook_pairs, chunks, total)
        obj = _diff_run(dataclasses.replace(machine, engine="object"),
                        t0, t1, prios, privs, hook_period, hook_pairs,
                        [total], total)
        assert array == obj
