"""Compiled-trace dense-dispatch engine (``CoreConfig.engine="array"``).

:class:`ArraySMTCore` replaces the decode/issue/retire hot path of
:class:`~repro.core.smt_core.SMTCore` with **per-trace compiled
kernels**: :mod:`repro.isa.kernelgen` lowers each workload trace to
one straightline Python function per decode-group start (register
indices, latencies, occupancy caps and branch keys baked in as
literals, intra-group dependencies forwarded through locals), and the
step loop dispatches a whole group with one ``kernels[pos](now, tid)``
call.  Four layers of cost disappear relative to the object engine:

- the per-instruction interpreter work (tuple unpack, opcode cascade,
  operand scans) -- a kernel runs ~3 bytecodes per simulated slot;
- the object engine's per-group ``_decode_slot``/``_decode_group``
  calls and their ~25-local prologue;
- the hierarchy calls of TLB+L1D hits -- a kernel tests both units
  inline and calls ``MemoryHierarchy.load``/``store`` only on a miss;
- the per-cycle attribute traffic on hot counters -- the step loop
  keeps the per-thread dispatch/retire counters (owned slots, GCT
  held, retired, decoded, wait accumulators) in *locals*, loaded by
  :meth:`ArrayThread.hot` and stored back by
  :meth:`ArrayThread.store_hot` only at the rare boundaries where
  something else can observe them: a balancer flush, a monitoring-
  window update, a periodic hook, and the return from ``step``.

One decode contract serves every group.  A kernel returns
``(next_pos, count, group_comp, op_wait, fu_wait, mispredict_comp,
rep_done)``, and so does the object engine's group walk
:meth:`SMTCore._decode_group`; the loop calls the walk wherever the
kernel list holds None -- a group containing a priority nop (it
rebuilds the arbiter, which a kernel must not) or a start off the
compiled chain after a mid-run width change -- and both feed the same
dispatch tail.  Every non-empty trace compiles.  Exactness is
structural, not approximate: a kernel performs exactly the scoreboard
reads, unit-pool claims and counter increments the walk would
(unit-pool ``issues``/``thread_issues``/``total_wait`` and the TLB/L1D
hit counts are folded per group, which is exact at cycle granularity).
Instrumented runs (pipeline tracer), repetition-gated runs and
configurations with dynamic group extents (``branch_ends_group``
off) route to the inherited step loop wholesale.  Like the object
engine, this loop advances one cycle at a time: it is the only fast
path, and it skips nothing.  The object engine remains the
differential reference; ``tests/test_array_engine_differential.py``
asserts bit-identity across the full microbenchmark x priority
matrix, and ``tests/test_core_fuzz.py`` on generated traces,
configurations and hook schedules.

Kernel binding: a kernel list is instantiated per (thread, trace,
group width) by the process-wide factory cache in
:mod:`repro.workloads.tracecache`.  Sources that return the same
repetition object every time (all built-in workloads) rebind by
identity -- no per-repetition hashing.
"""

from __future__ import annotations

from repro.config import CoreConfig
from repro.core.smt_core import SMTCore
from repro.core.thread import HardwareThread
from repro.isa.compiled import SCOREBOARD_SLOTS
from repro.isa.kernelgen import KernelConsts
from repro.isa.trace import TraceSource
from repro.priority.arbiter import ArbiterMode
from repro.priority.levels import PrivilegeLevel

#: Completion cycle of an empty in-flight queue.
_NEVER = 1 << 62

#: :meth:`ArrayThread.hot` of an empty context.
_EMPTY_HOT = (0,) * 15 + (False, False, 0, False, _NEVER)

#: Memoised accessor for the process-wide kernel-factory cache.  Bound
#: lazily: ``repro.workloads`` imports ``repro.core`` at module scope,
#: so the reverse edge must wait until both packages are initialised.
_kernel_factory = None


def _factory(instructions: tuple, consts: KernelConsts):
    global _kernel_factory
    if _kernel_factory is None:
        from repro.workloads.tracecache import kernel_factory
        _kernel_factory = kernel_factory
    return _kernel_factory(instructions, consts)


class ArrayThread(HardwareThread):
    """Hardware-thread state plus compiled kernels for its trace.

    ``kernels`` always mirrors ``trace``: every path that can replace
    the trace list (construction, repetition advance, flush rewind)
    invalidates the binding, and the engine rebinds lazily through the
    process-wide factory cache.  Rebinding is keyed on the *identity*
    of the source's repetition object, so steady sources (which return
    the same sequence every repetition) never re-hash their trace.
    The scoreboard gains the two sentinel slots compiled register
    indices address (see :mod:`repro.isa.compiled`).
    """

    def __init__(self, thread_id: int, source: TraceSource,
                 privilege: PrivilegeLevel = PrivilegeLevel.USER):
        super().__init__(thread_id, source, privilege)
        self.reg_ready = [0] * SCOREBOARD_SLOTS
        self._rep_obj: object | None = None
        self._bound_trace: list | None = None
        self._trace_tuple: tuple = ()
        self.kernels: list | None = None
        self._kern_width = -1
        #: factory -> instantiated kernel list (one entry per width the
        #: run has used; alternating rewind targets reuse entries).
        self._kern_cache: dict = {}
        self._bind()

    def _bind(self) -> None:
        self._bound_trace = self.trace
        self._trace_tuple = tuple(self.trace)
        self.kernels = None
        self._kern_width = -1

    def advance_repetition(self) -> None:
        self.rep_index += 1
        try:
            nxt = self.source.repetition(self.rep_index)
        except StopIteration:
            nxt = ()
        if nxt is not None and nxt is self._rep_obj:
            # Same repetition object as the bound trace: reuse the
            # trace list and the compiled kernels untouched (the
            # engine never mutates a trace).
            self.trace = self._bound_trace
            self.pos = 0
            return
        trace = list(nxt)
        if not trace:
            self.finished = True
            self.trace = []
            self._rep_obj = None
        else:
            self.trace = trace
            self._rep_obj = nxt
        self.pos = 0
        self._bind()

    def rewind(self, rep_index: int, pos: int) -> None:
        if rep_index != self.rep_index:
            self.rep_index = rep_index
            nxt = self.source.repetition(rep_index)
            if nxt is not None and nxt is self._rep_obj:
                self.trace = self._bound_trace
            else:
                self.trace = list(nxt)
                self._rep_obj = nxt
                self._bind()
            self.finished = False
        self.pos = pos

    def hot(self) -> tuple:
        """The state the array step loop keeps in locals.

        The 15 counters the loop updates, in :meth:`store_hot` order,
        then five it only reads: ``balancer_stalled`` (written through
        on change), ``throttled``, ``rep_index``, whether the thread can
        still decode, and the completion cycle of its oldest in-flight
        group.
        """
        q = self.inflight
        return (self.owned_slots, self.gct_held, self.retired,
                self.decoded, self.groups_dispatched,
                self.operand_wait_cycles, self.fu_wait_cycles,
                self.wasted_slots, self.slots_lost_gct,
                self.slots_lost_stall, self.slots_lost_balancer,
                self.slots_lost_throttle, self.mispredicts,
                self.stall_until, self.pos,
                self.balancer_stalled, self.throttled, self.rep_index,
                not self.finished, q[0][0] if q else _NEVER)

    def store_hot(self, *hot) -> None:
        """Write back the first 15 fields of :meth:`hot`."""
        (self.owned_slots, self.gct_held, self.retired, self.decoded,
         self.groups_dispatched, self.operand_wait_cycles,
         self.fu_wait_cycles, self.wasted_slots, self.slots_lost_gct,
         self.slots_lost_stall, self.slots_lost_balancer,
         self.slots_lost_throttle, self.mispredicts, self.stall_until,
         self.pos) = hot


class ArraySMTCore(SMTCore):
    """The compiled-kernel engine.  See the module docstring."""

    def __init__(self, config: CoreConfig | None = None):
        super().__init__(config)
        # Compiled per-priority dispatch table: slot owner for one full
        # period of the current arbiter's rotation.  Invalidated by
        # _rebuild_arbiter so priority nops, sysfs writes and governor
        # actuations land at the next decode boundary exactly as in
        # the object engine.
        self._dispatch_tab: list | None = None
        self._dispatch_arb = None
        # Group width -> baked kernel constants.
        self._kern_consts: dict[int, KernelConsts] = {}

    def _make_thread(self, thread_id: int, source: TraceSource,
                     privilege: PrivilegeLevel) -> ArrayThread:
        return ArrayThread(thread_id, source, privilege)

    def _rebuild_arbiter(self) -> None:
        self._dispatch_tab = None
        super()._rebuild_arbiter()

    def _consts(self, width: int) -> KernelConsts:
        consts = self._kern_consts.get(width)
        if consts is None:
            cfg = self.config
            consts = KernelConsts(
                width=width,
                break_long=cfg.break_group_on_long_dep,
                decode_to_issue=cfg.decode_to_issue,
                fx_latency=cfg.fx_latency,
                fx_mul_latency=cfg.fx_mul_latency,
                fp_latency=cfg.fp_latency,
                branch_latency=cfg.branch_latency,
                fxu_cap=cfg.num_fxu,
                lsu_cap=cfg.num_lsu,
                fpu_cap=cfg.num_fpu,
                bxu_cap=cfg.num_bxu,
                l1_latency=cfg.l1d.latency,
                store_latency=cfg.store_latency,
                tlb_page_bytes=cfg.tlb.page_bytes,
                tlb_sets=cfg.tlb.entries // cfg.tlb.associativity,
                l1_line_bytes=cfg.l1d.line_bytes,
                l1_sets=cfg.l1d.num_sets)
            self._kern_consts[width] = consts
        return consts

    def _live_kernels(self, th: ArrayThread | None, width: int):
        """Kernel list for ``th``'s current trace at ``width``.

        None for an empty context or a finished thread (empty trace).

        Instantiation binds the thread scoreboard, this core's unit
        pools, memory hierarchy (down to the TLB/L1D per-set lists the
        inline hit path reads) and branch predictor into the kernels'
        default arguments; all of those are identity-stable across
        ``reset`` (they clear in place), and threads are constructed
        after the pools reset in :meth:`SMTCore.load`.
        """
        if th is None:
            return None
        if th._kern_width == width:
            return th.kernels
        factory = _factory(th._trace_tuple, self._consts(width))
        if factory is None:
            kernels = None
        else:
            kernels = th._kern_cache.get(factory)
            if kernels is None:
                kernels = factory(
                    th, self._fxu_pool, self._lsu_pool, self._fpu_pool,
                    self.fus.bxu, self.hierarchy,
                    self.bht.predict_and_update)
                th._kern_cache[factory] = kernels
        th.kernels = kernels
        th._kern_width = width
        return kernels

    def _array_locals(self):
        """Hot-loop locals: group width and dispatch table.

        The table maps ``cycle % len(table)`` to the owning thread id
        (or None) -- every arbiter mode's owner pattern is periodic
        with the period used here, which ``owner()`` itself guarantees
        since the table is built by evaluating it.
        """
        arb = self._arbiter
        mode = arb.mode
        if mode is ArbiterMode.LOW_POWER or mode is ArbiterMode.LOW_POWER_ST:
            width = 1
        else:
            width = self.config.decode_width
        tab = self._dispatch_tab
        if tab is None or self._dispatch_arb is not arb:
            if mode is ArbiterMode.NORMAL:
                period = arb._ratio
            elif mode is ArbiterMode.LOW_POWER:
                period = 2 * arb.low_power_interval
            elif mode is ArbiterMode.LOW_POWER_ST:
                period = arb.low_power_interval
            else:  # SINGLE_THREAD / ALL_OFF: constant owner
                period = 1
            owner = arb.owner
            tab = [owner(c) for c in range(period)]
            self._dispatch_tab = tab
            self._dispatch_arb = arb
        return width, tab, len(tab)

    def step(self, cycles: int) -> int:  # noqa: C901 (the hot loop)
        """Simulate ``cycles`` cycles; returns cycles actually run."""
        if cycles <= 0:
            return 0
        cfg = self.config
        if (self._tracer is not None or self._rep_gate is not None
                or not cfg.branch_ends_group):
            # Per-instruction tracing, per-cycle repetition gating and
            # dynamic group extents are the object loop's job.
            return super().step(cycles)
        arbiter = self._arbiter
        t0, t1 = self._threads
        retire_budget = cfg.retire_groups_per_cycle

        bal = self.balancer
        bal_cfg = bal.config
        bal_enabled = bal_cfg.enabled
        stall_en = bal_cfg.stall_enabled and bal_enabled
        flush_en = bal_cfg.flush_enabled and bal_enabled
        stall_thr = bal_cfg.gct_stall_threshold
        resume_thr = bal.resume_threshold
        window = bal_cfg.window_cycles
        stall_events = bal.stats.stall_events
        stall_cycles = bal.stats.stall_cycles
        gct_floor = cfg.gct_groups - 2
        flush_thr = bal_cfg.gct_flush_threshold
        horizon = bal.FLUSH_HORIZON

        prio_p, prio_s = self.priorities
        gct_groups = cfg.gct_groups
        bal_on = bal_enabled and t0 is not None and t1 is not None
        misp_pen = cfg.branch.mispredict_penalty
        thr_interval = bal_cfg.throttle_interval
        decode_group = self._decode_group
        BIG = _NEVER

        dec_width, tab, tab_len = self._array_locals()
        one = tab_len == 1
        tid0 = tab[0]
        kern0 = self._live_kernels(t0, dec_width)
        kern1 = self._live_kernels(t1, dec_width)

        # Hot per-thread state lives in locals (ArrayThread.hot); it is
        # stored back before anything that can observe it runs (flush,
        # window update, hooks) and on return.  ``balancer_stalled`` is
        # written through on change (transitions are rare) so the
        # attribute is never stale; ``throttled`` is only ever written
        # by the window update and hooks, so the local is reloaded
        # there.
        if t0 is not None:
            q0, ends0 = t0.inflight, t0.rep_end_times
            rets0, rst0 = t0.rep_end_retired, t0.rep_start_times
        else:
            q0 = ends0 = rets0 = rst0 = None
        if t1 is not None:
            q1, ends1 = t1.inflight, t1.rep_end_times
            rets1, rst1 = t1.rep_end_retired, t1.rep_start_times
        else:
            q1 = ends1 = rets1 = rst1 = None
        (own0, gh0, ret0, dec0, grp0, opw0, fuw0, ws0, lg0, ls0, lb0, lt0,
         mis0, su0, pos0, bst0, thr0, rep0, avail0, nc0) = (
            t0.hot() if t0 is not None else _EMPTY_HOT)
        (own1, gh1, ret1, dec1, grp1, opw1, fuw1, ws1, lg1, ls1, lb1, lt1,
         mis1, su1, pos1, bst1, thr1, rep1, avail1, nc1) = (
            t1.hot() if t1 is not None else _EMPTY_HOT)
        gct_used = self._gct_used

        now = self._cycle
        end = now + cycles
        next_gc = now + 1024
        # One folded deadline gates the three per-cycle bookkeeping
        # checks (unit-pool GC, balancer window, periodic hooks): each
        # component only moves inside a ``slow`` iteration, so the
        # deadline is recomputed there and nowhere else.
        due = next_gc
        if bal_on:
            nw = bal.next_window
            if nw < due:
                due = nw
        nh = self._next_hook
        if 0 <= nh < due:
            due = nh
        while now < end:
            slow = now >= due
            if slow and now >= next_gc:
                self.fus.collect(now)
                next_gc = now + 1024
            # -- decode ------------------------------------------------
            # Same slot-passing strictness as the object engine: an
            # *empty* owner (no context, workload finished) passes the
            # slot to the sibling; a merely *blocked* owner wastes it.
            # A group start without a kernel (priority-nop group, or a
            # start off the compiled chain after a width change) is
            # walked by ``_decode_group``, which returns what a kernel
            # returns; a priority nop it executed may have rebuilt the
            # arbiter, so the locals are refreshed before the dispatch
            # tail.
            tid = tid0 if one else tab[now % tab_len]
            if tid is not None:
                if tid == 0:
                    dec = 0 if avail0 else (1 if avail1 else -1)
                else:
                    dec = 1 if avail1 else (0 if avail0 else -1)
                if dec == 0:
                    own0 += 1
                    if su0 > now:
                        ws0 += 1
                        ls0 += 1
                    elif bst0:
                        ws0 += 1
                        lb0 += 1
                    elif thr0 and own0 % thr_interval:
                        ws0 += 1
                        lt0 += 1
                    elif gct_used >= gct_groups:
                        lg0 += 1
                    else:
                        k = kern0[pos0]
                        if k is not None:
                            p2, cnt, gcomp, ow, fw, mc, rd = k(now, 0)
                        else:
                            p2, cnt, gcomp, ow, fw, mc, rd = decode_group(
                                t0, pos0, 0, now, dec_width)
                            if arbiter is not self._arbiter:
                                arbiter = self._arbiter
                                prio_p, prio_s = self.priorities
                                dec_width, tab, tab_len = (
                                    self._array_locals())
                                one = tab_len == 1
                                tid0 = tab[0]
                                kern0 = self._live_kernels(t0, dec_width)
                                kern1 = self._live_kernels(t1, dec_width)
                        opw0 += ow
                        fuw0 += fw
                        if mc >= 0:
                            mis0 += 1
                            su0 = mc + misp_pen
                        if pos0 == 0 and len(rst0) == rep0:
                            rst0.append(now)
                        q0.append((gcomp, cnt, rd, pos0, rep0))
                        if nc0 == BIG:
                            nc0 = gcomp
                        gh0 += 1
                        gct_used += 1
                        dec0 += cnt
                        grp0 += 1
                        pos0 = p2
                        if rd:
                            t0.advance_repetition()
                            pos0 = 0
                            rep0 = t0.rep_index
                            avail0 = not t0.finished
                            kern0 = self._live_kernels(t0, dec_width)
                elif dec == 1:
                    own1 += 1
                    if su1 > now:
                        ws1 += 1
                        ls1 += 1
                    elif bst1:
                        ws1 += 1
                        lb1 += 1
                    elif thr1 and own1 % thr_interval:
                        ws1 += 1
                        lt1 += 1
                    elif gct_used >= gct_groups:
                        lg1 += 1
                    else:
                        k = kern1[pos1]
                        if k is not None:
                            p2, cnt, gcomp, ow, fw, mc, rd = k(now, 1)
                        else:
                            p2, cnt, gcomp, ow, fw, mc, rd = decode_group(
                                t1, pos1, 1, now, dec_width)
                            if arbiter is not self._arbiter:
                                arbiter = self._arbiter
                                prio_p, prio_s = self.priorities
                                dec_width, tab, tab_len = (
                                    self._array_locals())
                                one = tab_len == 1
                                tid0 = tab[0]
                                kern0 = self._live_kernels(t0, dec_width)
                                kern1 = self._live_kernels(t1, dec_width)
                        opw1 += ow
                        fuw1 += fw
                        if mc >= 0:
                            mis1 += 1
                            su1 = mc + misp_pen
                        if pos1 == 0 and len(rst1) == rep1:
                            rst1.append(now)
                        q1.append((gcomp, cnt, rd, pos1, rep1))
                        if nc1 == BIG:
                            nc1 = gcomp
                        gh1 += 1
                        gct_used += 1
                        dec1 += cnt
                        grp1 += 1
                        pos1 = p2
                        if rd:
                            t1.advance_repetition()
                            pos1 = 0
                            rep1 = t1.rep_index
                            avail1 = not t1.finished
                            kern1 = self._live_kernels(t1, dec_width)

            # -- retire (in order, one group per thread per cycle) -----
            if nc0 <= now:
                budget = retire_budget
                while True:
                    g = q0.popleft()
                    ret0 += g[1]
                    gh0 -= 1
                    gct_used -= 1
                    if g[2]:
                        ends0.append(now)
                        rets0.append(ret0)
                    budget -= 1
                    if q0:
                        nc0 = q0[0][0]
                        if not budget or nc0 > now:
                            break
                    else:
                        nc0 = BIG
                        break
            if nc1 <= now:
                budget = retire_budget
                while True:
                    g = q1.popleft()
                    ret1 += g[1]
                    gh1 -= 1
                    gct_used -= 1
                    if g[2]:
                        ends1.append(now)
                        rets1.append(ret1)
                    budget -= 1
                    if q1:
                        nc1 = q1[0][0]
                        if not budget or nc1 > now:
                            break
                    else:
                        nc1 = BIG
                        break

            # -- dynamic resource balancing ----------------------------
            if bal_on:
                if not avail1:
                    if bst0:
                        bst0 = t0.balancer_stalled = False
                else:
                    if stall_en:
                        if bst0:
                            if gh0 <= resume_thr:
                                bst0 = t0.balancer_stalled = False
                        elif gh0 > stall_thr:
                            bst0 = t0.balancer_stalled = True
                            stall_events[0] += 1
                        if bst0:
                            stall_cycles[0] += 1
                    # should_flush inlined: threshold + horizon test.
                    if (flush_en and prio_p <= prio_s and gh0
                            and su0 <= now
                            and gct_used >= gct_floor
                            and gh0 >= flush_thr
                            and nc0 > now + horizon):
                        t0.store_hot(own0, gh0, ret0, dec0, grp0, opw0, fuw0,
                                     ws0, lg0, ls0, lb0, lt0, mis0, su0, pos0)
                        self._gct_used = gct_used
                        self._flush(t0, now)
                        gct_used = self._gct_used
                        (own0, gh0, ret0, dec0, grp0, opw0, fuw0, ws0, lg0,
                         ls0, lb0, lt0, mis0, su0, pos0, bst0, thr0, rep0,
                         avail0, nc0) = t0.hot()
                        kern0 = self._live_kernels(t0, dec_width)
                if not avail0:
                    if bst1:
                        bst1 = t1.balancer_stalled = False
                else:
                    if stall_en:
                        if bst1:
                            if gh1 <= resume_thr:
                                bst1 = t1.balancer_stalled = False
                        elif gh1 > stall_thr:
                            bst1 = t1.balancer_stalled = True
                            stall_events[1] += 1
                        if bst1:
                            stall_cycles[1] += 1
                    if (flush_en and prio_s <= prio_p and gh1
                            and su1 <= now
                            and gct_used >= gct_floor
                            and gh1 >= flush_thr
                            and nc1 > now + horizon):
                        t1.store_hot(own1, gh1, ret1, dec1, grp1, opw1, fuw1,
                                     ws1, lg1, ls1, lb1, lt1, mis1, su1, pos1)
                        self._gct_used = gct_used
                        self._flush(t1, now)
                        gct_used = self._gct_used
                        (own1, gh1, ret1, dec1, grp1, opw1, fuw1, ws1, lg1,
                         ls1, lb1, lt1, mis1, su1, pos1, bst1, thr1, rep1,
                         avail1, nc1) = t1.hot()
                        kern1 = self._live_kernels(t1, dec_width)

                if slow and now >= bal.next_window:
                    bal.next_window = now + window
                    t0.store_hot(own0, gh0, ret0, dec0, grp0, opw0, fuw0,
                                 ws0, lg0, ls0, lb0, lt0, mis0, su0, pos0)
                    t1.store_hot(own1, gh1, ret1, dec1, grp1, opw1, fuw1,
                                 ws1, lg1, ls1, lb1, lt1, mis1, su1, pos1)
                    self._window_update(t0, t1, prio_p, prio_s)
                    thr0 = t0.throttled
                    thr1 = t1.throttled

            # -- periodic hooks ----------------------------------------
            if slow and 0 <= self._next_hook <= now:
                # Hooks observe everything (PMU capture, governor
                # policies): store the localized state first and reload
                # after -- a hook may retune priorities or read any
                # thread counter.
                if t0 is not None:
                    t0.store_hot(own0, gh0, ret0, dec0, grp0, opw0, fuw0,
                                 ws0, lg0, ls0, lb0, lt0, mis0, su0, pos0)
                if t1 is not None:
                    t1.store_hot(own1, gh1, ret1, dec1, grp1, opw1, fuw1,
                                 ws1, lg1, ls1, lb1, lt1, mis1, su1, pos1)
                self._gct_used = gct_used
                for h in self._hooks:
                    if now >= h[1]:
                        h[1] += h[0]
                        h[2](self, now)
                self._next_hook = min(h[1] for h in self._hooks)
                if t0 is not None:
                    (own0, gh0, ret0, dec0, grp0, opw0, fuw0, ws0, lg0,
                     ls0, lb0, lt0, mis0, su0, pos0, bst0, thr0, rep0,
                     avail0, nc0) = t0.hot()
                if t1 is not None:
                    (own1, gh1, ret1, dec1, grp1, opw1, fuw1, ws1, lg1,
                     ls1, lb1, lt1, mis1, su1, pos1, bst1, thr1, rep1,
                     avail1, nc1) = t1.hot()
                gct_used = self._gct_used
                if arbiter is not self._arbiter:
                    arbiter = self._arbiter
                    prio_p, prio_s = self.priorities
                    dec_width, tab, tab_len = self._array_locals()
                    one = tab_len == 1
                    tid0 = tab[0]
                kern0 = self._live_kernels(t0, dec_width)
                kern1 = self._live_kernels(t1, dec_width)

            if slow:
                due = next_gc
                if bal_on:
                    nw = bal.next_window
                    if nw < due:
                        due = nw
                nh = self._next_hook
                if 0 <= nh < due:
                    due = nh

            now += 1

        if t0 is not None:
            t0.store_hot(own0, gh0, ret0, dec0, grp0, opw0, fuw0, ws0, lg0,
                         ls0, lb0, lt0, mis0, su0, pos0)
        if t1 is not None:
            t1.store_hot(own1, gh1, ret1, dec1, grp1, opw1, fuw1, ws1, lg1,
                         ls1, lb1, lt1, mis1, su1, pos1)
        self._gct_used = gct_used
        self._cycle = now
        return cycles
