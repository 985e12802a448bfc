"""Per-trace straightline decode kernels (the array engine's codegen).

:mod:`repro.isa.compiled` lowers a repetition trace to flat parallel
arrays; this module goes one step further and *compiles the trace to
Python*.  The observation that makes it exact: with
``branch_ends_group=True`` (the POWER5 default; the array engine runs
nothing else) a decode group's extent is a **static function of its
start position** --

- the group width is fixed by the arbiter mode,
- the long-dependency break rule tests ``prev_long[pos] >= start``,
  which depends only on positions (see :mod:`repro.isa.compiled`),
- a branch ends the group whether or not it was predicted correctly,
  so the dynamic mispredict path ends the group at the same position
  as the static rule.

Decode therefore always begins at one of a statically known chain of
group-start positions (entry 0, each group's end, flush rewinds to a
previous group start), and for each start the exact sequence of
scoreboard reads, functional-unit claims, latencies and counter
increments is known at compile time.  ``generate_factory``
emits one tiny function per group start with every register index,
latency, occupancy cap, branch-predictor key and instruction count
baked in as literals, and dependencies *within* a group forwarded
through locals.  A group kernel does the work the engine's inner
decode loop would do for that group -- about three interpreter
bytecodes per simulated machine slot -- and returns
``(next_pos, count, group_comp, op_wait, fu_wait, mispredict_comp,
rep_done)`` for the engine's dispatch tail.

Shared mutable state (the thread scoreboard, the unit-pool occupancy
maps, the memory hierarchy, the branch predictor) is bound once per
(thread, trace) pair through default arguments -- ``LOAD_FAST`` at
run time, no cell indirection, nothing passed per call beyond
``(now, tid)``.

Memory accesses are compiled too.  Trace addresses are static, so
each load's and store's TLB and L1D (set, tag) are computed here from
the geometry in :class:`KernelConsts`, and the kernel runs the hit
test inline against the units' flat per-set lists (see
:mod:`repro.memory.cache`): when both the TLB and the L1D hold the
access, it rewrites the two LRU stamps and completes at the hit
latency, and the group folds the per-thread TLB/L1D hit counts and
the L1 (or store) count once -- exactly what
``MemoryHierarchy.load``/``store`` do on that path.  Any miss calls
the hierarchy out of line, which runs the full access as in the
object engine.

Every non-empty trace compiles.  A group containing a ``PRIO_NOP``
gets no kernel (it may rebuild the arbiter, which a kernel must not):
its slot in the kernel list holds None, as does every position that
is not a group start, and the engine walks such a group with
``SMTCore._decode_group``, which returns the same tuple.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.isa.compiled import READ_SENTINEL, WRITE_SINK, CompiledTrace
from repro.isa.instruction import OpClass

# The emitter bakes integer op codes as literals; pin the encoding.
assert (int(OpClass.FX), int(OpClass.FX_MUL), int(OpClass.FP),
        int(OpClass.LOAD), int(OpClass.STORE), int(OpClass.BRANCH),
        int(OpClass.NOP), int(OpClass.PRIO_NOP)) == (0, 1, 2, 3, 4, 5, 6, 7)

_OP_FX, _OP_MUL, _OP_FP = 0, 1, 2
_OP_LOAD, _OP_STORE, _OP_BR, _OP_NOP, _OP_PRIO = 3, 4, 5, 6, 7


class KernelConsts(NamedTuple):
    """Configuration constants baked into generated kernels.

    Part of the process-wide factory cache key: two configurations
    share compiled kernels exactly when all of these agree.
    """

    width: int
    break_long: bool
    decode_to_issue: int
    fx_latency: int
    fx_mul_latency: int
    fp_latency: int
    branch_latency: int
    fxu_cap: int
    lsu_cap: int
    fpu_cap: int
    bxu_cap: int
    # Inline TLB+L1D hit path: hit latencies and the geometry that
    # maps an address to its (set, tag) in each unit.
    l1_latency: int
    store_latency: int
    tlb_page_bytes: int
    tlb_sets: int
    l1_line_bytes: int
    l1_sets: int


#: Per-op (pool prefix, cap field, latency field); None entries are
#: resolved specially (loads/stores complete through the hierarchy,
#: nops complete at operand readiness).
_POOL = {
    _OP_FX: ("fx", "fxu_cap", "fx_latency"),
    _OP_MUL: ("fx", "fxu_cap", "fx_mul_latency"),
    _OP_FP: ("fp", "fpu_cap", "fp_latency"),
    _OP_LOAD: ("ls", "lsu_cap", None),
    _OP_STORE: ("ls", "lsu_cap", None),
    _OP_BR: ("bx", "bxu_cap", "branch_latency"),
}

#: Pool prefix -> (factory local for the pool object, occupancy map,
#: bound ``dict.get``, thread_issues list, wait accumulator).
_POOL_NAMES = {
    "fx": ("fxu", "fxo", "fxg", "fxti", "fxw"),
    "ls": ("lsu", "lso", "lsg", "lsti", "lsw"),
    "fp": ("fpu", "fpo", "fpg", "fpti", "fpw"),
    "bx": ("bxu", "bxo", "bxg", "bxti", "bxw"),
}


def partition_groups(compiled: CompiledTrace,
                     consts: KernelConsts) -> dict[int, tuple[int, bool]]:
    """Map every reachable group start to ``(end, has_prio)``.

    Decode starts at position 0 and every subsequent start is the
    previous group's end; flush rewinds target starts already in the
    chain.  Branches end groups (``branch_ends_group``).
    """
    ops = compiled.op
    prev_long = compiled.prev_long
    n = len(ops)
    width = consts.width
    break_long = consts.break_long
    groups: dict[int, tuple[int, bool]] = {}
    start = 0
    while start < n and start not in groups:
        pos = start
        count = 0
        has_prio = False
        while count < width and pos < n:
            if count and break_long and prev_long[pos] >= start:
                break
            op = ops[pos]
            if op == _OP_PRIO:
                has_prio = True
            pos += 1
            count += 1
            if op == _OP_BR:
                break
        groups[start] = (pos, has_prio)
        start = pos
    return groups


def _emit_group(compiled: CompiledTrace, g0: int, end: int,
                consts: KernelConsts) -> tuple[str, tuple, tuple]:
    """Emit the kernel body for the group ``[g0, end)``.

    Returns ``(body, values, refs)``: the function source with the
    *group-varying* quantities -- next position, repetition-done flag,
    memory addresses with their TLB and L1D sets and tags, branch key
    and outcome -- lifted into leading parameters (``NXT``, ``RD``,
    ``A{i}``, ``TL{i}``/``TS{i}``/``TG{i}``, ``DL{i}``/``DS{i}``/
    ``DG{i}``, ``KEY``, ``TK``), the tuple of this group's values for
    them, and ``refs``: ``(position, unit)`` pairs marking the values
    that are set indices, replaced at instantiation by that set's list
    from the hierarchy the factory binds (unit 0/1: TLB tags/stamps,
    2/3: L1D tags/stamps).  ``refs`` depends only on the body.
    Loop-structured traces then produce the same body text for every
    iteration of a loop, so one compiled code object (the expensive
    part) serves all of them; per-group functions are instantiated
    over it by rebinding the parameter defaults (see the end of
    ``make_kernels``).
    """
    ops, dsts = compiled.op, compiled.dst
    s1s, s2s = compiled.s1, compiled.s2
    addrs, auxs = compiled.addr, compiled.aux
    n = len(ops)
    idx = range(g0, end)

    # Group-varying parameters (placeholder defaults are rebound per
    # instantiation; RD is genuinely boolean-varying, so the values
    # tuple, not the body, carries it).
    params = ["NXT=0", "RD=False"]
    values: list = [end, end >= n]
    refs: list[tuple[int, int]] = []

    # Pools and externals this group touches.
    pools: dict[str, int] = {}
    for p in idx:
        info = _POOL.get(ops[p])
        if info is not None:
            pools[info[0]] = pools.get(info[0], 0) + 1
    binds = ["rr=rr"]
    for pool in pools:
        obj, occ, get, ti, _w = _POOL_NAMES[pool]
        binds += [f"{get}={get}", f"{occ}={occ}", f"{obj}={obj}",
                  f"{ti}={ti}"]
    n_loads = sum(1 for p in idx if ops[p] == _OP_LOAD)
    n_stores = sum(1 for p in idx if ops[p] == _OP_STORE)
    if n_loads or n_stores:
        binds += ["tth=tth", "dth=dth"]
    if n_loads:
        binds += ["hl=hl", "l1c=l1c"]
    if n_stores:
        binds += ["hs=hs", "stc=stc"]
    if ops[end - 1] == _OP_BR:
        binds.append("predict=predict")
        params += ["KEY=0", "TK=False"]
        # (pos << 1) | tid with pos already past the branch.
        values += [end << 1, auxs[end - 1] == 1]

    out: list[str] = []
    w = out.append
    w(f"        base = now + {consts.decode_to_issue}")

    ow_used = any(s1s[p] != READ_SENTINEL or s2s[p] != READ_SENTINEL
                  for p in idx)
    fu_used = bool(pools)
    if ow_used:
        w("        ow = 0")
    if fu_used:
        w("        fw = 0")
    for pool, uses in pools.items():
        if uses:
            w(f"        {_POOL_NAMES[pool][4]} = 0")
    # Out-of-line (missing) loads and stores of this group.
    if n_loads:
        w("        xl = 0")
    if n_stores:
        w("        xs = 0")

    # Last writer per register: only its scoreboard store survives
    # (intermediate values are forwarded through locals).  Branches
    # never write the scoreboard -- ``SMTCore._decode_group``'s branch
    # path breaks out before the generic destination store.
    last_writer: dict[int, int] = {}
    for p in idx:
        if ops[p] != _OP_BR and dsts[p] != WRITE_SINK:
            last_writer[dsts[p]] = p
    fwd: dict[int, str] = {}
    comp_names: list[str] = []

    for p in idx:
        i = p - g0
        op = ops[p]
        # -- operand readiness -------------------------------------
        terms = []
        any_fwd = False
        for s in (s1s[p], s2s[p]):
            if s == READ_SENTINEL:
                continue
            if s in fwd:
                terms.append(fwd[s])
                any_fwd = True
            else:
                terms.append(f"rr[{s}]")
        if not terms:
            e = "base"
        else:
            e = f"e{i}"
            w(f"        {e} = {terms[0]}")
            for t in terms[1:]:
                w(f"        t = {t}")
                w(f"        if t > {e}: {e} = t")
            if not any_fwd:
                # Forwarded completions are provably >= base; raw
                # scoreboard reads are not.
                w(f"        if {e} < base: {e} = base")
            w(f"        ow += {e} - base")

        # -- functional-unit claim + completion --------------------
        c = f"c{i}"
        info = _POOL.get(op)
        if info is None:  # NOP (PRIO groups never reach the emitter)
            if e == "base":
                c = "base"
            else:
                w(f"        {c} = {e}")
        else:
            pool, cap_field, lat_field = info
            _obj, occ, get, _ti, pw = _POOL_NAMES[pool]
            cap = getattr(consts, cap_field)
            s = f"s{i}"
            w(f"        {s} = {e}")
            w(f"        v = {get}({s}, 0)")
            w(f"        while v >= {cap}:")
            w(f"            {s} += 1")
            w(f"            v = {get}({s}, 0)")
            w(f"        {occ}[{s}] = v + 1")
            if e != "base":
                w(f"        if {s} > {e}:")
                w(f"            t = {s} - {e}")
            else:
                w(f"        if {s} > base:")
                w(f"            t = {s} - base")
            w("            fw += t")
            w(f"            {pw} += t")
            if op == _OP_LOAD or op == _OP_STORE:
                _emit_access(w, params, values, refs, consts, i, addrs[p],
                             s, c, op == _OP_LOAD)
            else:
                w(f"        {c} = {s} + {getattr(consts, lat_field)}")

        if op != _OP_BR and dsts[p] != WRITE_SINK:
            fwd[dsts[p]] = c
            if last_writer[dsts[p]] == p:
                w(f"        rr[{dsts[p]}] = {c}")
        comp_names.append(c)

    # -- group completion --------------------------------------------
    if len(comp_names) == 1:
        g = comp_names[0]
    else:
        g = "g"
        w(f"        g = {comp_names[0]}")
        for c in comp_names[1:]:
            w(f"        if {c} > g: g = {c}")

    # -- inline-hit counter folds --------------------------------------
    # Every access not sent out of line hit the TLB and the L1D.  The
    # folds are exact at group granularity: the out-of-line hierarchy
    # calls never read these counters.
    folds = []
    if n_loads:
        folds.append(("l1c", f"{n_loads} - xl"))
    if n_stores:
        folds.append(("stc", f"{n_stores} - xs"))
    if len(folds) == 1:
        w(f"        h = {folds[0][1]}")
        folds = [(folds[0][0], "h")]
    elif folds:
        w(f"        h = {n_loads + n_stores} - xl - xs")
    if folds:
        w("        tth[tid] += h")
        w("        dth[tid] += h")
        for counter, hits in folds:
            w(f"        {counter}[tid] += {hits}")

    # -- per-pool counter folds ---------------------------------------
    for pool, uses in pools.items():
        obj, _occ, _get, ti, pw = _POOL_NAMES[pool]
        w(f"        {obj}.issues += {uses}")
        w(f"        {ti}[tid] += {uses}")
        w(f"        if {pw}:")
        w(f"            {obj}.total_wait += {pw}")

    # -- return --------------------------------------------------------
    count = end - g0
    ow = "ow" if ow_used else "0"
    fu = "fw" if fu_used else "0"
    if ops[end - 1] == _OP_BR:
        cb = comp_names[-1]
        w("        if predict(KEY | tid, TK, tid):")
        w(f"            return NXT, {count}, {g}, {ow}, {fu}, -1, RD")
        w(f"        return NXT, {count}, {g}, {ow}, {fu}, {cb}, RD")
    else:
        w(f"        return NXT, {count}, {g}, {ow}, {fu}, -1, RD")

    sig = ", ".join(params + binds)
    return (f"(now, tid, {sig}):\n" + "\n".join(out), tuple(values),
            tuple(refs))


def _emit_access(w, params: list[str], values: list,
                 refs: list[tuple[int, int]], consts: KernelConsts, i: int,
                 addr: int, s: str, c: str, is_load: bool) -> None:
    """Emit load/store ``i`` at issue time ``s`` completing into ``c``.

    The TLB+L1D hit test runs inline.  An L1D miss is common, so it is
    a membership test; a TLB miss is rare, so ``index`` (which finds
    the way whose stamp the access rewrites) raises it.  Nothing is
    touched before both units are known to hit, and any miss runs the
    full access out of line, exactly as in the object engine.  Hit
    counters are folded per group (see the caller).
    """
    page = addr // consts.tlb_page_bytes
    line = addr // consts.l1_line_bytes
    tset, dset = page % consts.tlb_sets, line % consts.l1_sets
    params.extend([f"A{i}=0", f"TL{i}=0", f"TS{i}=0", f"TG{i}=0",
                   f"DL{i}=0", f"DS{i}=0", f"DG{i}=0"])
    k = len(values)
    refs.extend([(k + 1, 0), (k + 2, 1), (k + 4, 2), (k + 5, 3)])
    values.extend([addr, tset, tset, page // consts.tlb_sets, dset, dset,
                   line // consts.l1_sets])
    if is_load:
        miss, x, lat = f"hl(A{i}, {s}, tid, now)", "xl", consts.l1_latency
    else:
        miss, x, lat = f"hs(A{i}, {s}, tid)", "xs", consts.store_latency
    w(_ACCESS.format(i=i, s=s, c=c, miss=miss, x=x, lat=lat))


#: Body of one inline memory access (see :func:`_emit_access`).
_ACCESS = """\
        if DG{i} in DL{i}:
            try:
                TS{i}[TL{i}.index(TG{i})] = {s}
            except ValueError:
                {c} = {miss}
                {x} += 1
            else:
                DS{i}[DL{i}.index(DG{i})] = {s}
                {c} = {s} + {lat}
        else:
            {c} = {miss}
            {x} += 1"""


def generate_factory(compiled: CompiledTrace, consts: KernelConsts):
    """``(source, groups)`` of ``make_kernels`` for ``compiled``, or None.

    ``source`` defines the distinct group bodies and each body's
    ``refs`` (they depend only on the body); ``groups`` holds one
    ``(start, body index, values)`` row per kernelized group, which
    ``make_kernels`` instantiates (see :func:`_emit_group`).
    Keeping the rows as data, not source, keeps ``compile()`` to the
    bodies, so trace length costs rows, not compile time.  None only
    for the empty trace.
    """
    n = len(compiled.op)
    if n == 0:
        return None
    out: list[str] = [
        "from types import FunctionType as _FT",
        "def make_kernels(th, fxu, lsu, fpu, bxu, hier, predict):",
        "    rr = th.reg_ready",
        "    hl, hs = hier.load, hier.store",
        "    tlb, l1d = hier.tlb, hier.l1d",
        "    tt, tst, tth = tlb._tags, tlb._stamps, tlb.stats.thread_hits",
        "    dt, dst, dth = l1d._tags, l1d._stamps, l1d.stats.thread_hits",
        "    l1c, stc = hier._l1_counts, hier.store_counts",
    ]
    for _obj, occ, get, ti, _w in _POOL_NAMES.values():
        pool = _obj
        out.append(f"    {occ} = {pool}._occupied")
        out.append(f"    {get} = {occ}.get")
        out.append(f"    {ti} = {pool}.thread_issues")
    # Loop-structured traces repeat group bodies across iterations;
    # compile each distinct body once and instantiate the per-group
    # functions by rebinding the group-varying parameter defaults.
    bodies: dict[str, int] = {}
    body_refs: list[tuple] = []
    rows = []
    for g0, (end, has_prio) in partition_groups(compiled, consts).items():
        if has_prio:
            continue  # walked by _decode_group: may rebuild the arbiter
        body, values, refs = _emit_group(compiled, g0, end, consts)
        index = bodies.get(body)
        if index is None:
            index = bodies[body] = len(bodies)
            body_refs.append(refs)
            out.append(f"    def _b{index}{body}")
        rows.append((g0, index, values))
    out += [
        f"    B = ({''.join(f'_b{i}, ' for i in range(len(bodies)))})",
        f"    R = {tuple(body_refs)!r}",
        "    sets = (tt, tst, dt, dst)",
        f"    K = [None] * {n}",
        "    for g0, b, pre in GROUPS:",
        "        refs = R[b]",
        "        if refs:",
        "            pre = list(pre)",
        "            for k, unit in refs:",
        "                pre[k] = sets[unit][pre[k]]",
        "            pre = tuple(pre)",
        "        f = B[b]",
        "        d = f.__defaults__",
        "        K[g0] = _FT(f.__code__, f.__globals__, f.__name__,",
        "                    pre + d[len(pre):], None)",
        "    return K",
    ]
    return "\n".join(out) + "\n", tuple(rows)


def compile_factory(source: str, groups: tuple,
                    name: str = "<trace-kernels>"):
    """Compile generated factory source; returns ``make_kernels``."""
    ns: dict = {"GROUPS": groups}
    exec(compile(source, name, "exec"), ns)  # noqa: S102 (own codegen)
    return ns["make_kernels"]
