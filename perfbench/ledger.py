"""Measurement hooks the benchmark attaches to the program from outside.

Nothing under ``src/`` knows about the benchmark.  Everything here
wraps public entry points of the installed ``repro`` package at run
time:

- :class:`CycleCounter` counts the modelled cycles a run simulates.
  Each simulation is counted once: a FAME run contributes its
  ``FameResult.cycles``, and a core that callers step directly (chip
  quanta, the pipeline case study, the noise experiment) contributes
  the cycles its ``step`` calls advanced.  Both counts are properties
  of the model, so they do not depend on the engine or on any skip
  mechanism.
- :class:`HostGauge` (timed runs only) interleaves a fixed reference
  loop with the run at its checkpoints, so the run's time can be read
  at a reference host speed.
- :class:`Tracer` (traced runs only) adds spans around the layer
  boundaries named in :data:`SPAN_POINTS`, reads the per-core skip and
  L1D counters, and groups a ``cProfile`` of the run by
  :data:`LAYERS`, so each ``src/repro`` module's self time lands in a
  named layer.

Timed runs install only the counter; the profiler and the spans
inflate wall time roughly threefold, so per-layer numbers come from a
separate traced run and never from the timed ones.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import statistics
import sys
import time
import weakref

#: Layer name -> modules under ``src/repro`` it owns.  An entry ending
#: in ``/`` owns every module of that package not listed elsewhere.
#: ``perfbench/tests`` fails when a module maps to no layer.
LAYERS: dict[str, tuple[str, ...]] = {
    "core.dense": ("core/array_engine.py",),
    "core.object": ("core/smt_core.py",),
    "core.telescoper": ("core/steadyreplay.py",),
    "core.state": ("core/__init__.py", "core/balancer.py", "core/fu.py",
                   "core/results.py", "core/thread.py",
                   "core/tracing.py"),
    "isa.kernels": ("<trace-kernels>",),
    "isa.compile": ("isa/compiled.py", "isa/kernelgen.py"),
    "isa.trace": ("isa/__init__.py", "isa/builder.py",
                  "isa/instruction.py", "isa/priority_ops.py",
                  "isa/registers.py", "isa/trace.py"),
    "memory.hierarchy": ("memory/__init__.py", "memory/hierarchy.py"),
    "memory.cache": ("memory/cache.py",),
    "memory.tlb": ("memory/tlb.py",),
    "memory.lmq": ("memory/lmq.py",),
    "memory.dram": ("memory/dram.py",),
    "branch": ("branch/",),
    "priority": ("priority/",),
    "fame": ("fame/__init__.py", "fame/maiv.py", "fame/runner.py"),
    "fame.steady": ("fame/steady.py",),
    "pmu": ("pmu/",),
    "governor": ("governor/",),
    "prefetch": ("prefetch/",),
    "chip": ("chip/", "sched/"),
    "energy": ("energy/",),
    "syskernel": ("syskernel/",),
    "workloads": ("workloads/", "microbench/"),
    "simcache": ("simcache/",),
    "experiments": ("experiments/", "analysis/"),
    "config": ("config/",),
    "service": ("service/",),
    "cli": ("__init__.py", "__main__.py", "cli.py"),
}

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS: dict[str, str] = {f"{layer}.self_s": "s"
                                   for layer in LAYERS}
PER_LAYER_UNITS.update({
    "memory.accesses": "count",
    "memory.l1d_miss_ratio": "ratio",
    "core.jumps": "count",
    "core.jumped_cycles_ratio": "ratio",
    "core.skip_calls": "count",
    "fame.runs": "count",
    "fame.steady_engaged_ratio": "ratio",
    "workloads.build_s": "s",
    "isa.compile_s": "s",
    "workloads.trace_hit_ratio": "ratio",
    "workloads.compiled_hit_ratio": "ratio",
    "workloads.factory_hit_ratio": "ratio",
    "simcache.lookup_s": "s",
    "simcache.store_s": "s",
    "simcache.pack_s": "s",
    "simcache.hit_ratio": "ratio",
    "simcache.bytes": "bytes",
    "experiments.cells_simulated": "count",
    "experiments.cell_p50_ms": "ms",
    "experiments.cell_p90_ms": "ms",
    "experiments.direct_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "host.slice_s": "s",
    "host.wall_s": "s",
})

#: Where profiled time that no layer owns goes: the benchmark's own
#: wrappers, the interpreter's top level, and library code the
#: benchmark itself called.
UNATTRIBUTED = "unattributed"

#: File name the array engine gives its generated per-trace kernels.
KERNEL_FILE = "<trace-kernels>"


def layer_of_module(relpath: str) -> str | None:
    """The layer owning ``relpath`` (posix path under ``src/repro``)."""
    best, best_len = None, -1
    for layer, owned in LAYERS.items():
        for entry in owned:
            if entry.endswith("/"):
                hit = relpath.startswith(entry)
            else:
                hit = relpath == entry
            if hit and len(entry) > best_len:
                best, best_len = layer, len(entry)
    return best


def patch_function(original, replacement) -> int:
    """Rebind every ``repro`` module global (and registry dict value)
    that is ``original`` to ``replacement``; returns the count.

    The program imports its functions by name (``from x import f``),
    so replacing the defining module's attribute alone would miss the
    copies other modules hold.
    """
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
            elif isinstance(value, dict) and attr.isupper():
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement
                        count += 1
    return count


class CycleCounter:
    """Counts modelled cycles (see the module docstring).

    ``install()`` wraps ``FameRunner.run_pair`` (which ``run_single``
    delegates to) and ``repro.core.make_core``.  Cores built inside a
    FAME run are counted through its result; any other core gets an
    instance-level ``step`` that adds the cycles each call advanced.
    A :class:`Tracer` may ask for every core's ``step`` to be counted,
    to read per-core skip and cache counters around each call.

    ``checkpoint``, when set, is called at the end of each FAME run,
    for each directly built core, and every :data:`CHECKPOINT_CYCLES`
    cycles stepped directly (a :class:`HostGauge` uses these calls).
    """

    #: Cycles stepped directly between two checkpoints.
    CHECKPOINT_CYCLES = 20_000

    def __init__(self) -> None:
        self.fame_cycles = 0
        self.fame_runs = 0
        self.fame_steady = 0
        self.direct_cycles = 0
        self._depth = 0
        self.core_observer = None  # callable(core) -> step wrapper hook
        self.checkpoint = None  # callable() at checkpoints of the run

    @property
    def cycles(self) -> int:
        return self.fame_cycles + self.direct_cycles

    def install(self) -> None:
        import repro.core
        from repro.fame.runner import FameRunner

        counter = self
        run_pair = FameRunner.run_pair

        def counted_run_pair(runner, *args, **kwargs):
            counter._depth += 1
            try:
                result = run_pair(runner, *args, **kwargs)
            finally:
                counter._depth -= 1
            if counter._depth == 0:
                counter.fame_runs += 1
                counter.fame_cycles += result.cycles
                counter.fame_steady += bool(runner.last_steady_state)
                if counter.checkpoint is not None:
                    counter.checkpoint()
            return result

        FameRunner.run_pair = counted_run_pair

        make_core = repro.core.make_core

        def counted_make_core(*args, **kwargs):
            core = make_core(*args, **kwargs)
            direct = counter._depth == 0
            if direct or counter.core_observer is not None:
                counter._wrap_step(core, direct)
            if direct and counter.checkpoint is not None:
                counter.checkpoint()
            return core

        patch_function(make_core, counted_make_core)

    def _wrap_step(self, core, direct: bool) -> None:
        # The wrapper holds the core weakly: an instance attribute that
        # referenced it strongly would make every core a reference
        # cycle and delay its release until the next collection.
        step = type(core).step
        ref = weakref.ref(core)
        observe = self.core_observer
        counter = self

        def counted_step(*args, **kwargs):
            target = ref()
            before = target.cycle
            token = observe(target) if observe is not None else None
            result = step(target, *args, **kwargs)
            if direct:
                total = counter.direct_cycles + target.cycle - before
                every = counter.CHECKPOINT_CYCLES
                if (counter.checkpoint is not None
                        and total // every != counter.direct_cycles // every):
                    counter.checkpoint()
                counter.direct_cycles = total
            if token is not None:
                token(target)
            return result

        core.step = counted_step


def reference_loop(iterations: int) -> int:
    """A fixed pure-Python loop: the yardstick of the host's speed."""
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return acc


class HostGauge:
    """Reads a run's wall time at a reference host speed.

    The benchmark's host is shared: its speed for pure-Python code
    swings by 20% and more within tens of seconds, so the wall time of
    the same run of the same code does too.  The gauge times a slice
    of :func:`reference_loop` (:data:`SLICE_ITERATIONS` iterations,
    a few milliseconds) at the start of the timed region, at the run's
    checkpoints when at least :data:`EVERY_S` has passed since the last
    slice, and at the end.  Between two slices the program ran for
    ``d`` seconds at a host speed the two slices measure; the run's
    *normalised* wall time adds ``d * SLICE_REFERENCE_S / slice`` over
    all such spans, ``slice`` being the mean of the two slices' times.
    The slices' own time is left out of both wall times.

    The reference loop is part of the benchmark, not of the program,
    so a change to the program moves the normalised time exactly as
    much as the wall time; only the host's speed is divided out.
    Set-up time is normalised the same way, between a slice the parent
    times just before it starts the worker and the worker's first.
    """

    #: Iterations of one reference slice.
    SLICE_ITERATIONS = 20_000
    #: Seconds one slice takes at the reference host speed (about the
    #: median on the 2-vCPU Xeon the benchmark was defined on).
    SLICE_REFERENCE_S = 0.0025
    #: Least program time between two slices.
    EVERY_S = 0.1

    def __init__(self) -> None:
        self.slices: list[tuple[float, float]] = []  # (start, seconds)
        self._due = 0.0

    @classmethod
    def time_slice(cls) -> tuple[float, float]:
        """``(start, seconds)`` of one slice run now."""
        start = time.perf_counter()
        reference_loop(cls.SLICE_ITERATIONS)
        return start, time.perf_counter() - start

    @classmethod
    def normalise(cls, span: float, took: float, next_took: float) -> float:
        """``span`` seconds between slices that took ``took`` and
        ``next_took`` seconds, at the reference host speed."""
        return span * 2 * cls.SLICE_REFERENCE_S / (took + next_took)

    def slice(self) -> None:
        start, took = self.time_slice()
        self.slices.append((start, took))
        self._due = start + took + self.EVERY_S

    def checkpoint(self) -> None:
        if time.perf_counter() >= self._due:
            self.slice()

    def result(self) -> tuple[float, float]:
        """``(wall_s, norm_wall_s)`` between the first and last slice."""
        wall = norm = 0.0
        for (start, took), (end, next_took) in zip(self.slices,
                                                   self.slices[1:]):
            span = end - (start + took)
            wall += span
            norm += self.normalise(span, took, next_took)
        return wall, norm

    def median_slice_s(self) -> float:
        return statistics.median(took for _, took in self.slices)


#: Entry points a traced run wraps in spans: (span name, dotted owner,
#: attribute).  An owner that is a class gets its method wrapped; a
#: module's function is rebound wherever the program imported it.
SPAN_POINTS = (
    ("experiments.plan", "repro.experiments.planner", "planned_cells"),
    ("experiments.prefetch", "repro.experiments.base.ExperimentContext",
     "prefetch"),
    ("experiments.cell", "repro.experiments.base.ExperimentContext",
     "compute_cell"),
    ("fame.run", "repro.fame.runner.FameRunner", "run_single"),
    ("fame.run", "repro.fame.runner.FameRunner", "run_pair"),
    ("workloads.cached_workload", "repro.workloads.tracecache",
     "cached_workload"),
    ("isa.compile", "repro.workloads.tracecache", "compiled_trace"),
    ("isa.compile", "repro.workloads.tracecache", "kernel_factory"),
    ("simcache.lookup", "repro.simcache.store.SimCache", "lookup"),
    ("simcache.store", "repro.simcache.store.SimCache", "store"),
    ("simcache.pack", "repro.simcache.store.SimCache", "pack"),
    ("chip.schedule", "repro.sched.scheduler.OsScheduler", "run"),
    ("core.make", "repro.core", "make_core"),
)


def _resolve(dotted: str):
    import importlib
    try:
        return importlib.import_module(dotted)
    except ImportError:
        module, _, cls = dotted.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class Tracer:
    """Spans, per-core counters and a layer-grouped profile of one run.

    Spans are kept in memory as ``[name, start, end, parent, cell,
    flag]`` rows; spans of one cell share the cell key (its ``repr``)
    as their identifier.  :meth:`metrics` turns them, the profile and
    the core counters into the per-layer ledger.
    """

    def __init__(self, counter: CycleCounter, src_root: str) -> None:
        self.counter = counter
        self.src_root = os.path.join(os.path.abspath(src_root), "repro")
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.profile = cProfile.Profile()
        self.core_cycles = 0
        self.jumps = 0
        self.jumped_cycles = 0
        self.l1d_hits = 0
        self.l1d_misses = 0
        self.wall_s = 0.0

    # -- spans ----------------------------------------------------------

    def _open(self, name: str, cell: str | None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if cell is None and parent >= 0:
            cell = self.spans[parent][4]
        self.spans.append([name, time.perf_counter(), 0.0, parent, cell,
                           False])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, fn):
        tracer = self

        if name == "experiments.cell":
            def wrapper(ctx, key, *args, **kwargs):
                index = tracer._open(name, repr(key))
                try:
                    return fn(ctx, key, *args, **kwargs)
                finally:
                    tracer._close(index)
        elif name == "workloads.cached_workload":
            from repro.workloads.tracecache import cache_info

            def wrapper(*args, **kwargs):
                misses = cache_info()["misses"]
                index = tracer._open(name, None)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(index)
                    # flag: this call built the trace (a cache miss)
                    tracer.spans[index][5] = (cache_info()["misses"]
                                              != misses)
        else:
            def wrapper(*args, **kwargs):
                index = tracer._open(name, None)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(index)
        return wrapper

    def install(self, experiment_runners: dict) -> None:
        """Wrap every span point and experiment runner; count cores.

        ``experiment_runners`` is the registry's id -> runner dict.
        Call after :meth:`CycleCounter.install`, so the span around
        ``make_core`` encloses the counting wrapper.
        """
        self.counter.core_observer = self._observe_core
        for name, owner_name, attr in SPAN_POINTS:
            owner = _resolve(owner_name)
            original = getattr(owner, attr)
            if isinstance(owner, type):
                setattr(owner, attr, self._spanned(name, original))
            else:
                patch_function(original, self._spanned(name, original))
        for eid, runner in list(experiment_runners.items()):
            patch_function(runner, self._spanned(f"experiments.run.{eid}",
                                                 runner))

    def _observe_core(self, core):
        """Read skip/L1D counters around one ``step`` call.

        Counters are read as deltas of each call, so a core that is
        reloaded between calls (which resets its counters) still adds
        up correctly.
        """
        steady = getattr(core, "_steady", None)
        l1d = core.hierarchy.l1d.stats
        before = (core.cycle,
                  steady.jumps if steady is not None else 0,
                  steady.jumped_cycles if steady is not None else 0,
                  l1d.hits, l1d.misses)

        def after(core):
            steady = getattr(core, "_steady", None)
            stats = core.hierarchy.l1d.stats
            self.core_cycles += core.cycle - before[0]
            if steady is not None:
                self.jumps += steady.jumps - before[1]
                self.jumped_cycles += steady.jumped_cycles - before[2]
            self.l1d_hits += stats.hits - before[3]
            self.l1d_misses += stats.misses - before[4]
        return after

    # -- the traced region ------------------------------------------------

    def __enter__(self) -> "Tracer":
        root = self._open("run", None)
        self._root = root
        self._start = time.perf_counter()
        self.profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profile.disable()
        self.wall_s = time.perf_counter() - self._start
        self._close(self._root)
        self._stats = pstats.Stats(self.profile).stats

    # -- results ----------------------------------------------------------

    def layer_self_times(self) -> dict[str, float]:
        """Profiled self seconds per layer (see :meth:`_file_layer`).

        Library and builtin functions have no layer of their own: their
        time is split over their callers in proportion to the time each
        caller spent in them, recursively up to the first function a
        layer owns (or to :data:`UNATTRIBUTED` at the top).
        """
        stats = self._stats
        shares: dict = {}
        visiting: set = set()

        def share(func) -> dict[str, float]:
            if func in shares:
                return shares[func]
            if func in visiting:  # recursion among library functions
                return {UNATTRIBUTED: 1.0}
            layer = self._file_layer(func[0])
            if layer is not None:
                result = {layer: 1.0}
            else:
                visiting.add(func)
                callers = stats[func][4] if func in stats else {}
                weights = {caller: edge[2]
                           for caller, edge in callers.items()}
                total = sum(weights.values())
                if not total:
                    weights = {caller: edge[1]
                               for caller, edge in callers.items()}
                    total = sum(weights.values())
                result = {}
                for caller, weight in weights.items():
                    for name, part in share(caller).items():
                        result[name] = (result.get(name, 0.0)
                                        + part * weight / total)
                visiting.discard(func)
                if not result:
                    result = {UNATTRIBUTED: 1.0}
            shares[func] = result
            return result

        totals = {layer: 0.0 for layer in LAYERS}
        totals[UNATTRIBUTED] = 0.0
        for func, (_, _, tottime, _, _) in stats.items():
            for layer, part in share(func).items():
                totals[layer] += tottime * part
        return totals

    def _file_layer(self, filename: str) -> str | None:
        """Layer of a profiled code object's file; None for library
        code (passed up to its callers); :data:`UNATTRIBUTED` for the
        benchmark itself."""
        if filename == KERNEL_FILE:
            return "isa.kernels"
        path = os.path.abspath(filename) if filename[:1] not in "<~" \
            else filename
        if path.startswith(self.src_root + os.sep):
            rel = os.path.relpath(path, self.src_root).replace(os.sep, "/")
            return layer_of_module(rel) or UNATTRIBUTED
        if os.path.dirname(path) == os.path.dirname(
                os.path.abspath(__file__)):
            return UNATTRIBUTED
        return None

    def call_count(self, file_suffix: str, func_name: str) -> int:
        """Profiled call count of one function of the program."""
        return sum(value[1] for (filename, _, name), value in self._stats.items()
                   if name == func_name
                   and filename.replace(os.sep, "/").endswith(file_suffix))

    def _span_total(self, name: str, flag: bool | None = None) -> float:
        """Seconds covered by outermost spans called ``name``."""
        return sum(end - start
                   for span, start, end, parent, _, mark in self.spans
                   if span == name and (flag is None or mark == flag)
                   and not self._has_ancestor(parent,
                                              lambda n: n == name))

    def _has_ancestor(self, index: int, test) -> bool:
        while index >= 0:
            if test(self.spans[index][0]):
                return True
            index = self.spans[index][3]
        return False

    def _direct_s(self) -> float:
        """Experiment-runner time not covered by cell spans."""
        spans = self.spans
        # Time each span's descendant cells cover; children are
        # appended after their parent, so a reverse pass sees them
        # first.
        covered = [0.0] * len(spans)
        for index in range(len(spans) - 1, -1, -1):
            name, start, end, parent = spans[index][:4]
            if name == "experiments.cell":
                covered[index] = end - start
            if parent >= 0:
                covered[parent] += covered[index]
        runner = lambda n: n.startswith("experiments.run.")  # noqa: E731
        return sum(end - start - covered[index]
                   for index, (name, start, end, parent, *_)
                   in enumerate(spans)
                   if runner(name) and not self._has_ancestor(parent,
                                                              runner))

    def metrics(self, simcache, cache_info: dict) -> dict[str, float]:
        """The per-layer ledger of this traced run (name -> value)."""
        out: dict[str, float] = {}
        layers = self.layer_self_times()
        profiled = sum(layers.values())
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layers[layer]
        out["trace.unattributed_share"] = (
            layers[UNATTRIBUTED] / profiled if profiled else 0.0)
        out["trace.wall_s"] = self.wall_s

        accesses = self.call_count("repro/memory/cache.py", "access")
        out["memory.accesses"] = accesses
        l1d = self.l1d_hits + self.l1d_misses
        out["memory.l1d_miss_ratio"] = self.l1d_misses / l1d if l1d else 0.0

        out["core.jumps"] = self.jumps
        out["core.jumped_cycles_ratio"] = (
            self.jumped_cycles / self.core_cycles if self.core_cycles
            else 0.0)
        out["core.skip_calls"] = self.call_count("repro/core/smt_core.py",
                                                 "_account_skip")
        counter = self.counter
        out["fame.runs"] = counter.fame_runs
        out["fame.steady_engaged_ratio"] = (
            counter.fame_steady / counter.fame_runs if counter.fame_runs
            else 0.0)

        out["workloads.build_s"] = self._span_total(
            "workloads.cached_workload", flag=True)
        out["isa.compile_s"] = self._span_total("isa.compile")
        for metric, hits, misses in (
                ("workloads.trace_hit_ratio", "hits", "misses"),
                ("workloads.compiled_hit_ratio", "compiled_hits",
                 "compiled_misses"),
                ("workloads.factory_hit_ratio", "factory_hits",
                 "factory_misses")):
            total = cache_info[hits] + cache_info[misses]
            out[metric] = cache_info[hits] / total if total else 0.0

        out["simcache.lookup_s"] = self._span_total("simcache.lookup")
        out["simcache.store_s"] = self._span_total("simcache.store")
        out["simcache.pack_s"] = self._span_total("simcache.pack")
        lookups = simcache.hits + simcache.misses
        out["simcache.hit_ratio"] = (simcache.hits / lookups if lookups
                                     else 0.0)
        out["simcache.bytes"] = simcache.stats()["bytes"]

        cells = sorted(end - start for name, start, end, *_ in self.spans
                       if name == "experiments.cell")
        out["experiments.cells_simulated"] = len(cells)
        if len(cells) >= 2:
            deciles = statistics.quantiles(cells, n=10)
            out["experiments.cell_p50_ms"] = 1e3 * statistics.median(cells)
            out["experiments.cell_p90_ms"] = 1e3 * deciles[8]
        else:
            out["experiments.cell_p50_ms"] = 1e3 * sum(cells)
            out["experiments.cell_p90_ms"] = 1e3 * sum(cells)
        out["experiments.direct_s"] = self._direct_s()
        return out

