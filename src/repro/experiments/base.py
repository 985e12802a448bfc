"""Shared infrastructure for the table/figure experiments.

:class:`ExperimentContext` owns the machine configuration, the FAME
runner and a result cache.  The cache matters: Figures 2, 3 and 4 are
three views of the same 396-run priority sweep, and Table 3 is its
baseline slice, so each (pair, priorities) combination is simulated
exactly once per context.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import POWER5, CoreConfig
from repro.fame import FameRunner
from repro.workloads.tracecache import cached_workload

#: Address offset separating the secondary thread's data from the
#: primary's (distinct processes on the real machine).
SECONDARY_BASE = (1 << 27) + 8192

#: Priority pairs realising each priority difference, using the
#: supervisor-settable range 1..6 exposed by the paper's kernel patch.
#: Positive differences raise the primary, negative raise the secondary.
PRIORITY_PAIRS: dict[int, tuple[int, int]] = {
    0: (4, 4),
    1: (5, 4), 2: (6, 4), 3: (6, 3), 4: (6, 2), 5: (6, 1),
    -1: (4, 5), -2: (4, 6), -3: (3, 6), -4: (2, 6), -5: (1, 6),
}


def priority_pair(diff: int) -> tuple[int, int]:
    """The (PrioP, PrioS) pair used for a priority difference."""
    try:
        return PRIORITY_PAIRS[diff]
    except KeyError:
        raise ValueError(f"unsupported priority difference: {diff}"
                         ) from None


@dataclass(frozen=True)
class ThreadMetrics:
    """Per-thread outcome of one measured run."""

    workload: str
    priority: int
    ipc: float
    avg_rep_cycles: float
    repetitions: int
    #: PMU report of the measurement (single-thread cells only; pair
    #: cells carry theirs on :class:`PairMetrics`).  None unless the
    #: context ran with ``pmu=True``.
    pmu: object = None

    def energy(self, config=None):
        """Price this measurement: an :class:`repro.energy.EnergyReport`.

        Post-hoc over the cell's PMU counters -- requires the context
        to have run with ``pmu=True``.  ``config`` selects the
        operating point (default: 45nm nominal).
        """
        if self.pmu is None:
            raise ValueError(
                "energy requires a PMU-instrumented measurement "
                "(run the context with pmu=True)")
        return self.pmu.energy(config)


@dataclass(frozen=True)
class PairMetrics:
    """Outcome of one (PThread, SThread) measurement."""

    priorities: tuple[int, int]
    primary: ThreadMetrics
    secondary: ThreadMetrics | None
    cycles: int
    capped: bool = False
    #: :class:`repro.pmu.PmuReport` of the measurement, or None unless
    #: the context ran with ``pmu=True``.
    pmu: object = None
    #: Set on governed measurements: the policy id, its per-epoch
    #: :class:`repro.governor.GovernorDecision` log, and the priority
    #: assignment in force at the end (``priorities`` above is the
    #: *initial* assignment of a governed run).
    policy: str = ""
    decisions: tuple = ()
    final_priorities: tuple[int, int] | None = None

    @property
    def total_ipc(self) -> float:
        """Combined throughput (paper's ``tt``)."""
        total = self.primary.ipc
        if self.secondary is not None:
            total += self.secondary.ipc
        return total

    def energy(self, config=None):
        """Price this measurement: an :class:`repro.energy.EnergyReport`.

        Post-hoc over the cell's PMU counters (per-thread attribution
        included) -- requires the context to have run with
        ``pmu=True``.  ``config`` selects the operating point.
        """
        if self.pmu is None:
            raise ValueError(
                "energy requires a PMU-instrumented measurement "
                "(run the context with pmu=True)")
        return self.pmu.energy(config)


def single_cell(name: str) -> tuple:
    """Cache key of a single-thread measurement cell."""
    return ("single", name)


def pair_cell(primary: str, secondary: str,
              priorities: tuple[int, int]) -> tuple:
    """Cache key of a co-scheduled measurement cell."""
    return ("pair", primary, secondary, priorities)


def governed_cell(primary: str, secondary: str,
                  priorities: tuple[int, int], policy: str,
                  params: dict | None = None) -> tuple:
    """Cache key of a governor-driven measurement cell.

    ``priorities`` is the initial assignment; ``policy`` a
    :data:`repro.governor.POLICIES` id; ``params`` extra policy
    constructor arguments (must be hashable values -- they are part of
    the key and cross process boundaries in parallel sweeps).
    """
    frozen = tuple(sorted((params or {}).items()))
    return ("governed", primary, secondary, priorities, policy, frozen)


@dataclass
class ExperimentContext:
    """Configuration + runner + memoised measurements.

    ``jobs`` controls how :meth:`prefetch` computes missing cells:
    1 (the default) runs them serially in-process; N > 1 dispatches
    them to N worker processes; 0 uses every available core.  Each
    cell is an independent deterministic simulation, so the results
    are identical regardless of ``jobs`` (the test-suite asserts
    byte-identical sweeps).
    """

    config: CoreConfig = field(default_factory=POWER5.small)
    min_repetitions: int = 3
    maiv: float = 0.01
    max_cycles: int = 2_500_000
    jobs: int = 1
    #: Instrument every measurement with the emulated PMU; the frozen
    #: :class:`repro.pmu.PmuReport` rides on each cell's metrics.
    pmu: bool = False
    #: Interval-sampling period in cycles (0 = counters only).
    pmu_sample: int = 0
    #: Run every *pair* cell under this governor policy id (None =
    #: static priorities, the default).  Dedicated ``governed`` cells
    #: ignore this and always carry their own policy.
    governor: str | None = None
    #: Governor epoch in cycles (0 = the GovernorConfig default).
    governor_epoch: int = 0
    #: Chip experiment knobs: number of SMT cores on the simulated
    #: chip, repetition quota scale of scheduled jobs, and an optional
    #: per-core governor policy for scheduled rounds.
    chip_cores: int = 2
    chip_quota: int = 4
    chip_governor: str | None = None
    #: Operating point of post-hoc energy reporting: technology node
    #: (nm) and DVFS frequency fraction.  Deliberately *not* part of
    #: performance cell keys -- energy is a pure function of already
    #: cached counters, so re-pricing at another point never
    #: invalidates a cached performance result.  Governed
    #: ``energy_budget`` cells carry their operating point in their
    #: own key params instead (the policy's decisions depend on it).
    energy_node: int = 45
    energy_freq: float = 1.0
    #: Optional :class:`repro.simcache.SimCache`: persistent, on-disk
    #: memoisation of cell values across processes and invocations.
    #: ``None`` (the default) keeps memoisation purely in-memory; the
    #: CLI enables the disk cache unless ``--no-simcache``.  Cached and
    #: freshly simulated cells are bit-identical (differential-tested),
    #: so enabling it never changes a reported number.
    simcache: object = field(default=None, repr=False)
    #: Optional remote execution backend (duck-typed:
    #: ``compute_cells(ctx, keys)`` yielding ``(key, value)`` in input
    #: order, e.g. :class:`repro.service.ServiceBackend`).  When set,
    #: cells missing from both caches are computed by the service's
    #: worker pool instead of this process; results are verified
    #: against locally computed cache keys, so they are byte-identical
    #: to local runs.  Takes precedence over ``jobs``.
    backend: object = field(default=None, repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.validate()
        self.runner = FameRunner(
            self.config, min_repetitions=self.min_repetitions,
            maiv=self.maiv, max_cycles=self.max_cycles)
        self._sampler = None

    def validate(self) -> None:
        """Reject inconsistent option combinations up front.

        Called from ``__post_init__`` so a bad combination fails once,
        at context construction (i.e. CLI parse time), with a clear
        message -- not mid-sweep inside a worker process.
        """
        if self.governor is not None:
            from repro.governor import POLICIES
            if self.governor not in POLICIES:
                raise ValueError(
                    f"unknown governor policy {self.governor!r}; "
                    f"choose from {sorted(POLICIES)}")
        if self.chip_governor is not None:
            from repro.sched import CHIP_GOVERNOR_POLICIES
            if self.chip_governor not in CHIP_GOVERNOR_POLICIES:
                raise ValueError(
                    f"chip governor policy must be one of "
                    f"{sorted(CHIP_GOVERNOR_POLICIES)} (parameter-free "
                    f"policies), got {self.chip_governor!r}")
        if self.chip_cores < 1:
            raise ValueError(
                f"chip_cores must be >= 1, got {self.chip_cores}")
        if self.chip_quota < 1:
            raise ValueError(
                f"chip_quota must be >= 1, got {self.chip_quota}")
        if self.pmu_sample and not self.pmu:
            raise ValueError(
                "pmu_sample requires the PMU to be enabled (pmu=True); "
                "sampling without counters has nothing to record")
        # governor_epoch without a context-wide policy stays legal:
        # governed_cell and the 'governor' experiment consume the
        # epoch with explicitly chosen policies.
        if self.governor_epoch < 0:
            raise ValueError(
                f"governor_epoch must be >= 0, got {self.governor_epoch}")
        from repro.energy import TECH_NODES
        if self.energy_node not in TECH_NODES:
            raise ValueError(
                f"unsupported energy tech node {self.energy_node}nm; "
                f"choose from {sorted(TECH_NODES)}")
        if not 0.0 < self.energy_freq <= 1.0:
            raise ValueError(
                f"energy_freq must be in (0, 1], got {self.energy_freq}")

    def energy_config(self, node: int | None = None,
                      freq_frac: float | None = None):
        """The :class:`repro.energy.EnergyConfig` at this context's
        operating point (overridable per call for DSE sweeps)."""
        from repro.energy import EnergyConfig
        return EnergyConfig(
            node=self.energy_node if node is None else node,
            freq_frac=self.energy_freq if freq_frac is None else freq_frac,
            base_clock_ghz=self.config.clock_hz / 1e9)

    def chip_sampler(self):
        """The lazily built symbiosis sampler shared by chip cells."""
        if self._sampler is None:
            from repro.sched import SymbiosisSampler
            self._sampler = SymbiosisSampler(self.config)
        return self._sampler

    def _workload(self, name: str, base_address: int = 0):
        return cached_workload(name, self.config, base_address)

    def compute_cell(self, key: tuple):
        """Simulate one cell (no cache involvement).

        ``key`` is a :func:`single_cell` or :func:`pair_cell` tuple.
        This is the one entry point through which every measurement is
        produced -- serially via :meth:`single`/:meth:`pair`, or in a
        worker process via :mod:`repro.experiments.parallel`.
        """
        kind = key[0]
        pmu = self._make_pmu()
        if kind == "single":
            name = key[1]
            fame = self.runner.run_single(self._workload(name), pmu=pmu)
            return _thread_metrics(fame.thread(0), name, 4,
                                   pmu=_pmu_report(pmu))
        if kind == "chip":
            from repro.experiments.chip import compute_chip_cell
            return compute_chip_cell(self, key)
        if kind == "pair":
            _, primary, secondary, priorities = key
            governor = (self._make_governor(self.governor)
                        if self.governor else None)
        elif kind == "governed":
            _, primary, secondary, priorities, policy, params = key
            governor = self._make_governor(policy, dict(params))
        else:
            raise ValueError(f"unknown cell kind in key: {key!r}")
        fame = self.runner.run_pair(
            self._workload(primary),
            self._workload(secondary, SECONDARY_BASE),
            priorities=priorities,
            pmu=pmu,
            governor=governor)
        return PairMetrics(
            priorities=priorities,
            primary=_thread_metrics(fame.thread(0), primary,
                                    priorities[0]),
            secondary=_thread_metrics(fame.thread(1), secondary,
                                      priorities[1]),
            cycles=fame.cycles,
            capped=fame.capped,
            pmu=_pmu_report(pmu),
            policy=governor.policy.name if governor else "",
            decisions=governor.decision_log() if governor else (),
            final_priorities=(governor.final_priorities
                              if governor else None))

    def _make_pmu(self):
        """A fresh PMU handle per measurement, or None when disabled."""
        if not self.pmu:
            return None
        from repro.pmu import Pmu
        return Pmu(sample_period=self.pmu_sample or None)

    def _make_governor(self, policy: str, params: dict | None = None):
        """A fresh governor (one per measurement) running ``policy``."""
        from repro.governor import Governor, GovernorConfig, make_policy
        kwargs = {}
        if self.governor_epoch:
            kwargs["epoch"] = self.governor_epoch
        params = dict(params or {})
        # Policy params prefixed "cfg_" target the GovernorConfig.
        for key in [k for k in params if k.startswith("cfg_")]:
            kwargs[key[4:]] = params.pop(key)
        config = GovernorConfig(**kwargs)
        return Governor(config, make_policy(policy, config, **params))

    def _simcache_key(self, key: tuple) -> tuple:
        """The persistent-cache key of a cell.

        Prefixed by the trace-cache schema version and the result
        format version (so entries from other code eras can never be
        served), then every input the cell's value is a function of:
        the engine-normalized config fingerprint (both engines are
        bit-identical, so they share entries), the runner parameters, the
        instrumentation and policy knobs *relevant to this cell kind*,
        the cell key, and a content fingerprint per workload trace.
        Scoping the policy knobs per kind keeps e.g. chip flags from
        invalidating pair sweeps.
        """
        from repro.simcache import RESULT_VERSION, workload_fingerprint
        from repro.workloads.tracecache import SCHEMA_VERSION
        kind = key[0]
        runner = self.runner
        if kind == "single":
            scope: tuple = ()
            fps = (workload_fingerprint(key[1], self.config),)
        elif kind == "pair":
            scope = (self.governor, self.governor_epoch)
            fps = (workload_fingerprint(key[1], self.config),
                   workload_fingerprint(key[2], self.config,
                                        SECONDARY_BASE))
        elif kind == "governed":
            scope = (self.governor_epoch,)
            fps = (workload_fingerprint(key[1], self.config),
                   workload_fingerprint(key[2], self.config,
                                        SECONDARY_BASE))
        elif kind == "chip":
            from repro.experiments.chip import CHIP_MIXES
            scope = (self.chip_governor, self.governor_epoch)
            names = sorted({name for name, _, _ in CHIP_MIXES[key[1]]})
            fps = tuple(workload_fingerprint(name, self.config)
                        for name in names)
        else:
            raise ValueError(f"unknown cell kind in key: {key!r}")
        return (SCHEMA_VERSION, RESULT_VERSION,
                self.config.fingerprint(),
                (self.min_repetitions, runner.max_repetitions,
                 self.maiv, self.max_cycles, runner.chunk,
                 runner.warmup),
                (self.pmu, self.pmu_sample),
                scope, key, fps)

    def _simcache_lookup(self, key: tuple):
        if self.simcache is None:
            return None
        value = self.simcache.lookup(self._simcache_key(key))
        return None if self.simcache.is_miss(value) else value

    def _simcache_store(self, key: tuple, value) -> None:
        if self.simcache is not None:
            self.simcache.store(self._simcache_key(key), value)

    def prefetch(self, cells) -> int:
        """Ensure every cell in ``cells`` is measured; returns #simulated.

        Cells absent from the in-memory cache are first looked up in
        the persistent result cache (when enabled); the remainder are
        simulated -- in parallel worker processes when ``jobs`` allows
        -- persisted, and merged into the cache in input order, so
        subsequent :meth:`single`/:meth:`pair` calls are hits and the
        cache fills identically regardless of ``jobs`` or cache
        temperature.  Experiments call this with their full cell list
        up front; with ``jobs=1`` it degrades to the serial behaviour.
        """
        todo = [k for k in dict.fromkeys(cells) if k not in self._cache]
        if not todo:
            return 0
        resolved: dict = {}
        missing = []
        for key in todo:
            value = self._simcache_lookup(key)
            if value is None:
                missing.append(key)
            else:
                resolved[key] = value
        if missing:
            if self.backend is not None:
                for key, value in self.backend.compute_cells(self, missing):
                    resolved[key] = value
                    self._simcache_store(key, value)
            elif self.jobs == 1 or len(missing) == 1:
                for key in missing:
                    resolved[key] = self.compute_cell(key)
                    self._simcache_store(key, resolved[key])
            else:
                from repro.experiments.parallel import compute_cells
                for key, value in compute_cells(self, missing):
                    resolved[key] = value
                    self._simcache_store(key, value)
        for key in todo:
            self._cache[key] = resolved[key]
        return len(missing)

    def cell(self, key: tuple):
        """The metrics of an arbitrary cell key (memoised)."""
        if key not in self._cache:
            value = self._simcache_lookup(key)
            if value is None:
                if self.backend is not None:
                    ((_, value),) = self.backend.compute_cells(self, [key])
                else:
                    value = self.compute_cell(key)
                self._simcache_store(key, value)
            self._cache[key] = value
        return self._cache[key]

    def single(self, name: str) -> ThreadMetrics:
        """Single-thread-mode measurement (memoised)."""
        return self.cell(("single", name))

    def pair(self, primary: str, secondary: str,
             priorities: tuple[int, int]) -> PairMetrics:
        """Co-scheduled measurement at fixed priorities (memoised)."""
        return self.cell(("pair", primary, secondary, priorities))

    def pair_at_diff(self, primary: str, secondary: str,
                     diff: int) -> PairMetrics:
        """Co-scheduled measurement at a priority difference."""
        return self.pair(primary, secondary, priority_pair(diff))

    def cached_runs(self) -> int:
        """Number of distinct measurements performed so far."""
        return len(self._cache)

    def pmu_reports(self) -> list[tuple[str, object]]:
        """(label, :class:`repro.pmu.PmuReport`) per instrumented cell.

        Empty unless the context ran with ``pmu=True``.  Labels encode
        the cell key, e.g. ``cpu_int+ldint_mem prio 6v2``.
        """
        out = []
        for key, value in self._cache.items():
            report = getattr(value, "pmu", None)
            if report is None:
                continue
            if key[0] == "single":
                label = f"single {key[1]}"
            elif key[0] == "governed":
                _, primary, secondary, (prio_p, prio_s), policy, _ = key
                label = (f"{primary}+{secondary} governed {policy} "
                         f"from {prio_p}v{prio_s}")
            else:
                _, primary, secondary, (prio_p, prio_s) = key
                label = f"{primary}+{secondary} prio {prio_p}v{prio_s}"
            out.append((label, report))
        return out


def _thread_metrics(tr, name: str, priority: int,
                    pmu=None) -> ThreadMetrics:
    return ThreadMetrics(
        workload=name,
        priority=priority,
        ipc=tr.ipc,
        avg_rep_cycles=tr.avg_repetition_cycles,
        repetitions=tr.repetitions,
        pmu=pmu)


def _pmu_report(pmu):
    return pmu.report() if pmu is not None else None
