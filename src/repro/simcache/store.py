"""Persistent, on-disk memoisation of simulated measurement cells.

Every measurement cell -- one (workloads, priorities, policy)
combination driven to FAME convergence -- is a pure function of the
machine configuration, the runner parameters and the workload traces.
The in-memory cache on :class:`~repro.experiments.base.ExperimentContext`
already deduplicates cells *within* one process; this store extends
that across processes and invocations, so re-running a sweep (or
iterating on the governor/chip experiments) pays only for cells whose
inputs actually changed.

Keying follows the trace cache's discipline
(:mod:`repro.workloads.tracecache`): the first key components are the
trace-cache ``SCHEMA_VERSION`` and this store's :data:`RESULT_VERSION`,
so entries written under any other code era can never be served.  The
remaining components -- config fingerprint, runner parameters,
instrumentation flags, the cell key itself and a content fingerprint
per workload trace -- are assembled by the experiment layer
(``ExperimentContext._simcache_key``).  Workers never touch the store:
the coordinator filters hits before dispatching a sweep and persists
results after the merge, so the existing worker schema handshake
guards everything that reaches disk.

Entries are one pickle file per cell, named by the SHA-256 of the key
and written atomically (temp file + ``os.replace``).  A corrupt,
truncated or colliding file is treated as a miss and rewritten.  The
cache must never break a run: all I/O failures degrade to
recomputation.

A warm cache from a full sweep holds hundreds of small files, and a
re-run pays one ``open`` + ``read`` per cell.  :meth:`SimCache.pack`
consolidates every per-cell entry (and any previous shard) into one
indexed shard file: a pickled ``{digest: (offset, length)}`` index
followed by the raw per-entry pickles, so a lookup seeks straight to
its blob.  The CLI packs automatically after a full ``all`` run.
Lookups consult the shard index first and fall back to per-cell
files, so a cell stored after packing (or a corrupt shard) behaves
exactly as before packing existed.

The store is multi-writer safe by construction: every mutation lands
as a uniquely named file moved into place with ``os.replace``.  That
discipline extends to the session statistics -- each
:meth:`SimCache.flush_stats` spools its counters as its own delta
file instead of read-modify-writing a shared ``stats.json`` (which
would lose counts whenever two writers raced), and a lock-guarded
compaction folds the deltas in opportunistically.  Long-lived
processes (the simulation service's server and workers) additionally
register a :meth:`SimCache.hold`; :meth:`SimCache.pack` refuses to
run while any live holder exists, so a CLI ``all`` auto-pack can
never pull per-cell files out from under a running service.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import pickle
import time
import uuid

#: Version of the stored result format.  Bump whenever the shape of
#: cached values (ThreadMetrics/PairMetrics/ScheduleResult or anything
#: riding on them, e.g. PMU counter banks) changes incompatibly.
RESULT_VERSION = 1

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "POWER5_SIMCACHE_DIR"

#: In-process memo of workload content fingerprints.
_FP_CACHE: dict[tuple, str] = {}

#: Sentinel distinguishing "miss" from a legitimately falsy value.
_MISS = object()

#: Shard file magic: name + format version.  Bump the byte when the
#: header/index layout changes; unrecognised shards are ignored (their
#: cells were deleted at pack time, so the worst case is a recompute).
_SHARD_MAGIC = b"P5SHARD\x01"

#: The single consolidated shard file (one per cache directory).
_SHARD_NAME = "entries.shard"

#: Directory of hold markers: one file per process that keeps the
#: cache open for a long time (service servers and their workers).
#: :meth:`SimCache.pack` skips while any live holder exists.
_HOLDS_DIR = "holds"

#: A hold file whose process cannot be probed is still trusted for
#: this long; beyond it, an unreadable hold is treated as stale.
_HOLD_STALE_S = 24 * 3600.0


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe of another process."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


def default_cache_dir() -> pathlib.Path:
    """The result-cache directory (honours ``POWER5_SIMCACHE_DIR``)."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "power5-repro" / "simcache"


def workload_fingerprint(name: str, config, base_address: int = 0) -> str:
    """Content hash of a workload's trace under ``config``.

    Hashes the actual instruction sequences (repetitions 0 and 1 --
    cold and steady), not the generator's name: editing a workload
    definition changes the fingerprint and therefore misses the result
    cache, even though the name and config are unchanged.  Memoised
    per (schema, name, base, config) beside the trace cache.
    """
    from repro.workloads.tracecache import SCHEMA_VERSION, cached_workload
    key = (SCHEMA_VERSION, name, base_address, config.fingerprint())
    fp = _FP_CACHE.get(key)
    if fp is None:
        source = cached_workload(name, config, base_address)
        digest = hashlib.sha256(repr(key).encode())
        for rep in (0, 1):
            digest.update(repr(tuple(source.repetition(rep))).encode())
        fp = digest.hexdigest()[:16]
        _FP_CACHE[key] = fp
    return fp


class SimCache:
    """On-disk result store with in-process hit/miss accounting."""

    def __init__(self, root: os.PathLike | str | None = None) -> None:
        self.root = pathlib.Path(root) if root else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        # Shard index {digest: (offset, length)}, loaded lazily on the
        # first lookup; None = not loaded yet, {} = no usable shard.
        self._shard_index: dict[str, tuple[int, int]] | None = None

    @staticmethod
    def _digest(key: tuple) -> str:
        return hashlib.sha256(repr(key).encode()).hexdigest()

    @staticmethod
    def key_digest(key: tuple) -> str:
        """The on-disk entry name of ``key`` (SHA-256 of its repr).

        Public for the simulation service, whose wire protocol moves
        digests instead of pickled values: workers store results here
        and the server hands clients the digest to fetch them by.
        """
        return SimCache._digest(key)

    def _path(self, key: tuple) -> pathlib.Path:
        return self.root / f"{self._digest(key)}.pkl"

    def raw_entry(self, digest: str) -> bytes | None:
        """The raw pickled ``(key, value)`` blob stored under ``digest``.

        Served verbatim by the job server's ``/entry`` endpoint so
        clients without filesystem access to the cache directory can
        fetch results; the client verifies the pickled key against its
        own locally computed cache key.  None when the digest is
        unknown (or every copy is unreadable).
        """
        entry = self._load_shard_index().get(digest)
        if entry is not None:
            offset, length = entry
            try:
                with open(self._shard_path(), "rb") as fh:
                    fh.seek(offset)
                    blob = fh.read(length)
                if len(blob) == length:
                    return blob
            except OSError:
                pass
        try:
            return (self.root / f"{digest}.pkl").read_bytes()
        except OSError:
            return None

    def lookup(self, key: tuple):
        """The cached value for ``key``, or the module's miss sentinel.

        Compare the return value against :data:`_MISS` via
        :meth:`is_miss`; anything else is a cache hit.  The packed
        shard is consulted first; per-cell files cover everything
        stored since the last pack (and every shard failure mode).
        """
        digest = self._digest(key)
        value = self._shard_lookup(digest, key)
        if value is not _MISS:
            self.hits += 1
            return value
        try:
            blob = (self.root / f"{digest}.pkl").read_bytes()
        except OSError:
            self.misses += 1
            return _MISS
        try:
            stored_key, value = pickle.loads(blob)
        except Exception:
            # Truncated/corrupt entry (e.g. an interrupted writer on a
            # filesystem without atomic replace): recompute and let
            # store() overwrite it.
            self.misses += 1
            return _MISS
        if stored_key != key:
            # SHA-256 collision or a tampered file; either way the
            # entry is not the requested cell.
            self.misses += 1
            return _MISS
        self.hits += 1
        return value

    @staticmethod
    def is_miss(value) -> bool:
        """True when :meth:`lookup` found nothing usable."""
        return value is _MISS

    def store(self, key: tuple, value) -> None:
        """Persist ``value`` under ``key`` (atomic, best-effort).

        The full key rides inside the pickle so :meth:`lookup` can
        verify it; I/O errors are swallowed -- a read-only or full
        disk only costs future recomputation.
        """
        path = self._path(key)
        tmp = path.with_name(f"{path.stem}.tmp{os.getpid()}")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(
                pickle.dumps((key, value),
                             protocol=pickle.HIGHEST_PROTOCOL))
            os.replace(tmp, path)
            self.stores += 1
            if self._shard_index:
                # The fresh per-cell file now outranks any packed copy
                # of this cell; drop the shard's claim so this process
                # reads what it just wrote.  (pack() likewise prefers
                # per-cell files, so the next pack heals the shard.)
                self._shard_index.pop(self._digest(key), None)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass

    # -- shard packing --------------------------------------------------

    def _shard_path(self) -> pathlib.Path:
        return self.root / _SHARD_NAME

    def _load_shard_index(self) -> dict:
        """Parse the shard header; any defect disables the shard."""
        if self._shard_index is not None:
            return self._shard_index
        index: dict[str, tuple[int, int]] = {}
        try:
            with open(self._shard_path(), "rb") as fh:
                if fh.read(len(_SHARD_MAGIC)) == _SHARD_MAGIC:
                    size = int.from_bytes(fh.read(8), "big")
                    raw = pickle.loads(fh.read(size))
                    base = len(_SHARD_MAGIC) + 8 + size
                    index = {d: (base + off, length)
                             for d, (off, length) in raw.items()}
        except Exception:
            index = {}
        self._shard_index = index
        return index

    def _shard_lookup(self, digest: str, key: tuple):
        """Read one entry out of the packed shard (miss on any error)."""
        entry = self._load_shard_index().get(digest)
        if entry is None:
            return _MISS
        offset, length = entry
        try:
            with open(self._shard_path(), "rb") as fh:
                fh.seek(offset)
                stored_key, value = pickle.loads(fh.read(length))
        except Exception:
            return _MISS
        if stored_key != key:
            return _MISS
        return value

    def pack(self) -> int:
        """Consolidate per-cell files (and any old shard) into one shard.

        Layout: magic, 8-byte index size, pickled ``{digest: (offset,
        length)}`` with offsets relative to the end of the index, then
        the per-entry pickles verbatim.  Written atomically; the
        per-cell files are deleted only after the replace succeeds, so
        an interrupted pack costs nothing.  Returns the number of
        entries the new shard holds (0 on failure or an empty cache).

        Packing is skipped entirely (returning 0) while any *live*
        process holds the cache open (see :meth:`hold`) or another
        pack is in flight: deleting per-cell files under a long-lived
        service worker would downgrade its fresh stores to stale shard
        copies mid-run.  Skipping costs nothing -- the next holder-free
        ``all`` run packs instead.
        """
        if self._live_holds():
            return 0
        with self._try_lock("pack.lock", stale_after=300.0) as locked:
            if not locked:
                return 0
            return self._pack_locked()

    def _pack_locked(self) -> int:
        blobs: dict[str, bytes] = {}
        index = self._load_shard_index()
        try:
            with open(self._shard_path(), "rb") as fh:
                for digest, (offset, length) in index.items():
                    fh.seek(offset)
                    blobs[digest] = fh.read(length)
        except OSError:
            blobs.clear()
        packed_files = []
        for path in self.entries():
            try:
                blob = path.read_bytes()
                stored_key, _ = pickle.loads(blob)
            except Exception:
                continue  # corrupt cell: leave it for lookup to report
            # Per-cell entries are newer than any shard copy: a cell
            # re-stored after the last pack (e.g. RESULT_VERSION bump
            # rolled back) must win here just as it does in lookup().
            blobs[self._digest(stored_key)] = blob
            packed_files.append(path)
        if not blobs:
            return 0
        raw_index = {}
        offset = 0
        for digest, blob in blobs.items():
            raw_index[digest] = (offset, len(blob))
            offset += len(blob)
        header = pickle.dumps(raw_index, protocol=pickle.HIGHEST_PROTOCOL)
        path = self._shard_path()
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        try:
            with open(tmp, "wb") as fh:
                fh.write(_SHARD_MAGIC)
                fh.write(len(header).to_bytes(8, "big"))
                fh.write(header)
                for blob in blobs.values():
                    fh.write(blob)
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return 0
        for cell in packed_files:
            try:
                cell.unlink()
            except OSError:
                pass
        self._shard_index = None  # reload from the new shard
        return len(blobs)

    # -- locks and holds ------------------------------------------------

    @contextlib.contextmanager
    def _try_lock(self, name: str, stale_after: float = 30.0):
        """Best-effort exclusive lock file; yields whether it was won.

        ``O_CREAT | O_EXCL`` is atomic on every filesystem the cache
        targets.  A lock older than ``stale_after`` seconds is broken
        (its holder crashed); contention is never waited out -- callers
        treat "not acquired" as "someone else is doing the work".
        """
        path = self.root / name
        acquired = False
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            for _ in range(2):
                try:
                    fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                    os.write(fd, str(os.getpid()).encode())
                    os.close(fd)
                    acquired = True
                    break
                except FileExistsError:
                    try:
                        age = time.time() - path.stat().st_mtime
                    except OSError:
                        continue  # released between open and stat; retry
                    if age <= stale_after:
                        break
                    try:
                        path.unlink()
                    except OSError:
                        break
        except OSError:
            pass
        try:
            yield acquired
        finally:
            if acquired:
                try:
                    path.unlink()
                except OSError:
                    pass

    def hold(self) -> "_CacheHold":
        """Mark this process as holding the cache open (context manager).

        Long-lived processes -- the job server and its persistent
        workers -- enter a hold for their lifetime so that
        :meth:`pack` (e.g. the CLI's auto-pack after ``all``) skips
        rather than deleting per-cell files out from under them.
        Holds of dead processes are ignored and reaped; failing to
        create the marker degrades to not being protected, never to an
        error.
        """
        return _CacheHold(self)

    def _live_holds(self) -> list[pathlib.Path]:
        """Hold markers whose owning process is still alive.

        Markers of dead owners are reaped on the way; unreadable
        markers are trusted while young (their writer may be mid-way)
        and reaped once stale.
        """
        live = []
        try:
            holds = sorted((self.root / _HOLDS_DIR).glob("*.hold"))
        except OSError:
            return []
        for path in holds:
            try:
                pid = int(path.read_text().strip())
            except (OSError, ValueError):
                pid = None
            if pid is not None and _pid_alive(pid):
                live.append(path)
                continue
            try:
                if pid is None and (time.time() - path.stat().st_mtime
                                    <= _HOLD_STALE_S):
                    live.append(path)
                else:
                    path.unlink()
            except OSError:
                pass
        return live

    # -- maintenance ----------------------------------------------------

    def entries(self) -> list[pathlib.Path]:
        """The entry files currently on disk."""
        try:
            return sorted(self.root.glob("*.pkl"))
        except OSError:
            return []

    def stats(self) -> dict:
        """Session counters plus on-disk footprint."""
        files = self.entries()
        size = 0
        for path in files:
            try:
                size += path.stat().st_size
            except OSError:
                pass
        packed = len(self._load_shard_index())
        try:
            size += self._shard_path().stat().st_size
        except OSError:
            pass
        return {
            "dir": str(self.root),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "entries": len(files) + packed,
            "packed": packed,
            "bytes": size,
        }

    def clear(self) -> dict:
        """Delete every cache artefact; returns what was swept.

        Only files this store created are removed -- never the
        directory itself or anything else in it.  Beyond the ``*.pkl``
        entries and the packed shard, the sweep covers the
        multi-writer droppings earlier versions left behind:
        ``stats-delta.*.json`` spool files, temp files, lock files and
        ``holds/*.hold`` markers.  Hold markers are removed only when
        their owning process is dead (the live-pid guard of
        :meth:`_live_holds`) -- a running service's marker must keep
        protecting whatever it writes next.  Every category is swept
        per-file, so one unremovable path cannot abort the rest.

        Returns ``{"entries", "packed", "spool", "locks", "holds",
        "live_holds"}``: counts removed per category, plus the live
        markers deliberately left in place.
        """
        def _glob(root: pathlib.Path, pattern: str) -> list[pathlib.Path]:
            try:
                return list(root.glob(pattern))
            except OSError:
                return []

        def _sweep(paths) -> int:
            n = 0
            for path in paths:
                try:
                    path.unlink()
                    n += 1
                except OSError:
                    pass
            return n

        swept = {"entries": _sweep(self.entries())}
        swept["packed"] = len(self._load_shard_index())
        try:
            self._shard_path().unlink(missing_ok=True)
        except OSError:
            swept["packed"] = 0
        spool = _glob(self.root, "stats-delta.*.json")
        spool += _glob(self.root, "*.tmp*")
        spool += [p for p in (self.root / "stats.json",)
                  if p.exists()]
        swept["spool"] = _sweep(spool)
        swept["locks"] = _sweep(_glob(self.root, "*.lock"))
        holds_dir = self.root / _HOLDS_DIR
        before = len(_glob(holds_dir, "*.hold"))
        live = self._live_holds()  # reaps dead-owner/stale markers
        swept["holds"] = (max(0, before - len(live))
                          + _sweep(_glob(holds_dir, "*.tmp*")))
        swept["live_holds"] = len(live)
        self._shard_index = {}
        return swept

    def flush_stats(self) -> None:
        """Persist this session's counters; cumulative across runs.

        Read back by the ``cache`` CLI subcommand's hit-rate report.
        A naive read-modify-write of one shared ``stats.json`` loses
        counts whenever two writers race (several service workers plus
        the server flush concurrently), so each flush spools its
        counters as a *uniquely named* delta file written with the
        same atomic temp-file + ``os.replace`` discipline as cell
        entries; readers sum ``stats.json`` plus outstanding deltas.
        A lock-guarded compaction then folds deltas into
        ``stats.json`` opportunistically -- writers never contend.
        The flushed counters are reset, so flushing is safe to repeat.
        Best-effort like all other I/O here.
        """
        delta = {"hits": self.hits, "misses": self.misses,
                 "stores": self.stores}
        if not any(delta.values()):
            self._compact_stats()
            return
        name = f"stats-delta.{os.getpid()}.{uuid.uuid4().hex[:8]}.json"
        path = self.root / name
        tmp = path.with_name(f"{name}.tmp{os.getpid()}")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(delta) + "\n")
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return
        self.hits = self.misses = self.stores = 0
        self._compact_stats()

    def _stats_delta_files(self) -> list[pathlib.Path]:
        try:
            return sorted(self.root.glob("stats-delta.*.json"))
        except OSError:
            return []

    def _read_stats_file(self) -> dict:
        totals = {"hits": 0, "misses": 0, "stores": 0}
        try:
            data = json.loads((self.root / "stats.json").read_text())
            totals.update({k: int(v) for k, v in data.items()
                           if k in totals})
        except (OSError, ValueError):
            pass
        return totals

    def _compact_stats(self) -> None:
        """Fold outstanding delta files into ``stats.json`` (guarded).

        Only one compactor runs at a time; a busy lock means someone
        else is folding and this writer's delta is already safely on
        disk.  ``stats.json`` is replaced before the folded deltas are
        unlinked: a crash inside that window can double-count those
        deltas once, but no interleaving can ever *lose* a count --
        the failure the old read-modify-write scheme had.
        """
        with self._try_lock("stats.lock", stale_after=10.0) as locked:
            if not locked:
                return
            deltas = self._stats_delta_files()
            if not deltas:
                return
            totals = self._read_stats_file()
            for path in deltas:
                try:
                    data = json.loads(path.read_text())
                    for key in totals:
                        totals[key] += int(data.get(key, 0))
                except (OSError, ValueError):
                    pass  # unreadable delta: drop it below
            path = self.root / "stats.json"
            tmp = path.with_name(f"stats.tmp{os.getpid()}")
            try:
                tmp.write_text(json.dumps(totals, indent=2) + "\n")
                os.replace(tmp, path)
            except OSError:
                return  # keep the deltas; nothing was folded
            for delta in deltas:
                try:
                    delta.unlink()
                except OSError:
                    pass

    def persistent_stats(self) -> dict:
        """Cumulative counters: ``stats.json`` plus unfolded deltas."""
        totals = self._read_stats_file()
        for path in self._stats_delta_files():
            try:
                data = json.loads(path.read_text())
                for key in totals:
                    totals[key] += int(data.get(key, 0))
            except (OSError, ValueError):
                pass
        return totals


class _CacheHold:
    """Context manager behind :meth:`SimCache.hold`."""

    def __init__(self, cache: SimCache) -> None:
        self._cache = cache
        self._path: pathlib.Path | None = None

    def __enter__(self) -> "_CacheHold":
        holds = self._cache.root / _HOLDS_DIR
        try:
            holds.mkdir(parents=True, exist_ok=True)
            name = f"{os.getpid()}.{uuid.uuid4().hex[:8]}.hold"
            tmp = holds / f"{name}.tmp{os.getpid()}"
            tmp.write_text(str(os.getpid()))
            os.replace(tmp, holds / name)
            self._path = holds / name
        except OSError:
            self._path = None
        return self

    def __exit__(self, *exc) -> None:
        if self._path is not None:
            try:
                self._path.unlink()
            except OSError:
                pass
            self._path = None
