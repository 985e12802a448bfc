"""Benchmark of the POWER5 priority-characterization suite.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep_cold --seed 1 \\
        --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload

Workloads (see ``perfbench/README.md``): ``sweep_cold``,
``extensions_cold`` and ``suite_warm``.  Each run is closed-loop and
serial: one timed run at a time, each in a fresh interpreter
(``worker.py``), at least :data:`MIN_RUNS` runs and more while a new
one would end within half a run of ``--seconds``, reporting medians.
Run and set-up times are reported at a reference host speed
(:class:`ledger.HostGauge`); the raw wall time is printed beside them.
``--trace 1`` instead makes one untraced and one traced run and
reports the per-layer ledger.

Prints one line per metric (name, value, unit), a host record, and
as its last line one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

The first invocation in a checkout also builds: it runs the full
suite cold once to fill the simcache ``suite_warm`` reads (about
90 s on a 2-core Xeon), kept under ``.bench_build/perfbench`` and
keyed by a hash of the sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from ledger import PER_LAYER_UNITS, HostGauge  # noqa: E402

ROOT = os.path.dirname(HERE)

#: Timed runs per invocation, at least (more while ``--seconds`` lasts).
MIN_RUNS = 2
#: Set-up measurements per invocation, at least: each timed run gives
#: one and set-up-only runs make up the rest.
SETUP_SAMPLES = 5
#: No timed run starts when it would likely end later than this many
#: seconds after the invocation's build step.
RUN_DEADLINE_S = 140.0
#: Wall-clock limit of any one worker process.
WORKER_TIMEOUT_S = 170.0
#: Wall-clock limit of the build step (the cold full suite).
FILL_TIMEOUT_S = 800.0

#: End-to-end metric name -> unit (``--trace 0``).
END_TO_END_UNITS = {
    "norm_wall_s": "s",
    "norm_sim_cycles_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "paper_table3_mae_ipc": "ipc",
}


class BenchError(Exception):
    """The benchmark cannot run here (not a reason to report a result)."""


def host_record() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"cpu": model, "nproc": nproc,
            "python": platform.python_version(),
            "platform": platform.platform()}


def source_hash() -> str:
    """Hash of the program's sources and the recorded digests: the key
    of the build, so editing the program in place builds again."""
    digest = hashlib.sha256()
    paths = [checks.DIGESTS]
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames[:] = [d for d in dirnames if not d.startswith((".", "__"))]
        paths.extend(os.path.join(dirpath, name) for name in filenames
                     if name.endswith(".py"))
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def _remove_dead_runs(state: str) -> None:
    """Delete scratch directories of invocations that were killed."""
    try:
        names = os.listdir(state)
    except OSError:
        return
    for name in names:
        if not name.startswith("run-"):
            continue
        try:
            os.kill(int(name[4:]), 0)
        except ValueError:
            continue
        except ProcessLookupError:
            shutil.rmtree(os.path.join(state, name), ignore_errors=True)
        except OSError:
            pass


class Bench:
    """One invocation: its state directory, workers and results."""

    def __init__(self) -> None:
        self.state = os.path.join(ROOT, ".bench_build", "perfbench")
        self.scratch = os.path.join(self.state, f"run-{os.getpid()}")
        _remove_dead_runs(self.state)
        os.makedirs(self.scratch, exist_ok=True)
        self.digests = checks.load_digests()
        self.fill: dict = {}
        self.fill_dir = ""
        self._serial = 0

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def _path(self, stem: str) -> str:
        self._serial += 1
        return os.path.join(self.scratch, f"{self._serial:03d}-{stem}")

    def worker(self, mode: str, workload: str, simcache: str,
               cells: str | None = None, spans: str | None = None,
               timeout: float = WORKER_TIMEOUT_S) -> dict:
        """Run ``worker.py`` once and return what it wrote."""
        out = self._path(f"{workload}-{mode}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--mode", mode, "--workload", workload,
               "--simcache", simcache, "--out", out,
               "--slice", repr(HostGauge.time_slice()[1]),
               "--spawned", repr(time.monotonic())]
        if cells:
            cmd += ["--cells", cells]
        if spans:
            cmd += ["--spans", spans]
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        with subprocess.Popen(cmd, cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE) as proc:
            try:
                _, err = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                return {"error": f"{workload} {mode} run timed out "
                                 f"after {timeout:.0f} s"}
            except BaseException:  # interrupted: stop the worker first
                proc.kill()
                proc.wait()
                raise
        try:
            with open(out) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return {"error": f"{workload} {mode} run wrote no result "
                             f"(exit {proc.returncode}): "
                             f"{err.decode(errors='replace')[-2000:]}"}

    # -- build: the filled simcache suite_warm copies ---------------------

    def build(self) -> None:
        key = source_hash()
        target = os.path.join(self.state, f"fill-{key}")
        record = os.path.join(target, "fill.json")
        if not os.path.exists(record):
            tmp = self._path("fill")
            os.makedirs(tmp)
            result = self.worker("timed", "suite_fill",
                                 os.path.join(tmp, "simcache"),
                                 timeout=FILL_TIMEOUT_S)
            with open(os.path.join(tmp, "fill.json"), "w") as fh:
                json.dump(result, fh)
            if "error" in result:
                raise BenchError(f"build failed: {result['error']}")
            for name in os.listdir(self.state):
                if name.startswith("fill-") and name != f"fill-{key}":
                    shutil.rmtree(os.path.join(self.state, name),
                                  ignore_errors=True)
            try:
                os.rename(tmp, target)
            except OSError:  # another invocation built it first
                shutil.rmtree(tmp, ignore_errors=True)
        with open(record) as fh:
            self.fill = json.load(fh)
        self.fill_dir = os.path.join(target, "simcache")

    def fresh_simcache(self, workload: str) -> str:
        path = self._path("simcache")
        if workload == "suite_warm":
            shutil.copytree(self.fill_dir, path)
        return path

    # -- one workload -------------------------------------------------------

    def measure(self, workload: str, seed: int, seconds: float,
                trace: bool) -> dict:
        started = time.monotonic()
        cells = None
        sample: list = []
        if workload == "sweep_cold":
            sample = checks.draw_sample(self.digests["paper_cells"], seed)
            cells = self._path("cells.json")
            with open(cells, "w") as fh:
                json.dump(sample, fh)
        runs: list[dict] = []
        durations: list[float] = []
        wanted = 1 if trace else MIN_RUNS
        while True:
            elapsed = time.monotonic() - started
            if len(runs) >= wanted and (
                    trace
                    # another run would end over half a run past --seconds
                    or elapsed + statistics.median(durations) / 2
                    >= seconds):
                break
            if runs and elapsed + max(durations) > RUN_DEADLINE_S:
                break
            begun = time.monotonic()
            simcache = self.fresh_simcache(workload)
            runs.append(self.worker("timed", workload, simcache, cells))
            shutil.rmtree(simcache, ignore_errors=True)
            durations.append(time.monotonic() - begun)
        setups = [r["setup_s"] for r in runs if "setup_s" in r]
        traced: dict = {}
        if trace:
            simcache = self.fresh_simcache(workload)
            traces = os.path.join(self.state, "traces")
            os.makedirs(traces, exist_ok=True)
            traced = self.worker(
                "traced", workload, simcache, cells,
                spans=os.path.join(traces, f"{workload}-seed{seed}.json"))
            shutil.rmtree(simcache, ignore_errors=True)
        else:
            while len(setups) < SETUP_SAMPLES:
                simcache = self.fresh_simcache(workload)
                probe = self.worker("setup", workload, simcache, cells)
                shutil.rmtree(simcache, ignore_errors=True)
                if "setup_s" not in probe:
                    runs.append(probe)
                    break
                setups.append(probe["setup_s"])
        return self._summarise(workload, seed, sample, runs, setups,
                               traced)

    def _summarise(self, workload, seed, sample, runs, setups,
                   traced) -> dict:
        expected_ops = (len(sample) if workload == "sweep_cold"
                        else len(self.digests[
                            "suite_reports" if workload == "suite_warm"
                            else "extension_reports"]))
        attempted = failed = 0
        problems: list[str] = []
        for run in runs + ([traced] if traced else []):
            if "error" in run:
                attempted += expected_ops
                failed += expected_ops
                problems.append(run["error"].strip().splitlines()[-1])
                continue
            attempted += run.get("attempted", 0)
            failed += run.get("failed", 0)
            problems.extend(run.get("failures", []))
            if run.get("cycles") != run.get("expected_cycles"):
                problems.append(f"modelled cycles {run.get('cycles')} != "
                                f"recorded {run.get('expected_cycles')}")
        if self.fill.get("failed") or self.fill.get("cycles") != \
                self.fill.get("expected_cycles"):
            problems.append("the build's cold suite run did not verify")
        good = [r for r in runs if "error" not in r]
        if not good:
            return {"workload": workload, "seed": seed, "ok": False,
                    "attempted": max(attempted, 1),
                    "failed": max(failed, 1),
                    "problems": problems or ["no run completed"],
                    "metrics": {}, "runs": runs}
        metrics: dict[str, tuple[float, str]] = {}
        if traced and "layers" in traced:
            layers = dict(traced["layers"])
            layers["trace.overhead_ratio"] = (
                traced["wall_s"] / statistics.median(
                    r["wall_s"] for r in good))
            layers["host.slice_s"] = statistics.median(
                r["slice_s"] for r in good)
            layers["host.wall_s"] = statistics.median(
                r["wall_s"] for r in good)
            for name, unit in PER_LAYER_UNITS.items():
                metrics[name] = (layers[name], unit)
        elif not traced:
            mae = [r["paper_table3_mae_ipc"] for r in good
                   if "paper_table3_mae_ipc" in r]
            if not mae:
                mae = [self.fill["paper_table3_mae_ipc"]]
            values = {
                "norm_wall_s": statistics.median(
                    r["norm_wall_s"] for r in good),
                "norm_sim_cycles_per_s": statistics.median(
                    r["cycles"] / r["norm_wall_s"] for r in good),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(
                    r["peak_rss_mb"] for r in good),
                "paper_table3_mae_ipc": statistics.median(mae),
            }
            for name, unit in END_TO_END_UNITS.items():
                metrics[name] = (values[name], unit)
        ok = failed == 0 and not problems and (not traced
                                               or "layers" in traced)
        return {"workload": workload, "seed": seed, "ok": ok,
                "attempted": max(attempted, 1), "failed": failed,
                "problems": problems, "metrics": metrics,
                "setups_s": setups,
                "runs": runs}


def _print_summary(summary: dict, trace: bool, host: dict) -> None:
    runs = summary["runs"]
    print(f"perfbench {summary['workload']}  seed {summary['seed']}  "
          f"{len(runs)} timed run(s){'  + traced run' if trace else ''}")
    slices = [r["slice_s"] for r in runs if "slice_s" in r]
    walls = [r["wall_s"] for r in runs if "wall_s" in r]
    speed = (HostGauge.SLICE_REFERENCE_S / statistics.median(slices)
             if slices else float("nan"))
    wall = statistics.median(walls) if walls else float("nan")
    print(f"  host: {host['cpu']} | nproc {host['nproc']} | "
          f"Python {host['python']} | speed {speed:.3f} of the "
          f"reference | raw wall {wall:.4f} s")
    for name, (value, unit) in summary["metrics"].items():
        print(f"  {name:<34} {value:>16.6g} {unit}")
    rate = summary["failed"] / summary["attempted"]
    print(f"  {'error_rate':<34} {rate:>16.6g} ratio "
          f"({summary['failed']} of {summary['attempted']} operations "
          f"failed)")
    for problem in summary["problems"][:10]:
        print(f"  FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark of the POWER5 priority suite.")
    parser.add_argument("--workload", required=True,
                        choices=checks.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program sources at {ROOT}/src/repro; run "
              f"from the root of a full checkout", file=sys.stderr)
        return 2
    host = host_record()
    bench = Bench()
    try:
        bench.build()
        workloads = (checks.WORKLOADS if args.workload == "all"
                     else (args.workload,))
        summaries = [bench.measure(w, args.seed, args.seconds,
                                   bool(args.trace)) for w in workloads]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()
    results = os.path.join(bench.state, "results")
    os.makedirs(results, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}-{stamp}.json"), "w") as fh:
        json.dump({"host": host, "args": vars(args),
                   "summaries": summaries}, fh, indent=1)
    for summary in summaries:
        _print_summary(summary, bool(args.trace), host)
    single = len(summaries) == 1
    metrics = {
        (name if single else f"{s['workload']}.{name}"):
            {"value": value, "unit": unit}
        for s in summaries for name, (value, unit) in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["ok"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
