"""Emulated POWER5-style performance monitoring unit (PMU).

The observability subsystem of the simulator:

- :mod:`repro.pmu.events` -- the named-event registry (``PM_*``).
- :class:`CounterBank` -- exact per-thread snapshot of every event,
  bit-identical between the object and array engines.
- :class:`CpiStack` -- exact decode-slot decomposition of each
  thread's cycles/CPI (components sum to total cycles).
- :class:`IntervalSampler` / :class:`Sample` -- periodic time series
  of IPC, slot share and miss behaviour per thread.
- :mod:`repro.pmu.export` -- JSONL and Chrome-trace (Perfetto) export.
- :class:`Pmu` / :class:`PmuReport` -- the facade callers attach to a
  measurement, and its frozen, picklable result.
"""

from repro.pmu.counters import CounterBank
from repro.pmu.cpi import COMPONENTS, CpiStack
from repro.pmu.events import EVENT_INDEX, EVENT_NAMES, EVENTS, EventDef, event
from repro.pmu.export import (
    chrome_trace,
    report_records,
    scheduler_chrome_trace,
    scheduler_trace_events,
    trace_events,
    write_chrome_trace,
    write_jsonl,
    write_scheduler_trace,
)
from repro.pmu.monitor import FameSample, Pmu, PmuReport
from repro.pmu.sampling import IntervalSampler, Sample

__all__ = [
    "EVENTS",
    "EVENT_INDEX",
    "EVENT_NAMES",
    "EventDef",
    "event",
    "CounterBank",
    "CpiStack",
    "COMPONENTS",
    "IntervalSampler",
    "Sample",
    "Pmu",
    "PmuReport",
    "FameSample",
    "chrome_trace",
    "scheduler_chrome_trace",
    "scheduler_trace_events",
    "trace_events",
    "report_records",
    "write_chrome_trace",
    "write_jsonl",
    "write_scheduler_trace",
]
