"""Workload inputs and output checks shared by the benchmark's processes.

The benchmark verifies every output against ``digests.json``, recorded
with ``perfbench/record.py`` from the program at the commit that
defined the benchmark:

- each of the 462 paper cells (digest of its canonical text form, its
  exact modelled-cycle count, and its simulation time at recording,
  which only forms the sampling strata), so the ``sweep_cold`` sample
  of any seed can be checked;
- each cell the ``extensions_cold`` run computes, keyed by the
  computing context as well, because the prefetch and DSE experiments
  compute cells on twin contexts with other configurations;
- each report of ``extensions_cold`` and ``suite_warm`` (rendered text
  plus canonical data), and each run's exact modelled-cycle count.

Importing this module needs nothing outside the standard library.
"""

from __future__ import annotations

import ast
import dataclasses
import enum
import hashlib
import json
import math
import os
import random
import re

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")

#: The paper experiments whose cells ``sweep_cold`` samples.
PAPER_IDS = ("table3", "figure2", "figure3", "figure4", "figure5",
             "figure6", "modelcheck")
#: The extension experiments ``extensions_cold`` runs.
EXTENSION_IDS = ("governor", "chip", "dse", "prefetch")
WORKLOADS = ("sweep_cold", "extensions_cold", "suite_warm")

#: Cells per stratum of the ``sweep_cold`` sample: one cell of every
#: ``STRATUM`` consecutive cells in recorded-cost order.
STRATUM = 6
#: Largest share by which a sample's total cost or cycles may differ
#: from the expectation (see :func:`draw_sample`).
BALANCE = 0.01

#: Lines of a rendered report that carry host timings.  The reports of
#: this program print none; the pattern guards digests against one
#: appearing later (``[12.3s]``, ``12.3 ms``, ``wall 1.2 s``).
_TIMING = re.compile(r"\[\s*\d+(\.\d+)?\s*m?s\b|\bwall\b|\belapsed\b",
                     re.IGNORECASE)


def canonical(value) -> object:
    """A JSON-ready canonical form of a program output.

    Dataclass fields still at their declared default are left out, so
    an output class that grows a defaulted field keeps its digest.
    Floats keep every digit (``repr``); dict entries are sorted by the
    canonical text of their keys.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((canonical(item) for item in value), key=_text)
    if isinstance(value, dict):
        items = [(canonical(k), canonical(v)) for k, v in value.items()]
        return [list(pair) for pair in sorted(items, key=_text)]
    if dataclasses.is_dataclass(value):
        out = {"@": type(value).__name__}
        for field in dataclasses.fields(value):
            item = getattr(value, field.name)
            if field.default is not dataclasses.MISSING:
                if _same(item, field.default):
                    continue
            elif field.default_factory is not dataclasses.MISSING:
                if _same(item, field.default_factory()):
                    continue
            out[field.name] = canonical(item)
        return out
    reduce = getattr(type(value), "__reduce__", None)
    if reduce is not None and reduce is not object.__reduce__:
        return {"@": type(value).__name__,
                "args": canonical(value.__reduce__()[1])}
    state = getattr(value, "__dict__", None)
    if state is None:
        slots = [s for cls in type(value).__mro__
                 for s in getattr(cls, "__slots__", ())]
        state = {s: getattr(value, s) for s in slots if hasattr(value, s)}
    return {"@": type(value).__name__,
            "state": canonical({k: v for k, v in state.items()
                                if not k.startswith("__")})}


def _same(a, b) -> bool:
    try:
        return bool(a == b) and type(a) is type(b)
    except Exception:  # incomparable values are simply kept
        return False


def _text(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def digest(value) -> str:
    """Digest of an output's canonical text form."""
    text = _text(canonical(value))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def report_digest(report) -> str:
    """Digest of a report: rendered text without timing lines, plus
    its data at full precision."""
    lines = [line for line in str(report).splitlines()
             if not _TIMING.search(line)]
    text = "\n".join(lines) + "\n" + _text(canonical(report.data))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def context_ident(ctx) -> str:
    """Short identity of the context that computed a cell: everything
    besides the cell key that its value is a function of."""
    parts = (ctx.config.fingerprint(), ctx.min_repetitions, ctx.maiv,
             ctx.max_cycles, ctx.pmu, ctx.pmu_sample, ctx.governor,
             ctx.governor_epoch, ctx.chip_cores, ctx.chip_quota,
             ctx.chip_governor, ctx.energy_node, ctx.energy_freq)
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:12]


def cell_id(key: tuple) -> str:
    """Text form of a cell key (``repr``; parsed back by :func:`parse_cell`)."""
    return repr(key)


def parse_cell(text: str) -> tuple:
    return ast.literal_eval(text)


def load_digests(path: str = DIGESTS) -> dict:
    with open(path) as fh:
        return json.load(fh)


def draw_sample(paper_cells: dict, seed: int) -> list[str]:
    """The ``sweep_cold`` cell sample for ``seed``.

    ``paper_cells`` maps cell ids to their records: ``cycles`` (exact
    modelled cycles) and ``cost_ms`` (simulation time measured once by
    ``record.py``).  Cells are ordered by cost and cut into strata of
    :data:`STRATUM` consecutive cells, and the seed picks one cell of
    each stratum.  The host cost of a modelled cycle differs
    several-fold between cells, so cost strata alone still let the
    sample's cycle total swing by about 7% between seeds.  The seed's
    generator therefore draws until the sample's total cost and total
    cycles are both within :data:`BALANCE` of their expectation.  A
    seed changes which cells run, but not how much work the run holds
    nor how many cycles it models.  The sample keeps the planner's
    order.
    """
    order = {cell: index for index, cell in enumerate(paper_cells)}
    ranked = sorted(paper_cells,
                    key=lambda c: (paper_cells[c]["cost_ms"], order[c]))
    strata = [ranked[start:start + STRATUM]
              for start in range(0, len(ranked), STRATUM)]
    targets = {field: sum(sum(paper_cells[c][field] for c in stratum)
                          / len(stratum) for stratum in strata)
               for field in ("cost_ms", "cycles")}
    rng = random.Random(seed)
    for _ in range(100_000):
        chosen = [rng.choice(stratum) for stratum in strata]
        if all(abs(sum(paper_cells[c][field] for c in chosen) - target)
               <= BALANCE * target for field, target in targets.items()):
            break
    else:
        raise ValueError(f"no balanced sample for seed {seed}")
    return sorted(chosen, key=order.__getitem__)


def table3_mae(report) -> float:
    """Mean absolute IPC error of a ``table3`` report against the
    paper's Table 3 (ST, pt and tt values)."""
    from repro.experiments import PAPER_TABLE3
    errors = []
    for bench, paper in PAPER_TABLE3.items():
        errors.append(abs(report.data["st"][bench] - paper["st"]))
        for other, values in paper.items():
            if other == "st":
                continue
            pt, tt = values
            got_pt, got_tt = report.data["pairs"][(bench, other)]
            errors.extend((abs(got_pt - pt), abs(got_tt - tt)))
    if not errors or any(math.isnan(e) for e in errors):
        raise ValueError("table3 report has no comparable IPC values")
    return sum(errors) / len(errors)
