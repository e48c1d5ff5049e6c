"""Correctness gate, run after the timed phase.

Three parts:

* identities on every row (workloads.py): channel partition, mounting
  flip, literal-zero radial gamma1, background >= 1, finite values, and
  on geometry-scan the mode residual and normalization integral;
* the three golden CLI rows of the test suite (h = 100 nm; d = 20 nm
  axial and radial), recomputed and compared at GOLDEN_TOL;
* for the reference seed, the first rows of the run against
  reference.json at REFERENCE_TOL.

A point that raised or broke an identity counts as failed. A failure the
workload documents as known (the thin-wire NoBoundModeError of
geometry-scan) is labelled and does not make the run incorrect; any
other failure does.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from workloads import Record, rel_dev, run_point

REFERENCE = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 1
REFERENCE_POINTS = 100
REFERENCE_TOL = 1e-9
GOLDEN_TOL = 1e-9

# The frozen 12-digit golden rows of the CLI tests, in CLI column order:
# interface-sweep --range 100:101:5, nanowire-sweep --range 20:21:5 with
# --orientation axial and radial.
GOLDEN = (
    ("iface-sweep", 100.0,
     (100.0, 1.24786477355, -0.0278850504033, 0.00376036572776, 1.22374008887,
      1.27951018968, 1.20455438808, 0.0388624260599, -0.0196767252705,
      0.0991102131861, -0.154880313993)),
    ("wire-sweep", (20.0, "axial"),
     (20.0, 0.876078377555, -1.03482185622, 0.305841858801, 1.94990359548,
      2.09700197562, 4.16664568806)),
    ("wire-sweep", (20.0, "radial"),
     (20.0, 2.15098006723, 0.0, 0.139624874136, 2.70601802935,
      4.99662297072, 4.99662297072)),
)


@dataclass
class GateResult:
    failed: int = 0
    known_failures: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)
    max_rel_dev: float = 0.0

    @property
    def correct(self) -> bool:
        return not self.problems


def _row_dev(got, want) -> float:
    if len(got) != len(want):
        return float("inf")
    dev = 0.0
    for a, b in zip(got, want):
        if isinstance(a, str) or isinstance(b, str):
            if a != b:
                return float("inf")
        else:
            dev = max(dev, rel_dev(a, b))
    return dev


def _jsonable(record: Record):
    if record.error is not None:
        return {"error": type(record.error).__name__}
    return list(record.row)


def gate(wl, records: list, seed: int) -> GateResult:
    res = GateResult()
    for rec in records:
        if rec.error is not None:
            res.failed += 1
            label = wl.expected_failure(rec.point, rec.error)
            if label:
                res.known_failures[label] += 1
            else:
                res.problems.append(f"{rec.point}: {type(rec.error).__name__}: {rec.error}")
            continue
        found = wl.problems(rec.point, rec.row, rec.keep)
        if found:
            res.failed += 1
            res.problems += [f"{rec.point}: {p}" for p in found]

    for name, point, want in GOLDEN:
        row, _ = workloads.WORKLOADS[name].run(point)
        got = (row[0],) + row[2:] if name == "wire-sweep" else row
        dev = _row_dev(got, want)
        res.max_rel_dev = max(res.max_rel_dev, dev)
        if dev > GOLDEN_TOL:
            res.problems.append(f"golden {name} {point}: deviation {dev:.3g}")

    if seed == REFERENCE_SEED:
        ref = json.loads(REFERENCE.read_text(encoding="utf-8"))["rows"][wl.name]
        for i, (rec, want) in enumerate(zip(records, ref)):
            got = _jsonable(rec)
            if isinstance(want, dict) or isinstance(got, dict):
                dev = 0.0 if got == want else float("inf")
            else:
                dev = _row_dev(got, want)
            res.max_rel_dev = max(res.max_rel_dev, dev)
            if dev > REFERENCE_TOL:
                res.problems.append(f"reference row {i} ({rec.point}): deviation {dev:.3g}")
    return res


def reference_rows() -> dict:
    """First REFERENCE_POINTS rows of every workload at the reference seed."""
    rows = {}
    for name, wl in workloads.WORKLOADS.items():
        stream = wl.points(REFERENCE_SEED)
        rows[name] = [_jsonable(run_point(wl.run, next(stream))) for _ in range(REFERENCE_POINTS)]
    return rows
