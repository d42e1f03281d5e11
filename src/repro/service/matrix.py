"""Scenario-matrix campaigns: grids of jobs with comparative reports.

The CMT-bone paper characterises the parent code by running workload
*matrices* — element size N crossed with rank count P crossed with
communication choices — not one-off jobs.  This module is the campaign
runner for such matrices (ROADMAP item 4c): a small JSON DSL describes
the grid, :func:`expand_matrix` turns it into concrete
:class:`~repro.service.jobs.JobSpec` objects, the jobs run through the
service (queue + persistent pool + artifact cache + timeout/retry
machinery), and :class:`MatrixReport` renders the results as a
comparative table with a winner per row.

The DSL (``repro.cli campaign --matrix grid.json``)::

    {
      "kind": "cmtbone",                  # or "sod"
      "base": {"n": 5, "nel": 8, "nsteps": 3},   # params every cell shares
      "axes": {                           # cross product, in this order
        "nranks": [2, 4],                 # special: JobSpec.nranks (P)
        "gs_method": ["pairwise", "crystal"],
        "fault_spec": [null, "degrade:factor=4"]
      },
      "compare": "gs_method",             # the columns of the report
      "machine": "compton",               # optional JobSpec knobs ...
      "timeout_seconds": 60.0,
      "max_retries": 1,
      "submitter": "matrix"
    }

Axis names are either the special keys ``nranks`` and ``machine``
(JobSpec metadata) or arbitrary param names (``n``, ``nel``,
``gs_method``, ``kernel_variant``, ``fault_spec``, ...) that land in
``JobSpec.params``; ``null`` in an axis means "leave the param unset"
(e.g. a fault-free cell).  Every cell gets a
deterministic label like ``nranks=2/gs_method=pairwise/fault=-``.

Cells are *prioritized* by estimated size: smaller cells get higher
queue priority so they dispatch first, warm the artifact cache for
their bigger siblings, and fill the comparative table early.  The
report groups cells into rows by every axis except ``compare`` and
marks the winner of each row — the compare-axis value with the lowest
virtual time among the cells that completed.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .jobs import KINDS, JobResult, JobSpec


def _fmt(value: Any) -> str:
    """Compact, label-safe rendering of one axis value."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


@dataclass(frozen=True)
class MatrixCell:
    """One point of the grid: its axis coordinates and its job."""

    #: Axis name -> value, in the matrix's axis order.
    coords: Dict[str, Any]
    spec: JobSpec

    @property
    def label(self) -> str:
        return "/".join(
            f"{k}={_fmt(v)}" for k, v in self.coords.items()
        )

    def row_key(self, compare: str) -> Tuple:
        """Coordinates of the report row this cell belongs to."""
        return tuple(
            (k, _fmt(v)) for k, v in self.coords.items() if k != compare
        )


@dataclass
class MatrixSpec:
    """Validated description of one scenario matrix (see module docs)."""

    kind: str
    axes: "Dict[str, List[Any]]"
    base: Dict[str, Any] = field(default_factory=dict)
    compare: str = ""
    machine: str = "compton"
    nranks: int = 2
    timeout_seconds: float = 0.0
    max_retries: int = 0
    submitter: str = "matrix"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"matrix kind must be one of {KINDS}, got {self.kind!r}"
            )
        if not self.axes:
            raise ValueError("matrix needs at least one axis")
        for name, values in self.axes.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(
                    f"axis {name!r} must be a non-empty list, "
                    f"got {values!r}"
                )
        if not self.compare:
            self.compare = next(iter(self.axes))
        if self.compare not in self.axes:
            raise ValueError(
                f"compare axis {self.compare!r} is not one of the "
                f"axes {list(self.axes)}"
            )

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "MatrixSpec":
        """Build from a parsed ``--matrix`` JSON document."""
        unknown = set(doc) - {
            "kind", "axes", "base", "compare", "machine", "nranks",
            "timeout_seconds", "max_retries", "submitter",
        }
        if unknown:
            raise ValueError(
                f"unknown matrix keys {sorted(unknown)} (axes go "
                "under 'axes', shared params under 'base')"
            )
        if "axes" not in doc or not isinstance(doc["axes"], Mapping):
            raise ValueError("matrix needs an 'axes' object")
        return cls(
            kind=str(doc.get("kind", "cmtbone")),
            axes={str(k): list(v) for k, v in doc["axes"].items()},
            base=dict(doc.get("base", {})),
            compare=str(doc.get("compare", "")),
            machine=str(doc.get("machine", "compton")),
            nranks=int(doc.get("nranks", 2)),
            timeout_seconds=float(doc.get("timeout_seconds", 0.0)),
            max_retries=int(doc.get("max_retries", 0)),
            submitter=str(doc.get("submitter", "matrix")),
        )

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(len(v) for v in self.axes.values())

    def ncells(self) -> int:
        n = 1
        for extent in self.shape:
            n *= extent
        return n


def expand_matrix(matrix: MatrixSpec) -> List[MatrixCell]:
    """Cross the axes into concrete cells (deterministic order).

    Cell order is the row-major product of the axes as given;
    priorities are assigned afterwards by estimated work so small
    cells dispatch first (the report itself is ordered by cell, not by
    priority, so output stays stable).
    """
    names = list(matrix.axes)
    cells: List[MatrixCell] = []
    for values in itertools.product(
        *(matrix.axes[n] for n in names)
    ):
        coords = dict(zip(names, values))
        params = dict(matrix.base)
        nranks = matrix.nranks
        machine = matrix.machine
        for name, value in coords.items():
            if name == "nranks":
                nranks = int(value)
            elif name == "machine":
                machine = str(value)
            elif value is None:
                params.pop(name, None)
            else:
                params[name] = value
        spec = JobSpec(
            kind=matrix.kind,
            name="/".join(f"{k}={_fmt(v)}" for k, v in coords.items()),
            submitter=matrix.submitter,
            nranks=nranks,
            machine=machine,
            timeout_seconds=matrix.timeout_seconds,
            max_retries=matrix.max_retries,
            params=params,
        )
        cells.append(MatrixCell(coords=coords, spec=spec))
    # Priority by size rank: smallest work units run first, warming
    # the artifact cache for their bigger siblings.  Equal sizes keep
    # submission (cell) order via the queue's FIFO tie-break.
    order = sorted(range(len(cells)),
                   key=lambda i: cells[i].spec.work_units())
    prioritized: List[Optional[MatrixCell]] = [None] * len(cells)
    for rank, i in enumerate(order):
        cell = cells[i]
        prioritized[i] = MatrixCell(
            coords=cell.coords,
            spec=dataclasses.replace(cell.spec,
                                     priority=len(cells) - rank),
        )
    return [c for c in prioritized if c is not None]


@dataclass
class MatrixReport:
    """Comparative results of one matrix campaign."""

    matrix: MatrixSpec
    cells: List[MatrixCell]
    results: List[JobResult]
    wall_seconds: float
    nworkers: int
    queue_stats: Dict[str, int] = field(default_factory=dict)

    # -- derived tables ------------------------------------------------

    def rows(self) -> "List[Tuple[Tuple, Dict[str, JobResult]]]":
        """Report rows: (row key, compare-value -> result)."""
        table: Dict[Tuple, Dict[str, JobResult]] = {}
        for cell, result in zip(self.cells, self.results):
            key = cell.row_key(self.matrix.compare)
            col = _fmt(cell.coords[self.matrix.compare])
            table.setdefault(key, {})[col] = result
        return list(table.items())

    @staticmethod
    def _winner(cols: Dict[str, JobResult]) -> Optional[str]:
        """Compare-axis value with the lowest vtime among done cells."""
        done = {c: r for c, r in cols.items() if r.ok}
        if not done:
            return None
        return min(done, key=lambda c: (done[c].vtime_total, c))

    @property
    def failed(self) -> List[JobResult]:
        return [r for r in self.results if r.status == "failed"]

    # -- rendering -----------------------------------------------------

    def summary(self) -> str:
        """Text report: one block per row, one line per cell."""
        m = self.matrix
        lines = [
            f"matrix: {m.kind}, {m.ncells()} cells "
            f"{'x'.join(str(e) for e in self.matrix.shape)} "
            f"(axes {', '.join(m.axes)}; compare {m.compare}) "
            f"on {self.nworkers} workers in {self.wall_seconds:.3f} s",
        ]
        for key, cols in self.rows():
            row_label = "/".join(f"{k}={v}" for k, v in key) or "(all)"
            winner = self._winner(cols)
            lines.append(f"  {row_label}:")
            for col in (_fmt(v) for v in m.axes[m.compare]):
                r = cols.get(col)
                if r is None:  # pragma: no cover - full grids only
                    continue
                if r.ok:
                    mark = " <- winner" if col == winner else ""
                    cache = ("disk-hit" if r.cache_disk_hits
                             else "hit" if r.cache_hits
                             else "miss" if r.cache_misses else "-")
                    lines.append(
                        f"    {m.compare}={col:<12s} "
                        f"vtime {r.vtime_total:.6g}s  "
                        f"digest {r.digest[:12]}  cache {cache:<8s} "
                        f"retries {r.retries}{mark}"
                    )
                else:
                    why = ("timeout" if r.timed_out
                           else "worker-died" if r.worker_died
                           else r.status)
                    lines.append(
                        f"    {m.compare}={col:<12s} {r.status} "
                        f"({why}, retries {r.retries})"
                    )
        n_done = sum(1 for r in self.results if r.ok)
        retries = sum(r.retries for r in self.results)
        lines.append(
            f"  cells: {n_done}/{len(self.results)} done, "
            f"{len(self.failed)} failed, {retries} retries; "
            f"queue: {self.queue_stats.get('timeouts', 0)} timeouts, "
            f"{self.queue_stats.get('readmitted', 0)} re-admissions"
        )
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        rows = []
        for key, cols in self.rows():
            rows.append({
                "row": dict(key),
                "winner": self._winner(cols),
                "cells": {col: r.to_json() for col, r in cols.items()},
            })
        return {
            "kind": self.matrix.kind,
            "axes": {k: list(v) for k, v in self.matrix.axes.items()},
            "compare": self.matrix.compare,
            "ncells": self.matrix.ncells(),
            "wall_seconds": self.wall_seconds,
            "nworkers": self.nworkers,
            "queue": dict(self.queue_stats),
            "rows": rows,
        }


def run_matrix(
    matrix: MatrixSpec,
    nworkers: int = 2,
    quota: Optional[int] = None,
    batch_max: Optional[int] = None,
    artifact_dir: Optional[str] = None,
) -> MatrixReport:
    """Expand a matrix and run every cell through a fresh service."""
    from .scheduler import DEFAULT_BATCH_MAX
    from .service import run_campaign

    cells = expand_matrix(matrix)
    t0 = time.perf_counter()
    report = run_campaign(
        [c.spec for c in cells],
        nworkers=nworkers,
        quota=quota,
        batch_max=batch_max if batch_max is not None else DEFAULT_BATCH_MAX,
        artifact_dir=artifact_dir,
    )
    return MatrixReport(
        matrix=matrix,
        cells=cells,
        results=report.results,
        wall_seconds=time.perf_counter() - t0,
        nworkers=nworkers,
        queue_stats=report.queue_stats,
    )
