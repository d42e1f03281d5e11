"""In-memory spans for the traced run.

A span is one call into a layer's public function, recorded from the
benchmark's own files: ``name``, ``layer``, ``start``/``end``
(``time.perf_counter`` seconds, which is CLOCK_MONOTONIC and therefore
comparable across the processes of one host), the ``parent`` span that
caused it, the ``rank`` that made it, and a ``step`` id shared by every
span of one timestep.  Spans are appended to a per-rank list and only
written out (``trace.json``) when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional


class Tracer:
    """Per-rank span recorder (one per thread or process; not shared)."""

    def __init__(self, rank: int = 0) -> None:
        self.rank = rank
        self.spans: List[dict] = []
        self._open: List[dict] = []

    @contextmanager
    def span(self, name: str, layer: str, step: Optional[int] = None):
        parent = self._open[-1] if self._open else None
        if step is None and parent is not None:
            step = parent["step"]
        rec = {
            "id": len(self.spans), "rank": self.rank, "name": name,
            "layer": layer, "step": step,
            "parent": parent["id"] if parent else None,
            "start": 0.0, "end": 0.0,
        }
        self.spans.append(rec)
        self._open.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def self_times(spans: Iterable[dict]) -> Dict[tuple, float]:
    """``(rank, id) -> self seconds`` for every span.

    A span's self time is its duration minus the part of its interval
    that its child spans cover: children are clipped to the parent and
    overlapping children (split-phase work, clock skew) are counted
    once.
    """
    spans = list(spans)
    children: Dict[tuple, List[tuple]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault((s["rank"], s["parent"]), []).append(
                (s["start"], s["end"]))
    out = {}
    for s in spans:
        key = (s["rank"], s["id"])
        covered = 0.0
        reach = s["start"]
        for a, b in sorted(children.get(key, ())):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[key] = (s["end"] - s["start"]) - covered
    return out


def layer_self_seconds(spans: Iterable[dict]) -> Dict[str, float]:
    """Total self time per layer, summed over ranks."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for s in spans:
        totals[s["layer"]] = (totals.get(s["layer"], 0.0)
                              + own[(s["rank"], s["id"])])
    return totals


def write_trace(path: Path, traces: Dict[str, List[dict]]) -> None:
    """``{"traces": {<trace name>: [span, ...]}}``; see README.md."""
    path.write_text(json.dumps({
        "clock": "time.perf_counter seconds (CLOCK_MONOTONIC)",
        "traces": traces,
    }))
