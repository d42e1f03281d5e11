"""Run-level reporting: Fig. 7 tables and Fig. 4 profiles from results."""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..analysis.callgraph import flat_profile, merge_profiles
from ..analysis.tables import render_table
from ..gs import MethodTiming
from .cmtbone import CMTBoneResult
from .nekbone import NekboneResult


def fig7_rows(
    label: str, timings: Dict[str, MethodTiming],
    methods: Sequence[str] = ("pairwise", "crystal"),
) -> List[tuple]:
    """Rows of the Fig. 7 table for one mini-app."""
    from ..gs.ops import METHOD_LABELS

    return [
        (
            label,
            METHOD_LABELS[m],
            timings[m].avg,
            timings[m].mn,
            timings[m].mx,
        )
        for m in methods
        if m in timings
    ]


def fig7_table(
    cmtbone: Dict[str, MethodTiming],
    nekbone: Dict[str, MethodTiming],
    methods: Sequence[str] = ("pairwise", "crystal"),
) -> str:
    """The Fig. 7 comparison table (both mini-apps, avg/min/max)."""
    rows = fig7_rows("CMT-bone", cmtbone, methods) + fig7_rows(
        "Nekbone", nekbone, methods
    )
    return render_table(
        ["Mini-app", "All-to-all method", "Time (avg) s", "Time (min) s",
         "Time (max) s"],
        rows,
        floatfmt="{:.9f}",
    )


def cmtbone_profile_report(results: Sequence[CMTBoneResult]) -> str:
    """Merged Fig. 4-style flat profile over all ranks of a run."""
    merged = merge_profiles([r.profiler for r in results])
    return flat_profile(merged)


def nekbone_profile_report(results: Sequence[NekboneResult]) -> str:
    merged = merge_profiles([r.profiler for r in results])
    return flat_profile(merged)


def dominant_region(results: Sequence[CMTBoneResult]) -> str:
    """Name of the region with the largest merged self-time."""
    merged = merge_profiles([r.profiler for r in results])
    return max(merged.values(), key=lambda s: s.self_time).name
