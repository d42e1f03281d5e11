"""gprof-style call-graph profiling of the mini-app's compute regions.

Fig. 4 of the paper is a partial gprof call graph of CMT-bone showing
that "the majority of application time is spent in derivative
calculation (``ax_`` routine, for flux divergence)".  gprof needs
compiled binaries; this module gives the simulated mini-app the same
observability: code brackets named regions, the profiler tracks
*virtual* time (so reports are deterministic and platform-modelled),
nesting builds the call graph, and :func:`flat_profile` /
:func:`call_graph` render gprof-like reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..mpi.clock import VirtualClock


@dataclass(eq=False, repr=False)
class RegionStats:
    """Aggregate statistics for one named region."""

    name: str
    calls: int = 0
    total: float = 0.0       # inclusive virtual seconds
    child: float = 0.0       # virtual seconds inside nested regions

    @property
    def self_time(self) -> float:
        return self.total - self.child


class CallGraphProfiler:
    """Region-based hierarchical profiler over a virtual clock.

    Usage::

        prof = CallGraphProfiler(comm.clock)
        with prof.region("compute_rhs"):
            with prof.region("ax_"):
                ...  # derivative kernels

    Region entry/exit reads ``clock.now``; anything that advances the
    clock inside (modelled compute charges, communication waits) is
    attributed to the innermost open region.
    """

    def __init__(self, clock: VirtualClock):
        self._clock = clock
        self.stats: Dict[str, RegionStats] = {}
        #: (parent, child) -> (calls, inclusive seconds)
        self.edges: Dict[Tuple[str, str], Tuple[int, float]] = {}
        self._stack: List[Tuple[str, float]] = []

    def region(self, name: str) -> "_Region":
        """Bracket a named region; nests to build the call graph."""
        return _Region(self, name)


class _Region:
    """One :meth:`CallGraphProfiler.region` bracket: a slotted context
    manager, so entering and leaving cost two calls and no generator."""

    __slots__ = ("_prof", "_name", "_t0")

    def __init__(self, prof: CallGraphProfiler, name: str):
        self._prof = prof
        self._name = name

    def __enter__(self) -> None:
        prof = self._prof
        self._t0 = t0 = prof._clock.now
        prof._stack.append((self._name, t0))

    def __exit__(self, *exc) -> None:
        prof, name = self._prof, self._name
        prof._stack.pop()
        dt = prof._clock.now - self._t0
        st = prof.stats.get(name)
        if st is None:
            st = RegionStats(name=name)
            prof.stats[name] = st
        st.calls += 1
        st.total += dt
        if prof._stack:
            parent = prof._stack[-1][0]
            prof.stats.setdefault(
                parent, RegionStats(name=parent)
            ).child += dt
            calls, secs = prof.edges.get((parent, name), (0, 0.0))
            prof.edges[(parent, name)] = (calls + 1, secs + dt)


def merge_profiles(profiles: List[CallGraphProfiler]) -> Dict[str, RegionStats]:
    """Merge per-rank region stats (sums counts and times)."""
    merged: Dict[str, RegionStats] = {}
    for p in profiles:
        for name, st in p.stats.items():
            m = merged.get(name)
            if m is None:
                m = RegionStats(name=name)
                merged[name] = m
            m.calls += st.calls
            m.total += st.total
            m.child += st.child
    return merged


def flat_profile(stats: Dict[str, RegionStats]) -> str:
    """gprof-style flat profile: % time, self seconds, calls, name."""
    rows = sorted(stats.values(), key=lambda s: s.self_time, reverse=True)
    total = sum(s.self_time for s in rows) or 1.0
    lines = [
        f"{'% time':>7s} {'self s':>12s} {'total s':>12s} {'calls':>10s}  name"
    ]
    for s in rows:
        lines.append(
            f"{100.0 * s.self_time / total:7.2f} {s.self_time:12.6f} "
            f"{s.total:12.6f} {s.calls:10d}  {s.name}"
        )
    return "\n".join(lines)


def call_graph(
    profiles_or_edges,
) -> str:
    """Render the parent -> child call-graph edges (Fig. 4 style)."""
    if isinstance(profiles_or_edges, list):
        edges: Dict[Tuple[str, str], Tuple[int, float]] = {}
        for p in profiles_or_edges:
            for key, (c, t) in p.edges.items():
                c0, t0 = edges.get(key, (0, 0.0))
                edges[key] = (c0 + c, t0 + t)
    else:
        edges = profiles_or_edges
    by_parent: Dict[str, List[Tuple[str, int, float]]] = {}
    for (parent, child), (calls, secs) in edges.items():
        by_parent.setdefault(parent, []).append((child, calls, secs))
    lines = []
    for parent in sorted(by_parent):
        lines.append(parent)
        children = sorted(by_parent[parent], key=lambda x: x[2], reverse=True)
        for child, calls, secs in children:
            lines.append(
                f"    -> {child:<24s} calls={calls:<8d} incl={secs:.6f}s"
            )
    return "\n".join(lines)
