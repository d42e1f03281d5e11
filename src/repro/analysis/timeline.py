"""Per-rank execution timelines (text Gantt charts).

Section VI argues that modelling MPI_Wait "is hard to do with
analytical models and may require timing-based simulations".  The
virtual-time runtime *is* such a simulation; this module makes its
timing visible.  Each rank's
:class:`~repro.analysis.callgraph.CallGraphProfiler` records its
outermost phases as (rank, region, t0, t1) intervals, and this module
is the Gantt renderer: :func:`render_gantt` draws the classic
trace-viewer picture in plain text — compute bars interleaved with
communication gaps, rank by rank, so wait chains can be eyeballed.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple


class Interval(NamedTuple):
    """One recorded region occurrence on one rank.

    ``span`` marks an overlappable split-phase interval (recorded via
    :meth:`CallGraphProfiler.open_span`/``close_span``) that may coexist
    with ordinary region intervals on the same rank.  A named tuple: a
    rank-step records a dozen of them, at half a frozen dataclass's
    construction time and size.
    """

    rank: int
    name: str
    t0: float
    t1: float
    span: bool = False


def merge_timelines(
    per_rank: Sequence[Sequence[Interval]],
) -> List[Interval]:
    """All intervals from all ranks' lists, time-ordered."""
    out = [iv for intervals in per_rank for iv in intervals]
    out.sort(key=lambda iv: (iv.t0, iv.rank))
    return out


def _symbol_map(intervals: Sequence[Interval]) -> Dict[str, str]:
    """Stable one-character symbols per region name."""
    symbols = "abcdefghijklmnopqrstuvwxyz"
    names: List[str] = []
    for iv in intervals:
        if iv.name not in names:
            names.append(iv.name)
    return {
        name: symbols[i % len(symbols)] for i, name in enumerate(names)
    }


def render_gantt(
    intervals: Sequence[Interval],
    width: int = 72,
    t_range: Optional[Tuple[float, float]] = None,
) -> str:
    """Text Gantt chart: one row per rank, one column per time bin.

    Each cell shows the symbol of the region covering most of that
    bin; ``.`` marks idle/untracked time (usually a blocked wait).
    Bins covered by both a split-phase *span* (an in-flight exchange,
    see :meth:`CallGraphProfiler.open_span`) and an ordinary region show
    the dominant symbol in UPPERCASE, so overlapped communication reads
    directly off the chart.
    """
    if not intervals:
        return "(empty timeline)"
    if t_range is None:
        t_lo = min(iv.t0 for iv in intervals)
        t_hi = max(iv.t1 for iv in intervals)
    else:
        t_lo, t_hi = t_range
    span = max(t_hi - t_lo, 1e-30)
    dt = span / width
    ranks = sorted({iv.rank for iv in intervals})
    sym = _symbol_map(intervals)

    rows = []
    for rank in ranks:
        cover: List[Dict[str, float]] = [dict() for _ in range(width)]
        span_cover = [0.0] * width
        region_cover = [0.0] * width
        for iv in intervals:
            if iv.rank != rank:
                continue
            b0 = max(int((iv.t0 - t_lo) / dt), 0)
            b1 = min(int((iv.t1 - t_lo) / dt), width - 1)
            for b in range(b0, b1 + 1):
                bin_lo = t_lo + b * dt
                bin_hi = bin_lo + dt
                overlap = min(iv.t1, bin_hi) - max(iv.t0, bin_lo)
                if overlap > 0:
                    cover[b][iv.name] = cover[b].get(iv.name, 0.0) + overlap
                    if iv.span:
                        span_cover[b] += overlap
                    else:
                        region_cover[b] += overlap
        cells = []
        for b in range(width):
            if not cover[b]:
                cells.append(".")
            else:
                name = max(cover[b], key=cover[b].get)
                cell = sym[name]
                if span_cover[b] > 0 and region_cover[b] > 0:
                    cell = cell.upper()
                cells.append(cell)
        rows.append(f"rank {rank:4d} |{''.join(cells)}|")

    legend = "  ".join(f"{s}={name}" for name, s in sym.items())
    header = (
        f"t = [{t_lo:.3e}, {t_hi:.3e}] s, {width} bins of {dt:.3e} s   "
        "('.' = blocked/idle, UPPERCASE = overlapped regions)"
    )
    return "\n".join([header] + rows + [legend])
