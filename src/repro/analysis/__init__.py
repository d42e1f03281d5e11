"""``repro.analysis`` — profiling reports (gprof- and mpiP-style).

Turns the runtime's raw profiling data into the views the paper's
evaluation plots: the Fig. 4 call-graph/flat profile and the Figs. 8-10
MPI time/size breakdowns.
"""

from .callgraph import (
    CallGraphProfiler,
    RegionStats,
    call_graph,
    flat_profile,
    merge_profiles,
)
from .mpip import (
    fault_report,
    full_report,
    lb_report,
    message_size_report,
    mpi_fraction_report,
    op_share,
    summarize_compute,
    summarize_fractions,
    top_calls_report,
    wait_dominance,
)
from .tables import render_histogram, render_table
from .timeline import (
    Interval,
    merge_timelines,
    render_gantt,
)
from .traffic import hop_weighted_bytes

__all__ = [
    "CallGraphProfiler",
    "Interval",
    "RegionStats",
    "call_graph",
    "fault_report",
    "lb_report",
    "flat_profile",
    "full_report",
    "hop_weighted_bytes",
    "merge_profiles",
    "merge_timelines",
    "message_size_report",
    "mpi_fraction_report",
    "render_gantt",
    "render_histogram",
    "render_table",
    "op_share",
    "summarize_compute",
    "summarize_fractions",
    "top_calls_report",
    "wait_dominance",
]
