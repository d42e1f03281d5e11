"""``repro.core`` — the mini-apps: CMT-bone and its Nekbone comparator.

:class:`CMTBone` is the paper's primary contribution: a performance
proxy whose timestep is derivative kernels + ``full2face`` +
gather-scatter exchange + pointwise update, with setup-time gs
auto-tuning and built-in gprof/mpiP-style profiling.  :class:`Nekbone`
is the CG mini-app used as the comparison baseline in Fig. 7.
"""

from .cmtbone import CMTBone, CMTBoneResult, launch_cmtbone, run_cmtbone
from .config import CMTBoneConfig, NekboneConfig
from .nekbone import Nekbone, NekboneResult, run_nekbone
from .reports import (
    cmtbone_profile_report,
    dominant_region,
    fig7_rows,
    fig7_table,
    nekbone_profile_report,
)

__all__ = [
    "CMTBone",
    "CMTBoneConfig",
    "CMTBoneResult",
    "Nekbone",
    "NekboneConfig",
    "NekboneResult",
    "cmtbone_profile_report",
    "dominant_region",
    "fig7_rows",
    "fig7_table",
    "launch_cmtbone",
    "nekbone_profile_report",
    "run_cmtbone",
    "run_nekbone",
]
