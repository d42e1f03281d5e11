"""``repro.gs`` — the gather-scatter library (gslib abstraction).

Nearest-neighbour updates in Nek-family codes run through a
gather-scatter layer: ``gs_setup`` discovers which ranks share each
global GLL-point id (all-to-all discovery), and ``gs_op`` combines
shared values with one of three interchangeable exchange algorithms —
pairwise exchange, crystal router, or allreduce-onto-a-big-vector —
selected at setup by timing all three (paper, Section VI / Fig. 7).
"""

from .allreduce_method import exchange_allreduce
from .autotune import MethodTiming, choose_method, time_method, timing_table
from .crystal import exchange_crystal, route
from .handle import GSHandle, gs_setup
from .many import gs_op_many
from .ops import (
    METHOD_LABELS,
    METHODS,
    GSExchange,
    gs_op,
    gs_op_begin,
    gs_op_finish,
)
from .pairwise import exchange_pairwise

__all__ = [
    "GSExchange",
    "GSHandle",
    "METHODS",
    "METHOD_LABELS",
    "MethodTiming",
    "choose_method",
    "exchange_allreduce",
    "exchange_crystal",
    "exchange_pairwise",
    "gs_op",
    "gs_op_begin",
    "gs_op_finish",
    "gs_op_many",
    "gs_setup",
    "route",
    "time_method",
    "timing_table",
]
