"""The numerical (interface) flux for the DG surface term.

The variational formulation (paper Eq. 2) carries a surface integral of
``(f - f*) . n`` where ``f*`` is "the numerical flux which is informed
by the physics of compressible flow".  The solver uses local
Lax-Friedrichs, which is *symmetric* in the two trace states: that is
what makes the scheme conservative (the two elements sharing a face
agree on ``f*`` exactly, including floating-point).
"""

from __future__ import annotations

import numpy as np


def lax_friedrichs(
    u_minus: np.ndarray,
    u_plus: np.ndarray,
    f_minus: np.ndarray,
    f_plus: np.ndarray,
    lam: np.ndarray,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Local Lax-Friedrichs (Rusanov) flux.

    ``f* = (f- + f+)/2 - lam/2 * (u+ - u-)`` with ``lam`` the pointwise
    maximum signal speed of the two traces.  ``u±``/``f±`` are ordered
    along the *axis* direction (not outward normals), so both sides
    compute identical values.  ``out`` receives ``f*`` and ``work`` the
    dissipation term; they may be ``f_plus`` and ``u_plus`` themselves
    (the solver's stage buffers), each operand being read before its
    storage is written.
    """
    out = np.add(f_minus, f_plus, out=out)
    out *= 0.5
    work = np.subtract(u_plus, u_minus, out=work)
    work *= 0.5 * lam
    out -= work
    return out


def numflux_flops(n: int, nel: int, ncomp: int = 5) -> float:
    """Cost model for the interface flux + SAT correction.

    ~30 flop-equivalents per face point per component: the Rusanov
    average/dissipation arithmetic, the SAT scaling, and the
    ``face2full`` accumulation.  Linear in ``nel`` so the overlapped
    schedule's subset charges sum to the blocking charge.
    """
    return 30.0 * ncomp * nel * 6 * n * n

