"""Physical boundary conditions for non-periodic box directions.

The mini-app snapshot runs periodic boxes, but CMT-nek's target
problems (explosive particle dispersal, shock-particle interaction)
live in walled and open domains.  The DG face machinery extends
naturally: a boundary face has no gs partner (its ids are unshared, so
the exchanged sum equals the local trace), and the numerical flux is
evaluated against a synthesized *ghost state* instead:

``wall``
    Inviscid slip wall: ghost = interior with the normal momentum
    reflected.  The resulting interface mass/energy fluxes vanish
    identically, so a closed box conserves mass and energy exactly
    while walls exert (physical) pressure forces.
``outflow``
    Transmissive/zero-gradient: ghost = interior; waves leave.  Only
    well-posed for supersonic exit; in long subsonic runs nothing
    anchors the exterior state and the box slowly drains (the classic
    extrapolation-BC "suck-out") — use a ``dirichlet`` ambient far
    field when long-time absorption is needed.
``dirichlet``
    Fixed exterior state (farfield/inflow): ghost = a prescribed
    constant state.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..mesh.topology import FACE_AXIS_SIDE, NFACES
from ..records import checked
from .flux import euler_flux, wavespeed
from .state import MX, NEQ

#: Supported boundary kinds.
KINDS = ("wall", "outflow", "dirichlet")


@checked
class BoundarySpec(NamedTuple):
    """Boundary condition for one side of one axis."""

    kind: str
    #: For ``dirichlet``: the exterior state as a 5-vector of conserved
    #: variables (rho, mx, my, mz, E).
    state: Optional[Tuple[float, float, float, float, float]] = None

    def _check(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown boundary kind {self.kind!r}; choose from {KINDS}"
            )
        if self.kind == "dirichlet":
            if self.state is None or len(self.state) != NEQ:
                raise ValueError(
                    "dirichlet boundaries need a 5-component state"
                )
        elif self.state is not None:
            raise ValueError(f"{self.kind} boundaries take no state")


#: Per-face boundary table: face index (0..5) -> BoundarySpec.
BoundaryTable = Dict[int, BoundarySpec]


class BoundaryHandler:
    """Applies ghost-state corrections to exchanged face traces."""

    def __init__(self, partition, rank: int, table: BoundaryTable):
        """``partition`` is a :class:`~repro.mesh.Partition` or an
        :class:`~repro.lb.ElementAssignment`: anything with a ``mesh``
        and ``local_elements(rank)``."""
        mesh = partition.mesh
        self.table = dict(table)
        coords = np.asarray(partition.local_elements(rank)).reshape(-1, 3)
        #: (nel, 6) — True where the face is a physical boundary: its
        #: axis is not periodic and the element sits at that end.
        self.mask = np.zeros((len(coords), NFACES), dtype=bool)
        for f, (axis, side) in enumerate(FACE_AXIS_SIDE):
            if not mesh.periodic[axis]:
                end = mesh.shape[axis] - 1 if side else 0
                self.mask[:, f] = coords[:, axis] == end
        #: ``(face, axis, spec, local elements on it)`` of every face
        #: this rank has on the physical boundary.
        self._faces = []
        for f in range(NFACES):
            axis, _side = FACE_AXIS_SIDE[f]
            sel = np.flatnonzero(self.mask[:, f])
            if len(sel) == 0:
                continue
            if f not in self.table:
                raise ValueError(
                    f"mesh has physical boundaries on face {f} "
                    f"(axis {axis}) but no boundary condition was given"
                )
            self._faces.append((f, axis, self.table[f], sel))
        #: ``(face, trace shape) -> (ghost, flux, wavespeed)`` of the
        #: Dirichlet faces: constants of the prescribed state, computed
        #: once and dropped with the handler (a rebalance builds a new one).
        self._dirichlet: Dict[tuple, tuple] = {}

    def add_ghost_traces(
        self,
        uf: np.ndarray,
        lam: np.ndarray,
        usum: np.ndarray,
        fsum: np.ndarray,
        lam_max: np.ndarray,
        eos,
    ) -> None:
        """Add the ghost contributions to the exchanged sums, in place.

        ``uf`` (5, nel, 6, N, N) and ``lam`` (nel, 6, N, N) are the
        local traces; ``usum``/``fsum``/``lam_max`` are the gs results,
        which on the unshared boundary ids still equal the local trace.
        Only boundary faces are read or written.
        """
        for f, axis, spec, sel in self._faces:
            if spec.kind == "dirichlet":
                key = (f, (NEQ, len(sel), *uf.shape[3:]))
                if key not in self._dirichlet:
                    ghost = np.empty(key[1], dtype=uf.dtype)
                    for c in range(NEQ):
                        ghost[c] = spec.state[c]
                    self._dirichlet[key] = _ghost_traces(ghost, eos, axis)
                ghost, gflux, glam = self._dirichlet[key]
            else:
                ghost = uf[:, sel, f]          # (5, nb, N, N), a copy
                if spec.kind == "wall":
                    ghost[MX + axis] = -ghost[MX + axis]
                ghost, gflux, glam = _ghost_traces(ghost, eos, axis)
            usum[:, sel, f] += ghost
            fsum[:, sel, f] += gflux
            # lam exchange is MAX; emulate with an increment that lifts
            # the local value where the ghost is faster.
            local = lam[sel, f]
            lam_max[sel, f] += np.maximum(glam, local) - local


def _ghost_traces(ghost: np.ndarray, eos, axis: int) -> tuple:
    """A ghost state with its flux and wavespeed along the face's axis."""
    return ghost, euler_flux(ghost, eos, axis), wavespeed(ghost, eos, axis)
