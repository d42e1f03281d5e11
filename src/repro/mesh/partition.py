"""Domain decomposition: a 3-D processor grid over the element box.

Fig. 7 of the paper specifies its workload exactly in these terms::

    Number of processors: 256        Processor Distribution = 8, 8, 4
    Total elements = 25600           Element Distribution   = 40, 40, 16
    Elements per process = 100       Local Element Distrib. = 5, 5, 4

:class:`Partition` reproduces that decomposition: the global element
box is cut into equal bricks of ``lx x ly x lz`` local elements, one
brick per rank, ranks laid out lexicographically (x fastest) so that
rank order matches torus coordinates in
:class:`repro.perfmodel.topology.TorusTopology`.
"""

from __future__ import annotations

from typing import List, NamedTuple

import numpy as np

from ..records import checked
from .box import BoxMesh, Coord


def factor3(p: int) -> Coord:
    """Factor ``p`` into a near-cubic (px, py, pz) with px >= py >= pz.

    Greedy: repeatedly peel the largest prime factor onto the currently
    smallest dimension.  Good enough for the balanced processor grids
    mini-app studies use.
    """
    if p < 1:
        raise ValueError(f"process count must be >= 1, got {p}")
    dims = [1, 1, 1]
    for f in _prime_factors_desc(p):
        dims.sort()
        dims[0] *= f
    dims.sort(reverse=True)
    return tuple(dims)  # type: ignore[return-value]


def _prime_factors_desc(p: int) -> List[int]:
    out = []
    d = 2
    while d * d <= p:
        while p % d == 0:
            out.append(d)
            p //= d
        d += 1
    if p > 1:
        out.append(p)
    return sorted(out, reverse=True)


@checked
class Partition(NamedTuple):
    """Assignment of a :class:`BoxMesh` onto a 3-D processor grid."""

    mesh: BoxMesh
    proc_shape: Coord

    def _check(self) -> None:
        for e, p in zip(self.mesh.shape, self.proc_shape):
            if p < 1:
                raise ValueError(f"bad processor grid {self.proc_shape}")
            if e % p != 0:
                raise ValueError(
                    f"element grid {self.mesh.shape} not divisible by "
                    f"processor grid {self.proc_shape}"
                )

    # -- processor grid ----------------------------------------------------

    @property
    def nranks(self) -> int:
        px, py, pz = self.proc_shape
        return px * py * pz

    def rank_coords(self, rank: int) -> Coord:
        """Rank -> (cx, cy, cz) on the processor grid, x fastest."""
        px, py, pz = self.proc_shape
        if not (0 <= rank < self.nranks):
            raise ValueError(f"rank {rank} outside grid {self.proc_shape}")
        return rank % px, (rank // px) % py, rank // (px * py)

    # -- element distribution ------------------------------------------------

    @property
    def local_shape(self) -> Coord:
        """Local element brick per rank (Fig. 7's 'Local Element Distribution')."""
        return tuple(
            e // p for e, p in zip(self.mesh.shape, self.proc_shape)
        )  # type: ignore[return-value]

    @property
    def nel_local(self) -> int:
        lx, ly, lz = self.local_shape
        return lx * ly * lz

    def owner_ranks(self, ecoords: np.ndarray) -> np.ndarray:
        """Ranks owning the elements at global coords ``(k, 3)``."""
        ec = np.asarray(ecoords, dtype=np.int64)
        lx, ly, lz = self.local_shape
        px, py, _pz = self.proc_shape
        cx, cy, cz = ec[..., 0] // lx, ec[..., 1] // ly, ec[..., 2] // lz
        return cx + px * (cy + py * cz)

    def local_elements(self, rank: int) -> List[Coord]:
        """Global coords of this rank's elements, local-lex order."""
        cx, cy, cz = self.rank_coords(rank)
        lx, ly, lz = self.local_shape
        out = []
        for kz in range(lz):
            for ky in range(ly):
                for kx in range(lx):
                    out.append((cx * lx + kx, cy * ly + ky, cz * lz + kz))
        return out

    # -- boundary / interior split (overlap pipeline) ------------------------

    def boundary_mask(self, rank: int) -> np.ndarray:
        """Boolean mask (local-lex order) of *boundary* elements.

        An element is boundary iff it touches a face of the rank's local
        brick along an axis where the processor grid is actually cut
        (``proc_shape[a] > 1``) — only those faces carry cross-rank
        shared ids, so only those elements contribute to the
        gather-scatter messages.  On a 1-rank grid every element is
        interior.  The split-phase solver extracts boundary traces
        first, posts the exchange, then overlaps interior work with the
        in-flight messages.
        """
        lx, ly, lz = self.local_shape
        mask = np.zeros((lz, ly, lx), dtype=bool)
        for axis, (p, l) in enumerate(zip(self.proc_shape, self.local_shape)):
            if p <= 1:
                continue
            # mask is indexed (z, y, x); partition axes are (x, y, z).
            ax = 2 - axis
            lo = [slice(None)] * 3
            hi = [slice(None)] * 3
            lo[ax] = 0
            hi[ax] = l - 1
            mask[tuple(lo)] = True
            mask[tuple(hi)] = True
        return mask.ravel()

    def boundary_local_indices(self, rank: int) -> np.ndarray:
        """Local indices (local-lex order) of boundary elements."""
        return np.flatnonzero(self.boundary_mask(rank))

    def interior_local_indices(self, rank: int) -> np.ndarray:
        """Local indices (local-lex order) of interior elements."""
        return np.flatnonzero(~self.boundary_mask(rank))

    def describe(self) -> str:
        """Fig. 7-style setup block."""
        lx, ly, lz = self.local_shape
        ex, ey, ez = self.mesh.shape
        px, py, pz = self.proc_shape
        return (
            f"Number of processors: {self.nranks}\n"
            f"Number of elements per process = {self.nel_local}\n"
            f"Total elements = {self.mesh.nelgt}\n"
            f"Number of gridpoints per element = {self.mesh.n}\n"
            f"Dimensions = 3\n"
            f"Processor Distribution (x,y,z) = {px}, {py}, {pz}\n"
            f"Element Distribution (x,y,z) = {ex}, {ey}, {ez}\n"
            f"Local Element Distribution (x,y,z) = {lx}, {ly}, {lz}"
        )
