"""Element-to-rank assignment overlay over the static brick partition.

:class:`repro.mesh.partition.Partition` hard-wires ownership to a 3-D
brick decomposition.  Everything built on top of it — the DG face
numbering, the boundary handler — only ever asks four questions:
*what mesh is this*, *which elements do I own (in a canonical local
order)*, *who owns the element at these coords*, and *what is its
local index on its owner*.

:class:`ElementAssignment` answers the same questions from an explicit
``owner[element_id] -> rank`` table, so any ownership map produced by
the load balancer can be dropped into the existing machinery.  The
canonical local order is **ascending global lex id**, which for a
brick assignment coincides exactly with ``Partition.local_elements``
order (x fastest, then y, then z) — so the identity overlay built by
:meth:`from_partition` is layout-compatible with the static partition
and the first migration starts from a permutation-free baseline.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..mesh.box import BoxMesh, Coord
from .sfc import element_ids, id_to_coords


class ElementAssignment:
    """Explicit global-element-id -> rank ownership table.

    Parameters
    ----------
    mesh:
        The global element box.
    nranks:
        Number of ranks; every value in ``owner`` must be in
        ``[0, nranks)`` and every rank must own at least one element.
    owner:
        ``(mesh.nelgt,)`` integer array mapping element lex id
        (``ix + ex*(iy + ey*iz)``) to owning rank.
    """

    def __init__(self, mesh: BoxMesh, nranks: int, owner: np.ndarray):
        owner = np.ascontiguousarray(np.asarray(owner, dtype=np.int64))
        if owner.shape != (mesh.nelgt,):
            raise ValueError(
                f"owner table has shape {owner.shape}, expected "
                f"({mesh.nelgt},) for mesh {mesh.shape}"
            )
        if owner.size and (owner.min() < 0 or owner.max() >= nranks):
            raise ValueError(
                f"owner ranks outside [0, {nranks}): "
                f"[{owner.min()}, {owner.max()}]"
            )
        counts = np.bincount(owner, minlength=nranks)
        if np.any(counts == 0):
            empty = np.flatnonzero(counts == 0).tolist()
            raise ValueError(f"ranks {empty} own no elements")
        self.mesh = mesh
        self.nranks = int(nranks)
        self.owner = owner
        self._counts = counts
        # Canonical local order: ascending global lex id per rank.
        # order[start[r]:start[r+1]] are rank r's element ids, sorted.
        self._order = np.argsort(owner, kind="stable").astype(np.int64)
        self._start = np.concatenate(([0], np.cumsum(counts)))

    # -- construction --------------------------------------------------------

    @staticmethod
    def from_partition(partition) -> "ElementAssignment":
        """Identity overlay reproducing a brick partition's ownership."""
        mesh = partition.mesh
        ids = np.arange(mesh.nelgt, dtype=np.int64)
        coords = id_to_coords(mesh.shape, ids)
        owner = partition.owner_ranks(coords)
        return ElementAssignment(mesh, partition.nranks, owner)

    # -- ownership queries (Partition-compatible surface) --------------------

    def element_ids_of(self, rank: int) -> np.ndarray:
        """Global lex ids owned by ``rank``, in canonical local order."""
        self._check_rank(rank)
        return self._order[self._start[rank]:self._start[rank + 1]]

    def nel_of(self, rank: int) -> int:
        self._check_rank(rank)
        return int(self._counts[rank])

    def local_elements(self, rank: int) -> List[Coord]:
        """Global coords of this rank's elements, canonical order."""
        coords = id_to_coords(self.mesh.shape, self.element_ids_of(rank))
        return [tuple(c) for c in coords]

    def owner_ranks(self, ecoords: np.ndarray) -> np.ndarray:
        """Ranks owning the elements at global coords ``(k, 3)``."""
        return self.owner[element_ids(self.mesh.shape, ecoords)]

    # -- boundary / interior split (overlap pipeline) ------------------------

    def boundary_mask(self, rank: int) -> np.ndarray:
        """Boolean mask (canonical order) of cross-rank boundary elements.

        Unlike the brick partition's slab-based mask, this is computed
        from actual ownership adjacency: an element is boundary iff any
        of its six face neighbours (with periodic wrap) lives on another
        rank.  That is the exact set of elements carrying cross-rank
        shared face ids, so the split-phase overlap schedule remains
        valid for arbitrary assignments.
        """
        ids = self.element_ids_of(rank)
        coords = id_to_coords(self.mesh.shape, ids)
        mask = np.zeros(ids.size, dtype=bool)
        for axis in range(3):
            extent = self.mesh.shape[axis]
            for delta in (-1, 1):
                nb = coords.copy()
                nb[:, axis] += delta
                if self.mesh.periodic[axis]:
                    nb[:, axis] %= extent
                    valid = np.ones(ids.size, dtype=bool)
                else:
                    valid = (nb[:, axis] >= 0) & (nb[:, axis] < extent)
                if not valid.any():
                    continue
                nbids = element_ids(self.mesh.shape, nb[valid])
                sub = mask[valid]
                sub |= self.owner[nbids] != rank
                mask[valid] = sub
        return mask

    def boundary_local_indices(self, rank: int) -> np.ndarray:
        return np.flatnonzero(self.boundary_mask(rank))

    def interior_local_indices(self, rank: int) -> np.ndarray:
        return np.flatnonzero(~self.boundary_mask(rank))

    # -- serialization (checkpoint manifest interop) -------------------------

    def to_dict(self) -> Dict:
        """JSON-serializable form for the checkpoint manifest."""
        return {
            "nranks": self.nranks,
            "owner": self.owner.tolist(),
        }

    @staticmethod
    def from_dict(mesh: BoxMesh, payload: Dict) -> "ElementAssignment":
        return ElementAssignment(
            mesh,
            int(payload["nranks"]),
            np.asarray(payload["owner"], dtype=np.int64),
        )

    # -- misc ----------------------------------------------------------------

    def same_as(self, other: Optional["ElementAssignment"]) -> bool:
        return (
            other is not None
            and self.nranks == other.nranks
            and self.mesh.shape == other.mesh.shape
            and np.array_equal(self.owner, other.owner)
        )

    def describe(self) -> str:
        c = self._counts
        return (
            f"ElementAssignment: {self.mesh.nelgt} elements on "
            f"{self.nranks} ranks (per-rank min={int(c.min())} "
            f"max={int(c.max())} mean={c.mean():.2f})"
        )

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.nranks):
            raise ValueError(f"rank {rank} outside [0, {self.nranks})")
