"""Lagrangian point-particle tracking (the CMT-nek roadmap feature).

Section III-A: "In the following years complete multiphase coupling,
shock capturing, lagrangian point particle tracking, and real gas
models will be added."  This module implements the tracking substrate
ahead of that roadmap: tracer particles advected through the
spectral-element velocity field, with cross-rank migration running
over the crystal-router transport (:func:`repro.gs.crystal.route`) —
the same machinery gslib uses for its sparse all-to-all traffic.

The pieces:

* :class:`ParticleCloud` — positions + persistent ids on one rank;
* spectral interpolation of an element field at arbitrary points
  (tensor-product Lagrange basis, exact for the polynomial space);
* :class:`ParticleTracker` — locate / interpolate / advect (RK2) /
  migrate, on a periodic box partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..gs.crystal import route
from ..kernels.gll import gll_points, lagrange_basis_at
from ..mesh import Partition
from ..mpi import Comm, SUM

#: Call-site label for migration traffic.
SITE_MIGRATE = "particles:migrate"


@dataclass
class ParticleCloud:
    """Particles owned by one rank.

    ``ids`` are globally unique and persistent across migrations;
    ``pos`` is ``(n, 3)`` in physical coordinates.
    """

    ids: np.ndarray
    pos: np.ndarray

    def __post_init__(self) -> None:
        self.ids = np.asarray(self.ids, dtype=np.int64).reshape(-1)
        self.pos = np.asarray(self.pos, dtype=np.float64).reshape(-1, 3)
        if len(self.ids) != len(self.pos):
            raise ValueError(
                f"ids ({len(self.ids)}) and positions ({len(self.pos)}) "
                "must align"
            )

    def __len__(self) -> int:
        return len(self.ids)

    @staticmethod
    def empty() -> "ParticleCloud":
        return ParticleCloud(
            ids=np.empty(0, dtype=np.int64), pos=np.empty((0, 3))
        )

    @staticmethod
    def concatenate(clouds) -> "ParticleCloud":
        clouds = [c for c in clouds if len(c)]
        if not clouds:
            return ParticleCloud.empty()
        return ParticleCloud(
            ids=np.concatenate([c.ids for c in clouds]),
            pos=np.concatenate([c.pos for c in clouds]),
        )

    def select(self, mask: np.ndarray) -> "ParticleCloud":
        return ParticleCloud(ids=self.ids[mask], pos=self.pos[mask])


def interpolate_at(
    field: np.ndarray,
    ref_coords: np.ndarray,
    elements: np.ndarray,
) -> np.ndarray:
    """Evaluate element fields at reference-space points.

    ``field`` is ``(nel, N, N, N)``; ``ref_coords`` is ``(np, 3)`` in
    [-1, 1]^3; ``elements`` gives each point's local element.  Exact
    for polynomials of degree < N (the SEM basis property).
    """
    n = field.shape[1]
    lr = lagrange_basis_at(n, ref_coords[:, 0])   # (np, n)
    ls = lagrange_basis_at(n, ref_coords[:, 1])
    lt = lagrange_basis_at(n, ref_coords[:, 2])
    vals = field[elements]                        # (np, n, n, n)
    # Contract one axis at a time: cheap and cache-friendly.
    vals = np.einsum("pijk,pi->pjk", vals, lr)
    vals = np.einsum("pjk,pj->pk", vals, ls)
    return np.einsum("pk,pk->p", vals, lt)


class ParticleTracker:
    """Advect and migrate tracer particles on a partitioned box.

    ``partition`` may be the static brick :class:`Partition` or a
    load-balancer :class:`repro.lb.ElementAssignment` — anything with
    the vectorized ``owner_ranks`` / ``local_indices`` ownership
    surface.  :meth:`rebind` swaps the domain after a rebalance.
    """

    def __init__(self, comm: Comm, partition: Partition):
        mesh = partition.mesh
        if not all(mesh.periodic):
            raise NotImplementedError(
                "particle tracking currently requires a periodic box"
            )
        if partition.nranks != comm.size:
            raise ValueError(
                f"partition has {partition.nranks} ranks, comm has "
                f"{comm.size}"
            )
        self.comm = comm
        self.partition = partition
        self.mesh = mesh
        self._h = np.array(mesh.element_lengths)
        self._lengths = np.array(mesh.lengths)
        self._gll = np.asarray(gll_points(mesh.n))
        #: Cumulative count of particles shipped off-rank by
        #: :meth:`migrate` (this rank's sends).
        self.migrated_total = 0
        #: Number of collective :meth:`migrate` calls.
        self.migrate_calls = 0

    def rebind(self, domain) -> None:
        """Adopt a new ownership domain (after a rebalance).

        Only ownership changes; the mesh geometry must be identical.
        Callers migrate the particles afterwards (:meth:`migrate`
        reroutes everyone to their new owners).
        """
        if tuple(domain.mesh.shape) != tuple(self.mesh.shape):
            raise ValueError("rebind requires the same mesh")
        self.partition = domain

    # -- geometry ------------------------------------------------------

    def wrap(self, pos: np.ndarray) -> np.ndarray:
        """Apply periodic wrapping to physical positions."""
        return np.mod(pos, self._lengths[None, :])

    def locate(self, pos: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Positions -> (global element coords (np,3), ref coords).

        Reference coordinates lie in [-1, 1] within the element.
        """
        pos = self.wrap(pos)
        ecoords = np.floor(pos / self._h[None, :]).astype(np.int64)
        shape = np.array(self.mesh.shape)
        ecoords = np.minimum(ecoords, shape[None, :] - 1)  # x == L edge
        local = pos - ecoords * self._h[None, :]
        ref = 2.0 * local / self._h[None, :] - 1.0
        return ecoords, np.clip(ref, -1.0, 1.0)

    def owner_ranks(self, ecoords: np.ndarray) -> np.ndarray:
        """Owning rank of each element coordinate triple (vectorized)."""
        return self.partition.owner_ranks(ecoords)

    def local_indices(self, ecoords: np.ndarray) -> np.ndarray:
        """Local element index of each (locally owned) coordinate."""
        return self.partition.local_indices(self.comm.rank, ecoords)

    # -- field sampling ---------------------------------------------------

    def velocity_at(
        self, cloud: ParticleCloud, velocity: np.ndarray
    ) -> np.ndarray:
        """Interpolate a local velocity field at particle positions.

        ``velocity`` is ``(3, nel_local, N, N, N)``; every particle
        must currently be owned by this rank.
        """
        if len(cloud) == 0:
            return np.empty((0, 3))
        ecoords, ref = self.locate(cloud.pos)
        lidx = self.local_indices(ecoords)
        out = np.empty((len(cloud), 3))
        for c in range(3):
            out[:, c] = interpolate_at(velocity[c], ref, lidx)
        return out

    # -- advance ------------------------------------------------------------

    def advect(
        self,
        cloud: ParticleCloud,
        velocity: np.ndarray,
        dt: float,
    ) -> ParticleCloud:
        """One RK2 (midpoint) advection step, then migrate owners.

        The midpoint evaluation uses the local field: with a CFL-sane
        ``dt`` a particle moves well under one element per step, and
        the velocity field extends smoothly to the element boundary.
        Positions are wrapped periodically; particles that left this
        rank's brick travel to their new owner through the crystal
        router.  Collective.
        """
        if len(cloud):
            v1 = self.velocity_at(cloud, velocity)
            mid = ParticleCloud(
                ids=cloud.ids, pos=self.wrap(cloud.pos + 0.5 * dt * v1)
            )
            # Midpoint may cross the brick edge; clamp sampling to the
            # local field by wrapping only (owners change after the
            # full step).  Sample what we can locally:
            ecoords, _ = self.locate(mid.pos)
            owners = self.owner_ranks(ecoords)
            local_mask = owners == self.comm.rank
            v2 = np.empty_like(v1)
            if np.any(local_mask):
                v2[local_mask] = self.velocity_at(
                    mid.select(local_mask), velocity
                )
            # For midpoints that stepped off-rank, fall back to v1
            # (first-order locally; rare for CFL-sane dt).
            v2[~local_mask] = v1[~local_mask]
            new_pos = self.wrap(cloud.pos + dt * v2)
            moved = ParticleCloud(ids=cloud.ids, pos=new_pos)
        else:
            moved = ParticleCloud.empty()
        return self.migrate(moved)

    def migrate(self, cloud: ParticleCloud) -> ParticleCloud:
        """Send every particle to the rank owning its element.

        Traffic is attributed to the dedicated ``particles:migrate``
        call site, and each collective call records an informational
        ``PART_Migrate`` row (particles shipped off-rank as the count's
        bytes-free analogue, virtual seconds spent routing) so particle
        exchange cost is visible next to the ``LB_*`` sites in mpiP
        reports.
        """
        comm = self.comm
        if comm.size == 1:
            return cloud
        t0 = comm.clock.now
        if len(cloud):
            ecoords, _ = self.locate(cloud.pos)
            owners = self.owner_ranks(ecoords)
        else:
            owners = np.empty(0, dtype=np.int64)
        moved = int(np.count_nonzero(owners != comm.rank))
        # One record per particle: its id, its position the row.
        ids, pos = route(owners, cloud.ids, cloud.pos, comm, SITE_MIGRATE)
        self.migrated_total += moved
        self.migrate_calls += 1
        comm.profile.record(
            "PART_Migrate", SITE_MIGRATE, comm.clock.now - t0,
            moved * (cloud.ids.itemsize + 3 * cloud.pos.itemsize),
            informational=True,
        )
        return ParticleCloud(ids=ids, pos=pos)

    # -- diagnostics -----------------------------------------------------------

    def global_count(self, cloud: ParticleCloud) -> int:
        """Total particles across all ranks (one allreduce)."""
        return int(
            self.comm.allreduce(len(cloud), op=SUM, site="particles:count")
        )


def seed_particles(
    tracker: ParticleTracker,
    n_global: int,
    seed: int = 0,
) -> ParticleCloud:
    """Uniformly random particles, deterministically sharded by owner.

    Every rank draws the same global sample (same seed) and keeps the
    particles that land in its own brick, so ids are globally unique
    with no communication.
    """
    rng = np.random.default_rng(seed)
    pos = rng.random((n_global, 3)) * tracker._lengths[None, :]
    ids = np.arange(n_global, dtype=np.int64)
    ecoords, _ = tracker.locate(pos)
    owners = tracker.owner_ranks(ecoords)
    mask = owners == tracker.comm.rank
    return ParticleCloud(ids=ids[mask], pos=pos[mask])
