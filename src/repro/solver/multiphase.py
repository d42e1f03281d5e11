"""Two-way coupled particles — "complete multiphase coupling".

The first item of the CMT-nek roadmap (Section III-A) and the physics
in the project's name: momentum exchange between the carrier gas and a
dispersed particle phase.  The model is the standard point-particle
one:

* each computational particle carries mass ``m_p`` and velocity
  ``v_p`` and feels Stokes drag with response time ``tau_p``:
  ``dv_p/dt = (u_gas(x_p) - v_p) / tau_p`` (integrated exactly over a
  step, so stiff ``tau_p`` is unconditionally stable);
* the reaction force is deposited back onto the gas momentum (and its
  work onto the energy) over the particle's containing element
  (PSI-cell deposition — integral-exact, so the gas receives *exactly*
  the momentum the particles lose; conservation tested to roundoff;
  the pointwise exact-transpose deposit is also provided but is too
  stiff for direct forcing);
* particles migrate between ranks through the crystal router.

Gas-side application uses first-order operator splitting: advance the
gas with the DG solver, then apply the accumulated particle sources.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..kernels.gll import gll_weights, lagrange_basis_at
from ..mpi import SUM, Comm
from .particles import ParticleCloud, ParticleTracker
from .state import ENERGY, MX, FlowState


@dataclass
class InertialCloud:
    """Particles with velocity state (positions + ids via ParticleCloud)."""

    ids: np.ndarray
    pos: np.ndarray
    vel: np.ndarray

    def __post_init__(self) -> None:
        self.ids = np.asarray(self.ids, dtype=np.int64).reshape(-1)
        self.pos = np.asarray(self.pos, dtype=np.float64).reshape(-1, 3)
        self.vel = np.asarray(self.vel, dtype=np.float64).reshape(-1, 3)
        if not (len(self.ids) == len(self.pos) == len(self.vel)):
            raise ValueError("ids/pos/vel must align")

    def __len__(self) -> int:
        return len(self.ids)

    @staticmethod
    def empty() -> "InertialCloud":
        return InertialCloud(
            np.empty(0, dtype=np.int64), np.empty((0, 3)), np.empty((0, 3))
        )

    def as_tracer(self) -> ParticleCloud:
        return ParticleCloud(ids=self.ids, pos=self.pos)


def deposit_at(
    field: np.ndarray,
    values: np.ndarray,
    ref_coords: np.ndarray,
    elements: np.ndarray,
    weights3: np.ndarray,
    jvol: float,
) -> None:
    """Deposit point values as a density field (transpose of interp).

    In-place: ``field`` is ``(nel, N, N, N)``; each point contributes
    ``values[p] * l_i l_j l_k / (w_i w_j w_k J)`` to its element so the
    quadrature integral of the added density equals ``values[p]``
    exactly (partition of unity).

    Note: the ``1 / w`` factors make contributions near element
    corners very peaked — the classic point-deposition stiffness.  The
    two-way coupling uses :func:`deposit_uniform` (PSI-cell style)
    instead; this exact transpose is kept for adjoint-consistency uses.
    """
    n = field.shape[1]
    lr = lagrange_basis_at(n, ref_coords[:, 0])
    ls = lagrange_basis_at(n, ref_coords[:, 1])
    lt = lagrange_basis_at(n, ref_coords[:, 2])
    basis = np.einsum("pi,pj,pk->pijk", lr, ls, lt)
    contrib = values[:, None, None, None] * basis / (weights3[None] * jvol)
    np.add.at(field, elements, contrib)


def deposit_uniform(
    field: np.ndarray,
    values: np.ndarray,
    elements: np.ndarray,
    jvol: float,
) -> None:
    """Deposit point values uniformly over their containing element.

    PSI-cell (particle-source-in-cell) deposition: the density added to
    element ``e`` is ``sum(values in e) / element volume``, so the
    quadrature integral again equals the deposited total exactly, but
    without the corner-weight spikes of the exact transpose.
    """
    volume = 8.0 * jvol  # reference volume 8 x physical-per-reference J
    per_element = np.zeros(field.shape[0])
    np.add.at(per_element, elements, values)
    field += (per_element / volume)[:, None, None, None]


@dataclass
class CouplingStats:
    """Diagnostics accumulated by :meth:`TwoWayCoupling.step`."""

    momentum_to_gas: np.ndarray = None  # (3,)
    work_to_gas: float = 0.0

    def __post_init__(self):
        if self.momentum_to_gas is None:
            self.momentum_to_gas = np.zeros(3)


class TwoWayCoupling:
    """Drag-coupled particle phase for a :class:`CMTSolver` run."""

    def __init__(
        self,
        comm: Comm,
        tracker: ParticleTracker,
        tau_p: float,
        particle_mass: float,
    ):
        if tau_p <= 0 or particle_mass <= 0:
            raise ValueError("tau_p and particle_mass must be positive")
        self.comm = comm
        self.tracker = tracker
        self.tau_p = tau_p
        self.m_p = particle_mass
        mesh = tracker.mesh
        n = mesh.n
        w = np.asarray(gll_weights(n))
        self._w3 = (
            w[:, None, None] * w[None, :, None] * w[None, None, :]
        )
        jx, jy, jz = mesh.jacobian
        self._jvol = 1.0 / (jx * jy * jz)

    # -- particle kinematics --------------------------------------------

    def _gas_velocity_at(self, cloud: InertialCloud, velocity: np.ndarray
                         ) -> np.ndarray:
        return self.tracker.velocity_at(cloud.as_tracer(), velocity)

    def step(
        self,
        state: FlowState,
        cloud: InertialCloud,
        dt: float,
    ) -> Tuple[FlowState, InertialCloud, CouplingStats]:
        """One coupled step (call after the gas solver's own step).

        Exact drag relaxation, conservative force deposition, advection
        by the *particle* velocity, and rank migration.  Returns the
        updated gas state, the migrated cloud, and exchange stats.
        """
        stats = CouplingStats()
        unew = state.u.copy()
        if len(cloud):
            tracker = self.tracker
            u_gas = self._gas_velocity_at(cloud, state.velocity())
            decay = np.exp(-dt / self.tau_p)
            v_new = u_gas + (cloud.vel - u_gas) * decay
            dp = self.m_p * (v_new - cloud.vel)       # gained by particles
            # Deposit the reaction impulse on the gas momentum density
            # (PSI-cell: uniform over the containing element).
            ecoords, _ref = tracker.locate(cloud.pos)
            lidx = tracker.local_indices(ecoords)
            for c in range(3):
                deposit_uniform(unew[MX + c], -dp[:, c], lidx, self._jvol)
            # Work done on the gas by the drag reaction (use the mean
            # particle velocity over the step for 2nd-order energy).
            v_mid = 0.5 * (cloud.vel + v_new)
            work = -np.sum(dp * v_mid, axis=1)
            deposit_uniform(unew[ENERGY], work, lidx, self._jvol)
            stats.momentum_to_gas = -dp.sum(axis=0)
            stats.work_to_gas = float(work.sum())
            # Advect with the midpoint particle velocity.
            new_pos = tracker.wrap(cloud.pos + dt * v_mid)
            cloud = InertialCloud(ids=cloud.ids, pos=new_pos, vel=v_new)
        cloud = self.migrate(cloud)
        return FlowState(u=unew, eos=state.eos), cloud, stats

    def migrate(self, cloud: InertialCloud) -> InertialCloud:
        """Send particles (with velocity state) to their owner ranks."""
        comm = self.comm
        if comm.size == 1:
            return cloud
        from ..gs.crystal import route

        tracker = self.tracker
        if len(cloud):
            ecoords, _ = tracker.locate(cloud.pos)
            owners = tracker.owner_ranks(ecoords)
        else:
            owners = np.empty(0, dtype=np.int64)
        ids, data = route(
            owners, cloud.ids, np.concatenate([cloud.pos, cloud.vel], axis=1),
            comm, site="particles:migrate",
        )
        return InertialCloud(
            ids=ids,
            pos=np.ascontiguousarray(data[:, :3]),
            vel=np.ascontiguousarray(data[:, 3:]),
        )

    # -- diagnostics -----------------------------------------------------

    def total_particle_momentum(self, cloud: InertialCloud) -> np.ndarray:
        """Global particle momentum (3,) via allreduce."""
        local = self.m_p * cloud.vel.sum(axis=0) if len(cloud) else (
            np.zeros(3)
        )
        return np.asarray(self.comm.allreduce(local, op=SUM))

    def global_count(self, cloud: InertialCloud) -> int:
        return int(self.comm.allreduce(len(cloud), op=SUM))


def seed_inertial(
    tracker: ParticleTracker,
    n_global: int,
    vel: Tuple[float, float, float] = (0.0, 0.0, 0.0),
    seed: int = 0,
) -> InertialCloud:
    """Uniformly random inertial particles with a common initial velocity."""
    from .particles import seed_particles

    tracer = seed_particles(tracker, n_global, seed=seed)
    v = np.tile(np.asarray(vel, dtype=np.float64), (len(tracer), 1))
    return InertialCloud(ids=tracer.ids, pos=tracer.pos, vel=v)
