"""Mini-app configurations, including the paper's exact workloads.

The paper parameterizes CMT-bone by three knobs (Section IV): "degree
of the polynomial N - 1, number of elements per processor Nel, and the
number of MPI processes P".  :class:`CMTBoneConfig` captures those plus
the implementation choices under study (kernel variant, gs method), and
:meth:`CMTBoneConfig.fig7` reproduces the Fig. 7 problem setup
verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar, Optional, Tuple

from ..gs.autotune import SETUP_TRIALS
from ..mesh import BoxMesh, Partition, factor3

Coord = Tuple[int, int, int]


def _as_coord(v, name: str) -> Coord:
    if isinstance(v, int):
        return factor3(v)
    t = tuple(int(x) for x in v)
    if len(t) != 3 or any(x < 1 for x in t):
        raise ValueError(f"{name} must be an int or 3 positive ints, got {v}")
    return t  # type: ignore[return-value]


def _check_work_mode(mode: str) -> None:
    """Both mini-apps take ``"real"`` (numpy kernels on synthetic data)
    or ``"proxy"`` (modelled time only)."""
    if mode not in ("real", "proxy"):
        raise ValueError(f"work_mode must be real|proxy, got {mode}")


@dataclass(frozen=True)
class BrickConfig:
    """The problem shape both mini-apps share: N, Nel and P.

    ``local_shape`` is the per-rank element brick (the paper's "Local
    Element Distribution"); the global mesh is ``proc_shape *
    local_shape`` so every rank is identically loaded, exactly as in
    the paper's setups.
    """

    #: GLL points per direction (polynomial order + 1); paper: 5..25.
    n: int = 10
    #: Elements per rank as a 3-D brick (or an int to auto-factor).
    local_shape: Coord = (5, 5, 4)
    #: Processor grid (or None to factor the communicator size).
    proc_shape: Optional[Coord] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "local_shape", _as_coord(self.local_shape, "local_shape")
        )
        if self.proc_shape is not None:
            object.__setattr__(
                self, "proc_shape", _as_coord(self.proc_shape, "proc_shape")
            )

    @property
    def nel_local(self) -> int:
        lx, ly, lz = self.local_shape
        return lx * ly * lz

    def resolve_proc_shape(self, nranks: int) -> Coord:
        shape = self.proc_shape if self.proc_shape is not None else factor3(nranks)
        px, py, pz = shape
        if px * py * pz != nranks:
            raise ValueError(
                f"processor grid {shape} does not match {nranks} ranks"
            )
        return shape

    def build_partition(self, nranks: int) -> Partition:
        """Mesh + decomposition for ``nranks`` identically loaded ranks."""
        proc = self.resolve_proc_shape(nranks)
        global_shape = tuple(
            p * l for p, l in zip(proc, self.local_shape)
        )
        mesh = BoxMesh(shape=global_shape, n=self.n)  # periodic box
        return Partition(mesh=mesh, proc_shape=proc)

    def with_(self, **kw):
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **kw)


@dataclass(frozen=True)
class CMTBoneConfig(BrickConfig):
    """Configuration of one CMT-bone run."""

    #: Conserved components carried through the pipeline (CMT: 5).
    neq: int = 5
    #: Timesteps for :meth:`repro.core.cmtbone.CMTBone.run`.
    nsteps: int = 10
    #: RK stages per step (CMT-nek: 3-stage SSP).
    rk_stages: ClassVar[int] = 3
    #: Derivative-kernel variant ("fused" is what CMT-bone inherits;
    #: see repro.kir.library.VARIANT_SCHEDULE for the other names).
    kernel_variant: str = "fused"
    #: gs exchange method; None runs the setup-time auto-tuner.
    gs_method: Optional[str] = None
    #: Auto-tune trials per method.
    autotune_trials: ClassVar[int] = SETUP_TRIALS
    #: "real" executes the numpy kernels on synthetic data; "proxy"
    #: skips array math and only charges modelled time (for large P).
    work_mode: str = "real"
    #: Exchange all neq fields in one packed message per neighbour
    #: (gslib's gs_op_many) instead of one gs_op per field.
    pack_fields: bool = False
    #: Split-phase overlapped schedule: the gather-scatter exchange is
    #: posted right after ``full2face_cmt`` and finished *after* the
    #: ``add2s2`` update, so the update's compute hides the message
    #: flight time (see docs/virtual-time.md, "Overlap accounting").
    #: Mutually exclusive with ``pack_fields`` (the packed many-field
    #: exchange has no split-phase form and wins if both are set).
    overlap: bool = False
    #: Face-trace fields exchanged per RK stage.  Defaults to ``neq``
    #: (5); the validation study (repro.validation) shows the parent
    #: application exchanges 2*neq+1 = 11 traces (state + normal flux
    #: + wavespeed), so calibrated runs set 11 here.
    exchange_fields: Optional[int] = None
    #: Vector-reduction (allreduce) cadence in steps; 0 disables.
    monitor_every: int = 1
    #: Random seed for the synthetic fields.
    seed: int = 2015
    #: Fractional compute-load jitter across ranks (0 = perfectly
    #: balanced).  Real CMT-nek ranks are *not* balanced (particles,
    #: boundary work, OS noise); a nonzero value here produces the
    #: MPI_Wait-dominated profile of Figs. 8-9.
    compute_imbalance: float = 0.0
    #: Dynamic load balancing mode: "off", "auto" (threshold on the
    #: measured max/mean cost imbalance), "every" (fixed cadence), or
    #: "manual".  See :mod:`repro.lb` and docs/load-balancing.md.
    lb_mode: str = "off"
    #: Imbalance trigger for ``lb_mode="auto"``.
    lb_threshold: float = 1.10
    #: Rebalance cadence (steps) for ``lb_mode="every"``.
    lb_every: int = 0
    #: Minimum steps between rebalances (``auto`` hysteresis).
    lb_min_interval: int = 4

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_work_mode(self.work_mode)
        if self.nsteps < 0 or self.neq < 1:
            raise ValueError("nsteps/neq out of range")
        if self.lb_mode not in ("off", "auto", "every", "manual"):
            raise ValueError(
                f"lb_mode must be off|auto|every|manual, got {self.lb_mode}"
            )
        if self.lb_mode == "every" and self.lb_every < 1:
            raise ValueError("lb_mode='every' needs lb_every >= 1")

    def lb_policy(self):
        """The :class:`repro.lb.RebalancePolicy` these knobs describe,
        or None for ``lb_mode="off"`` (which imports no ``repro.lb``)."""
        if self.lb_mode == "off":
            return None
        from ..lb import RebalancePolicy

        return RebalancePolicy(
            mode=self.lb_mode,
            threshold=self.lb_threshold,
            every=self.lb_every,
            min_interval=self.lb_min_interval,
        )

    # -- paper workloads ---------------------------------------------------

    @classmethod
    def fig7(cls, **overrides) -> "CMTBoneConfig":
        """The Fig. 7 setup: P=256 as 8x8x4, 100 el/rank as 5x5x4, N=10."""
        base = cls(
            n=10,
            local_shape=(5, 5, 4),
            proc_shape=(8, 8, 4),
            nsteps=1,
            work_mode="proxy",
        )
        return base.with_(**overrides) if overrides else base


@dataclass(frozen=True)
class NekboneConfig(BrickConfig):
    """Configuration of the Nekbone comparator mini-app.

    Nekbone solves a Helmholtz-type SEM system with unpreconditioned
    conjugate gradients; its gather-scatter runs over the *continuous*
    (C0) numbering, so the same problem size produces a different
    communication structure than CMT-bone — the point of Fig. 7.
    """

    #: CG iterations per solve (nekbone default region).
    cg_iterations: int = 100
    gs_method: Optional[str] = None
    work_mode: str = "real"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_work_mode(self.work_mode)

    @classmethod
    def fig7(cls, **overrides) -> "NekboneConfig":
        """Same problem setup as CMT-bone's Fig. 7 run."""
        base = cls(
            n=10,
            local_shape=(5, 5, 4),
            proc_shape=(8, 8, 4),
            work_mode="proxy",
        )
        return base.with_(**overrides) if overrides else base
