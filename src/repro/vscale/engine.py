"""Virtual scale-out engine: sampled execution + vectorized timelines.

The paper's scaling questions ("which gather-scatter method wins at
P ranks?", "what MPI fraction does the monitor reach at 10^5 ranks?")
need rank counts far beyond what the simulated runtime can execute as
live threads or processes.  :class:`VirtualScaleEngine` answers them by
splitting the job in two:

* a small *sample* of ranks is executed for real through
  :class:`repro.mpi.Runtime` (any backend) — full physics, profiling
  and bitwise-reproducible field evolution; and
* the step timeline of **every** rank — 10^4-10^5 of them — is modeled
  analytically: per-rank compute charges from the kernel roofline and
  vectorized LogGP message schedules (pairwise / crystal-router /
  allreduce) evaluated as numpy array recurrences over the
  rank-symmetric exchange plan of :mod:`repro.vscale.schedule`.

The model is written to mirror the executed runtime's virtual-clock
arithmetic *operation by operation* (same IEEE adds in the same order).
The crystal router and the allreduce are not re-derived here: their
waves are the rows of the stage tables the executed code walks
(:func:`repro.gs.crystal.crystal_stages`,
:func:`repro.mpi.communicator.allreduce_stages`).  Every message is
priced from exact integer byte counts — the crystal router's from the
closed form of its typed record wire — so for all three methods the
modeled per-rank step time agrees with an executed run at the same rank
count to within floating-point noise (:data:`DEFAULT_TOLERANCES`).
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..core.cmtbone import CMTBone
from ..core.config import CMTBoneConfig
from ..gs.crystal import crystal_stages, message_nbytes
from ..kernels import counters
from ..mpi.communicator import allreduce_stages
from ..perfmodel import MachineModel, load_factor
from ..solver.surface import full2face_flops
from .schedule import StepSchedule, build_schedule

#: The three exchange strategies of the paper's Fig. 7 study.
GS_METHODS = ("pairwise", "crystal", "allreduce")

#: Modeled-vs-executed agreement tolerance per method (relative error on
#: per-rank step time): every schedule is priced from exact integer byte
#: counts, so the model reproduces the executed clock arithmetic to
#: float rounding.
DEFAULT_TOLERANCES: Dict[str, float] = dict.fromkeys(GS_METHODS, 1e-9)


class VscaleError(ValueError):
    """A workload shape the virtual scale-out engine cannot model."""


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------


class ModeledTimeline(NamedTuple):
    """Per-rank modeled step timeline at one (method, P) point."""

    method: str
    nranks: int
    nsteps: int
    #: Per-rank total virtual seconds of the step loop (+ monitor).
    total: np.ndarray
    #: Per-rank virtual seconds attributed to communication.
    comm: np.ndarray
    #: Per-rank comm seconds hidden under compute (overlap schedule).
    hidden_comm: np.ndarray
    #: Messages and advertised wire bytes across the whole job.
    messages: int
    wire_bytes: float
    #: Wall seconds the vectorized model itself took to evaluate.
    model_wall_seconds: float

    @property
    def compute(self) -> np.ndarray:
        return self.total - self.comm

    @property
    def step_seconds(self) -> float:
        """Job step time: the slowest rank's per-step virtual time."""
        return float(self.total.max()) / self.nsteps

    @property
    def mpi_fraction_pct(self) -> np.ndarray:
        """Per-rank modeled '% time in MPI' (mpiP Fig. 8 analogue)."""
        return 100.0 * self.comm / self.total


class SampleExecution(NamedTuple):
    """Results of really executing the sampled ranks."""

    nranks: int
    method: str
    backend: str
    #: Per-rank executed step-loop virtual seconds (setup excluded).
    step_totals: np.ndarray
    hidden_comm: np.ndarray
    #: blake2b digests of each rank's final conserved fields.
    digests: List[str]
    setup_stats: dict
    wall_seconds: float


class Agreement(NamedTuple):
    """Modeled-vs-executed comparison at the sampled rank count."""

    method: str
    nranks: int
    nsteps: int
    tolerance: float
    modeled: np.ndarray
    executed: np.ndarray
    modeled_hidden: np.ndarray
    executed_hidden: np.ndarray
    digests: List[str]
    schedule_mismatch: Optional[str]

    @property
    def rel_err(self) -> float:
        """Worst per-rank relative error of the modeled step total."""
        return float(
            np.max(np.abs(self.modeled - self.executed) / self.executed)
        )

    @property
    def hidden_err(self) -> float:
        """Hidden-comm error, normalized by the executed step total."""
        scale = float(self.executed.max())
        if scale <= 0.0:
            return 0.0
        return float(
            np.max(np.abs(self.modeled_hidden - self.executed_hidden))
            / scale
        )

    @property
    def ok(self) -> bool:
        return (
            self.schedule_mismatch is None
            and self.rel_err <= self.tolerance
            and self.hidden_err <= self.tolerance
        )

    def describe(self) -> str:
        state = "OK" if self.ok else "FAIL"
        msg = (
            f"[{state}] {self.method} P={self.nranks}: "
            f"rel_err={self.rel_err:.3e} "
            f"hidden_err={self.hidden_err:.3e} "
            f"(tolerance {self.tolerance:.1e})"
        )
        if self.schedule_mismatch:
            msg += f"; schedule mismatch: {self.schedule_mismatch}"
        return msg


class FaultExtrapolation(NamedTuple):
    """Young/Daly checkpoint economics at the modeled scale."""

    method: str
    nranks: int
    rank_mtbf_hours: float
    job_mtbf_seconds: float
    checkpoint_seconds: float
    interval_seconds: float
    interval_steps: int
    overhead_fraction: float
    step_seconds: float

    @property
    def effective_step_seconds(self) -> float:
        return self.step_seconds * (1.0 + self.overhead_fraction)


# ---------------------------------------------------------------------------
# internal: timeline state and static message plans
# ---------------------------------------------------------------------------


class _Timeline:
    """Mutable per-rank clock arrays while a model is being evaluated."""

    __slots__ = ("t", "comm", "hidden", "messages", "wire_bytes")

    def __init__(self, nranks: int):
        self.t = np.zeros(nranks)
        self.comm = np.zeros(nranks)
        self.hidden = np.zeros(nranks)
        self.messages = 0
        self.wire_bytes = 0.0


class _Wave:
    """One priced stage-table row: ``senders[i]`` sends ``receivers[i]``
    a message of ``nbytes[i]``.

    Overheads and transits are precomputed (they depend only on the
    static schedule, never on the evolving clock).  ``compute_after`` is
    an optional post-wave compute charge on the senders (the crystal
    router's pack/unpack memory pass).
    """

    __slots__ = (
        "senders", "receivers", "nbytes", "send_ovh", "transit",
        "compute_after",
    )

    def __init__(
        self, net, senders: np.ndarray, receivers: np.ndarray,
        nbytes: np.ndarray, compute_after: Optional[np.ndarray] = None,
    ):
        self.senders, self.receivers, self.nbytes = senders, receivers, nbytes
        self.send_ovh = net.send_overhead_batch(nbytes)
        self.transit = net.transit_batch(senders, receivers, nbytes)
        self.compute_after = compute_after


def _replay_wave(tl: _Timeline, wave: _Wave, o_recv: float) -> None:
    """Advance the timeline through one wave, executed-clock style.

    Every sender charges its injection overhead first (comm kind); a
    message's wire time is the sender's clock right after that charge.
    Each receiver then waits to ``max(own clock, arrival)`` and pays
    the drain overhead — the exact sequence of
    ``Comm._send_raw`` / ``Comm._complete_recv``.
    """
    tl.t[wave.senders] += wave.send_ovh
    tl.comm[wave.senders] += wave.send_ovh
    arrival = tl.t[wave.senders] + wave.transit
    t0 = tl.t[wave.receivers]
    end = np.maximum(t0, arrival) + o_recv
    tl.comm[wave.receivers] += end - t0
    tl.t[wave.receivers] = end
    if wave.compute_after is not None:
        tl.t[wave.senders] += wave.compute_after
    tl.messages += int(wave.senders.size)
    tl.wire_bytes += float(wave.nbytes.sum())


def _post_pairwise(
    tl: _Timeline, sched: StepSchedule, ovh: np.ndarray, nbytes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Post one field's pairwise sends on every rank at once.

    Sends are charged column-by-column (per-rank neighbour order),
    accumulating wire times with *sequential* adds — not a cumsum — so
    the float rounding matches the executed per-message charges
    exactly.  Returns the wire times and the clocks at which the
    field's overlap window opens.
    """
    p, k = sched.nbr.shape
    wires = np.empty((p, k))
    for j in range(k):
        col = ovh[:, j]
        tl.t += col
        tl.comm += col
        wires[:, j] = tl.t
    tl.messages += p * k
    tl.wire_bytes += float(nbytes.sum())
    return wires, tl.t.copy()


def _finish_pairwise(
    tl: _Timeline, sched: StepSchedule, transit: np.ndarray, o_recv: float,
    wires: np.ndarray, opened: np.ndarray,
) -> None:
    """Complete one posted field, as ``gs_op_finish`` does.

    Waits fold in the sorted-neighbour order; only the still-exposed
    wait is charged, and the flight since ``opened`` that the clock
    did not wait for is credited as hidden (none, when nothing ran
    between the post and the finish).
    """
    p, k = sched.nbr.shape
    wait_start = tl.t
    completion = np.full(p, -np.inf)
    for j in range(k):
        arrival = wires[sched.nbr[:, j], sched.pos[:, j]] + transit[:, j]
        end = np.maximum(tl.t, arrival) + o_recv
        tl.comm += end - tl.t
        tl.t = end
        completion = np.maximum(completion, arrival)
    tl.hidden += np.maximum(completion - opened, 0.0)
    tl.hidden -= np.maximum(completion - wait_start, 0.0)


def _coalesce(
    holder: np.ndarray, dest: np.ndarray, raw: np.ndarray, nranks: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge routing records sharing a (holder, destination) pair."""
    key = holder * nranks + dest
    uniq, inverse = np.unique(key, return_inverse=True)
    raw2 = np.bincount(inverse, weights=raw, minlength=len(uniq))
    return uniq // nranks, uniq % nranks, raw2


def _crystal_route(
    nranks: int, holder: np.ndarray, dest: np.ndarray, raw: np.ndarray
) -> Tuple[list, np.ndarray, np.ndarray]:
    """Move flat ``(holder, destination, raw bytes)`` records through
    :func:`~repro.gs.crystal.crystal_stages` by the executed rule: at
    each stage a sender passes its receiver the records whose
    destination differs from it in a bit of the mask, and records that
    meet on one ``(holder, destination)`` pair merge into one group.
    Returns per stage the groups and raw bytes each rank sends, and the
    records' final holders and destinations."""
    sent = []
    for _verb, _tag, mask, senders, receivers in crystal_stages(nranks):
        to = np.full(nranks, -1, dtype=np.int64)
        to[senders] = receivers
        mover = (to[holder] >= 0) & ((dest ^ holder) & mask != 0)
        src = holder[mover]
        sent.append((
            np.bincount(src, minlength=nranks),
            np.bincount(src, weights=raw[mover], minlength=nranks),
        ))
        holder = np.where(mover, to[holder], holder)
        holder, dest, raw = _coalesce(holder, dest, raw, nranks)
    return sent, holder, dest


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


def _sample_rank_main(comm, config: CMTBoneConfig) -> dict:
    """SPMD main for the sampled ranks (module-level: picklable).

    ``gs_setup`` discovery leaves every rank's clock at a slightly
    different time; the engine's model starts all virtual ranks from a
    *common* origin, so the sample run fences to the slowest rank's
    post-setup time (an uncharged shadow allreduce) before stepping —
    the same deterministic baseline, measured from ``t_start``.
    """
    from ..mpi import MAX

    bone = CMTBone(comm, config)
    with comm.shadow():
        t_start = comm.allreduce(comm.clock.now, op=MAX)
    comm.clock.synchronize(t_start, kind="comm")
    result = bone.run()
    digest = hashlib.blake2b(
        bone.u.tobytes(), digest_size=16
    ).hexdigest()
    return {
        "step_total": result.vtime_total - t_start,
        "hidden": result.vtime_hidden_comm,
        "digest": digest,
        "setup_stats": result.setup_stats,
    }


class VirtualScaleEngine:
    """Model a CMT-bone job at rank counts far beyond execution.

    Parameters
    ----------
    config:
        Workload description.  ``proc_shape`` may be left ``None`` (the
        partitioner factors any rank count) or set explicitly for the
        full virtual rank count.
    nranks:
        Virtual job size — up to 10^5 ranks.
    sample:
        How many ranks to *execute* for validation and physics
        fidelity (capped at ``nranks``).
    backend:
        Execution backend for the sample run (``"threads"``/``"procs"``
        /``"sockets"``).
    """

    def __init__(
        self,
        config: Optional[CMTBoneConfig] = None,
        nranks: int = 1024,
        machine: Optional[MachineModel] = None,
        sample: int = 16,
        backend: str = "threads",
    ):
        self.config = config or CMTBoneConfig()
        if self.config.pack_fields:
            raise VscaleError(
                "pack_fields uses gs_op_many, which has no vectorized "
                "timeline model; run with pack_fields=False"
            )
        if self.config.lb_policy() is not None:
            raise VscaleError(
                "dynamic load balancing breaks the rank symmetry the "
                "schedule model needs; run with lb_mode='off'"
            )
        if self.config.nsteps < 1:
            raise VscaleError("nsteps must be >= 1")
        if nranks < 1:
            raise VscaleError("nranks must be >= 1")
        if sample < 1:
            raise VscaleError("sample must be >= 1")
        self.nranks = int(nranks)
        self.machine = machine or MachineModel.default()
        self.sample_nranks = min(int(sample), self.nranks)
        self.backend = backend
        self._schedules: Dict[int, StepSchedule] = {}
        self._models: Dict[tuple, ModeledTimeline] = {}
        self._samples: Dict[str, SampleExecution] = {}

    # -- configuration plumbing -----------------------------------------

    def _config_for(self, nranks: int, method: str) -> CMTBoneConfig:
        """The workload pinned to ``method`` and runnable at ``nranks``.

        An explicit ``proc_shape`` sized for the full virtual job
        cannot partition the (smaller) sample, so it falls back to the
        automatic factorization — identical to what the executed sample
        run uses, keeping model and execution comparable.
        """
        cfg = self.config
        if cfg.proc_shape is not None:
            px, py, pz = cfg.proc_shape
            if px * py * pz != nranks:
                cfg = cfg.with_(proc_shape=None)
        return cfg.with_(gs_method=method)

    def schedule(self, nranks: Optional[int] = None) -> StepSchedule:
        """The (cached) analytic exchange plan at ``nranks``."""
        p = self.nranks if nranks is None else int(nranks)
        if p not in self._schedules:
            self._schedules[p] = build_schedule(
                self._config_for(p, "pairwise"), p
            )
        return self._schedules[p]

    # -- the vectorized timeline model ----------------------------------

    def model(
        self, method: str, nranks: Optional[int] = None
    ) -> ModeledTimeline:
        """Modeled per-rank step timelines for ``method`` at ``nranks``."""
        if method not in GS_METHODS:
            raise VscaleError(
                f"unknown gs method {method!r}; choose from {GS_METHODS}"
            )
        p = self.nranks if nranks is None else int(nranks)
        key = (method, p)
        if key not in self._models:
            self._models[key] = self._evaluate(method, p)
        return self._models[key]

    def _evaluate(self, method: str, nranks: int) -> ModeledTimeline:
        wall0 = time.perf_counter()
        cfg = self._config_for(nranks, method)
        sched = self.schedule(nranks)
        machine = self.machine
        net = machine.network
        o_recv = net.o_recv
        p = nranks
        ranks = np.arange(p, dtype=np.int64)

        # Per-rank deterministic load factors, as in CMTBone.
        lf = load_factor(ranks, cfg.compute_imbalance)

        # Compute charges (seconds), identical formulas to the phases
        # in repro.core.cmtbone.
        n, nel, neq = cfg.n, sched.nel, cfg.neq
        deriv = neq * counters.roofline_seconds(
            n, nel, machine, variant=cfg.kernel_variant
        )
        surface = machine.compute_seconds(
            flops=full2face_flops(n, nel, neq),
            mem_bytes=16.0 * neq * nel * 6 * n**2,
        )
        npts = neq * nel * n**3
        update = machine.compute_seconds(
            flops=2.0 * npts, mem_bytes=24.0 * npts
        )
        field_size = nel * 6 * n * n
        gs_local = machine.compute_seconds(
            flops=float(field_size),
            mem_bytes=2.0 * 8 * (field_size + sched.n_unique),
        )
        deriv_lf = deriv * lf
        surface_lf = surface * lf
        update_lf = update * lf

        nfields = cfg.exchange_fields or neq
        overlap = cfg.overlap  # pack_fields rejected at construction

        # Static message plans (clock-independent, reused every stage).
        pw_bytes = sched.pairwise_bytes()
        pw_ovh = net.send_overhead_batch(pw_bytes)
        pw_transit = np.empty_like(pw_bytes)
        for j in range(sched.n_neighbors):
            pw_transit[:, j] = net.transit_batch(
                sched.nbr[:, j], ranks, pw_bytes[:, j]
            )

        def allreduce(nbytes: int) -> List[_Wave]:
            # Every message of an allreduce carries the whole vector.
            return [
                _Wave(net, s, r, np.full(len(s), float(nbytes)))
                for *_, s, r in allreduce_stages(p)
            ]

        if method == "crystal":
            waves = self._crystal_waves(sched)
        elif method == "allreduce":
            waves = allreduce(sched.dense_len * 8)
        monitor_waves = allreduce(8)

        def post(tl: _Timeline) -> Tuple[np.ndarray, np.ndarray]:
            return _post_pairwise(tl, sched, pw_ovh, pw_bytes)

        def finish(tl: _Timeline, posted) -> None:
            _finish_pairwise(tl, sched, pw_transit, o_recv, *posted)

        def exchange_once(tl: _Timeline) -> None:
            if p == 1:
                return
            if method == "pairwise":
                finish(tl, post(tl))
            else:
                for wave in waves:
                    _replay_wave(tl, wave, o_recv)

        tl = _Timeline(p)
        for istep in range(cfg.nsteps):
            for _stage in range(cfg.rk_stages):
                tl.t += deriv_lf
                tl.t += surface_lf
                if overlap and method == "pairwise" and p > 1:
                    # gs_op_begin/gs_op_finish: every field posts, the
                    # update runs under the messages in flight, and each
                    # finish charges only the wait still exposed.
                    posted = [post(tl) for _ in range(nfields)]
                    tl.t += update_lf
                    for field_posted in posted:
                        finish(tl, field_posted)
                        tl.t += gs_local
                else:
                    # Blocking, or the synchronous fallback of overlap:
                    # begin posts nothing, the update runs, and every
                    # field's blocking exchange happens at finish time.
                    if overlap:
                        tl.t += update_lf
                    for _ in range(nfields):
                        exchange_once(tl)
                        tl.t += gs_local
                    if not overlap:
                        tl.t += update_lf
            me = cfg.monitor_every
            if me and (istep + 1) % me == 0:
                for wave in monitor_waves:
                    _replay_wave(tl, wave, o_recv)
        return ModeledTimeline(
            method=method,
            nranks=p,
            nsteps=cfg.nsteps,
            total=tl.t,
            comm=tl.comm,
            hidden_comm=tl.hidden,
            messages=tl.messages,
            wire_bytes=tl.wire_bytes,
            model_wall_seconds=time.perf_counter() - wall0,
        )

    # -- the crystal router's wave plan ---------------------------------

    def _crystal_waves(self, sched: StepSchedule) -> List[_Wave]:
        """Static wave plan of one crystal-router exchange.

        The schedule's ``(rank, neighbour, shared ids)`` records go
        through the router's stage table (:func:`_crystal_route`); each
        stage message is priced by the record wire's own closed form,
        and a rank that both sends and receives in a stage then pays the
        pack/unpack memory pass over what it moved, as the executed
        router does.  The plan depends only on the schedule, so it is
        built once and replayed for every field of every stage.
        """
        p = sched.nranks
        sent, _, _ = _crystal_route(
            p,
            np.repeat(np.arange(p, dtype=np.int64), sched.n_neighbors),
            sched.nbr.ravel().astype(np.int64),
            16.0 * sched.msg_len.ravel().astype(np.float64),
        )
        net, bw = self.machine.network, self.machine.cpu.mem_bandwidth
        waves: List[_Wave] = []
        for (*_, senders, receivers), (groups, out) in zip(
            crystal_stages(p), sent
        ):
            moved = out.copy()
            moved[receivers] += out[senders]
            swaps = np.isin(senders, receivers)
            waves.append(_Wave(
                net, senders, receivers,
                message_nbytes(groups[senders], out[senders]),
                np.where(swaps, 2.0 * moved[senders], 0.0) / bw,
            ))
        return waves

    # -- sampled execution and validation -------------------------------

    def execute_sample(self, method: str) -> SampleExecution:
        """Really run the sampled ranks (cached per method)."""
        if method not in GS_METHODS:
            raise VscaleError(
                f"unknown gs method {method!r}; choose from {GS_METHODS}"
            )
        if method not in self._samples:
            from ..mpi import Runtime

            cfg = self._config_for(self.sample_nranks, method)
            wall0 = time.perf_counter()
            rt = Runtime(
                nranks=self.sample_nranks,
                machine=self.machine,
                backend=self.backend,
            )
            outs = rt.run(_sample_rank_main, args=(cfg,))
            wall = time.perf_counter() - wall0
            self._samples[method] = SampleExecution(
                nranks=self.sample_nranks,
                method=method,
                backend=self.backend,
                step_totals=np.array([o["step_total"] for o in outs]),
                hidden_comm=np.array([o["hidden"] for o in outs]),
                digests=[o["digest"] for o in outs],
                setup_stats=outs[0]["setup_stats"],
                wall_seconds=wall,
            )
        return self._samples[method]

    def _check_schedule(self, setup_stats: dict) -> Optional[str]:
        """Compare the analytic schedule with an executed ``gs_setup``."""
        sched = self.schedule(self.sample_nranks)
        checks = [
            ("n_unique", sched.n_unique),
            ("n_shared", sched.n_shared),
            ("n_neighbors", sched.n_neighbors),
            ("max_gid", sched.max_gid),
            ("global_shared", sched.global_shared),
        ]
        for name, want in checks:
            have = setup_stats.get(name)
            if have != want:
                return f"{name}: executed {have} != modeled {want}"
        return None

    def validate(
        self, method: str, tolerance: Optional[float] = None
    ) -> Agreement:
        """Model vs executed agreement at the sampled rank count."""
        tol = (
            DEFAULT_TOLERANCES[method] if tolerance is None else tolerance
        )
        sample = self.execute_sample(method)
        timeline = self.model(method, nranks=self.sample_nranks)
        return Agreement(
            method=method,
            nranks=self.sample_nranks,
            nsteps=self.config.nsteps,
            tolerance=tol,
            modeled=timeline.total,
            executed=sample.step_totals,
            modeled_hidden=timeline.hidden_comm,
            executed_hidden=sample.hidden_comm,
            digests=sample.digests,
            schedule_mismatch=self._check_schedule(sample.setup_stats),
        )

    # -- sweeps, faults, reporting --------------------------------------

    def sweep(
        self,
        methods: Tuple[str, ...] = GS_METHODS,
        nranks_list: Optional[List[int]] = None,
    ) -> Dict[int, Dict[str, ModeledTimeline]]:
        """Model every (P, method) point of a what-if scaling study."""
        points = nranks_list or [self.nranks]
        return {
            p: {m: self.model(m, nranks=p) for m in methods}
            for p in points
        }

    def best_method(
        self, methods: Tuple[str, ...] = GS_METHODS
    ) -> Tuple[str, ModeledTimeline]:
        """The fastest exchange method at the full virtual rank count;
        on a tie, the first in ``methods``."""
        method = min(methods, key=lambda m: self.model(m).step_seconds)
        return method, self.model(method)

    def extrapolate_faults(
        self,
        method: str,
        rank_mtbf_hours: float = 5000.0,
    ) -> FaultExtrapolation:
        """Young/Daly checkpoint economics at the virtual scale.

        ``rank_mtbf_hours`` is the per-rank mean time between failures;
        the job-level MTBF shrinks with P, which is exactly why the
        checkpoint question only becomes interesting at vscale counts.
        """
        timeline = self.model(method)
        step = timeline.step_seconds
        cfg = self.config
        sched = self.schedule(self.nranks)
        state_bytes = 8.0 * cfg.neq * sched.nel * cfg.n**3
        ck = self.machine.checkpoint_seconds(state_bytes)
        job_mtbf = rank_mtbf_hours * 3600.0 / self.nranks
        tau = MachineModel.young_daly_interval(ck, job_mtbf)
        overhead = ck / tau + tau / (2.0 * job_mtbf)
        return FaultExtrapolation(
            method=method,
            nranks=self.nranks,
            rank_mtbf_hours=rank_mtbf_hours,
            job_mtbf_seconds=job_mtbf,
            checkpoint_seconds=ck,
            interval_seconds=tau,
            interval_steps=max(1, int(round(tau / step))),
            overhead_fraction=overhead,
            step_seconds=step,
        )

    def report(
        self,
        methods: Tuple[str, ...] = GS_METHODS,
        validate: bool = True,
        rank_mtbf_hours: Optional[float] = None,
    ) -> str:
        """Human-readable scale-out study (CLI ``vscale`` body)."""
        from ..analysis.mpip import modeled_fraction_report

        lines = [
            f"virtual scale-out: P={self.nranks} "
            f"(sample executed: {self.sample_nranks} ranks, "
            f"backend={self.backend})",
            f"machine: {self.machine.name}  "
            f"network: {self.machine.network.describe()}",
            "",
        ]
        for m in methods:
            timeline = self.model(m)
            step = timeline.step_seconds
            frac = timeline.mpi_fraction_pct
            lines.append(
                f"  {m:<10s} step={step * 1e3:9.4f} ms  "
                f"MPI% mean={frac.mean():5.1f} max={frac.max():5.1f}  "
                f"msgs/step={timeline.messages // timeline.nsteps}  "
                f"model_wall={timeline.model_wall_seconds:.2f}s"
            )
        winner, _ = self.best_method(methods)
        lines.append(f"  fastest: {winner}")
        if validate:
            lines.append("")
            lines.append(
                f"agreement at P={self.sample_nranks} "
                "(modeled vs executed):"
            )
            for m in methods:
                lines.append("  " + self.validate(m).describe())
        lines.append("")
        lines.append(
            modeled_fraction_report(
                self.model(winner).mpi_fraction_pct,
                title=f"% time in MPI (modeled, {winner})",
            )
        )
        if rank_mtbf_hours:
            fx = self.extrapolate_faults(
                winner, rank_mtbf_hours=rank_mtbf_hours
            )
            lines.append("")
            lines.append(
                f"faults: job MTBF {fx.job_mtbf_seconds:.1f}s at "
                f"P={fx.nranks}; checkpoint {fx.checkpoint_seconds:.3f}s "
                f"every {fx.interval_steps} steps "
                f"(Young/Daly tau={fx.interval_seconds:.1f}s); "
                f"overhead {100 * fx.overhead_fraction:.1f}% -> "
                f"effective step {fx.effective_step_seconds * 1e3:.4f} ms"
            )
        return "\n".join(lines)
