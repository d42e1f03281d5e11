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
arithmetic *operation by operation* (same IEEE adds in the same order),
and every message is priced from exact integer byte counts — the
crystal router's from the closed form of its typed record wire
(:mod:`repro.gs.crystal`) — so for all three methods the modeled
per-rank step time agrees with an executed run at the same rank count
to within floating-point noise (:data:`DEFAULT_TOLERANCES`).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.cmtbone import CMTBone
from ..core.config import CMTBoneConfig
from ..gs.crystal import message_nbytes
from ..kernels import counters
from ..perfmodel import MachineModel
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


@dataclass(frozen=True)
class ModeledTimeline:
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
    #: Per-rank checkpoint IO seconds (0 unless checkpoint_every set).
    io: np.ndarray
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


@dataclass(frozen=True)
class SampleExecution:
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


@dataclass(frozen=True)
class Agreement:
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


@dataclass(frozen=True)
class FaultExtrapolation:
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

    __slots__ = ("t", "comm", "hidden", "io", "messages", "wire_bytes")

    def __init__(self, nranks: int):
        self.t = np.zeros(nranks)
        self.comm = np.zeros(nranks)
        self.hidden = np.zeros(nranks)
        self.io = np.zeros(nranks)
        self.messages = 0
        self.wire_bytes = 0.0


@dataclass(frozen=True)
class _Wave:
    """One send/receive wave: aligned sender/receiver rank arrays.

    Receiver ``i`` gets one message from ``senders[i]``; overheads and
    transits are precomputed (they depend only on the static schedule,
    never on the evolving clock).  ``compute_after`` is an optional
    post-wave compute charge on the senders (the crystal router's
    pack/unpack memory pass).
    """

    senders: np.ndarray
    receivers: np.ndarray
    send_ovh: np.ndarray
    transit: np.ndarray
    nbytes: np.ndarray
    compute_after: Optional[np.ndarray] = None


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


def _coalesce(
    holder: np.ndarray, dest: np.ndarray, raw: np.ndarray, nranks: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge routing records sharing a (holder, destination) pair."""
    key = holder * nranks + dest
    uniq, inverse = np.unique(key, return_inverse=True)
    raw2 = np.bincount(inverse, weights=raw, minlength=len(uniq))
    return uniq // nranks, uniq % nranks, raw2


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
        if self.config.lb_policy().enabled:
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
        self,
        method: str,
        nranks: Optional[int] = None,
        checkpoint_every: int = 0,
    ) -> ModeledTimeline:
        """Modeled per-rank step timelines for ``method`` at ``nranks``."""
        if method not in GS_METHODS:
            raise VscaleError(
                f"unknown gs method {method!r}; choose from {GS_METHODS}"
            )
        p = self.nranks if nranks is None else int(nranks)
        key = (method, p, checkpoint_every)
        if key not in self._models:
            self._models[key] = self._evaluate(
                method, p, checkpoint_every
            )
        return self._models[key]

    def _evaluate(
        self, method: str, nranks: int, checkpoint_every: int
    ) -> ModeledTimeline:
        wall0 = time.perf_counter()
        cfg = self._config_for(nranks, method)
        sched = self.schedule(nranks)
        machine = self.machine
        net = machine.network
        o_recv = net.o_recv
        p = nranks
        ranks = np.arange(p, dtype=np.int64)

        # Per-rank deterministic load factors — same hash as CMTBone.
        h = (ranks * 2654435761) % (2**32) / 2**32
        lf = 1.0 + cfg.compute_imbalance * h

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
        k = sched.n_neighbors
        pw_transit = np.empty_like(pw_bytes)
        for j in range(k):
            pw_transit[:, j] = net.transit_batch(
                sched.nbr[:, j], ranks, pw_bytes[:, j]
            )
        crystal_waves = (
            self._crystal_waves(sched) if method == "crystal" else None
        )
        ar_waves_gs = (
            self._allreduce_waves(p, sched.dense_len * 8)
            if method == "allreduce"
            else None
        )
        ar_waves_mon = self._allreduce_waves(p, 8)

        def exchange_once(tl: _Timeline) -> None:
            if p == 1:
                return
            if method == "pairwise":
                self._replay_pairwise(
                    tl, sched, pw_ovh, pw_transit, pw_bytes, o_recv
                )
            elif method == "crystal":
                for wave in crystal_waves:
                    _replay_wave(tl, wave, o_recv)
            else:
                for wave in ar_waves_gs:
                    _replay_wave(tl, wave, o_recv)

        tl = _Timeline(p)
        ck_seconds = 0.0
        if checkpoint_every:
            state_bytes = 8.0 * neq * nel * n**3
            ck_seconds = machine.checkpoint_seconds(state_bytes)
        for istep in range(cfg.nsteps):
            for _stage in range(cfg.rk_stages):
                tl.t += deriv_lf
                tl.t += surface_lf
                if overlap and method == "pairwise" and p > 1:
                    self._replay_pairwise_overlap(
                        tl,
                        sched,
                        pw_ovh,
                        pw_transit,
                        pw_bytes,
                        o_recv,
                        nfields,
                        update_lf,
                        gs_local,
                    )
                elif overlap:
                    # Synchronous fallback: begin posts nothing, the
                    # update runs, and every field's blocking exchange
                    # happens at finish time.
                    tl.t += update_lf
                    for _ in range(nfields):
                        exchange_once(tl)
                        tl.t += gs_local
                else:
                    for _ in range(nfields):
                        exchange_once(tl)
                        tl.t += gs_local
                    tl.t += update_lf
            me = cfg.monitor_every
            if me and (istep + 1) % me == 0:
                for wave in ar_waves_mon:
                    _replay_wave(tl, wave, o_recv)
            if checkpoint_every and (istep + 1) % checkpoint_every == 0:
                # Extrapolation-only term (never part of validation):
                # all ranks sync at a checkpoint barrier, then write.
                tl.t[:] = tl.t.max()
                tl.t += ck_seconds
                tl.io += ck_seconds
        return ModeledTimeline(
            method=method,
            nranks=p,
            nsteps=cfg.nsteps,
            total=tl.t,
            comm=tl.comm,
            hidden_comm=tl.hidden,
            io=tl.io,
            messages=tl.messages,
            wire_bytes=tl.wire_bytes,
            model_wall_seconds=time.perf_counter() - wall0,
        )

    # -- per-method message schedules -----------------------------------

    @staticmethod
    def _replay_pairwise(
        tl: _Timeline,
        sched: StepSchedule,
        ovh: np.ndarray,
        transit: np.ndarray,
        nbytes: np.ndarray,
        o_recv: float,
    ) -> None:
        """Blocking pairwise exchange, every rank simultaneously.

        Sends are charged column-by-column (per-rank neighbour order),
        accumulating wire times with *sequential* adds — not a cumsum —
        so the float rounding matches the executed per-message charges
        exactly.  Waits fold in the same sorted-neighbour order.
        """
        p, k = sched.nbr.shape
        wire = np.empty((p, k))
        for j in range(k):
            col = ovh[:, j]
            tl.t += col
            tl.comm += col
            wire[:, j] = tl.t
        for j in range(k):
            q = sched.nbr[:, j]
            arrival = wire[q, sched.pos[:, j]] + transit[:, j]
            end = np.maximum(tl.t, arrival) + o_recv
            tl.comm += end - tl.t
            tl.t = end
        tl.messages += p * k
        tl.wire_bytes += float(nbytes.sum())

    @staticmethod
    def _replay_pairwise_overlap(
        tl: _Timeline,
        sched: StepSchedule,
        ovh: np.ndarray,
        transit: np.ndarray,
        nbytes: np.ndarray,
        o_recv: float,
        nfields: int,
        update_lf: np.ndarray,
        gs_local: float,
    ) -> None:
        """Split-phase schedule: post all fields, update, then finish.

        Mirrors ``gs_op_begin``/``gs_op_finish``: every field's sends
        are posted back-to-back (each opening its overlap window after
        its own posts), the update compute runs under the in-flight
        messages, and each finish charges only the still-exposed wait
        while crediting the hidden remainder.
        """
        p, k = sched.nbr.shape
        wires = np.empty((nfields, p, k))
        opens = np.empty((nfields, p))
        for f in range(nfields):
            for j in range(k):
                col = ovh[:, j]
                tl.t += col
                tl.comm += col
                wires[f, :, j] = tl.t
            opens[f] = tl.t
        tl.t += update_lf
        for f in range(nfields):
            wait_start = tl.t.copy()
            completion = np.full(p, -np.inf)
            for j in range(k):
                q = sched.nbr[:, j]
                arrival = wires[f][q, sched.pos[:, j]] + transit[:, j]
                end = np.maximum(tl.t, arrival) + o_recv
                tl.comm += end - tl.t
                tl.t = end
                completion = np.maximum(completion, arrival)
            tl.hidden += np.maximum(completion - opens[f], 0.0)
            tl.hidden -= np.maximum(completion - wait_start, 0.0)
            tl.t += gs_local
        tl.messages += nfields * p * k
        tl.wire_bytes += nfields * float(nbytes.sum())

    def _crystal_waves(self, sched: StepSchedule) -> List[_Wave]:
        """Static wave plan of one crystal-router exchange.

        Replays gslib's fold / hypercube-stage / unfold structure over
        flat (holder, destination, bytes) record arrays; message sizes
        are the record wire's own closed form.  The plan depends only
        on the schedule, so it is built once and replayed for every
        field of every stage.
        """
        p = sched.nranks
        net = self.machine.network
        pof2 = 1
        while pof2 * 2 <= p:
            pof2 *= 2
        rem = p - pof2
        k = sched.n_neighbors
        holder = np.repeat(np.arange(p, dtype=np.int64), k)
        dest = sched.nbr.ravel().astype(np.int64)
        raw = 16.0 * sched.msg_len.ravel().astype(np.float64)
        # Self-addressed records never travel; DG neighbours exclude
        # self already, so no filtering is needed here.
        waves: List[_Wave] = []
        if rem:
            high = holder >= pof2
            entries = np.bincount(
                holder[high] - pof2, minlength=rem
            )
            raw_out = np.bincount(
                holder[high] - pof2, weights=raw[high], minlength=rem
            )
            nbytes = message_nbytes(entries, raw_out)
            senders = np.arange(pof2, p, dtype=np.int64)
            receivers = np.arange(rem, dtype=np.int64)
            waves.append(
                _Wave(
                    senders=senders,
                    receivers=receivers,
                    send_ovh=net.send_overhead_batch(nbytes),
                    transit=net.transit_batch(
                        senders, receivers, nbytes
                    ),
                    nbytes=nbytes,
                )
            )
            holder = np.where(high, holder - pof2, holder)
            holder, dest, raw = _coalesce(holder, dest, raw, p)
        idx = np.arange(pof2, dtype=np.int64)
        bit = pof2 >> 1
        while bit:
            eff = np.where(dest >= pof2, dest - pof2, dest)
            mover = ((eff ^ holder) & bit) != 0
            entries = np.bincount(holder[mover], minlength=pof2)
            raw_out = np.bincount(
                holder[mover], weights=raw[mover], minlength=pof2
            )
            nbytes = message_nbytes(entries, raw_out)
            partner = idx ^ bit
            moved = raw_out + raw_out[partner]
            waves.append(
                _Wave(
                    senders=partner,
                    receivers=idx,
                    send_ovh=net.send_overhead_batch(nbytes)[partner],
                    transit=net.transit_batch(
                        partner, idx, nbytes[partner]
                    ),
                    nbytes=nbytes,
                    # Per-stage pack/unpack memory pass on every
                    # participant: comm.compute(mem_bytes=2*moved).
                    compute_after=(2.0 * moved[partner])
                    / self.machine.cpu.mem_bandwidth,
                )
            )
            holder = np.where(mover, holder ^ bit, holder)
            holder, dest, raw = _coalesce(holder, dest, raw, p)
            bit >>= 1
        if rem:
            high_dest = dest >= pof2
            entries = np.bincount(
                holder[high_dest], minlength=rem
            )
            raw_out = np.bincount(
                holder[high_dest], weights=raw[high_dest], minlength=rem
            )
            nbytes = message_nbytes(entries, raw_out)
            senders = np.arange(rem, dtype=np.int64)
            receivers = np.arange(pof2, p, dtype=np.int64)
            waves.append(
                _Wave(
                    senders=senders,
                    receivers=receivers,
                    send_ovh=net.send_overhead_batch(nbytes),
                    transit=net.transit_batch(
                        senders, receivers, nbytes
                    ),
                    nbytes=nbytes,
                )
            )
        return waves

    def _allreduce_waves(self, p: int, nbytes: int) -> List[_Wave]:
        """Static wave plan of one recursive-doubling allreduce.

        Mirrors ``Comm._allreduce_raw``: non-power-of-two fold onto
        ``pof2`` survivors, log2 doubling rounds (each survivor sends
        then receives from its partner), and the unfold push-back.
        Every message advertises the same payload size.
        """
        if p == 1:
            return []
        net = self.machine.network
        pof2 = 1
        while pof2 * 2 <= p:
            pof2 *= 2
        rem = p - pof2
        size = np.full(1, float(nbytes))
        waves: List[_Wave] = []

        def wave(senders: np.ndarray, receivers: np.ndarray) -> _Wave:
            nb = np.broadcast_to(size, senders.shape)
            return _Wave(
                senders=senders,
                receivers=receivers,
                send_ovh=net.send_overhead_batch(nb),
                transit=net.transit_batch(senders, receivers, nb),
                nbytes=nb,
            )

        if rem:
            even = np.arange(0, 2 * rem, 2, dtype=np.int64)
            odd = even + 1
            waves.append(wave(even, odd))
        newrank = np.arange(pof2, dtype=np.int64)
        world = np.where(newrank < rem, newrank * 2 + 1, newrank + rem)
        mask = 1
        while mask < pof2:
            partner_new = newrank ^ mask
            partner = np.where(
                partner_new < rem, partner_new * 2 + 1, partner_new + rem
            )
            waves.append(wave(partner, world))
            mask <<= 1
        if rem:
            even = np.arange(0, 2 * rem, 2, dtype=np.int64)
            odd = even + 1
            waves.append(wave(odd, even))
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
        """The fastest exchange method at the full virtual rank count."""
        ranked = sorted(
            ((self.model(m).step_seconds, m) for m in methods),
        )
        method = ranked[0][1]
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
        best: Tuple[float, str] = (float("inf"), "")
        for m in methods:
            timeline = self.model(m)
            step = timeline.step_seconds
            if step < best[0]:
                best = (step, m)
            frac = timeline.mpi_fraction_pct
            lines.append(
                f"  {m:<10s} step={step * 1e3:9.4f} ms  "
                f"MPI% mean={frac.mean():5.1f} max={frac.max():5.1f}  "
                f"msgs/step={timeline.messages // timeline.nsteps}  "
                f"model_wall={timeline.model_wall_seconds:.2f}s"
            )
        lines.append(f"  fastest: {best[1]}")
        if validate:
            lines.append("")
            lines.append(
                f"agreement at P={self.sample_nranks} "
                "(modeled vs executed):"
            )
            for m in methods:
                lines.append("  " + self.validate(m).describe())
        winner = best[1] or methods[0]
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
