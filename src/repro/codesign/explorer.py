"""Design-space exploration driver: run the mini-app on candidates.

"Mini-apps can also serve as a platform for fast algorithm design
space exploration" (abstract) and for "performance analysis on
notional future systems" (Section I).  :class:`Explorer` runs a fixed
CMT-bone workload against each candidate architecture, collects
virtual-time metrics, and ranks the candidates — the mini-app doing
exactly the co-design job it was built for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..analysis.mpip import summarize_fractions
from ..core.cmtbone import run_cmtbone
from ..core.config import CMTBoneConfig
from ..mpi.runtime import Runtime
from .candidates import Candidate


@dataclass(frozen=True)
class Evaluation:
    """Metrics from running the workload on one candidate."""

    candidate: Candidate
    step_time: float           # virtual seconds per timestep (max rank)
    compute_time: float        # per-step compute portion
    comm_time: float           # per-step communication portion
    mpi_pct_mean: float
    chosen_gs_method: str

    @property
    def name(self) -> str:
        return self.candidate.name

    @property
    def cost(self) -> float:
        return self.candidate.cost

    @property
    def comm_fraction(self) -> float:
        total = self.compute_time + self.comm_time
        return self.comm_time / total if total else 0.0


@dataclass
class Explorer:
    """Evaluate a CMT-bone workload across candidate architectures."""

    config: CMTBoneConfig
    nranks: int

    def evaluate(self, candidate: Candidate) -> Evaluation:
        """Run the workload on one candidate (fresh simulated job)."""
        runtime = Runtime(nranks=self.nranks, machine=candidate.machine)
        results = runtime.run(run_cmtbone, args=(self.config,))
        nsteps = max(self.config.nsteps, 1)
        worst = max(results, key=lambda r: r.vtime_total)
        profile = runtime.job_profile()
        mean_pct, _, _, _ = summarize_fractions(profile)
        return Evaluation(
            candidate=candidate,
            step_time=worst.vtime_total / nsteps,
            compute_time=worst.vtime_compute / nsteps,
            comm_time=worst.vtime_comm / nsteps,
            mpi_pct_mean=mean_pct,
            chosen_gs_method=worst.chosen_method,
        )

    def sweep(self, candidates: Sequence[Candidate]) -> List[Evaluation]:
        """Evaluate every candidate; order follows the input."""
        return [self.evaluate(c) for c in candidates]


@dataclass
class VscaleExplorer:
    """Design-space exploration through the virtual scale-out engine.

    :class:`Explorer` re-executes the full workload for every
    candidate, even when two candidates share the identical compute
    model and differ only in network parameters — pure waste, since the
    executed profile's compute charges cannot change.  This variant
    prices every candidate analytically with
    :class:`repro.vscale.VirtualScaleEngine` (so ``nranks`` can reach
    10^5) and executes at most **one** sample job per distinct compute
    model, reused across all of that model's network variations for
    the modeled-vs-executed agreement gate.  ``executed_jobs`` counts
    the actual sample runs — tests assert it stays at the number of
    distinct compute models, not the number of candidates.
    """

    config: CMTBoneConfig
    nranks: int
    sample: int = 16
    backend: str = "threads"
    methods: tuple = ("pairwise", "crystal", "allreduce")
    #: Gate each distinct compute model's engine on modeled-vs-executed
    #: agreement at the sample rank count (one executed job per model).
    validate: bool = True

    def __post_init__(self) -> None:
        self._engines: dict = {}
        self._validated: dict = {}
        self.executed_jobs = 0

    def _engine(self, machine):
        from ..vscale import VirtualScaleEngine

        if machine not in self._engines:
            self._engines[machine] = VirtualScaleEngine(
                self.config,
                nranks=self.nranks,
                machine=machine,
                sample=self.sample,
                backend=self.backend,
            )
        return self._engines[machine]

    def evaluate(self, candidate: Candidate) -> Evaluation:
        """Model one candidate; execute only for a new compute model."""
        engine = self._engine(candidate.machine)
        method, timeline = engine.best_method(self.methods)
        if self.validate:
            sig = candidate.machine.cpu
            if sig not in self._validated:
                agreement = engine.validate(method)
                self.executed_jobs += 1
                self._validated[sig] = agreement
                if not agreement.ok:
                    raise RuntimeError(
                        "virtual-scale model disagrees with execution "
                        f"for candidate {candidate.name!r}: "
                        + agreement.describe()
                    )
        nsteps = max(self.config.nsteps, 1)
        worst = int(timeline.total.argmax())
        return Evaluation(
            candidate=candidate,
            step_time=float(timeline.total[worst]) / nsteps,
            compute_time=float(timeline.compute[worst]) / nsteps,
            comm_time=float(timeline.comm[worst]) / nsteps,
            mpi_pct_mean=float(timeline.mpi_fraction_pct.mean()),
            chosen_gs_method=method,
        )

    def sweep(self, candidates: Sequence[Candidate]) -> List[Evaluation]:
        """Evaluate every candidate; order follows the input."""
        return [self.evaluate(c) for c in candidates]


def gs_method_crossover(
    config: CMTBoneConfig,
    nranks_list: Sequence[int],
    machine=None,
    methods: Sequence[str] = ("pairwise", "crystal", "allreduce"),
    sample: int = 16,
) -> List[tuple]:
    """Fig. 7 what-if: the winning gs method at each rank count.

    Returns ``(nranks, {method: step_seconds}, winner)`` rows from the
    vectorized model — rank counts far past the paper's 256 are cheap,
    which is the point: the crossover between pairwise and the crystal
    router (and allreduce's collapse with the dense global vector) can
    be mapped without a cluster.
    """
    from ..vscale import VirtualScaleEngine

    rows = []
    for p in nranks_list:
        engine = VirtualScaleEngine(
            config, nranks=p, machine=machine, sample=sample
        )
        times = {
            m: engine.model(m).step_seconds for m in methods
        }
        winner = min(times, key=times.get)
        rows.append((p, times, winner))
    return rows


def rank_by_speed(evals: Sequence[Evaluation]) -> List[Evaluation]:
    """Fastest first."""
    return sorted(evals, key=lambda e: e.step_time)


def speedup_table(
    evals: Sequence[Evaluation], baseline_name: str
) -> List[tuple]:
    """(name, step time, speedup vs baseline, comm fraction) rows."""
    by_name = {e.name: e for e in evals}
    if baseline_name not in by_name:
        raise KeyError(
            f"baseline {baseline_name!r} not among "
            f"{sorted(by_name)}"
        )
    base = by_name[baseline_name].step_time
    return [
        (e.name, e.step_time, base / e.step_time, e.comm_fraction)
        for e in rank_by_speed(evals)
    ]


def pareto_front(evals: Sequence[Evaluation]) -> List[Evaluation]:
    """Non-dominated candidates in (cost, step_time) space.

    A candidate is on the front if no other candidate is both cheaper
    and faster.  Returned sorted by cost.
    """
    out = []
    for e in evals:
        dominated = any(
            (o.cost < e.cost and o.step_time <= e.step_time)
            or (o.cost <= e.cost and o.step_time < e.step_time)
            for o in evals
        )
        if not dominated:
            out.append(e)
    return sorted(out, key=lambda e: e.cost)


def bottleneck(evaluation: Evaluation) -> str:
    """Coarse diagnosis: is this candidate compute- or comm-bound?"""
    return (
        "communication" if evaluation.comm_fraction > 0.5 else "compute"
    )
