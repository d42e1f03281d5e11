"""KernelLibrary: (program, N, Nel, variant) -> compiled callable.

This is the dispatch tier every tensor-product kernel in
:mod:`repro.kernels` (and the shock filter's modal transform) runs
through, and the one place a *variant name* is given a meaning
(:data:`VARIANT_SCHEDULE`):

* ``"fused"`` (the default) — the fully fused GEMM schedule;
* ``"basic"`` — the ``plane`` schedule, the paper's Fig. 6 "basic
  implementation" (one small 2-D product per pencil plane);
* ``"einsum"`` — numpy's contraction engine, the independent
  cross-check;
* ``"auto"`` — per-host autotuned: the first request for a given
  ``(program, n, nel)`` runs :func:`repro.kir.autotune.tune_program`
  (served from the persistent cache when warm) and pins the winner;
* ``"generated"`` — a Python-level spelling of ``"fused"`` kept for
  callers that predate the single path (``benchmarks/e2e``); the CLI
  does not offer it;
* a schedule name (``gemm``, ``plane``, ``einsum``, ``gemm_rev``) —
  that exact schedule, mostly for tests and benches.

Compiled callables are memoized, so steady-state dispatch is two dict
lookups per call.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from .ir import build_program
from .lower import DEFAULT_LOWERING, LoweredKernel, lower
from .passes import SCHEDULES, schedule

#: Schedule behind the default variant, and what ``auto`` is *priced*
#: as by the cost model (virtual time must not depend on the host).
DEFAULT_SCHEDULE = "gemm"

#: Variant name -> schedule; ``None`` = the per-host tuned winner.
VARIANT_SCHEDULE: Dict[str, Optional[str]] = {
    "fused": DEFAULT_SCHEDULE,
    "basic": "plane",
    "einsum": "einsum",
    "auto": None,
    "generated": DEFAULT_SCHEDULE,
}

#: The ``--kernel-variant`` choices: every variant but the alias.
CLI_VARIANTS = tuple(v for v in VARIANT_SCHEDULE if v != "generated")


def static_schedule(variant: str) -> str:
    """The schedule a variant (or schedule) name means without tuning.

    ``auto`` answers :data:`DEFAULT_SCHEDULE`; an unknown name raises
    the one ``ValueError`` every kernel entry point reports.
    """
    sched = VARIANT_SCHEDULE.get(variant, variant) or DEFAULT_SCHEDULE
    if sched not in SCHEDULES:
        raise ValueError(
            f"unknown kernel variant {variant!r}; variants: "
            f"{tuple(VARIANT_SCHEDULE)}, schedules: {tuple(SCHEDULES)}"
        )
    return sched


class KernelLibrary:
    """Resolve kernel requests to compiled generated callables."""

    def __init__(
        self,
        lowering: str = DEFAULT_LOWERING,
        cache_path: Optional[str] = None,
        use_cache: bool = True,
    ) -> None:
        self.lowering = lowering
        self.cache_path = cache_path
        self.use_cache = use_cache
        self._kernels: Dict[
            Tuple[str, int, Optional[int], str], LoweredKernel
        ] = {}
        self._tuned: Dict[Tuple[str, int, Optional[int], int], str] = {}
        # Serialises tuning and compilation: rank threads ask for the
        # same kernel at once, and concurrent tuners would time each
        # other's contention and write the cache twice.
        self._lock = threading.Lock()

    def resolve(
        self,
        program: str,
        n: int,
        nel: int,
        variant: str = "fused",
        m: Optional[int] = None,
    ) -> LoweredKernel:
        """Return the compiled kernel for one concrete problem.

        ``variant`` is a :data:`VARIANT_SCHEDULE` name or a schedule
        name.  ``nel`` only influences ``"auto"`` (the tuning key);
        the other variants compile one kernel per ``(program, n, m)``.
        """
        if variant == "auto":
            sched = self._tuned_schedule(program, n, nel, m)
        else:
            sched = static_schedule(variant)
        key = (program, n, m, sched)
        hit = self._kernels.get(key)
        if hit is None:
            with self._lock:
                hit = self._kernels.get(key)
                if hit is None:
                    prog = build_program(program, n, m=m)
                    hit = lower(schedule(prog, sched), self.lowering)
                    self._kernels[key] = hit
        return hit

    def _tuned_schedule(
        self, program: str, n: int, nel: int, m: Optional[int]
    ) -> str:
        tkey = (program, n, m, nel)
        sched = self._tuned.get(tkey)
        if sched is None:
            # Only this branch needs the tuner's json/tempfile.
            from .autotune import tune_program

            with self._lock:
                sched = self._tuned.get(tkey)
                if sched is None:
                    sched = tune_program(
                        build_program(program, n, m=m),
                        nel,
                        lowering=self.lowering,
                        cache_path=self.cache_path,
                        use_cache=self.use_cache,
                    ).schedule
                    self._tuned[tkey] = sched
        return sched


_DEFAULT: Optional[KernelLibrary] = None


def default_library() -> KernelLibrary:
    """Process-wide library used by the ``repro.kernels`` dispatchers."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = KernelLibrary()
    return _DEFAULT


def reset_default_library() -> None:
    """Forget the process-wide library (tests swap cache paths)."""
    global _DEFAULT
    _DEFAULT = None
