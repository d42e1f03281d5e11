"""Deterministic fault plans: what breaks, where, and when.

Production CMT-nek campaigns run for days at machine scale, where rank
failures, message loss, and degraded links are routine events rather
than exceptions.  A :class:`FaultPlan` is a declarative, fully
reproducible schedule of such events for the simulated runtime:

* :class:`CrashEvent` — kill one rank at a given global step or virtual
  time (the rank raises :class:`~repro.mpi.errors.RankCrashError`; every
  blocked peer receives :class:`~repro.mpi.errors.AbortError`);
* :class:`DropEvent` — drop messages on a link, either the *nth*
  message exactly (deterministic tests) or probabilistically with a
  seeded hash (chaos tests); the transport retries with exponential
  backoff charged to the virtual clock;
* :class:`DegradeEvent` — multiply the modelled transit time of a link
  (a flaky cable / congested switch).

Plans are built from a compact spec string (the CLI's ``--fault-spec``)
or programmatically; :meth:`FaultPlan.random` draws a seeded random
schedule for chaos sweeps.  Everything is a frozen value object so a
plan can be hashed, compared, pruned (:meth:`FaultPlan.without`) after
a crash fires, and replayed bit-for-bit.

Spec grammar
------------
::

    spec    := event (';' event)*
    event   := kind ':' key '=' value (',' key '=' value)*
    kind    := 'crash' | 'drop' | 'degrade'

    crash   := rank=<int> and one of step=<int> | time=<float>
    drop    := [src=<int>] [dst=<int>] and one of nth=<int> | p=<float>
    degrade := factor=<float> [src=<int>] [dst=<int>]

Omitted ``src``/``dst`` mean "any rank".  Examples::

    crash:rank=1,step=5
    crash:rank=0,time=2.5e-3
    drop:src=0,dst=1,nth=3            # 3rd message on link 0->1, once
    drop:p=0.02                       # 2% seeded loss on every link
    degrade:src=2,dst=3,factor=4      # link 2->3 four times slower
    crash:rank=1,step=5;drop:p=0.01   # events compose with ';'
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Tuple

from ..records import checked


@checked
class CrashEvent(NamedTuple):
    """Kill ``rank`` when it reaches ``step`` or virtual time ``time``.

    Exactly one trigger must be set.  ``step`` triggers fire at the top
    of the solver's step loop (before the step executes, global step
    numbering); ``time`` triggers fire at the first communication call
    whose clock reading is ``>= time``.  Each event fires at most once
    per :class:`~repro.faults.injector.FaultInjector`; the recovery
    loop prunes fired events before restarting.
    """

    rank: int
    step: Optional[int] = None
    time: Optional[float] = None

    def _check(self) -> None:
        if (self.step is None) == (self.time is None):
            raise ValueError(
                "CrashEvent needs exactly one of step= or time="
            )
        if self.rank < 0:
            raise ValueError("CrashEvent rank must be >= 0")

    def describe(self) -> str:
        trigger = (
            f"step={self.step}" if self.step is not None
            else f"time={self.time:g}"
        )
        return f"crash:rank={self.rank},{trigger}"


@checked
class DropEvent(NamedTuple):
    """Drop messages on the (``src`` -> ``dst``) link.

    ``nth`` drops exactly the nth message (1-based, counted in the
    link's send order) once — the deterministic form tests use.  ``p``
    drops each injection attempt independently with probability ``p``,
    decided by a seeded hash of (seed, src, dst, message, attempt), so
    the loss pattern is reproducible and independent of wall-clock
    thread scheduling.  Omitted endpoints match any rank.
    """

    src: Optional[int] = None
    dst: Optional[int] = None
    nth: Optional[int] = None
    p: float = 0.0

    def _check(self) -> None:
        if (self.nth is None) == (self.p == 0.0):
            raise ValueError("DropEvent needs exactly one of nth= or p=")
        if self.nth is not None and self.nth < 1:
            raise ValueError("DropEvent nth is 1-based (>= 1)")
        if not (0.0 <= self.p < 1.0):
            raise ValueError("DropEvent p must be in [0, 1)")

    def matches(self, src: int, dst: int) -> bool:
        return (self.src is None or self.src == src) and (
            self.dst is None or self.dst == dst
        )

    def describe(self) -> str:
        parts = []
        if self.src is not None:
            parts.append(f"src={self.src}")
        if self.dst is not None:
            parts.append(f"dst={self.dst}")
        parts.append(
            f"nth={self.nth}" if self.nth is not None else f"p={self.p:g}"
        )
        return "drop:" + ",".join(parts)


@checked
class DegradeEvent(NamedTuple):
    """Multiply the modelled transit time of a link by ``factor``."""

    factor: float
    src: Optional[int] = None
    dst: Optional[int] = None

    def _check(self) -> None:
        if self.factor < 1.0:
            raise ValueError("DegradeEvent factor must be >= 1")

    def matches(self, src: int, dst: int) -> bool:
        return (self.src is None or self.src == src) and (
            self.dst is None or self.dst == dst
        )

    def describe(self) -> str:
        parts = [f"factor={self.factor:g}"]
        if self.src is not None:
            parts.append(f"src={self.src}")
        if self.dst is not None:
            parts.append(f"dst={self.dst}")
        return "degrade:" + ",".join(parts)


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible schedule of crashes, drops, and degradations."""

    crashes: Tuple[CrashEvent, ...] = ()
    drops: Tuple[DropEvent, ...] = ()
    degrades: Tuple[DegradeEvent, ...] = ()
    #: Seed for every probabilistic decision (message drops).
    seed: int = 0

    # -- construction ---------------------------------------------------

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Build a plan from a ``--fault-spec`` string (see module docs)."""
        crashes, drops, degrades = [], [], []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            kind, _, body = chunk.partition(":")
            kind = kind.strip().lower()
            kv = _parse_kv(body, context=chunk)
            try:
                if kind == "crash":
                    crashes.append(CrashEvent(
                        rank=_take_int(kv, "rank", chunk, required=True),
                        step=_take_int(kv, "step", chunk),
                        time=_take_float(kv, "time", chunk),
                    ))
                elif kind == "drop":
                    drops.append(DropEvent(
                        src=_take_int(kv, "src", chunk),
                        dst=_take_int(kv, "dst", chunk),
                        nth=_take_int(kv, "nth", chunk),
                        p=_take_float(kv, "p", chunk) or 0.0,
                    ))
                elif kind == "degrade":
                    factor = _take_float(kv, "factor", chunk)
                    if factor is None:
                        raise ValueError("degrade needs factor=")
                    degrades.append(DegradeEvent(
                        factor=factor,
                        src=_take_int(kv, "src", chunk),
                        dst=_take_int(kv, "dst", chunk),
                    ))
                else:
                    raise ValueError(
                        f"unknown fault kind {kind!r} "
                        "(expected crash/drop/degrade)"
                    )
            except ValueError as exc:
                raise ValueError(
                    f"bad fault event {chunk!r}: {exc}"
                ) from None
            if kv:
                raise ValueError(
                    f"bad fault event {chunk!r}: "
                    f"unknown keys {sorted(kv)}"
                )
        return cls(
            crashes=tuple(crashes),
            drops=tuple(drops),
            degrades=tuple(degrades),
            seed=seed,
        )

    @classmethod
    def random(
        cls,
        seed: int,
        nranks: int,
        nsteps: int,
    ) -> "FaultPlan":
        """Draw a seeded random schedule for chaos testing: up to two
        crashes, a drop probability up to 5% and a link slowed up to 4x.

        Every draw comes from ``random.Random(seed)``, so the same seed
        always yields the same plan — a chaos sweep is just a loop over
        seeds, and any failing seed reproduces exactly.
        """
        rng = random.Random(seed)
        crashes = tuple(
            CrashEvent(
                rank=rng.randrange(nranks),
                step=rng.randrange(1, max(nsteps, 2)),
            )
            for _ in range(rng.randint(0, 2))
        )
        drops = []
        if rng.random() < 0.7:
            drops.append(DropEvent(p=rng.uniform(0.0, 0.05) or 1e-4))
        if rng.random() < 0.5 and nranks > 1:
            src = rng.randrange(nranks)
            dst = (src + 1 + rng.randrange(nranks - 1)) % nranks
            drops.append(DropEvent(
                src=src, dst=dst, nth=rng.randint(1, 50)
            ))
        degrades = []
        if rng.random() < 0.5 and nranks > 1:
            src = rng.randrange(nranks)
            dst = (src + 1 + rng.randrange(nranks - 1)) % nranks
            degrades.append(DegradeEvent(
                factor=rng.uniform(1.0, 4.0), src=src, dst=dst
            ))
        return cls(
            crashes=crashes,
            drops=tuple(drops),
            degrades=tuple(degrades),
            seed=seed,
        )

    # -- queries / derivation -------------------------------------------

    @property
    def events(self) -> tuple:
        """All scheduled events, crashes first."""
        return self.crashes + self.drops + self.degrades

    def without(self, *crash_events: CrashEvent) -> "FaultPlan":
        """Copy of this plan with the given crash events removed.

        The recovery loop disarms every crash that already fired before
        relaunching, so a restarted job does not die at the same step
        again — the simulated failure happened once.
        """
        gone = set(crash_events)
        return replace(
            self,
            crashes=tuple(c for c in self.crashes if c not in gone),
        )

    def check_ranks(self, nranks: int) -> None:
        """Reject an event that names a rank outside ``[0, nranks)``.

        Such an event never fires, and a run that ignores it looks like
        one that survived it.  Raises ``ValueError`` naming the event.
        """
        for event in self.events:
            named = (getattr(event, k, None) for k in ("rank", "src", "dst"))
            if any(r is not None and not 0 <= r < nranks for r in named):
                raise ValueError(
                    f"fault event {event.describe()!r} names a rank "
                    f"outside [0, {nranks})"
                )

    def spec(self) -> str:
        """Round-trippable spec string (``FaultPlan.parse(plan.spec())``)."""
        return ";".join(e.describe() for e in self.events)

    def describe(self) -> str:
        if not self.events:
            return "fault plan: (empty)"
        return (
            f"fault plan (seed={self.seed}): "
            + "; ".join(e.describe() for e in self.events)
        )


def drop_unit(seed: int, src: int, dst: int, msg: int, attempt: int) -> float:
    """Deterministic uniform [0, 1) for one (message, attempt) decision.

    A keyed hash rather than a stateful RNG: the decision depends only
    on the plan seed and the message's identity (link + per-link send
    index + retransmission attempt), never on the wall-clock order in
    which rank threads happen to send — the property that makes fault
    replay bitwise reproducible.
    """
    key = f"{seed}:{src}:{dst}:{msg}:{attempt}".encode()
    h = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(h, "little") / 2.0**64


# -- spec-string helpers ----------------------------------------------------


def _parse_kv(body: str, context: str) -> dict:
    kv = {}
    for pair in body.split(","):
        pair = pair.strip()
        if not pair:
            continue
        key, sep, value = pair.partition("=")
        if not sep or not key.strip() or not value.strip():
            raise ValueError(
                f"bad fault event {context!r}: expected key=value, "
                f"got {pair!r}"
            )
        kv[key.strip().lower()] = value.strip()
    return kv


def _take_int(kv: dict, key: str, context: str,
              required: bool = False) -> Optional[int]:
    if key not in kv:
        if required:
            raise ValueError(f"missing {key}=")
        return None
    raw = kv.pop(key)
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{key}={raw!r} is not an integer") from None


def _take_float(kv: dict, key: str, context: str) -> Optional[float]:
    if key not in kv:
        return None
    raw = kv.pop(key)
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{key}={raw!r} is not a number") from None
