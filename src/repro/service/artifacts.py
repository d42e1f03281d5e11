"""Content-addressed cache of expensive per-job setup artifacts.

The dominant fixed cost of every CMT-bone job is its setup: the
``gs_setup`` discovery (an all-to-all over the simulated MPI), the
three-way exchange-method auto-tune, and the GLL operator builds.  Two
jobs with the same ``(mesh, N, P, gs method, kernel variant)`` redo
exactly the same work and — because the virtual-time model is
deterministic — charge exactly the same virtual seconds for it.  This
module caches that work inside a persistent service worker so the
second job skips it.

Keys are content hashes (:func:`artifact_key`) of the setup-relevant
configuration, so any config change produces a different key — there
is no invalidation protocol to get wrong.

Correctness contract (what makes a cache hit *bitwise* invisible):

* A per-rank :class:`SetupArtifact` snapshots the gather-scatter
  handle's pure plan, the auto-tune result, and the **absolute** clock
  and profiler state at the end of setup, captured on a rank whose
  clock was at zero.  Restoring into a fresh job (clock also at zero)
  therefore reproduces the exact post-setup state a cold run would
  reach — no delta arithmetic, no floating-point re-accumulation.
* Entries are published atomically only once **every** rank of the job
  has stored its artifact (:meth:`ArtifactCache.store`), and the
  hit/miss decision is taken once per job by the executor — never
  per-rank — so ranks can't diverge on whether setup communication
  happens (a partial entry from a dead job can otherwise deadlock a
  later one).
* Hits are refused when the consuming rank's clock is not at zero or
  fault injection is active (the executor handles the latter).

Disk spill (:class:`DiskArtifactStore`): a cache constructed with a
spill directory additionally *publishes* every complete entry to disk
and *fetches* entries it does not hold in memory from disk, so warm
setup artifacts survive a service restart and are shared across all
pool workers of one host.  The on-disk protocol is the one the kir
autotune cache uses (:mod:`repro.store`): each entry is one pickled
file named by its key, rank count and layout version, committed with
tmp + ``os.replace``, and a fetch opens exactly that file — so
concurrent workers publishing different keys never touch the same
file.  Only complete ``nranks`` entries are ever published — a partial
entry cannot exist on disk — and because
:meth:`SetupArtifact.apply` restores absolute state that pickle
round-trips exactly, a disk hit is as bitwise-invisible as a memory
hit (the advanced-clock refusal also survives the round trip
unchanged).
"""

from __future__ import annotations

import copy
import hashlib
import os
import pickle
import threading
import warnings
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Tuple, Union

from ..store import atomic_write, host_dir, read_entry

#: Layout version of what the entry files pickle, part of their name:
#: bump it whenever a pickled class (``GSHandle``, ``SetupArtifact``)
#: changes layout, so older spills read as cold instead of unpickling
#: into objects that lack the new attributes.  2: compiled gs plan;
#: 3: ``GSHandle`` without ``owners`` and ``shared_index``; 4: the
#: auto-tune table's ``MethodTiming`` rows are NamedTuples.
DISK_VERSION = 4


def artifact_key(
    mesh_shape: Tuple[int, ...],
    n: int,
    proc_shape: Tuple[int, ...],
    gs_method: Optional[str],
    kernel_variant: str,
) -> str:
    """Content hash of the setup-relevant configuration."""
    payload = repr((
        tuple(mesh_shape), int(n), tuple(proc_shape),
        gs_method or "auto", kernel_variant,
    ))
    return hashlib.blake2b(
        payload.encode("utf-8"), digest_size=12
    ).hexdigest()


def _clock_state(clock) -> Dict[str, float]:
    return {
        "now": clock.now,
        "compute_time": clock.compute_time,
        "comm_time": clock.comm_time,
        "hidden_comm_time": clock.hidden_comm_time,
        "retry_time": clock.retry_time,
    }


def _restore_clock(clock, state: Dict[str, float]) -> None:
    clock.now = state["now"]
    clock.compute_time = state["compute_time"]
    clock.comm_time = state["comm_time"]
    clock.hidden_comm_time = state["hidden_comm_time"]
    clock.retry_time = state["retry_time"]


@dataclass
class SetupArtifact:
    """One rank's share of a cached setup (see module docstring)."""

    #: The rank's :class:`~repro.gs.handle.GSHandle` with its ``comm``
    #: stripped — the plan arrays are a pure function of the numbering,
    #: so rebinding to a new job's communicator is sound.
    handle: object
    #: Exchange method stamped on the handle after auto-tune/override.
    method: str
    #: Auto-tune table (``None`` when the method was forced).
    autotune: Optional[dict]
    #: Absolute clock state at end of setup (captured from zero).
    clock_state: Dict[str, float] = field(default_factory=dict)
    #: mpiP-style profile records at end of setup.
    profile_records: dict = field(default_factory=dict)
    profile_mpi_time: float = 0.0
    #: Call-graph profiler region stats/edges covering setup.
    region_stats: dict = field(default_factory=dict)
    region_edges: dict = field(default_factory=dict)

    @classmethod
    def capture(cls, bone, comm) -> "SetupArtifact":
        """Snapshot a rank's post-setup state (cold path, clock-from-zero).

        ``bone`` is the :class:`~repro.core.cmtbone.CMTBone` instance
        that just finished its setup region.
        """
        handle = copy.copy(bone.handle)
        handle.comm = None
        handle.setup_stats = dict(bone.handle.setup_stats)
        return cls(
            handle=handle,
            method=bone.handle.method or "pairwise",
            autotune=(
                dict(bone.autotune) if bone.autotune is not None else None
            ),
            clock_state=_clock_state(comm.clock),
            profile_records=copy.deepcopy(comm.profile.records),
            profile_mpi_time=comm.profile.mpi_time,
            region_stats=copy.deepcopy(bone.profiler.stats),
            region_edges=dict(bone.profiler.edges),
        )

    def apply(self, bone, comm) -> None:
        """Restore this rank's post-setup state into a fresh job.

        Refuses to restore onto a clock that has already advanced —
        absolute-state restore is only exact from zero.
        """
        if comm.clock.now != 0.0 or comm.profile.records:
            raise RuntimeError(
                "setup artifacts restore absolute state and require a "
                "fresh rank (clock at zero, empty profile)"
            )
        handle = copy.copy(self.handle)
        handle.comm = comm
        handle.setup_stats = dict(self.handle.setup_stats)
        handle.method = self.method
        bone.handle = handle
        bone.autotune = (
            dict(self.autotune) if self.autotune is not None else None
        )
        _restore_clock(comm.clock, self.clock_state)
        comm.profile.records = copy.deepcopy(self.profile_records)
        comm.profile.mpi_time = self.profile_mpi_time
        bone.profiler.stats = copy.deepcopy(self.region_stats)
        bone.profiler.edges = dict(self.region_edges)


class CacheEntry(NamedTuple):
    """A published (complete) cache entry: one artifact per rank."""

    nranks: int
    ranks: Dict[int, SetupArtifact]
    method: str

    def artifact_for(self, rank: int) -> SetupArtifact:
        return self.ranks[rank]


@dataclass(eq=False, repr=False)
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Subset of ``hits`` that were served from the disk spill (the
    #: entry was not in this worker's memory).
    disk_hits: int = 0
    #: Complete entries this cache published to the disk spill.
    disk_stores: int = 0

    def snapshot(self) -> Dict[str, int]:
        return dict(vars(self))


class DiskArtifactStore:
    """Per-host on-disk spill of complete artifact-cache entries.

    Layout under ``root`` (one subdirectory per host fingerprint,
    :func:`repro.store.host_dir`, so a shared filesystem never mixes
    machines)::

        <root>/<host>/<key>-r<N>-v<DISK_VERSION>.pkl    pickled CacheEntry

    Each entry is committed with tmp + ``os.replace`` and read back
    with :func:`repro.store.read_entry`, so concurrent publishers of
    different keys never share a file.
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.host_dir = host_dir(os.fspath(root))

    def entry_path(self, key: str, nranks: int) -> str:
        return os.path.join(
            self.host_dir, f"{key}-r{nranks}-v{DISK_VERSION}.pkl"
        )

    def publish(self, key: str, entry: "CacheEntry") -> None:
        """Spill one *complete* entry."""
        if len(entry.ranks) != entry.nranks:
            raise ValueError(
                f"refusing to publish a partial entry for {key!r}: "
                f"{len(entry.ranks)}/{entry.nranks} ranks"
            )
        atomic_write(
            self.entry_path(key, entry.nranks), "wb",
            lambda fh: pickle.dump(
                entry, fh, protocol=pickle.HIGHEST_PROTOCOL
            ),
        )

    def fetch(self, key: str, nranks: int) -> Optional["CacheEntry"]:
        """Load a complete entry from disk, or None (never raises)."""

        def load(fh) -> CacheEntry:
            entry = pickle.load(fh)
            if not (
                isinstance(entry, CacheEntry)
                and entry.nranks == nranks
                and set(entry.ranks) == set(range(nranks))
                and all(
                    isinstance(a, SetupArtifact) for a in entry.ranks.values()
                )
            ):
                raise ValueError(f"not a complete {nranks}-rank entry")
            return entry

        return read_entry(
            self.entry_path(key, nranks), load, "artifact entry"
        )[0]


class ArtifactCache:
    """Artifact store for one persistent service worker.

    Complete entries live in ``_entries``; in-progress per-rank stores
    accumulate in ``_pending`` and are published atomically once all
    ``nranks`` shares arrive.  A lookup never sees a partial entry, so
    the executor's once-per-job hit/miss decision is safe.

    With ``disk`` set (a directory path or a
    :class:`DiskArtifactStore`), complete entries are additionally
    spilled to disk on publish, and a memory miss consults the disk
    spill before reporting a miss — so entries survive restarts and
    are shared across every worker of the host.
    """

    def __init__(
        self,
        disk: Optional[Union[str, os.PathLike, DiskArtifactStore]] = None,
    ) -> None:
        self._entries: Dict[str, CacheEntry] = {}
        self._pending: Dict[str, Dict[int, SetupArtifact]] = {}
        self._lock = threading.Lock()
        self.stats = CacheStats()
        if disk is None or isinstance(disk, DiskArtifactStore):
            self.disk = disk
        else:
            self.disk = DiskArtifactStore(disk)

    def lookup(self, key: str, nranks: int) -> Optional[CacheEntry]:
        """Complete entry for ``key`` (counted as hit), or None (miss).

        Checks memory first, then the disk spill; a disk hit is
        installed into memory (and counted in ``disk_hits``) so later
        lookups and the affinity router see it as warm.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.nranks == nranks:
                self.stats.hits += 1
                return entry
            if self.disk is not None:
                entry = self.disk.fetch(key, nranks)
                if entry is not None:
                    self._entries[key] = entry
                    self.stats.hits += 1
                    self.stats.disk_hits += 1
                    return entry
            self.stats.misses += 1
            return None

    def store(self, key: str, rank: int, artifact: SetupArtifact,
              nranks: int) -> None:
        """Add one rank's artifact; publish once all ranks are in."""
        with self._lock:
            if key in self._entries:
                return
            pending = self._pending.setdefault(key, {})
            pending[rank] = artifact
            self.stats.stores += 1
            if len(pending) == nranks:
                entry = CacheEntry(
                    nranks=nranks,
                    ranks=self._pending.pop(key),
                    method=artifact.method,
                )
                self._entries[key] = entry
                if self.disk is not None:
                    try:
                        self.disk.publish(key, entry)
                        self.stats.disk_stores += 1
                    except OSError as exc:
                        warnings.warn(
                            f"could not spill artifact {key!r} to "
                            f"{self.disk.host_dir!r}: {exc}",
                            RuntimeWarning,
                            stacklevel=2,
                        )

    def keys(self):
        with self._lock:
            return sorted(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
