"""Checkpoint / restart for distributed solver state.

Nek-family production runs live and die by restart files; a mini-app
ecosystem needs the same plumbing for long campaigns.  Checkpoints are
one ``.npz`` per rank plus a small JSON manifest that pins the mesh,
partition, and step metadata so restarts onto mismatched setups fail
loudly instead of silently corrupting physics.

Crash safety contract (relied on by the fault-injection recovery loop
in :func:`repro.solver.driver.run_with_recovery`): **the manifest's
existence certifies a complete checkpoint.**  Every rank file is
written to a temporary name and atomically renamed into place, all
ranks barrier after their files land, and only then does rank 0 write
the manifest — itself via temp file + atomic rename.  A crash at any
point during :func:`save_checkpoint` therefore leaves either the
previous complete checkpoint (old manifest, possibly some orphaned
temp files) or the new complete one, never a manifest pointing at
missing or stale rank files.  Corrupt or inconsistent rank files at
load time, and a corrupt manifest, raise :class:`CheckpointError`
naming the offending file.
"""

from __future__ import annotations

# ``zipfile`` decodes the member names of an ``.npz`` with this codec on
# its first read.  Ranks read checkpoints after their fork; import it
# with this module so that none of them imports it itself.
import encodings.cp437  # noqa: F401
import json
import pathlib
import zipfile
from typing import NamedTuple, Optional, Tuple

import numpy as np

from ..mesh import Partition
from ..mpi import Comm
from ..store import atomic_write
from .eos import IdealGas
from .state import FlowState

#: Manifest schema version.  (``vtime`` was added as an optional field
#: without bumping: old manifests read back with ``vtime=0.0``.)
FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint is missing, corrupt, or inconsistent.

    Raised with the offending file named in the message, instead of the
    raw ``FileNotFoundError``/``KeyError``/``BadZipFile`` that a torn or
    tampered checkpoint directory used to surface.
    """


class CheckpointInfo(NamedTuple):
    """Metadata stored in (and read back from) a checkpoint manifest."""

    step: int
    time: float
    nranks: int
    mesh_shape: Tuple[int, int, int]
    n: int
    proc_shape: Tuple[int, int, int]
    eos: dict
    #: Rank 0's virtual clock when the manifest was committed.  Used by
    #: the recovery loop to account lost work after a crash; 0.0 for
    #: checkpoints written before the field existed.
    vtime: float = 0.0
    #: Load-balancer element assignment active when the checkpoint was
    #: written (the raw ``ElementAssignment.to_dict()`` payload), or
    #: ``None`` for the static brick layout.  Restart restores the
    #: rebalanced layout before loading rank files (whose element
    #: counts reflect it).  Optional field; no format bump.
    assignment: Optional[dict] = None
    #: Identity of the job that wrote this checkpoint, or ``None`` for
    #: anonymous (pre-field) checkpoints.  Restarts pass the expected
    #: id so one job can never silently recover another job's state
    #: out of a shared directory.  Optional field; no format bump.
    job_id: Optional[str] = None


def _eos_to_dict(eos) -> dict:
    if isinstance(eos, IdealGas):
        return {"kind": "ideal", "gamma": eos.gamma, "r_gas": eos.r_gas}
    raise TypeError(f"cannot serialize EOS of type {type(eos).__name__}")


def _eos_from_dict(d: dict):
    kind = d.get("kind")
    if kind == "ideal":
        return IdealGas(gamma=d["gamma"], r_gas=d["r_gas"])
    raise ValueError(f"unknown EOS kind {kind!r} in checkpoint")


#: Fields every manifest carries, with the JSON types they load as.
_MANIFEST_FIELDS = (
    ("step", int), ("time", (int, float)), ("nranks", int),
    ("mesh_shape", list), ("n", int), ("proc_shape", list), ("eos", dict),
)


def _rank_file(directory: pathlib.Path, rank: int) -> pathlib.Path:
    return directory / f"state.{rank:05d}.npz"


def _manifest_file(directory: pathlib.Path) -> pathlib.Path:
    return directory / "manifest.json"


def _charge_io(comm: Comm, nbytes: int, site: str) -> None:
    """Charge modelled checkpoint I/O time to the rank's virtual clock."""
    seconds = comm.machine.checkpoint_seconds(nbytes)
    comm.compute(seconds=seconds)
    # Informational row: shows up in mpiP-style reports next to the
    # FAULT_* pseudo-ops without inflating the MPI time fraction.
    comm.profile.record("IO_Checkpoint", site, seconds, nbytes,
                        informational=True)


def checkpoint_namespace(directory, job_id: str) -> pathlib.Path:
    """Job-private checkpoint directory under a shared base directory.

    Two concurrent jobs recovering into one base directory would
    clobber each other's rank files and manifest; namespacing by job
    id keeps every job's checkpoint stream isolated.
    """
    return pathlib.Path(directory) / f"job-{job_id}"


def save_checkpoint(
    directory,
    comm: Comm,
    partition: Partition,
    state: FlowState,
    step: int = 0,
    time: float = 0.0,
    assignment=None,
    job_id: Optional[str] = None,
) -> CheckpointInfo:
    """Collectively write one checkpoint (rank files + manifest).

    Every rank writes its own state file atomically (temp + rename);
    after a barrier confirms *all* rank files are in place, rank 0
    commits the manifest, also atomically.  See the module docstring
    for the crash-safety contract.  Returns the manifest metadata.
    """
    directory = pathlib.Path(directory)
    if comm.rank == 0:
        directory.mkdir(parents=True, exist_ok=True)
    comm.barrier(site="checkpoint:enter")
    path = _rank_file(directory, comm.rank)
    # np.savez_compressed appends ".npz" to bare paths; the open file
    # handle of atomic_write keeps the temp name exact.
    atomic_write(
        str(path), "wb",
        lambda fh: np.savez_compressed(
            fh, u=state.u, rank=comm.rank, step=step, time=time
        ),
    )
    _charge_io(comm, state.u.nbytes, site="checkpoint:write")
    info = CheckpointInfo(
        step=step,
        time=time,
        nranks=comm.size,
        mesh_shape=tuple(partition.mesh.shape),
        n=partition.mesh.n,
        proc_shape=tuple(partition.proc_shape),
        eos=_eos_to_dict(state.eos),
        vtime=comm.time(),
        assignment=(
            assignment.to_dict() if assignment is not None else None
        ),
        job_id=job_id,
    )
    # All rank files must be durable before the manifest certifies them.
    comm.barrier(site="checkpoint:files")
    if comm.rank == 0:
        manifest = {
            "format_version": FORMAT_VERSION,
            "step": info.step,
            "time": info.time,
            "nranks": info.nranks,
            "mesh_shape": list(info.mesh_shape),
            "n": info.n,
            "proc_shape": list(info.proc_shape),
            "eos": info.eos,
            "vtime": info.vtime,
        }
        if info.assignment is not None:
            manifest["assignment"] = info.assignment
        if info.job_id is not None:
            manifest["job_id"] = info.job_id
        atomic_write(
            str(_manifest_file(directory)), "w",
            lambda fh: fh.write(json.dumps(manifest, indent=2)),
        )
    comm.barrier(site="checkpoint:commit")
    return info


def read_manifest(
    directory, expect_job_id: Optional[str] = None
) -> CheckpointInfo:
    """Read and validate a checkpoint manifest.

    When ``expect_job_id`` is given, a manifest written *by a
    different job* is rejected with :class:`CheckpointError` — a job
    must never silently recover another job's state out of a shared
    directory.  Manifests with no job id (written before the field
    existed, or by anonymous runs) are accepted unconditionally.
    A manifest that does not parse, lacks a field, holds one of the
    wrong type or names an unknown EOS raises :class:`CheckpointError`
    naming its path; a missing one raises ``FileNotFoundError`` (no
    checkpoint yet).
    """
    directory = pathlib.Path(directory)
    path = _manifest_file(directory)
    if not path.exists():
        raise FileNotFoundError(f"no checkpoint manifest at {path}")
    try:
        m = json.loads(path.read_text())
        if not isinstance(m, dict):
            raise TypeError(f"top level is a JSON {type(m).__name__}")
        if m.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"format {m.get('format_version')} != {FORMAT_VERSION}"
            )
        for key, kind in _MANIFEST_FIELDS:
            if not isinstance(m[key], kind):
                raise TypeError(f"{key!r} is a {type(m[key]).__name__}")
        _eos_from_dict(m["eos"])
    except (ValueError, TypeError, KeyError) as exc:
        raise CheckpointError(
            f"checkpoint manifest {path} is corrupt: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    found = m.get("job_id")
    if (
        expect_job_id is not None
        and found is not None
        and found != expect_job_id
    ):
        raise CheckpointError(
            f"checkpoint at {directory} belongs to job {found!r}, "
            f"not job {expect_job_id!r}"
        )
    return CheckpointInfo(
        step=m["step"],
        time=m["time"],
        nranks=m["nranks"],
        mesh_shape=tuple(m["mesh_shape"]),
        n=m["n"],
        proc_shape=tuple(m["proc_shape"]),
        eos=m["eos"],
        vtime=m.get("vtime", 0.0),
        assignment=m.get("assignment"),
        job_id=found,
    )


def assignment_from_info(info: CheckpointInfo, partition: Partition):
    """Rebuild the manifest's element assignment, or ``None`` (brick).

    Restarting a rebalanced run must restore the layout the rank files
    were written in; callers hand the result to
    :meth:`repro.solver.driver.CMTSolver.restore_assignment`.
    """
    if info.assignment is None:
        return None
    from ..lb import ElementAssignment

    return ElementAssignment.from_dict(partition.mesh, info.assignment)


def load_checkpoint(
    directory,
    comm: Comm,
    partition: Partition,
    expect_job_id: Optional[str] = None,
) -> Tuple[FlowState, CheckpointInfo]:
    """Collectively restore a checkpoint written by :func:`save_checkpoint`.

    The partition must match the one the checkpoint was written with
    (same mesh, same processor grid, same rank count) — restart onto a
    different decomposition is refused explicitly, as is a manifest
    belonging to a different job (see :func:`read_manifest`).
    """
    directory = pathlib.Path(directory)
    info = read_manifest(directory, expect_job_id=expect_job_id)
    if info.nranks != comm.size:
        raise ValueError(
            f"checkpoint has {info.nranks} ranks, communicator has "
            f"{comm.size}"
        )
    if info.mesh_shape != tuple(partition.mesh.shape) or info.n != (
        partition.mesh.n
    ):
        raise ValueError(
            f"checkpoint mesh {info.mesh_shape}/N={info.n} does not match "
            f"partition mesh {partition.mesh.shape}/N={partition.mesh.n}"
        )
    if info.proc_shape != tuple(partition.proc_shape):
        raise ValueError(
            f"checkpoint processor grid {info.proc_shape} != "
            f"{partition.proc_shape}"
        )
    path = _rank_file(directory, comm.rank)
    if not path.exists():
        raise CheckpointError(
            f"checkpoint at {directory} is incomplete: manifest names "
            f"{info.nranks} ranks but rank file {path} is missing"
        )
    try:
        with np.load(path) as data:
            try:
                rank = int(data["rank"])
                step = int(data["step"])
                time = float(data["time"])
                u = np.array(data["u"])
            except KeyError as exc:
                raise CheckpointError(
                    f"rank file {path} is malformed: missing array "
                    f"{exc.args[0]!r}"
                ) from exc
    except (zipfile.BadZipFile, OSError, ValueError) as exc:
        raise CheckpointError(
            f"rank file {path} is unreadable or corrupt: {exc}"
        ) from exc
    if rank != comm.rank:
        raise CheckpointError(
            f"rank file {path} belongs to rank {rank}, "
            f"not rank {comm.rank}"
        )
    if step != info.step or time != info.time:
        raise CheckpointError(
            f"rank file {path} is stale: it holds step {step} / "
            f"time {time!r} but the manifest certifies step "
            f"{info.step} / time {info.time!r} (torn checkpoint?)"
        )
    asg = assignment_from_info(info, partition)
    nel_expect = (
        asg.nel_of(comm.rank) if asg is not None else partition.nel_local
    )
    if u.ndim != 5 or u.shape[1] != nel_expect:
        raise CheckpointError(
            f"rank file {path} holds {u.shape[1] if u.ndim == 5 else '?'} "
            f"elements but the manifest's layout assigns {nel_expect} "
            f"to rank {comm.rank}"
        )
    _charge_io(comm, u.nbytes, site="checkpoint:read")
    state = FlowState(u=u, eos=_eos_from_dict(info.eos))
    comm.barrier(site="checkpoint")
    return state, info
