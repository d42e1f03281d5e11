"""Live migration of element state between RK steps.

Migration is an ordinary sparse all-to-all, so it rides the existing
crystal-router transport (:func:`repro.gs.crystal.route`): a record is
an element's new owner, its global id and one float64 row holding *all*
migrated field arrays concatenated — one record per element regardless
of how many arrays travel.  On arrival rows are split back into arrays
and sorted into the canonical ascending-global-id local order of the
new assignment.

Everything is charged to virtual time: the route's sends/receives show
up under the ``LB_migrate`` call site in the mpiP output, pack/unpack
memory passes are charged via ``comm.compute``, and an informational
``LB_Migrate`` pseudo-op row records the wall cost and byte volume of
each migration event (informational rows do not double-count into the
MPI fraction — the transport already billed the wire time).

Because every field array is moved bitwise (no arithmetic is applied
in flight) and all solver kernels are element-local, a migration is
exact: the fields of a rebalanced run are bit-identical, element for
element, to an unrebalanced run.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Sequence, Tuple

import numpy as np

from ..gs.crystal import route
from .assignment import ElementAssignment

#: mpiP call-site label for migration traffic on the transport.
SITE_LB_MIGRATE = "LB_migrate"
#: mpiP call-site label for the post-migration gather-scatter rebuild.
SITE_LB_REBUILD = "LB_gs_rebuild"
#: Informational pseudo-op summarizing a migration event.
OP_LB_MIGRATE = "LB_Migrate"
#: Informational pseudo-op summarizing a handle rebuild.
OP_LB_REBUILD = "LB_Rebuild"

#: A migrated field: (name, array, element_axis).
FieldSpec = Tuple[str, np.ndarray, int]


class MigrationStats(NamedTuple):
    """One rank's accounting for a single migration event."""

    elements_sent: int
    elements_received: int
    bytes_sent: int
    seconds: float


def _pack_rows(arrays: Sequence[FieldSpec], nel: int) -> np.ndarray:
    """Flatten fields into per-element rows ``(nel, total_width)``."""
    cols = []
    for name, arr, axis in arrays:
        if arr.shape[axis] != nel:
            raise ValueError(
                f"field {name!r} has {arr.shape[axis]} elements on "
                f"axis {axis}, expected {nel}"
            )
        moved = np.moveaxis(arr, axis, 0)
        cols.append(np.ascontiguousarray(moved).reshape(nel, -1))
    if not cols:
        return np.empty((nel, 0), dtype=np.float64)
    return np.concatenate(cols, axis=1).astype(np.float64, copy=False)


def _unpack_rows(
    rows: np.ndarray, arrays: Sequence[FieldSpec], nel: int
) -> Dict[str, np.ndarray]:
    """Inverse of :func:`_pack_rows` for the new local element count."""
    out: Dict[str, np.ndarray] = {}
    col = 0
    for name, arr, axis in arrays:
        moved_shape = (nel,) + tuple(np.delete(arr.shape, axis))
        width = int(np.prod(moved_shape[1:], dtype=np.int64))
        block = rows[:, col:col + width].reshape(moved_shape)
        out[name] = np.ascontiguousarray(
            np.moveaxis(block, 0, axis)
        ).astype(arr.dtype, copy=False)
        col += width
    if col != rows.shape[1]:
        raise ValueError(
            f"migration rows carry {rows.shape[1]} columns, "
            f"fields consume {col}"
        )
    return out


def migrate_elements(
    comm,
    old_ids: np.ndarray,
    new_assignment: ElementAssignment,
    arrays: Sequence[FieldSpec],
) -> Tuple[Dict[str, np.ndarray], MigrationStats]:
    """Move element fields from the current layout to ``new_assignment``.

    Parameters
    ----------
    old_ids:
        Global lex ids of this rank's current elements, in the local
        order of the field arrays (for both the brick partition and an
        assignment this is ascending-global-id order).
    arrays:
        ``(name, array, element_axis)`` triples; every array must have
        ``len(old_ids)`` entries along its element axis.

    Returns the re-laid-out arrays (shaped for the new local element
    count, canonical ascending-global-id order) and per-rank stats.
    Collective: every rank must call this, even with nothing to send.
    """
    rank = comm.rank
    t0 = comm.clock.now
    old_ids = np.asarray(old_ids, dtype=np.int64)
    nel_old = old_ids.size
    rows = _pack_rows(arrays, nel_old)

    dest = new_assignment.owner[old_ids]
    # Pack/unpack of the rows is a real memory pass on both ends.
    comm.compute(mem_bytes=2.0 * rows.nbytes)

    got_ids, got_rows = route(dest, old_ids, rows, comm, site=SITE_LB_MIGRATE)

    new_ids = new_assignment.element_ids_of(rank)
    nel_new = new_ids.size
    if got_ids.size != nel_new:
        raise AssertionError(
            f"rank {rank}: migration delivered {got_ids.size} elements, "
            f"assignment says {nel_new}"
        )
    # Sort arrivals into the canonical ascending-global-id order.
    order = np.argsort(got_ids, kind="stable")
    if not np.array_equal(got_ids[order], new_ids):
        raise AssertionError(
            f"rank {rank}: migrated element ids do not match assignment"
        )
    out = _unpack_rows(got_rows[order], arrays, nel_new)
    comm.compute(mem_bytes=2.0 * got_rows.nbytes)

    kept = int(np.count_nonzero(dest == rank))
    stats = MigrationStats(
        elements_sent=nel_old - kept,
        elements_received=nel_new - kept,
        bytes_sent=(nel_old - kept)
        * (old_ids.itemsize + rows.shape[1] * rows.itemsize),
        seconds=comm.clock.now - t0,
    )
    comm.profile.record(
        OP_LB_MIGRATE, SITE_LB_MIGRATE, stats.seconds, stats.bytes_sent,
        informational=True,
    )
    return out, stats

