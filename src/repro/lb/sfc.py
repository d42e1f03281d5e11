"""Morton (Z-order) space-filling-curve ordering of the element box.

Dynamic load balancing needs a one-dimensional ordering of elements
such that contiguous chunks of the order are spatially compact: cutting
the curve into per-rank intervals then yields partitions whose surface
(and hence gather-scatter traffic) stays close to the static brick
decomposition's.  CMT-nek's dynamic load-balancing work (Zhai et al.)
uses exactly this recipe — order elements along a space-filling curve,
then split the curve into weighted contiguous chunks.

The element *lex id* convention used throughout the LB subsystem is::

    id = ix + ex * (iy + ey * iz)        # x fastest

which matches the ascending order in which the static brick
:class:`repro.mesh.partition.Partition` enumerates its local elements.

Morton keys are built by bit-interleaving the (ix, iy, iz) coordinates.
Axes with fewer elements contribute fewer bits (only ``ceil(log2(e))``
levels), so flat boxes such as ``(64, 4, 1)`` still produce a compact
curve instead of wasting interleave slots on constant axes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

Coord = Tuple[int, int, int]


def element_ids(shape: Coord, coords: np.ndarray) -> np.ndarray:
    """Global lex ids for element coords ``(k, 3)`` (x fastest)."""
    ex, ey, _ez = shape
    c = np.asarray(coords, dtype=np.int64)
    return c[..., 0] + ex * (c[..., 1] + ey * c[..., 2])


def id_to_coords(shape: Coord, ids: np.ndarray) -> np.ndarray:
    """Inverse of :func:`element_ids`: ids -> ``(k, 3)`` coords."""
    ex, ey, _ez = shape
    ids = np.asarray(ids, dtype=np.int64)
    out = np.empty(ids.shape + (3,), dtype=np.int64)
    out[..., 0] = ids % ex
    out[..., 1] = (ids // ex) % ey
    out[..., 2] = ids // (ex * ey)
    return out


def _bits_for(extent: int) -> int:
    """Number of bits needed to index ``extent`` values (>= 1)."""
    return max(int(extent - 1).bit_length(), 1)


def morton_keys(shape: Coord, coords: np.ndarray) -> np.ndarray:
    """Morton keys for element coords ``(k, 3)``.

    Bits of each axis are interleaved from the least-significant level
    upward; an axis stops contributing once its extent is exhausted.
    Keys are unique within the box (they embed every coordinate bit).
    """
    c = np.asarray(coords, dtype=np.int64)
    nbits = [_bits_for(e) for e in shape]
    keys = np.zeros(c.shape[:-1], dtype=np.int64)
    shift = 0
    for level in range(max(nbits)):
        for axis in range(3):
            if level < nbits[axis]:
                keys |= ((c[..., axis] >> level) & 1) << shift
                shift += 1
    return keys


@lru_cache(maxsize=16)
def sfc_order(shape: Coord) -> np.ndarray:
    """All element lex ids of the box, ordered along the Morton curve.

    Returns an ``(nelgt,)`` int64 array: position ``p`` on the curve
    holds the lex id of the ``p``-th element visited.  The ordering is
    deterministic (ties are impossible: keys are unique).  Computed
    once per shape and shared, hence read-only.
    """
    ex, ey, ez = shape
    nelgt = ex * ey * ez
    ids = np.arange(nelgt, dtype=np.int64)
    keys = morton_keys(shape, id_to_coords(shape, ids))
    order = ids[np.argsort(keys, kind="stable")]
    order.flags.writeable = False
    return order
