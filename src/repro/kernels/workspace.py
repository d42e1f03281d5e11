"""Reusable kernel workspaces: keyed pools of scratch arrays.

The RK loop evaluates the right-hand side three times per step, and a
naive implementation allocates a fresh ``(nel, N, N, N)`` array for
every flux component, derivative, and stage combination — dozens of
large allocations per timestep whose page faults and cache-cold writes
show up directly in the derivative-kernel wall clock (the effect the
``kernels/workspace`` benchmark scenario records).  A
:class:`Workspace` hands out named scratch buffers that persist across
calls: the first request for a ``(key, shape, dtype)`` triple
allocates, every later request returns the same array.

Correctness contract: a buffer's *contents* are undefined on entry
(callers overwrite or :meth:`zeros` them), and two live intermediates
must use distinct keys — the pool never aliases different keys.  All
consumers in :mod:`repro.solver` and :mod:`repro.kernels.derivatives`
are bitwise identical to their allocating counterparts; tests enforce
this.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

#: Bytes of one dispatch over a ``(field, ...)`` stack.  Small fields
#: batch (at N=5 with 8 elements every conserved variable goes through
#: one call: what a call costs there is its dispatch, not its
#: arithmetic); a field this large or larger is its own block, because
#: a kernel's several passes over one field stay in cache and over a
#: stack of them do not (measured at N=16, 64 elements: docs/kernel-ir.md).
BLOCK_BYTES = 1 << 20

_FLOAT64 = np.dtype(np.float64)


def field_blocks(stack: np.ndarray) -> List[slice]:
    """Slices of ``stack``'s leading (field) axis, each holding as many
    whole fields as fit :data:`BLOCK_BYTES` and at least one."""
    per_block = max(1, BLOCK_BYTES // max(1, stack[:1].nbytes))
    return [
        slice(i, i + per_block) for i in range(0, len(stack), per_block)
    ]


def as_elements(stack: np.ndarray) -> np.ndarray:
    """``(k, nel, ...)`` -> ``(k * nel, ...)``: a view when ``stack`` is
    C-contiguous, which callers that write through it must ensure."""
    return stack.reshape((-1,) + stack.shape[2:])


class Workspace:
    """A pool of reusable scratch arrays keyed by (name, shape, dtype).

    Buffers are created on first use and cached for the lifetime of the
    workspace; :meth:`clear` drops them all (e.g. after a load-balance
    migration changes the local element count, making the old shapes
    stale).
    """

    def __init__(self) -> None:
        self._buffers: Dict[Tuple[str, Tuple[int, ...], np.dtype], np.ndarray] = {}

    def buffer(
        self,
        shape: Tuple[int, ...],
        dtype=_FLOAT64,
        key: str = "",
    ) -> np.ndarray:
        """A C-contiguous scratch array of ``shape``; contents undefined."""
        try:
            # The hit path: callers pass an int tuple and a dtype
            # instance, which hash like the normalised key below.
            return self._buffers[key, shape, dtype]
        except (KeyError, TypeError):  # a miss, or an unhashable shape
            k = (key, tuple(int(s) for s in shape), np.dtype(dtype))
        buf = self._buffers.get(k)
        if buf is None:
            buf = self._buffers[k] = np.empty(k[1], dtype=k[2])
        return buf

    def zeros(
        self,
        shape: Tuple[int, ...],
        dtype=_FLOAT64,
        key: str = "",
    ) -> np.ndarray:
        """Like :meth:`buffer` but zero-filled on every request."""
        buf = self.buffer(shape, dtype=dtype, key=key)
        buf.fill(0.0)
        return buf

    def like(self, template: np.ndarray, key: str = "") -> np.ndarray:
        """Scratch array matching ``template``'s shape and dtype."""
        return self.buffer(template.shape, dtype=template.dtype, key=key)

    def clear(self) -> None:
        """Drop every cached buffer (stale shapes after repartitioning)."""
        self._buffers.clear()

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the pool."""
        return sum(b.nbytes for b in self._buffers.values())

    def __len__(self) -> int:
        return len(self._buffers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Workspace({len(self)} buffers, {self.nbytes} bytes)"
