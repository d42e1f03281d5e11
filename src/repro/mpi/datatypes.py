"""Reduction operations and payload size accounting.

The simulated communicator transports numpy arrays and plain Python
objects.  Reduction collectives need an associative operation; this
module provides SUM, PROD, MIN and MAX as small singleton objects that
work element-wise on numpy arrays and on Python scalars.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Optional, Tuple

import numpy as np


class ReduceOp:
    """An associative, commutative reduction operation.

    Parameters
    ----------
    name:
        MPI-style name, e.g. ``"MPI_SUM"``.
    fn:
        Binary function combining two payloads element-wise.
    ufunc:
        Matching numpy ufunc (``np.add`` for SUM, ...) used by the
        gather-scatter library for vectorized segment reduction;
        ``None`` for custom ops without one.
    """

    __slots__ = ("name", "fn", "ufunc")

    def __init__(
        self, name: str, fn: Callable[[Any, Any], Any], ufunc: Any = None
    ):
        self.name = name
        self.fn = fn
        self.ufunc = ufunc

    def __call__(self, a: Any, b: Any) -> Any:
        return self.fn(a, b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ReduceOp {self.name}>"


SUM = ReduceOp("MPI_SUM", lambda a, b: a + b, np.add)
PROD = ReduceOp("MPI_PROD", lambda a, b: a * b, np.multiply)
MIN = ReduceOp("MPI_MIN", np.minimum, np.minimum)
MAX = ReduceOp("MPI_MAX", np.maximum, np.maximum)
#: Wildcard constants mirroring MPI semantics.
ANY_SOURCE = -1
ANY_TAG = -1


def _sized(payload: Any) -> Optional[int]:
    """Wire size of a payload that needs no serialising to price."""
    wire = getattr(payload, "__wire_nbytes__", None)
    if wire is not None:
        return int(wire)
    if isinstance(payload, (np.ndarray, np.generic)):
        return payload.nbytes
    if isinstance(payload, (int, float, complex, bool)):
        return 8
    if payload is None:
        return 0
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, (list, tuple)) and all(
        isinstance(p, np.ndarray) for p in payload
    ):
        return sum(p.nbytes for p in payload)
    return None


def _immutable(payload: Any) -> bool:
    """Nothing the sender could change after the send returns."""
    scalars = (int, float, complex, bool, str, bytes)
    return isinstance(payload, scalars + (np.generic, type(None))) or (
        isinstance(payload, tuple)
        and all(isinstance(p, scalars) for p in payload)
    )


def snapshot_payload(payload: Any) -> Tuple[Any, int]:
    """``(copy_payload(payload), payload_nbytes(payload))`` at the price
    of one: the pickle that snapshots a generic object also prices it."""
    nbytes = _sized(payload)
    if isinstance(payload, np.ndarray):
        return payload.copy(), nbytes
    if _immutable(payload):
        return payload, payload_nbytes(payload) if nbytes is None else nbytes
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return pickle.loads(blob), len(blob) if nbytes is None else nbytes


def payload_nbytes(payload: Any) -> int:
    """Wire size of a message payload in bytes.

    Numpy arrays report their buffer size; scalars their itemsize;
    anything else is costed as its pickle length (the runtime ships
    Python objects by reference, but the *network model* must charge a
    realistic byte count).
    """
    nbytes = _sized(payload)
    if nbytes is not None:
        return nbytes
    try:
        return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # pragma: no cover - unpicklable exotic object
        return 64


def copy_payload(payload: Any) -> Any:
    """Snapshot a payload at send time.

    MPI semantics let the sender reuse its buffer as soon as the send
    returns, so the transport must not alias sender memory.  Arrays are
    copied; immutable scalars/bytes pass through; other objects are
    deep-copied via pickle round-trip only when mutable containers are
    involved (cheap common cases avoid the round-trip).
    """
    if isinstance(payload, np.ndarray):
        return payload.copy()
    if _immutable(payload):
        return payload
    return pickle.loads(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
