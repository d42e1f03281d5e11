"""Receive status objects, mirroring ``MPI_Status``."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Status:
    """Metadata about a completed receive.

    Attributes
    ----------
    source:
        Rank of the sender.
    tag:
        Tag carried by the matched message.
    nbytes:
        Modelled wire size of the message payload.
    arrival_vtime:
        Virtual time at which the message arrived at the receiver's NIC
        (before the receiver-side overhead was charged).
    wait_vtime:
        Virtual seconds the receiving rank spent blocked for this
        message (zero when the message was already waiting).
    """

    source: int
    tag: int
    nbytes: int
    arrival_vtime: float
    wait_vtime: float
