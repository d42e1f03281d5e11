"""Receive status objects, mirroring ``MPI_Status``."""

from __future__ import annotations

from dataclasses import dataclass


#: Built on every receive: a plain dataclass builds faster than a frozen
#: one or a NamedTuple, and reads its fields as fast as a frozen one.
@dataclass
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
    """

    source: int
    tag: int
    nbytes: int
    arrival_vtime: float
