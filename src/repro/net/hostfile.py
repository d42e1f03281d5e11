"""mpirun-style hostfile parsing and agent launch commands.

A hostfile names the machines a job spans and how many ranks each one
carries, one host per line::

    # comment lines and blanks are ignored
    node0 slots=4
    node1 slots=4
    node2          # no slots= -> 1 slot

Ranks fill hosts in file order (``node0`` gets ranks 0..3, ``node1``
ranks 4..7, ...), exactly like ``mpirun --hostfile`` without
``--map-by``.  :func:`rank_layout` expands the entries into the
per-rank host list the :class:`~repro.net.backend.SocketBackend`
consumes; if the job asks for more ranks than the file has slots, the
layout wraps around (oversubscription, with a warning left to the
caller).

Hosts that resolve to the local machine are forked; anything else is
reached over ssh with :func:`ssh_command` (``python -m repro.net``
on the far end, pointed back at the driver's rendezvous address).
"""

from __future__ import annotations

import shlex
import socket
from typing import List, NamedTuple, Optional, Sequence

from ..mpi.errors import MPIError
from .wire import format_address

#: Host names that always mean "this machine".
_LOCAL_NAMES = frozenset({"localhost", "127.0.0.1", "::1"})


class HostfileError(MPIError):
    """A hostfile line could not be parsed."""


class HostEntry(NamedTuple):
    """One hostfile line: a host name and its rank capacity."""

    host: str
    slots: int = 1


def parse_hostfile(text: str, name: str = "<hostfile>") -> List[HostEntry]:
    """Parse hostfile ``text`` into its entries (in file order)."""
    entries: List[HostEntry] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        host, slots = parts[0], 1
        for opt in parts[1:]:
            key, _, value = opt.partition("=")
            if key not in ("slots", "max_slots", "max-slots"):
                raise HostfileError(
                    f"{name}:{lineno}: unknown option {opt!r} "
                    "(expected slots=N)"
                )
            try:
                slots = int(value)
            except ValueError:
                raise HostfileError(
                    f"{name}:{lineno}: slots must be an integer, "
                    f"got {value!r}"
                ) from None
        if slots < 1:
            raise HostfileError(
                f"{name}:{lineno}: slots must be >= 1, got {slots}"
            )
        entries.append(HostEntry(host=host, slots=slots))
    if not entries:
        raise HostfileError(f"{name}: no hosts found")
    return entries


def read_hostfile(path) -> List[HostEntry]:
    with open(path) as fh:
        return parse_hostfile(fh.read(), name=str(path))


def total_slots(entries: Sequence[HostEntry]) -> int:
    return sum(e.slots for e in entries)


def rank_layout(entries: Sequence[HostEntry], nranks: int) -> List[str]:
    """Per-rank host labels: fill each host's slots in file order.

    Wraps around when ``nranks`` exceeds the total slot count
    (oversubscription), matching ``mpirun`` defaults.
    """
    hosts: List[str] = []
    for e in entries:
        hosts.extend([e.host] * e.slots)
    return [hosts[r % len(hosts)] for r in range(nranks)]


def is_local_host(host: str) -> bool:
    """Does ``host`` name the machine this process runs on?"""
    if host in _LOCAL_NAMES:
        return True
    local = socket.gethostname()
    return host == local or host == local.split(".", 1)[0]


def agent_argv(address: tuple, token: str, rank: int,
               python: str = "python3",
               bind_host: Optional[str] = None,
               advertise_host: Optional[str] = None) -> List[str]:
    """The agent command run on the target machine.

    ``bind_host``/``advertise_host`` control the agent's *peer
    listener*: remote agents must bind a real interface and advertise
    an address their peers can route to, never loopback.
    """
    argv = [
        python, "-m", "repro.net",
        "--connect", format_address(address),
        "--token", token,
        "--rank", str(rank),
    ]
    if bind_host is not None:
        argv += ["--bind-host", bind_host]
    if advertise_host is not None:
        argv += ["--advertise-host", advertise_host]
    return argv


#: The local half of :func:`ssh_command`; never prompts for a password.
SSH = ("ssh", "-o", "BatchMode=yes")


def ssh_command(host: str, address: tuple, token: str, rank: int,
                python: str = "python3") -> List[str]:
    """Full local command that starts rank ``rank``'s agent on ``host``.

    The remote side must have ``repro`` importable by ``python``; the
    agent dials back to the driver's rendezvous ``address``, so only
    the driver needs a listening port.  The remote agent's peer
    listener binds all interfaces and advertises the hostfile label
    itself, the one name the driver already knows routes to that
    machine.
    """
    remote = " ".join(
        shlex.quote(part)
        for part in agent_argv(
            address, token, rank, python=python,
            bind_host="0.0.0.0", advertise_host=host,
        )
    )
    return list(SSH) + [host, remote]
