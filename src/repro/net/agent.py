"""Rank agent: one OS process carrying one rank over sockets.

The agent's life cycle, whether it was forked by the driver or spawned
on another machine over ssh:

1. :func:`join_job` — bind a *peer listener* (the socket other ranks
   will connect to), dial the driver's rendezvous address, authenticate
   with a raw-bytes ``AUTH`` frame (the job token), send ``HELLO`` with
   its rank and listen address, and wait for ``WELCOME`` carrying the
   full peer address table (an external agent also receives a ``JOB``
   frame with the pickled work);
2. run :func:`repro.mpi.backend.serve_rank` over a :class:`MeshLink`,
   which builds the peer mesh (connect to every lower rank, accept from
   every higher rank; each connection opens with ``AUTH`` then
   ``PEER_HELLO``, and nothing is unpickled from a peer that has not
   presented the token), carries envelopes on it, heartbeats its
   mailbox's ``blocked`` and ``delivered`` counts to the driver (the
   deadlock rule's input), and ships the exit record in an ``EXIT``
   frame;
3. wait for ``SHUTDOWN`` before closing the mesh, so late sends from
   slower peers land in the unmatched mailbox queue instead of a dead
   socket — the exact semantics a finished rank has under the threads
   backend.

Virtual-time parity with the threads backend holds by construction:
the envelope (with its ``wire_vtime`` and ``seq``) is encoded whole,
the destination's real :class:`~repro.mpi.transport.Mailbox` does the
matching, and the channel counters ``runtime.seq`` stay process-local
(see ``serve_rank``).
"""

from __future__ import annotations

import hmac
import os
import pickle
import socket
import threading
import time
from typing import Dict, Optional

from ..mpi.backend import FencedAbort, serve_rank
from ..mpi.errors import AbortError
from ..mpi.shm import dump_envelope, load_envelope
from ..mpi.transport import _WAIT_POLL
from .wire import (
    ABORT,
    AUTH,
    ENVELOPE,
    EXIT,
    FLUSH,
    FLUSH_ACK,
    HEARTBEAT,
    HELLO,
    JOB,
    PEER_HELLO,
    SHUTDOWN,
    WELCOME,
    FrameSocket,
    TransportError,
    connect,
    make_listener,
    parse_address,
)

#: Heartbeat cadence (wall seconds).  Must be comfortably shorter than
#: the deadlock look period so blocked/delivered samples are fresh.
HEARTBEAT_INTERVAL = 0.2

#: Upper bound on the abort determinism fence (wall seconds): how long
#: an aborting rank waits for its peers' ``FLUSH_ACK``.  Live peers
#: answer at once; the bound only matters when a peer is itself dead or
#: wedged.
_FLUSH_TIMEOUT = 5.0

#: How long a finished agent waits for the driver's SHUTDOWN before
#: giving up and exiting anyway (driver died).
_SHUTDOWN_WAIT = 60.0

#: Peer-mesh accept/connect patience (wall seconds).
_MESH_TIMEOUT = 30.0

#: Rendezvous patience (wall seconds), one value for both ends: how long
#: the driver waits for every agent to dial in, and how long an agent —
#: forked or external — waits for ``WELCOME`` (and ``JOB``).  An agent
#: that gave up sooner than the driver would abandon a launch the driver
#: still considers live.
RENDEZVOUS_TIMEOUT = 60.0


class _DriverAbort:
    """The agent-local abort event whose ``set`` also tells the driver.

    The event a :class:`~repro.mpi.backend.FencedAbort` fences here: a
    local ``set()`` becomes visible job-wide as an ``ABORT`` frame the
    driver rebroadcasts, so every other agent learns of the failure
    within one control round-trip.  ``set_local()`` is the no-notify
    variant used when the abort *came from* the driver or a lost peer.
    """

    def __init__(self, ctrl: FrameSocket):
        self._ctrl = ctrl
        event = threading.Event()
        self.is_set = event.is_set
        self.wait = event.wait
        self.set_local = event.set

    def set(self) -> None:
        self.set_local()
        try:
            self._ctrl.send_frame(ABORT, pickle.dumps({}))
        except TransportError:
            pass  # driver gone; local abort already set


class _PeerMailbox:
    """Sender-side stand-in for a remote rank's mailbox.

    Exposes the one method senders call on a remote mailbox
    (``deliver``); the envelope is framed onto the direct rank-to-rank
    connection and matched inside the destination process.  A send
    failure means the peer died hard — the local job is aborted so the
    sender never computes on in a half-dead job.
    """

    __slots__ = ("_fs", "_abort", "_closing", "_dst")

    def __init__(self, fs: FrameSocket, abort: FencedAbort,
                 closing: threading.Event, dst: int):
        self._fs = fs
        self._abort = abort
        self._closing = closing
        self._dst = dst

    def deliver(self, env) -> None:
        try:
            self._fs.send_frame(ENVELOPE, dump_envelope(env))
        except TransportError:
            if self._closing.is_set():
                return
            self._abort.set()
            raise AbortError(
                f"send to rank {self._dst} failed: peer connection lost"
            ) from None


def _peer_rx(fs: FrameSocket, mailbox, abort: _DriverAbort,
             closing: threading.Event, ack: threading.Event) -> None:
    """Drain one peer connection's envelopes into the local mailbox."""
    while True:
        try:
            frame = fs.recv_frame(timeout=None)
        except TransportError:
            frame = None
        if frame is None:
            # Peer hung up: expected during shutdown, a hard death
            # otherwise (the driver notices too; the local abort just
            # wakes this rank's blocked waits sooner).  EOF is ordered
            # after everything the peer sent, so it doubles as the
            # flush acknowledgement.
            ack.set()
            if not closing.is_set():
                abort.set_local()
            return
        kind, body = frame
        if kind == ENVELOPE:
            mailbox.deliver(load_envelope(body))
        elif kind == FLUSH:
            # Every envelope that preceded this marker on the stream
            # has been delivered just above — tell the peer so.
            try:
                fs.send_frame(FLUSH_ACK, b"")
            except TransportError:
                pass
        elif kind == FLUSH_ACK:
            ack.set()


def _ctrl_rx(ctrl: FrameSocket, abort: _DriverAbort,
             shutdown: threading.Event) -> None:
    """Watch the control connection for ABORT/SHUTDOWN (or driver death)."""
    while True:
        try:
            frame = ctrl.recv_frame(timeout=None)
        except TransportError:
            frame = None
        if frame is None:
            # Driver died: nothing can collect our record; bail out.
            abort.set_local()
            shutdown.set()
            return
        kind, _body = frame
        if kind == ABORT:
            abort.set_local()
        elif kind == SHUTDOWN:
            shutdown.set()
            return


def _heartbeat_loop(ctrl: FrameSocket, mailbox,
                    stop: threading.Event) -> None:
    while not stop.wait(HEARTBEAT_INTERVAL):
        try:
            ctrl.send_frame(HEARTBEAT, pickle.dumps({
                "blocked": int(mailbox.blocked),
                "delivered": mailbox.delivered,
            }))
        except TransportError:
            return


def _build_mesh(rank: int, nranks: int, listener: socket.socket,
                peers: Dict[int, tuple], token: str,
                max_frame: int, abort) -> Dict[int, FrameSocket]:
    """Open one direct connection per peer rank.

    Rank ``i`` dials every rank ``j < i`` and accepts from every
    ``j > i``; each dialing side opens with a raw-bytes ``AUTH`` frame
    (the job token) followed by ``PEER_HELLO`` so the accepting side
    knows who called.  Nothing is unpickled from a connection until
    its token has passed ``hmac.compare_digest``, and a connection
    that fails authentication — a port scanner, a stray client, a
    corrupt stream — is simply dropped while the acceptor keeps
    waiting for the real peers.  The listener backlog covers all
    inbound peers, so the sequential connect-then-accept order cannot
    deadlock.  The accept waits in ``_WAIT_POLL`` slices and gives up
    with :class:`AbortError` once ``abort`` is set: a peer that died
    before dialing is reported by the driver, not timed out here.
    """
    socks: Dict[int, FrameSocket] = {}
    errors: list = []
    token_bytes = token.encode("ascii")

    def _auth_one(fs: FrameSocket, timeout: float) -> bool:
        """Authenticate one inbound connection; ``True`` iff it is a
        real peer (now recorded in ``socks``)."""
        try:
            frame = fs.recv_frame(timeout=timeout)
            if (frame is None or frame[0] != AUTH
                    or not hmac.compare_digest(frame[1], token_bytes)):
                raise TransportError("peer failed authentication")
            frame = fs.recv_frame(timeout=timeout)
            if frame is None or frame[0] != PEER_HELLO:
                raise TransportError(
                    "peer connection did not open with PEER_HELLO"
                )
            socks[int(pickle.loads(frame[1])["rank"])] = fs
            return True
        except Exception:  # stray/hostile/corrupt: drop it, keep going
            fs.close()
            return False

    def _accept_loop() -> None:
        deadline = time.monotonic() + _MESH_TIMEOUT
        got = 0
        while got < nranks - 1 - rank:
            if abort.is_set():
                errors.append(AbortError(
                    "job aborted while waiting for inbound peer connections"
                ))
                return
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                errors.append(TransportError(
                    "timed out waiting for inbound peer connections"
                ))
                return
            listener.settimeout(min(remaining, _WAIT_POLL))
            try:
                conn, _addr = listener.accept()
            except (socket.timeout, TimeoutError):
                continue  # abort and deadline checks decide
            except OSError as exc:  # listener broken: cannot recover
                errors.append(exc)
                return
            if _auth_one(FrameSocket(conn, max_frame=max_frame),
                         timeout=remaining):
                got += 1

    acceptor = threading.Thread(
        target=_accept_loop, name=f"mesh-accept-{rank}", daemon=True
    )
    acceptor.start()
    for j in range(rank):
        fs = connect(peers[j], timeout=_MESH_TIMEOUT, max_frame=max_frame)
        fs.send_frame(AUTH, token_bytes)
        fs.send_frame(PEER_HELLO, pickle.dumps({"rank": rank}))
        socks[j] = fs
    acceptor.join(timeout=_MESH_TIMEOUT + 5.0)
    if acceptor.is_alive():
        raise TransportError(
            f"rank {rank}: timed out waiting for inbound peer connections"
        )
    if errors and isinstance(errors[0], AbortError):
        raise errors[0]
    if errors:
        raise TransportError(
            f"rank {rank}: peer mesh setup failed: {errors[0]}"
        ) from errors[0]
    return socks


class MeshLink:
    """The socket mesh as one rank sees it (see ``serve_rank``)."""

    backend = "sockets"

    def __init__(self, rank: int, ctrl: FrameSocket,
                 listener: socket.socket, welcome: dict, token: str):
        self._rank = rank
        self.nranks = int(welcome["nranks"])
        self._ctrl = ctrl
        self._listener = listener
        self._peers = welcome["peers"]
        self._token = token
        self._socks: Dict[int, FrameSocket] = {}
        self._acks: Dict[int, threading.Event] = {}
        self._closing = threading.Event()
        self._shutdown = threading.Event()
        self._hb_stop = threading.Event()
        self._local = _DriverAbort(ctrl)
        self.abort = FencedAbort(self._local, self._flush)

    def _spawn(self, name: str, target, *args) -> None:
        threading.Thread(
            target=target, args=args, name=f"{name}-{self._rank}",
            daemon=True,
        ).start()

    def start(self, local_box) -> None:
        # Control and heartbeat first: a mesh that never completes must
        # still see ABORT/SHUTDOWN, and the driver's heartbeat clock is
        # already running.
        self._spawn("ctrl", _ctrl_rx, self._ctrl, self._local,
                    self._shutdown)
        self._spawn("hb", _heartbeat_loop, self._ctrl, local_box,
                    self._hb_stop)
        self._socks = _build_mesh(
            self._rank, self.nranks, self._listener, self._peers,
            self._token, self._ctrl.max_frame, self._local,
        )
        self._acks = {r: threading.Event() for r in self._socks}
        for r, fs in self._socks.items():
            self._spawn(f"rx-from-{r}", _peer_rx, fs, local_box,
                        self._local, self._closing, self._acks[r])

    def peer(self, dst: int) -> _PeerMailbox:
        return _PeerMailbox(self._socks[dst], self.abort, self._closing, dst)

    def _flush(self) -> None:
        """FLUSH every peer connection; wait for the FLUSH_ACKs."""
        for r, fs in self._socks.items():
            try:
                fs.send_frame(FLUSH, b"")
            except TransportError:
                self._acks[r].set()  # connection gone: nothing in flight
        deadline = time.monotonic() + _FLUSH_TIMEOUT
        for ack in self._acks.values():
            ack.wait(timeout=max(deadline - time.monotonic(), 0.0))

    def retire(self) -> None:
        self._hb_stop.set()

    def ship(self, record: dict) -> None:
        self._ctrl.send_frame(EXIT, pickle.dumps(record))

    def close(self) -> None:
        # Keep the mesh open until every rank's record is in: a slower
        # peer may still be sending to this (finished) rank, and those
        # envelopes must land in the unmatched queue, not a RST.
        self._shutdown.wait(timeout=_SHUTDOWN_WAIT)
        self._closing.set()
        for fs in self._socks.values():
            fs.close()
        try:
            self._listener.close()
        except OSError:
            pass
        self._ctrl.close()


def join_job(rendezvous: tuple, token: str, rank: int, host: str,
             external: bool, bind_host: str,
             advertise_host: Optional[str]):
    """The agent handshake: AUTH → HELLO → WELCOME [→ JOB].

    Binds this rank's peer listener (``bind_host``/``advertise_host``
    shape the address published in ``HELLO`` — an agent other machines
    must reach binds a real interface and advertises a routable name),
    dials the driver and waits, with the driver's own patience, for the
    peer table.  An ``external`` agent shares no memory with the driver,
    so its work follows as a pickled ``JOB`` frame.  Returns ``(link,
    job)`` — the :class:`MeshLink` this rank will run over — or ``None``
    when the driver cancelled the launch during rendezvous.
    """
    family = rendezvous[0]
    unix_dir = None
    if family == "unix":
        unix_dir = os.path.dirname(rendezvous[1]) or None
    listener, listen_addr = make_listener(
        family, unix_dir=unix_dir, name=f"peer{rank}",
        bind_host=bind_host, advertise_host=advertise_host,
    )
    ctrl = connect(rendezvous)
    ctrl.send_frame(AUTH, token.encode("ascii"))
    ctrl.send_frame(HELLO, pickle.dumps({
        "rank": rank,
        "listen": listen_addr,
        "host": host,
        "pid": os.getpid(),
        "external": external,
    }))
    frame = ctrl.recv_frame(timeout=RENDEZVOUS_TIMEOUT)
    if frame is None or frame[0] == SHUTDOWN:
        return None
    if frame[0] != WELCOME:
        raise TransportError(f"expected WELCOME, got {frame[0]!r}")
    welcome = pickle.loads(frame[1])
    job = None
    if external:
        frame = ctrl.recv_frame(timeout=RENDEZVOUS_TIMEOUT)
        if frame is None or frame[0] != JOB:
            raise TransportError("driver did not ship a JOB frame")
        job = pickle.loads(frame[1])
    return MeshLink(rank, ctrl, listener, welcome, token), job


def run_agent(runtime, rank: int, main, args, kwargs,
              link: MeshLink) -> None:
    """Body of one rank agent, from WELCOME to SHUTDOWN."""
    try:
        serve_rank(runtime, rank, main, args, kwargs, link)
    except TransportError:
        pass  # driver gone; nothing left to report to


# -- external (ssh / subprocess) agent entry ---------------------------


def external_agent(connect_to: tuple, token: str, rank: int,
                   bind_host: str = "127.0.0.1",
                   advertise_host: Optional[str] = None) -> int:
    """``python -m repro.net``: join a job from a fresh process.

    The ``JOB`` frame is a pickled bundle of ``main``/``args``/
    ``kwargs`` plus the Runtime construction parameters (machine model,
    fault plan, trace flag).  The driver refuses unpicklable jobs up
    front with a clear error.
    """
    from ..mpi.runtime import Runtime

    joined = join_job(connect_to, token, rank, socket.gethostname(),
                      True, bind_host, advertise_host)
    if joined is None:
        return 0
    link, job = joined
    runtime = Runtime(
        nranks=link.nranks,
        machine=job["machine"],
        trace_messages=job["trace_messages"],
        fault_plan=job["fault_plan"],
        fault_base_step=job["fault_base_step"],
    )
    run_agent(runtime, rank, job["main"], job["args"], job["kwargs"], link)
    return 0


def _cli(argv=None) -> int:
    import argparse

    p = argparse.ArgumentParser(
        prog="repro.net",
        description="join a repro sockets job as one rank agent",
    )
    p.add_argument("--connect", required=True,
                   help="rendezvous address (tcp:host:port or unix:path)")
    p.add_argument("--token", required=True, help="job token")
    p.add_argument("--rank", type=int, required=True,
                   help="world rank this agent carries")
    p.add_argument("--bind-host", default="127.0.0.1",
                   help="interface the peer listener binds "
                        "(0.0.0.0 for all; default loopback)")
    p.add_argument("--advertise-host", default=None,
                   help="host peers are told to dial (default: the "
                        "bind host, or this machine's hostname when "
                        "binding a wildcard)")
    args = p.parse_args(argv)
    return external_agent(parse_address(args.connect), args.token,
                          args.rank, bind_host=args.bind_host,
                          advertise_host=args.advertise_host)


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    raise SystemExit(_cli())
