"""Rank agent: one OS process carrying one rank over sockets.

The agent's life cycle, whether it was forked by the driver or spawned
on another machine over ssh:

1. bind a *peer listener* (the socket other ranks will connect to);
2. connect to the driver's rendezvous address, authenticate with a
   raw-bytes ``AUTH`` frame (the job token), then send ``HELLO`` with
   its rank and listen address;
3. wait for ``WELCOME`` carrying the full peer address table (an
   external agent also receives a ``JOB`` frame with the pickled work);
4. build the peer mesh — connect to every lower rank, accept from
   every higher rank (each connection opens with ``AUTH`` then
   ``PEER_HELLO``; nothing is unpickled from a peer that has not
   presented the token);
5. patch its private :class:`~repro.mpi.runtime.Runtime` copy exactly
   as the procs backend patches a forked child — remote mailboxes
   become :class:`_PeerMailbox` stubs, the abort event becomes a
   :class:`_RemoteAbort` that also notifies the driver — and run the
   rank under :func:`repro.mpi.backend.run_rank`;
6. ship the exit record (result, error, clock, profile, snapshot,
   trace, fault logs) in an ``EXIT`` frame, then wait for ``SHUTDOWN``
   before closing the mesh, so late sends from slower peers land in
   the unmatched mailbox queue instead of a dead socket — the exact
   semantics a finished rank has under the threads backend.

Virtual-time parity with threads/procs holds by construction: the
envelope (with its ``wire_vtime`` and ``seq``) is encoded whole, the
destination's real :class:`~repro.mpi.transport.Mailbox` does the
matching, and ``ChannelSeq`` stays process-local (each ``(src, dst)``
counter is only ever advanced by ``src``, so local counters reproduce
the shared numbering — which keeps fault-injection drop decisions
identical too).
"""

from __future__ import annotations

import hmac
import os
import pickle
import socket
import threading
import time
import traceback
from typing import Dict, Optional

from ..mpi.backend import run_rank
from ..mpi.errors import AbortError
from ..mpi.shm import dump_envelope, load_envelope
from ..mpi.transport import BlockTracker, ChannelSeq
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
#: the driver's watchdog period so blocked/progress samples are fresh.
HEARTBEAT_INTERVAL = 0.2

#: How long a finished agent waits for the driver's SHUTDOWN before
#: giving up and exiting anyway (driver died).
_SHUTDOWN_WAIT = 60.0

#: Peer-mesh accept/connect patience (wall seconds).
_MESH_TIMEOUT = 30.0

#: How long an aborting rank waits for every peer to acknowledge that
#: its in-flight envelopes are delivered before the driver is told of
#: the failure.  Live peers' rx threads answer immediately; the bound
#: only matters when a peer is itself dead or wedged.
_FLUSH_TIMEOUT = 5.0


class _RemoteAbort:
    """The job abort event, distributed.

    Looks like a :class:`threading.Event` to ``Mailbox.wait_for`` and
    ``run_rank``; additionally, the first local ``set()`` notifies the
    driver with an ``ABORT`` frame so every other agent learns of the
    failure within one control round-trip.  ``set_local()`` is the
    no-notify variant used when the abort *came from* the driver.
    """

    def __init__(self, ctrl: FrameSocket):
        self._event = threading.Event()
        self._ctrl = ctrl
        self._notify_lock = threading.Lock()
        self._notified = False
        #: Installed by :func:`run_agent` once the mesh is up; runs the
        #: FLUSH/FLUSH_ACK fence against every peer.
        self.flush_peers = None

    def set(self) -> None:
        self._event.set()
        with self._notify_lock:
            if self._notified:
                return
            self._notified = True
        # Determinism fence: envelopes ride the direct peer
        # connections while the abort rides the control connection —
        # two unordered TCP streams.  Before the driver (and through
        # it every peer) learns of this failure, make every peer
        # acknowledge it has delivered the envelopes this rank already
        # sent; otherwise a survivor could observe the abort before
        # consuming them, and its virtual clock at abort would depend
        # on thread scheduling instead of the fault plan (the
        # completion-wins contract in ``Mailbox.wait_for``).
        if self.flush_peers is not None:
            try:
                self.flush_peers()
            except Exception:
                pass  # best effort; the abort must still go out
        try:
            self._ctrl.send_frame(ABORT, pickle.dumps({}))
        except TransportError:
            pass  # driver gone; local abort already set

    def set_local(self) -> None:
        self._event.set()

    def is_set(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._event.wait(timeout)


class _PeerMailbox:
    """Sender-side stand-in for a remote rank's mailbox.

    Exposes the one method senders call on a remote mailbox
    (``deliver``); the envelope is framed onto the direct rank-to-rank
    connection and matched inside the destination process.  A send
    failure means the peer died hard — the local job is aborted so the
    sender never computes on in a half-dead job.
    """

    __slots__ = ("_fs", "_abort", "_closing", "_dst")

    def __init__(self, fs: FrameSocket, abort: _RemoteAbort,
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


def _peer_rx(fs: FrameSocket, mailbox, tracker, abort: _RemoteAbort,
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
            tracker.bump()
        elif kind == FLUSH:
            # Every envelope that preceded this marker on the stream
            # has been delivered just above — tell the peer so.
            try:
                fs.send_frame(FLUSH_ACK, b"")
            except TransportError:
                pass
        elif kind == FLUSH_ACK:
            ack.set()


def _ctrl_rx(ctrl: FrameSocket, abort: _RemoteAbort,
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


def _heartbeat_loop(ctrl: FrameSocket, tracker: BlockTracker,
                    stop: threading.Event, interval: float) -> None:
    while not stop.wait(interval):
        try:
            ctrl.send_frame(HEARTBEAT, pickle.dumps({
                "blocked": tracker.blocked,
                "progress": tracker.progress_value,
            }))
        except TransportError:
            return


def _build_mesh(rank: int, nranks: int, listener: socket.socket,
                peers: Dict[int, tuple], token: str,
                max_frame: int) -> Dict[int, FrameSocket]:
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
    deadlock.
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
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                errors.append(TransportError(
                    "timed out waiting for inbound peer connections"
                ))
                return
            listener.settimeout(remaining)
            try:
                conn, _addr = listener.accept()
            except (socket.timeout, TimeoutError):
                continue  # deadline check decides
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
    if errors:
        raise TransportError(
            f"rank {rank}: peer mesh setup failed: {errors[0]}"
        ) from errors[0]
    return socks


def _exit_conn(ctrl: FrameSocket):
    """Adapt the control socket to the exit-record pipe interface."""

    class _Conn:
        @staticmethod
        def send(record: dict) -> None:
            ctrl.send_frame(EXIT, pickle.dumps(record))

    return _Conn()


def run_agent(runtime, rank: int, main, args, kwargs,
              ctrl: FrameSocket, listener: socket.socket,
              peers: Dict[int, tuple], token: str,
              hb_interval: float = HEARTBEAT_INTERVAL,
              max_frame: int = 0) -> None:
    """Body of one rank agent, from WELCOME to SHUTDOWN.

    ``runtime`` is this process's private copy (fork snapshot or a
    freshly built one for external agents); it is patched in place the
    way :func:`repro.mpi.backend._rank_process` patches a forked
    child.  Always ships an exit record — even on setup failure — and
    always waits for the driver's SHUTDOWN before tearing the mesh
    down.
    """
    from ..mpi.backend import _send_record

    max_frame = max_frame or ctrl.max_frame
    record: dict = {"rank": rank}
    abort = _RemoteAbort(ctrl)
    closing = threading.Event()
    shutdown = threading.Event()
    tracker = BlockTracker()
    local_box = runtime._mailboxes[rank]
    hb_stop = threading.Event()
    peer_socks: Dict[int, FrameSocket] = {}

    ctrl_thread = threading.Thread(
        target=_ctrl_rx, args=(ctrl, abort, shutdown),
        name=f"ctrl-{rank}", daemon=True,
    )
    ctrl_thread.start()
    hb_thread = threading.Thread(
        target=_heartbeat_loop, args=(ctrl, tracker, hb_stop, hb_interval),
        name=f"hb-{rank}", daemon=True,
    )
    hb_thread.start()
    try:
        peer_socks = _build_mesh(
            rank, runtime.nranks, listener, peers, token, max_frame
        )
        acks = {r: threading.Event() for r in peer_socks}

        def flush_peers() -> None:
            for r, fs in peer_socks.items():
                try:
                    fs.send_frame(FLUSH, b"")
                except TransportError:
                    acks[r].set()  # connection gone: nothing in flight
            deadline = time.monotonic() + _FLUSH_TIMEOUT
            for r in peer_socks:
                acks[r].wait(
                    timeout=max(deadline - time.monotonic(), 0.0)
                )

        abort.flush_peers = flush_peers
        runtime.abort_event = abort
        runtime.tracker = tracker
        runtime.seq = ChannelSeq()
        runtime._mailboxes = [
            local_box
            if r == rank
            else _PeerMailbox(peer_socks[r], abort, closing, r)
            for r in range(runtime.nranks)
        ]
        for r, fs in peer_socks.items():
            threading.Thread(
                target=_peer_rx,
                args=(fs, local_box, tracker, abort, closing, acks[r]),
                name=f"rx-{rank}-from-{r}", daemon=True,
            ).start()
        comm = runtime.world_comm(rank)
        result, error, tb = run_rank(main, comm, args, kwargs, abort)
        record.update(result=result, error=error, traceback=tb)
    except BaseException as exc:  # noqa: BLE001 - setup failure
        record.update(
            result=None, error=exc, traceback=traceback.format_exc()
        )
        abort.set()
    finally:
        hb_stop.set()
        record["clock"] = runtime._clocks[rank]
        record["profile"] = runtime._profiles[rank]
        record["snapshot"] = local_box.snapshot()
        record["pid"] = os.getpid()
        if runtime.trace is not None:
            record["trace"] = list(runtime.trace._per_rank[rank])
        if runtime.faults is not None:
            record["crash_log"] = list(runtime.faults.crash_log)
            record["drop_log"] = list(runtime.faults.drop_log)
        try:
            _send_record(_exit_conn(ctrl), record, rank, abort,
                         backend="sockets")
        except TransportError:
            pass  # driver gone; nothing left to report to
        # Keep the mesh open until every rank's record is in: a slower
        # peer may still be sending to this (finished) rank, and those
        # envelopes must land in the unmatched queue, not a RST.
        shutdown.wait(timeout=_SHUTDOWN_WAIT)
        closing.set()
        for fs in peer_socks.values():
            fs.close()
        try:
            listener.close()
        except OSError:
            pass
        ctrl.close()


# -- external (ssh / subprocess) agent entry ---------------------------


def external_agent(connect_to: tuple, token: str, rank: int,
                   family: str = "tcp",
                   bind_host: str = "127.0.0.1",
                   advertise_host: Optional[str] = None) -> int:
    """``python -m repro.net``: join a job from a fresh process.

    Unlike a forked agent this process shares no memory with the
    driver, so the work arrives as a ``JOB`` frame: a pickled bundle of
    ``main``/``args``/``kwargs`` plus the Runtime construction
    parameters (machine model, time policy, fault plan, trace flag).
    The driver refuses unpicklable jobs up front with a clear error.
    ``bind_host``/``advertise_host`` shape the peer listener address
    published in ``HELLO`` — an agent on another machine must bind a
    real interface and advertise a name its peers can route to.
    """
    from ..mpi.runtime import Runtime

    unix_dir = None
    if family == "unix":
        unix_dir = os.path.dirname(connect_to[1]) or None
    listener, listen_addr = make_listener(
        family, unix_dir=unix_dir, name=f"peer{rank}",
        bind_host=bind_host, advertise_host=advertise_host,
    )
    ctrl = connect(connect_to)
    ctrl.send_frame(AUTH, token.encode("ascii"))
    ctrl.send_frame(HELLO, pickle.dumps({
        "rank": rank,
        "listen": listen_addr,
        "host": socket.gethostname(),
        "pid": os.getpid(),
        "external": True,
    }))
    frame = ctrl.recv_frame(timeout=_MESH_TIMEOUT)
    if frame is None or frame[0] != WELCOME:
        raise TransportError("rendezvous did not answer with WELCOME")
    welcome = pickle.loads(frame[1])
    frame = ctrl.recv_frame(timeout=_MESH_TIMEOUT)
    if frame is None or frame[0] != JOB:
        raise TransportError("driver did not ship a JOB frame")
    job = pickle.loads(frame[1])

    runtime = Runtime(
        nranks=int(welcome["nranks"]),
        machine=job["machine"],
        time_policy=job["time_policy"],
        trace_messages=job["trace_messages"],
        fault_plan=job["fault_plan"],
        fault_base_step=job["fault_base_step"],
    )
    run_agent(
        runtime, rank, job["main"], job["args"], job["kwargs"],
        ctrl, listener, welcome["peers"], token,
        hb_interval=job.get("hb_interval", HEARTBEAT_INTERVAL),
    )
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
    address = parse_address(args.connect)
    return external_agent(address, args.token, args.rank,
                          family=address[0],
                          bind_host=args.bind_host,
                          advertise_host=args.advertise_host)


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    raise SystemExit(_cli())
