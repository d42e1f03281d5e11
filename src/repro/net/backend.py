"""SocketBackend: ranks as OS processes connected over sockets.

The third execution backend (after ``threads`` and ``procs``): every
rank is an independent OS process — forked locally, or started on
another machine — and all communication crosses TCP or Unix-domain
stream sockets using the framed wire protocol in :mod:`.wire`.

Topology: the driver binds one *rendezvous* listener.  Each rank agent
dials it (``HELLO``), the driver answers with the full peer address
table (``WELCOME``) once all ranks are in, and the agents then build a
direct all-to-all mesh for envelope traffic.  The control connections
stay up for the life of the job carrying heartbeats (each mailbox's
``blocked``/``delivered`` counts, which the driver's monitor loop feeds
to the deadlock rule), abort notifications,
and finally each rank's ``EXIT`` record — result, error, virtual
clock, profile, mailbox snapshot, trace, and fault logs — which the
driver folds back into the :class:`~repro.mpi.runtime.Runtime` exactly
as the procs backend does.

Failure semantics: a rank that raises aborts the job through the
driver (one control round-trip; blocked peers wake within a poll
tick).  A rank that dies *hard* — SIGKILL, ``os._exit``, a lost
machine — is detected by control-connection EOF, process liveness, or
heartbeat timeout, and is marshalled as
:class:`~repro.mpi.errors.RankCrashError` (rank intact), so
:func:`repro.solver.driver.run_with_recovery` restores the last
checkpoint and replays, the same contract injected crashes have.

Virtual time, profiles, and physics are bitwise identical to the
threads and procs backends by construction — see
:mod:`repro.net.agent` for why.
"""

from __future__ import annotations

import hmac
import os
import pickle
import secrets
import selectors
import shutil
import socket as _socket
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..mpi.backend import (
    Backend,
    ExecutionOutcome,
    fork_context,
    hard_exit_record,
    marshal_exit_records,
    reap,
    strike_rule,
)
from ..mpi.errors import AbortError, MPIError, RankCrashError
from .agent import RENDEZVOUS_TIMEOUT, join_job, run_agent
from .hostfile import agent_argv, is_local_host, ssh_command
from .wire import (
    ABORT,
    AUTH,
    EXIT,
    HEARTBEAT,
    HELLO,
    JOB,
    SHUTDOWN,
    WELCOME,
    FrameSocket,
    TransportError,
    make_listener,
)

#: Monitor loop tick (wall seconds).
_POLL = 0.1


def _forked_agent(runtime, rank, main, args, kwargs, rendezvous, token,
                  host_label, bind_host, advertise_host) -> None:
    """Child body for a locally forked rank agent.

    The fork snapshot carries the Runtime and the job closure, so —
    like the procs backend — ``main`` needs no pickling.  A loopback
    host label becomes ``REPRO_HOST_ID`` so per-"host" state (the
    autotune cache fingerprint) separates even on one machine.
    ``bind_host``/``advertise_host`` shape the peer listener: when the
    job also spans remote hosts, even local agents must advertise an
    address those remote peers can route to.
    """
    if host_label:
        os.environ["REPRO_HOST_ID"] = host_label
    joined = join_job(
        rendezvous, token, rank, host_label or _socket.gethostname(),
        False, bind_host, advertise_host,
    )
    if joined is not None:  # else: job cancelled during rendezvous
        link, _job = joined
        run_agent(runtime, rank, main, args, kwargs, link)


class _AgentPopen(subprocess.Popen):
    """A subprocess agent behind the ``multiprocessing.Process`` calls
    the monitor and :func:`~repro.mpi.backend.reap` make."""

    def is_alive(self) -> bool:
        return self.poll() is None

    def join(self, timeout: Optional[float] = None) -> None:
        try:
            self.wait(timeout)
        except subprocess.TimeoutExpired:
            pass

    @property
    def exitcode(self) -> Optional[int]:
        return self.poll()


class SocketBackend(Backend):
    """One OS process per rank, connected over TCP or Unix sockets.

    With no arguments every rank is forked on this machine and the job
    behaves like a multi-process loopback cluster — the mode
    ``Runtime(backend="sockets")`` gives you.  ``hosts`` (a per-rank
    host-label list, usually expanded from a hostfile by ``repro.cli
    launch``) spreads ranks across machines: local labels fork, remote
    labels start an agent over ssh (``python -m repro.net`` must
    find an installed ``repro`` on the far side, and the job must
    pickle).  ``loopback=True`` treats every label as local — forked,
    but with ``REPRO_HOST_ID`` set to the label, so multi-host
    behaviour (per-host autotune caches, host-tagged records) is
    testable on one machine.

    ``external=True`` forces every rank through the ssh-style
    subprocess path (``python -m repro.net`` locally) — the job
    then must be picklable; used to exercise the remote protocol
    without ssh.

    Failure detection: ``hb_timeout`` is the heartbeat silence after
    which a rank is declared dead (the backstop for remote agents;
    local processes are also liveness-polled every monitor tick, which
    is much faster).

    Addressing: with only local ranks everything binds and advertises
    loopback.  The moment the layout contains a genuinely remote host,
    the driver's rendezvous listener and every local agent's peer
    listener bind ``0.0.0.0`` and advertise this machine's hostname
    (remote agents advertise their hostfile label) — a loopback
    address handed to a remote host would have it dialing itself.
    ``bind_host``/``advertise_host`` override both choices.
    """

    name = "sockets"

    def __init__(
        self,
        family: str = "tcp",
        hosts: Optional[Sequence[str]] = None,
        loopback: bool = False,
        external: bool = False,
        hb_timeout: float = 10.0,
        python: str = "python3",
        bind_host: Optional[str] = None,
        advertise_host: Optional[str] = None,
    ):
        if family not in ("tcp", "unix"):
            raise MPIError(
                f"unknown socket family {family!r} "
                "(expected 'tcp' or 'unix')"
            )
        self.family = family
        self.hosts = list(hosts) if hosts is not None else None
        self.loopback = loopback
        self.external = external
        self.hb_timeout = hb_timeout
        self.python = python
        self.bind_host = bind_host
        self.advertise_host = advertise_host

    # -- spawning ------------------------------------------------------

    def _listen_policy(
        self, modes: Sequence[Tuple[str, Optional[str]]]
    ) -> Tuple[str, Optional[str]]:
        """``(bind_host, advertise_host)`` for every listener this
        machine binds — the rendezvous socket and local agents' peer
        listeners.

        Loopback is only safe while every rank lives on this machine;
        any ssh rank means remote processes must dial back here, so
        the default flips to bind-all / advertise-hostname.  Explicit
        ``bind_host``/``advertise_host`` settings always win.
        """
        any_remote = any(m == "ssh" for m, _h in modes)
        bind = self.bind_host or ("0.0.0.0" if any_remote else "127.0.0.1")
        adv = self.advertise_host
        if adv is None and any_remote:
            adv = _socket.gethostname()
        return bind, adv

    def _rank_modes(self, n: int) -> List[Tuple[str, Optional[str]]]:
        """Per-rank ``(mode, host_label)``: fork / popen / ssh."""
        modes: List[Tuple[str, Optional[str]]] = []
        for r in range(n):
            host = self.hosts[r] if self.hosts else None
            if self.external:
                modes.append(("popen", host))
            elif host is None or self.loopback or is_local_host(host):
                label = host if (self.loopback and host) else None
                modes.append(("fork", label))
            else:
                modes.append(("ssh", host))
        return modes

    def _job_payload(self, runtime, main, args, kwargs) -> bytes:
        """The pickled JOB frame external agents receive."""
        job = {
            "main": main,
            "args": args,
            "kwargs": kwargs,
            "machine": runtime.machine,
            "trace_messages": runtime.trace is not None,
            "fault_plan": (
                runtime.faults.plan if runtime.faults is not None else None
            ),
            "fault_base_step": (
                runtime.faults.base_step
                if runtime.faults is not None else 0
            ),
        }
        try:
            return pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise MPIError(
                "the sockets backend needs a picklable job to reach "
                "remote hosts (module-level main, picklable args); "
                f"pickling failed with: {exc}"
            ) from exc

    def _popen_env(self, host_label: Optional[str]) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        if host_label:
            env["REPRO_HOST_ID"] = host_label
        return env

    # -- execution -----------------------------------------------------

    def execute(self, runtime, main, args, kwargs) -> ExecutionOutcome:
        n = runtime.nranks
        if self.hosts is not None and len(self.hosts) < n:
            raise MPIError(
                f"sockets backend has {len(self.hosts)} host slots for "
                f"a {n}-rank job; expand the hostfile layout first"
            )
        modes = self._rank_modes(n)
        token = secrets.token_hex(8)
        bind_host, advertise_host = self._listen_policy(modes)
        unix_dir = None
        if self.family == "unix":
            unix_dir = tempfile.mkdtemp(prefix="repro-net-")
        listener, address = make_listener(
            self.family, unix_dir=unix_dir, name="rendezvous",
            bind_host=bind_host, advertise_host=advertise_host,
        )
        job_bytes = None
        if any(m in ("popen", "ssh") for m, _h in modes):
            job_bytes = self._job_payload(runtime, main, args, kwargs)
        procs: List[Any] = [None] * n
        try:
            ctx = None
            for r, (mode, label) in enumerate(modes):
                if mode == "fork":
                    if ctx is None:
                        ctx = fork_context(self.name)
                    procs[r] = ctx.Process(
                        target=_forked_agent,
                        args=(runtime, r, main, args, kwargs, address,
                              token, label, bind_host, advertise_host),
                        name=f"sock-rank-{r}",
                        daemon=True,
                    )
                    procs[r].start()
                elif mode == "popen":
                    cmd = agent_argv(
                        address, token, r, python=sys.executable,
                        bind_host=bind_host,
                        advertise_host=advertise_host,
                    )
                    procs[r] = _AgentPopen(
                        cmd, env=self._popen_env(label),
                        stdin=subprocess.DEVNULL,
                    )
                else:  # ssh
                    cmd = ssh_command(
                        label, address, token, r, python=self.python
                    )
                    procs[r] = _AgentPopen(cmd, stdin=subprocess.DEVNULL)
            records, fired = self._monitor(
                runtime, listener, token, procs, job_bytes
            )
        finally:
            try:
                listener.close()
            except OSError:
                pass
            reap(procs)
            if unix_dir is not None:
                shutil.rmtree(unix_dir, ignore_errors=True)
        return marshal_exit_records(
            runtime, records, fired, n,
            hard_death=lambda r, code: RankCrashError(
                f"rank {r} terminated unexpectedly "
                f"(no exit record; exit code {code})",
                rank=r,
            ),
        )

    @staticmethod
    def _exitcode(proc) -> Optional[int]:
        proc.join(timeout=5.0)  # reap so exitcode is populated
        return proc.exitcode

    def _monitor(
        self,
        runtime,
        listener,
        token: str,
        procs,
        job_bytes: Optional[bytes],
    ) -> Tuple[Dict[int, dict], bool]:
        """Rendezvous + run-phase control loop.

        Accepts agent control connections, hands out the peer table,
        then tracks heartbeats, aborts, exits, and deaths until every
        rank is resolved (an exit record or a hard death); finally
        broadcasts SHUTDOWN so agents tear their mesh down together.
        Returns ``(records, watchdog_fired)``.
        """
        n = runtime.nranks
        sel = selectors.DefaultSelector()
        listener.setblocking(False)
        sel.register(listener, selectors.EVENT_READ, ("listener", None))
        token_bytes = token.encode("ascii")
        conns: Dict[int, FrameSocket] = {}
        pending: Dict[FrameSocket, bool] = {}  # fs -> AUTH passed
        meta: Dict[int, dict] = {}
        records: Dict[int, dict] = {}
        hb: Dict[int, Tuple[int, int]] = {}
        last_hb: Dict[int, float] = {}
        welcomed = False
        aborted = False
        fired = False
        deadlocked = strike_rule()
        deadline = time.monotonic() + RENDEZVOUS_TIMEOUT

        def tell_all(kind: bytes) -> None:
            for fs in conns.values():
                try:
                    fs.send_frame(kind, pickle.dumps({}))
                except TransportError:
                    pass

        def broadcast_abort() -> None:
            nonlocal aborted
            if not aborted:
                aborted = True
                tell_all(ABORT)

        def lost(rank: int, why: str) -> None:
            """``rank`` is gone and left no exit record."""
            if rank in records:
                return
            records[rank] = hard_exit_record(
                rank, self._exitcode(procs[rank])
            )
            if welcomed:
                broadcast_abort()
                return
            # Died before WELCOME: cancel the whole launch.
            for r in range(n):
                records.setdefault(r, {
                    "rank": r,
                    "result": None,
                    "error": AbortError(
                        f"job aborted during startup: {why}"
                    ),
                    "traceback": "",
                })
            tell_all(SHUTDOWN)

        def handle_frame(rank: Optional[int], fs: FrameSocket,
                         kind: bytes, body: bytes) -> Optional[int]:
            if rank is None and not pending.get(fs, False):
                # Unauthenticated connection: the only acceptable frame
                # is AUTH carrying the raw job token.  Nothing else —
                # and in particular nothing pickled — is looked at
                # before this comparison passes.
                if kind != AUTH or not hmac.compare_digest(
                        body, token_bytes):
                    raise TransportError(
                        "connection failed authentication"
                    )
                pending[fs] = True
                return None
            if kind == HELLO:
                hello = pickle.loads(body)
                r = int(hello["rank"])
                if not 0 <= r < n:
                    raise TransportError(f"HELLO for bogus rank {r}")
                conns[r] = fs
                meta[r] = hello
                pending.pop(fs, None)
                sel.modify(fs.sock, selectors.EVENT_READ, ("agent", r))
                return r
            if rank is None:
                raise TransportError(
                    f"control frame {kind!r} before HELLO"
                )
            if kind == HEARTBEAT:
                beat = pickle.loads(body)
                hb[rank] = (int(beat["blocked"]), int(beat["delivered"]))
                last_hb[rank] = time.monotonic()
            elif kind == ABORT:
                broadcast_abort()
            elif kind == EXIT:
                records[rank] = pickle.loads(body)
            return rank

        while len(records) < n:
            for key, _ev in sel.select(timeout=_POLL):
                what, rank = key.data
                if what == "listener":
                    while True:
                        try:
                            conn, _addr = listener.accept()
                        except (BlockingIOError, OSError):
                            break
                        fs = FrameSocket(conn)
                        pending[fs] = False
                        sel.register(
                            conn, selectors.EVENT_READ, ("pending", fs)
                        )
                    continue
                if what == "pending":
                    fs = rank  # data slot carries the FrameSocket
                    rank = None
                else:
                    fs = conns[rank]
                try:
                    frames, eof = fs.drain()
                except TransportError:
                    frames, eof = [], True
                for kind, body in frames:
                    try:
                        rank = handle_frame(rank, fs, kind, body)
                    except Exception:
                        # Failed auth, a corrupt/undecodable pickled
                        # body, a protocol violation: drop only this
                        # connection — one stray or malformed client
                        # must never take the whole job down.  A known
                        # rank's connection falls through to the EOF
                        # path below and is handled as a lost agent.
                        eof = True
                        break
                if eof:
                    pending.pop(fs, None)
                    try:
                        sel.unregister(fs.sock)
                    except (KeyError, ValueError):
                        pass
                    fs.close()
                    if rank is not None:
                        lost(rank, f"rank {rank} dropped its control "
                             "connection before the job started")

            now = time.monotonic()

            # Rendezvous complete: publish the peer table (and jobs).
            if not welcomed and len(conns) == n:
                peers = {r: meta[r]["listen"] for r in range(n)}
                doc = pickle.dumps({"nranks": n, "peers": peers})
                for r in range(n):
                    conns[r].send_frame(WELCOME, doc)
                    if meta[r].get("external"):
                        conns[r].send_frame(JOB, job_bytes)
                welcomed = True
                # Start every rank's heartbeat clock now: an agent
                # that wedges before its *first* HEARTBEAT must still
                # trip hb_timeout, or a remote hang waits forever.
                for r in range(n):
                    last_hb.setdefault(r, now)

            # Liveness: a dead process with no exit record (its control
            # socket may still look open through inherited fds or ssh
            # buffering) is a hard death.
            for r in range(n):
                if r in records or procs[r].is_alive():
                    continue
                fs = conns.get(r)
                if fs is not None:
                    # One last drain: the EXIT frame may already be
                    # buffered even though the process is gone.
                    try:
                        frames, _eof = fs.drain()
                        for kind, body in frames:
                            handle_frame(r, fs, kind, body)
                    except TransportError:
                        pass
                lost(r, f"rank {r} agent exited before the job started")

            # Heartbeat timeout: the backstop for remote agents whose
            # process handle we cannot poll meaningfully (ssh).  Every
            # rank's clock starts at WELCOME, so a rank that never
            # heartbeats at all still times out.
            if welcomed:
                for r in range(n):
                    if now - last_hb.get(r, now) > self.hb_timeout:
                        lost(r, "")

            if not welcomed and now > deadline:
                # Rendezvous never completed: every missing rank is a
                # hard death; connected agents get SHUTDOWN below.
                for r in range(n):
                    if r not in records:
                        records[r] = hard_exit_record(
                            r, self._exitcode(procs[r])
                        )
                break

            # The deadlock rule over the heartbeat sums.
            if welcomed and not aborted:
                live = [r for r in range(n) if r not in records]
                if deadlocked(
                    len(live),
                    sum(hb.get(r, (0, 0))[0] for r in live),
                    sum(hb.get(r, (0, 0))[1] for r in range(n)),
                ):
                    fired = True
                    broadcast_abort()

        # All ranks resolved: release the mesh everywhere at once.
        tell_all(SHUTDOWN)
        sel.close()
        for fs in conns.values():
            fs.close()
        for fs in pending:  # stray connections still dangling
            fs.close()
        return records, fired
