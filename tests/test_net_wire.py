"""Wire framing, hostfile parsing, and agent-launch plumbing.

The framing fuzz matrix is the satellite contract: partial reads
(byte-at-a-time senders), oversize payloads (sized off the ShmRing
fragment-threshold constants so the two transports are stressed at the
same scale), interleaved frames from concurrent writer threads, and
truncated streams must all either round-trip exactly or raise a clean
:class:`TransportError` — never deadlock (every receive here is
bounded by a socket timeout).
"""

import os
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.mpi.shm import _FRAGMENT_FRACTION, DEFAULT_RING_CAPACITY
from repro.net import TransportError
from repro.net.hostfile import (
    HostEntry,
    HostfileError,
    agent_argv,
    is_local_host,
    parse_hostfile,
    rank_layout,
    ssh_command,
    total_slots,
)
from repro.net.wire import (
    AUTH,
    ENVELOPE,
    HEADER_BYTES,
    HEARTBEAT,
    KNOWN_KINDS,
    MAGIC,
    PEER_HELLO,
    FrameSocket,
    connect,
    format_address,
    make_listener,
    parse_address,
)

#: The shm transport's fragment threshold: payloads above this cross a
#: ring as fragments; over sockets they must simply pass through.
FRAGMENT_THRESHOLD = DEFAULT_RING_CAPACITY // _FRAGMENT_FRACTION


def _pair(max_frame=1 << 30):
    a, b = socket.socketpair()
    return FrameSocket(a, max_frame=max_frame), FrameSocket(
        b, max_frame=max_frame
    )


class TestFraming:
    def test_round_trip(self):
        tx, rx = _pair()
        tx.send_frame(ENVELOPE, b"hello world")
        assert rx.recv_frame(timeout=5.0) == (ENVELOPE, b"hello world")
        tx.close(), rx.close()

    def test_empty_body(self):
        tx, rx = _pair()
        tx.send_frame(HEARTBEAT, b"")
        assert rx.recv_frame(timeout=5.0) == (HEARTBEAT, b"")
        tx.close(), rx.close()

    def test_many_frames_in_order(self):
        tx, rx = _pair()
        bodies = [os.urandom(i * 37 % 1024) for i in range(200)]
        got = []

        def reader():
            for _ in bodies:
                got.append(rx.recv_frame(timeout=30.0))

        t = threading.Thread(target=reader, daemon=True)
        t.start()
        for body in bodies:
            tx.send_frame(ENVELOPE, body)
        t.join(timeout=30.0)
        assert got == [(ENVELOPE, body) for body in bodies]
        tx.close(), rx.close()

    def test_partial_reads_resume_across_timeouts(self):
        """A byte-at-a-time sender costs patience, never correctness."""
        a, b = socket.socketpair()
        rx = FrameSocket(b)
        body = b"slow but sure"
        raw = struct.pack("!2ssI", MAGIC, ENVELOPE, len(body)) + body

        def dribble():
            for i in range(len(raw)):
                a.sendall(raw[i:i + 1])
                time.sleep(0.002)

        t = threading.Thread(target=dribble, daemon=True)
        t.start()
        # Short timeouts force many TimeoutErrors mid-frame; the buffer
        # must survive each one and resume exactly where it left off.
        deadline = time.monotonic() + 10.0
        while True:
            try:
                frame = rx.recv_frame(timeout=0.005)
                break
            except TimeoutError:
                assert time.monotonic() < deadline, "framing lost data"
        assert frame == (ENVELOPE, body)
        t.join()
        a.close(), rx.close()

    def test_spill_sized_payload_passes(self):
        """Payloads above the shm fragment threshold are ordinary frames."""
        tx, rx = _pair()
        body = os.urandom(FRAGMENT_THRESHOLD + 1)
        got = []
        t = threading.Thread(
            target=lambda: got.append(rx.recv_frame(timeout=30.0)),
            daemon=True,
        )
        t.start()
        tx.send_frame(ENVELOPE, body)
        t.join(timeout=30.0)
        assert got and got[0] == (ENVELOPE, body)
        tx.close(), rx.close()

    def test_oversize_send_refused(self):
        tx, _rx = _pair(max_frame=1024)
        with pytest.raises(TransportError, match="refusing to send"):
            tx.send_frame(ENVELOPE, b"x" * 2048)

    def test_oversize_declared_length_rejected_before_body(self):
        """A hostile header cannot make the receiver buffer the body:
        the declared length is validated from the header alone."""
        a, b = socket.socketpair()
        rx = FrameSocket(b, max_frame=1024)
        a.sendall(struct.pack("!2ssI", MAGIC, ENVELOPE, 1 << 29))
        with pytest.raises(TransportError, match="exceeds"):
            rx.recv_frame(timeout=5.0)
        a.close(), rx.close()

    def test_bad_magic_rejected(self):
        a, b = socket.socketpair()
        rx = FrameSocket(b)
        a.sendall(b"XX" + b"E" + struct.pack("!I", 3) + b"abc")
        with pytest.raises(TransportError, match="magic"):
            rx.recv_frame(timeout=5.0)
        a.close(), rx.close()

    def test_unknown_kind_rejected(self):
        a, b = socket.socketpair()
        rx = FrameSocket(b)
        assert b"z" not in KNOWN_KINDS
        a.sendall(struct.pack("!2ssI", MAGIC, b"z", 0))
        with pytest.raises(TransportError, match="unknown frame kind"):
            rx.recv_frame(timeout=5.0)
        a.close(), rx.close()

    def test_truncated_mid_frame_is_clean_error(self):
        a, b = socket.socketpair()
        rx = FrameSocket(b)
        a.sendall(struct.pack("!2ssI", MAGIC, ENVELOPE, 100) + b"only")
        a.close()
        with pytest.raises(TransportError, match="truncated mid-frame"):
            rx.recv_frame(timeout=5.0)
        rx.close()

    def test_truncated_mid_header_is_clean_error(self):
        a, b = socket.socketpair()
        rx = FrameSocket(b)
        a.sendall(b"R")  # half the magic, then EOF
        a.close()
        with pytest.raises(TransportError, match="truncated mid-frame"):
            rx.recv_frame(timeout=5.0)
        rx.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        rx = FrameSocket(b)
        a.sendall(struct.pack("!2ssI", MAGIC, HEARTBEAT, 0))
        a.close()
        assert rx.recv_frame(timeout=5.0) == (HEARTBEAT, b"")
        assert rx.recv_frame(timeout=5.0) is None
        rx.close()

    def test_concurrent_writers_never_interleave(self):
        """The send lock makes frames atomic: two writer threads
        hammering one socket must produce only intact frames."""
        tx, rx = _pair()
        per_writer = 100

        def writer(tag):
            for i in range(per_writer):
                body = bytes([tag]) * (1 + (i * 131) % 4096)
                tx.send_frame(ENVELOPE, body)

        threads = [
            threading.Thread(target=writer, args=(t,), daemon=True)
            for t in (1, 2)
        ]
        for t in threads:
            t.start()
        seen = {1: 0, 2: 0}
        for _ in range(2 * per_writer):
            kind, body = rx.recv_frame(timeout=30.0)
            assert kind == ENVELOPE
            assert len(set(body)) == 1, "interleaved frame bodies"
            seen[body[0]] += 1
        assert seen == {1: per_writer, 2: per_writer}
        for t in threads:
            t.join()
        tx.close(), rx.close()

    def test_drain_collects_buffered_frames(self):
        tx, rx = _pair()
        for i in range(5):
            tx.send_frame(ENVELOPE, bytes([i]))
        time.sleep(0.05)
        frames, eof = rx.drain()
        assert [b for _k, b in frames] == [bytes([i]) for i in range(5)]
        assert not eof
        tx.close()
        time.sleep(0.05)
        frames, eof = rx.drain()
        assert frames == [] and eof
        rx.close()

    def test_header_size_is_seven_bytes(self):
        assert HEADER_BYTES == 7


class TestAddresses:
    def test_tcp_round_trip(self):
        addr = ("tcp", "10.1.2.3", 4567)
        assert parse_address(format_address(addr)) == addr

    def test_unix_round_trip(self):
        addr = ("unix", "/tmp/x/y.sock")
        assert parse_address(format_address(addr)) == addr

    @pytest.mark.parametrize("bad", ["tcp:nohost", "unix:", "ftp:x:1",
                                     "tcp::", "tcp:h:notaport"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(TransportError):
            parse_address(bad)


    def test_wire_imports_the_idna_codec_before_any_fork(self):
        """``getaddrinfo`` imports ``encodings.idna`` on first use; a
        rank forked while another thread was in that import would
        inherit its import lock held.  Importing the wire module must
        already have done it."""
        code = ("import sys, repro.net.wire; "
                "print('encodings.idna' in sys.modules)")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.stdout.strip() == "True", out.stderr


class TestHostfile:
    def test_parse_slots_and_comments(self):
        entries = parse_hostfile(
            "# cluster\n"
            "node0 slots=4\n"
            "\n"
            "node1 slots=2  # the small one\n"
            "node2\n"
        )
        assert entries == [
            HostEntry("node0", 4), HostEntry("node1", 2),
            HostEntry("node2", 1),
        ]
        assert total_slots(entries) == 7

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(HostfileError, match="hf:2.*unknown option"):
            parse_hostfile("a\nb frobnicate=1\n", name="hf")
        with pytest.raises(HostfileError, match="hf:1.*integer"):
            parse_hostfile("a slots=many\n", name="hf")
        with pytest.raises(HostfileError, match="hf:1.*>= 1"):
            parse_hostfile("a slots=0\n", name="hf")
        with pytest.raises(HostfileError, match="no hosts"):
            parse_hostfile("# nothing here\n", name="hf")

    def test_rank_layout_fills_in_file_order(self):
        entries = [HostEntry("a", 2), HostEntry("b", 1)]
        assert rank_layout(entries, 3) == ["a", "a", "b"]

    def test_rank_layout_wraps_on_oversubscription(self):
        entries = [HostEntry("a", 1), HostEntry("b", 1)]
        assert rank_layout(entries, 5) == ["a", "b", "a", "b", "a"]

    def test_is_local_host(self):
        assert is_local_host("localhost")
        assert is_local_host("127.0.0.1")
        assert is_local_host(socket.gethostname())
        assert not is_local_host("surely-not-this-machine")

    def test_ssh_command_quotes_remote(self):
        cmd = ssh_command(
            "node7", ("tcp", "10.0.0.1", 9999), "tok", 3,
            python="python3.11",
        )
        assert cmd[:3] == ["ssh", "-o", "BatchMode=yes"]
        assert cmd[3] == "node7"
        remote = cmd[4]
        assert "python3.11 -m repro.net" in remote
        assert "--connect tcp:10.0.0.1:9999" in remote
        assert "--rank 3" in remote

    def test_ssh_command_binds_all_and_advertises_label(self):
        """A remote agent must not listen on loopback: its peer
        listener binds every interface and advertises the hostfile
        label — the one name already known to route to that machine."""
        remote = ssh_command("node7", ("tcp", "10.0.0.1", 9999),
                             "tok", 3)[4]
        assert "--bind-host 0.0.0.0" in remote
        assert "--advertise-host node7" in remote

    def test_agent_argv_round_trips_address(self):
        argv = agent_argv(("tcp", "127.0.0.1", 1234), "tok", 0)
        addr = parse_address(argv[argv.index("--connect") + 1])
        assert addr == ("tcp", "127.0.0.1", 1234)

    def test_agent_argv_bind_advertise_flags(self):
        argv = agent_argv(("tcp", "127.0.0.1", 1234), "tok", 0,
                          bind_host="0.0.0.0", advertise_host="me")
        assert argv[argv.index("--bind-host") + 1] == "0.0.0.0"
        assert argv[argv.index("--advertise-host") + 1] == "me"
        plain = agent_argv(("tcp", "127.0.0.1", 1234), "tok", 0)
        assert "--bind-host" not in plain
        assert "--advertise-host" not in plain


class TestListenerAddressing:
    """Bind vs advertise: remote peers must never be told loopback."""

    def test_default_listener_is_loopback(self):
        sock, addr = make_listener("tcp")
        assert addr == ("tcp", "127.0.0.1", addr[2])
        sock.close()

    def test_wildcard_bind_advertises_hostname(self):
        sock, addr = make_listener("tcp", bind_host="0.0.0.0")
        assert addr[1] == socket.gethostname()
        assert addr[1] != "0.0.0.0"
        sock.close()

    def test_explicit_advertise_wins(self):
        sock, addr = make_listener("tcp", bind_host="0.0.0.0",
                                   advertise_host="node9.cluster")
        assert addr[1] == "node9.cluster"
        sock.close()

    @pytest.mark.skipif(
        socket.gethostname() in ("localhost", "127.0.0.1"),
        reason="machine hostname is itself a loopback name",
    )
    def test_remote_layout_never_advertises_loopback(self):
        """The cross-machine case: with a genuinely remote host in the
        layout, the rendezvous address handed to ssh agents must be
        routable — a remote agent dialing 127.0.0.1 reaches itself."""
        from repro.net import SocketBackend

        backend = SocketBackend(hosts=["localhost", "far-away-node"])
        modes = backend._rank_modes(2)
        assert ("ssh", "far-away-node") in modes
        bind, adv = backend._listen_policy(modes)
        assert bind == "0.0.0.0"
        sock, addr = make_listener("tcp", bind_host=bind,
                                   advertise_host=adv)
        assert addr[1] not in ("127.0.0.1", "0.0.0.0", "localhost",
                               "::1", "")
        sock.close()

    def test_local_layout_stays_loopback(self):
        from repro.net import SocketBackend

        backend = SocketBackend()
        bind, adv = backend._listen_policy(backend._rank_modes(2))
        assert (bind, adv) == ("127.0.0.1", None)

    def test_explicit_policy_overrides(self):
        from repro.net import SocketBackend

        backend = SocketBackend(
            hosts=["remote1", "remote2"],
            bind_host="10.0.0.5", advertise_host="driver.example",
        )
        bind, adv = backend._listen_policy(backend._rank_modes(2))
        assert (bind, adv) == ("10.0.0.5", "driver.example")


_MESH_CANARY_HITS = []


def _trip_mesh_canary():
    _MESH_CANARY_HITS.append(1)


class _EvilMeshPayload:
    """Unpickling this records the fact — it must never happen."""

    def __reduce__(self):
        return (_trip_mesh_canary, ())


def _probe_until_closed(fs):
    """Read until the far side drops the connection (EOF or RST)."""
    try:
        return fs.recv_frame(timeout=10.0)
    except TransportError:
        return None
    finally:
        fs.close()


class TestMeshAuth:
    """Peer mesh connections authenticate before anything unpickles."""

    def test_stray_connection_dropped_and_never_unpickled(self):
        import pickle

        from repro.net.agent import _build_mesh

        token = "sekrit-token"
        listener, addr = make_listener("tcp", name="peer0")
        out = {}

        def build():  # rank 0 of 2: accepts exactly one peer (rank 1)
            out["socks"] = _build_mesh(0, 2, listener, {}, token,
                                       1 << 20, threading.Event())

        t = threading.Thread(target=build, daemon=True)
        t.start()
        # A stray client skips AUTH and sends a malicious PEER_HELLO:
        # it must be dropped without its body ever reaching pickle.
        stray = connect(addr)
        stray.send_frame(PEER_HELLO, pickle.dumps(_EvilMeshPayload()))
        assert _probe_until_closed(stray) is None
        # A second stray presents the wrong token.
        stray = connect(addr)
        stray.send_frame(AUTH, b"wrong-token")
        stray.send_frame(PEER_HELLO, pickle.dumps(_EvilMeshPayload()))
        assert _probe_until_closed(stray) is None
        # The real rank-1 peer still gets through.
        real = connect(addr)
        real.send_frame(AUTH, token.encode("ascii"))
        real.send_frame(PEER_HELLO, pickle.dumps({"rank": 1}))
        t.join(timeout=15.0)
        assert not t.is_alive(), "mesh build wedged by stray clients"
        assert set(out["socks"]) == {1}
        assert _MESH_CANARY_HITS == []
        for fs in out["socks"].values():
            fs.close()
        real.close()
        listener.close()


def _ext_ring(comm, base):
    """Module-level (hence picklable) main for external agents."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.send(base + comm.rank, dest=right, tag=0)
    return comm.recv(source=left, tag=0)


class TestExternalAgents:
    """The ssh-style path, exercised with local subprocesses."""

    def test_external_agents_run_the_job(self):
        from repro.mpi import Runtime
        from repro.net import SocketBackend

        backend = SocketBackend(external=True)
        res = Runtime(nranks=3, backend=backend).run(_ext_ring, (100,))
        assert res == [102, 100, 101]

    @pytest.mark.parametrize("external", [False, True])
    def test_both_spawn_modes_wait_for_welcome_as_long_as_the_driver(
        self, external, monkeypatch
    ):
        """One rendezvous: the entry point ``SocketBackend()`` forks and
        the one ``SocketBackend(external=True)`` execs both join through
        ``join_job``, whose patience is the driver's.  Here the driver
        "answers" 31 s after HELLO — past the 30 s an external agent
        used to allow — without a real sleep: every wait of 31 s or less
        simply times out."""
        import pickle

        from repro.mpi import Runtime
        from repro.net import agent, backend
        from repro.net.wire import EXIT, HELLO, JOB, SHUTDOWN, WELCOME

        real_recv = FrameSocket.recv_frame

        def late(self, timeout=None):
            if timeout is not None and 0 < timeout <= 31.0:
                raise TimeoutError("nothing arrives within 31 s")
            return real_recv(self, timeout)

        monkeypatch.setattr(FrameSocket, "recv_frame", late)
        assert backend.RENDEZVOUS_TIMEOUT is agent.RENDEZVOUS_TIMEOUT
        listener, addr = make_listener("tcp")
        seen = {}

        def driver():
            conn, _addr = listener.accept()
            fs = FrameSocket(conn)
            assert fs.recv_frame() == (AUTH, b"tok")
            kind, body = fs.recv_frame()
            assert kind == HELLO
            hello = pickle.loads(body)
            fs.send_frame(WELCOME, pickle.dumps(
                {"nranks": 1, "peers": {0: hello["listen"]}}
            ))
            if hello["external"]:
                rt = Runtime(nranks=1)
                fs.send_frame(JOB, pickle.dumps({
                    "main": _ext_ring, "args": (7,), "kwargs": {},
                    "machine": rt.machine,
                    "trace_messages": False, "fault_plan": None,
                    "fault_base_step": 0,
                }))
            while kind != EXIT:
                kind, body = fs.recv_frame()
            seen.update(pickle.loads(body), external=hello["external"])
            fs.send_frame(SHUTDOWN, pickle.dumps({}))
            fs.close()

        fake = threading.Thread(target=driver, daemon=True)
        fake.start()
        if external:
            assert agent.external_agent(addr, "tok", 0) == 0
        else:
            backend._forked_agent(
                Runtime(nranks=1), 0, _ext_ring, (7,), {}, addr, "tok",
                None, "127.0.0.1", None,
            )
        fake.join(timeout=15.0)
        listener.close()
        assert not fake.is_alive()
        assert (seen["result"], seen["error"]) == (7, None)
        assert seen["external"] is external

    def test_unpicklable_job_refused_up_front(self):
        from repro.mpi import MPIError, Runtime
        from repro.net import SocketBackend

        sock = socket.socket()  # unpicklable closure capture
        try:
            backend = SocketBackend(external=True)
            with pytest.raises(MPIError, match="picklable job"):
                Runtime(nranks=2, backend=backend).run(
                    lambda comm: sock.fileno()
                )
        finally:
            sock.close()

    def test_agent_cli_rejects_bad_address(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.net", "--connect",
             "bogus:xyz", "--token", "t", "--rank", "0"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ,
                 "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode != 0


class TestHostFingerprint:
    def test_env_override(self, monkeypatch):
        from repro.autotune import host_fingerprint

        monkeypatch.setenv("REPRO_HOST_ID", "fake-node-17")
        assert host_fingerprint().startswith("fake-node-17/")

    def test_contains_hostname_by_default(self, monkeypatch):
        import platform

        from repro.autotune import host_fingerprint

        monkeypatch.delenv("REPRO_HOST_ID", raising=False)
        host = platform.node() or socket.gethostname()
        assert host_fingerprint().split("/")[0] == host
