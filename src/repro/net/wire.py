"""Length-prefixed framed wire protocol for the sockets backend.

Every byte that crosses a connection — rank-to-rank envelopes and
driver control records alike — travels as one *frame*::

    +-------+------+-----------------+---------------------+
    | magic | kind | length (uint32) | body (length bytes) |
    | 2 B   | 1 B  | big-endian      |                     |
    +-------+------+-----------------+---------------------+

The 7-byte header is ``struct`` packed (``!2ssI``).  ``kind`` selects
the payload interpretation: :data:`ENVELOPE` bodies are pickled
:class:`~repro.mpi.transport.Envelope` records (the same
``dump_envelope`` bytes the shm rings carry), everything else is a
pickled dict.  ``length`` is validated against ``max_frame`` *before*
any body byte is read, so a corrupt or hostile peer cannot make a
receiver allocate unbounded memory.

:class:`FrameSocket` wraps a connected socket with the two properties
the backend needs:

* **Atomic writes.**  ``send_frame`` holds a lock around one
  ``sendall`` of header+body, so concurrent writer threads (the rank's
  sends, its heartbeat thread, an abort notification) can share a
  connection without interleaving partial frames.
* **Resumable reads.**  The receive buffer survives timeouts: a
  partial frame stays buffered and the next ``recv_frame`` call picks
  up where the stream left off, so slow or byte-at-a-time senders cost
  patience, never correctness.  A clean EOF *between* frames returns
  ``None``; an EOF *inside* a frame — or a bad magic, an unknown kind,
  an oversize declared length — raises :class:`TransportError`.
"""

from __future__ import annotations

# ``socket.getaddrinfo`` imports this codec on a process's first call.
# Import it with this module instead: a rank process forked while
# another thread of its parent is inside that import inherits the
# module's import lock held, by a thread the child does not have, and
# hangs in its first ``connect``.
import encodings.idna  # noqa: F401
import os
import socket
import struct
import tempfile
import threading
from typing import List, Optional, Tuple

from ..mpi.errors import MPIError

#: Frame header: magic, kind byte, big-endian uint32 body length.
_HEADER = struct.Struct("!2ssI")
HEADER_BYTES = _HEADER.size

#: Protocol magic — the first two bytes of every frame.
MAGIC = b"Rw"

#: Hard ceiling on one frame's body (1 GiB).  Large solver payloads
#: pickle to tens of MB; anything near this bound is a framing bug or
#: a corrupt stream, not a message.
MAX_FRAME_BYTES = 1 << 30

# -- frame kinds -------------------------------------------------------
#: First frame on every dialed connection: the raw job token.  The
#: body is raw bytes (never pickled) and is compared with
#: ``hmac.compare_digest`` before any pickled frame is accepted on the
#: connection, so an unauthenticated peer can never reach
#: ``pickle.loads``.
AUTH = b"T"
#: Agent -> driver: join the job (rank, peer listen address).
HELLO = b"H"
#: Driver -> agent: job admitted (nranks + the full peer table).
WELCOME = b"W"
#: Driver -> external agent: the pickled job to run (main/args/model).
JOB = b"J"
#: Rank -> rank: one pickled message envelope.
ENVELOPE = b"E"
#: Rank -> rank, first frame on a mesh connection: who is calling.
PEER_HELLO = b"P"
#: Rank -> rank: "acknowledge once every envelope I sent before this
#: marker has been delivered" — the determinism fence an aborting rank
#: runs before the driver broadcasts its failure.
FLUSH = b"F"
#: Rank -> rank: the answer to FLUSH (sent by the receiver's rx thread
#: *after* delivering everything that preceded the marker in-stream).
FLUSH_ACK = b"K"
#: Agent -> driver: liveness + the mailbox's blocked/delivered counts.
HEARTBEAT = b"B"
#: Either direction: a rank failed; stop the job.
ABORT = b"A"
#: Agent -> driver: the rank's exit record (result/clock/profile/...).
EXIT = b"X"
#: Driver -> agent: all ranks resolved; tear the mesh down and exit.
SHUTDOWN = b"S"

KNOWN_KINDS = frozenset(
    (AUTH, HELLO, WELCOME, JOB, ENVELOPE, PEER_HELLO, FLUSH, FLUSH_ACK,
     HEARTBEAT, ABORT, EXIT, SHUTDOWN)
)

#: recv() chunk size.
_RECV_CHUNK = 1 << 16


class TransportError(MPIError):
    """The wire protocol was violated or a connection failed.

    Raised for truncated streams (EOF inside a frame), bad magic bytes,
    unknown frame kinds, bodies longer than the receiver's ``max_frame``
    bound, and OS-level connection failures.  Deliberately an
    :class:`~repro.mpi.errors.MPIError` so transport faults surface
    through the same error channel as every other runtime failure.
    """


class FrameSocket:
    """A framed, thread-safe view of one connected stream socket."""

    def __init__(self, sock: socket.socket,
                 max_frame: int = MAX_FRAME_BYTES):
        self.sock = sock
        self.max_frame = max_frame
        self._send_lock = threading.Lock()
        self._buf = bytearray()
        self._eof = False
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # unix-domain / already closed

    # -- sending -------------------------------------------------------

    def send_frame(self, kind: bytes, body: bytes = b"") -> None:
        """Write one frame atomically (safe from concurrent threads)."""
        if len(body) > self.max_frame:
            raise TransportError(
                f"refusing to send a {len(body)}-byte frame "
                f"(max_frame={self.max_frame})"
            )
        header = _HEADER.pack(MAGIC, kind, len(body))
        with self._send_lock:
            try:
                # A prior zero-timeout recv (``drain``) leaves the socket
                # non-blocking; sendall must not short-write, so force
                # blocking mode for the write and restore afterwards.
                old = self.sock.gettimeout()
                self.sock.settimeout(None)
                try:
                    self.sock.sendall(header + body)
                finally:
                    self.sock.settimeout(old)
            except OSError as exc:
                raise TransportError(f"send failed: {exc}") from exc

    # -- receiving -----------------------------------------------------

    def _parse_one(self) -> Optional[Tuple[bytes, bytes]]:
        """Pop one complete frame off the buffer, or ``None``."""
        if len(self._buf) < HEADER_BYTES:
            return None
        magic, kind, length = _HEADER.unpack_from(self._buf)
        if magic != MAGIC:
            raise TransportError(
                f"bad frame magic {bytes(magic)!r} (expected {MAGIC!r}); "
                "stream is corrupt or not a repro wire peer"
            )
        if kind not in KNOWN_KINDS:
            raise TransportError(f"unknown frame kind {kind!r}")
        if length > self.max_frame:
            raise TransportError(
                f"declared frame body of {length} bytes exceeds "
                f"max_frame={self.max_frame}"
            )
        if len(self._buf) < HEADER_BYTES + length:
            return None
        body = bytes(self._buf[HEADER_BYTES:HEADER_BYTES + length])
        del self._buf[:HEADER_BYTES + length]
        return kind, body

    def recv_frame(
        self, timeout: Optional[float] = None
    ) -> Optional[Tuple[bytes, bytes]]:
        """Read one frame.

        Returns ``(kind, body)``, or ``None`` on a clean EOF at a frame
        boundary.  Raises :class:`TimeoutError` if ``timeout`` elapses
        first — buffered partial data is kept, so the call can simply
        be retried.  Raises :class:`TransportError` on a protocol
        violation or connection failure.
        """
        while True:
            frame = self._parse_one()
            if frame is not None:
                return frame
            if self._eof:
                if self._buf:
                    raise TransportError(
                        f"stream truncated mid-frame "
                        f"({len(self._buf)} dangling bytes)"
                    )
                return None
            try:
                self.sock.settimeout(timeout)
                chunk = self.sock.recv(_RECV_CHUNK)
            except (socket.timeout, BlockingIOError):
                raise TimeoutError("recv_frame timed out") from None
            except OSError as exc:
                raise TransportError(f"recv failed: {exc}") from exc
            if not chunk:
                self._eof = True
                continue
            self._buf.extend(chunk)

    def drain(self) -> Tuple[List[Tuple[bytes, bytes]], bool]:
        """Non-blocking read of everything currently available.

        Returns ``(frames, eof)`` — used by the driver's ``selectors``
        loop, where readability of the raw socket is known but the
        number of complete frames behind it is not.
        """
        frames: List[Tuple[bytes, bytes]] = []
        while True:
            try:
                frame = self.recv_frame(timeout=0.0)
            except TimeoutError:
                return frames, False
            if frame is None:
                return frames, True
            frames.append(frame)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


# -- addresses ---------------------------------------------------------
#
# An address is a plain tuple so it pickles into control frames:
# ``("tcp", host, port)`` or ``("unix", path)``.


#: TCP bind hosts that mean "every interface" — never dialable, so an
#: advertised address must substitute something routable for them.
WILDCARD_HOSTS = frozenset({"0.0.0.0", "::", ""})


def make_listener(family: str = "tcp",
                  unix_dir: Optional[str] = None,
                  name: str = "l",
                  bind_host: str = "127.0.0.1",
                  advertise_host: Optional[str] = None,
                  ) -> Tuple[socket.socket, tuple]:
    """Create a bound, listening socket; returns ``(sock, address)``.

    The returned address is what peers are told to dial, so it must be
    routable *from them*: ``bind_host`` controls which interface the
    socket listens on (``0.0.0.0`` for all), while ``advertise_host``
    overrides the host peers see.  When ``advertise_host`` is omitted
    and the bind host is a wildcard, the machine's hostname is
    advertised — a loopback address would strand any truly remote
    peer dialing its own machine.
    """
    if family == "tcp":
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((bind_host, 0))
        host, port = sock.getsockname()
        if advertise_host is not None:
            host = advertise_host
        elif host in WILDCARD_HOSTS:
            host = socket.gethostname()
        addr = ("tcp", host, port)
    elif family == "unix":
        if unix_dir is None:
            unix_dir = tempfile.mkdtemp(prefix="repro-net-")
        path = os.path.join(unix_dir, f"{name}-{os.getpid()}.sock")
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(path)
        addr = ("unix", path)
    else:
        raise TransportError(
            f"unknown socket family {family!r} (expected 'tcp' or 'unix')"
        )
    sock.listen(64)
    return sock, addr


def connect(address: tuple, timeout: float = 30.0,
            max_frame: int = MAX_FRAME_BYTES) -> FrameSocket:
    """Connect to a :func:`make_listener` address; returns a FrameSocket."""
    try:
        if address[0] == "tcp":
            sock = socket.create_connection(
                (address[1], address[2]), timeout=timeout
            )
        elif address[0] == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            sock.connect(address[1])
        else:
            raise TransportError(f"unknown address family {address[0]!r}")
    except OSError as exc:
        raise TransportError(
            f"cannot connect to {format_address(address)}: {exc}"
        ) from exc
    sock.settimeout(None)
    return FrameSocket(sock, max_frame=max_frame)


def format_address(address: tuple) -> str:
    """Render an address for command lines: ``tcp:host:port`` etc."""
    if address[0] == "tcp":
        return f"tcp:{address[1]}:{address[2]}"
    return f"unix:{address[1]}"


def parse_address(text: str) -> tuple:
    """Inverse of :func:`format_address`."""
    kind, _, rest = text.partition(":")
    if kind == "tcp":
        host, _, port = rest.rpartition(":")
        if not host or not port.isdigit():
            raise TransportError(f"malformed tcp address {text!r}")
        return ("tcp", host, int(port))
    if kind == "unix":
        if not rest:
            raise TransportError(f"malformed unix address {text!r}")
        return ("unix", rest)
    raise TransportError(f"unknown address family in {text!r}")
