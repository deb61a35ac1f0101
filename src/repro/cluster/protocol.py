"""Length-prefixed JSON-over-TCP framing for the cluster protocol.

Every message on the wire is one *frame*: a 4-byte big-endian length
header followed by that many bytes of UTF-8 JSON.  A message is a JSON
object whose ``type`` field names one of the constants below; all other
fields are message-specific.  The framing is symmetric -- coordinator
and workers use the same :class:`Connection` wrapper -- and
version-checked at handshake time (``HELLO`` carries
``PROTOCOL_VERSION`` plus the sender's code salt, so a worker running a
different source tree is rejected before it can serve stale results).

Message flow::

    worker                         coordinator
      | <-- CHALLENGE {nonce} ------- |        only with a shared secret
      | -- AUTH {mac} --------------> |        HMAC-SHA256(secret, nonce)
      | -- HELLO {worker,salt,..} --> |        register (or REJECT)
      | <-- WELCOME ----------------- |
      | -- HEARTBEAT (periodic) ----> |        liveness (echoed back)
      | <-- JOB {job_id, spec} ------ |        lease
      | -- RESULT {job_id, ok, ..} -> |        lease complete
      | <-- DRAIN ------------------- |        finish + exit
      | -- GOODBYE -----------------> |

    status client                  coordinator
      | <-- CHALLENGE / -- AUTH ----- |        same gate as workers
      | -- STATUS ------------------> |
      | <-- STATUS_REPLY {...} ------ |

When the coordinator holds a shared secret (``--secret`` /
``$REPRO_CLUSTER_SECRET``) it speaks first: every accepted connection
gets a ``CHALLENGE`` carrying a fresh nonce and must answer with the
HMAC-SHA256 of that nonce under the secret before *any* other frame is
processed -- an unauthenticated or wrong-secret dialer is rejected
before its HELLO is even read.  The comparison is constant-time
(:func:`hmac.compare_digest`); the secret itself never crosses the wire.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import socket
import struct
import threading

# Version 2: CHALLENGE/AUTH handshake frames + coordinator-side
# heartbeat echo (workers use the echo to detect a dead/partitioned
# coordinator instead of blocking forever on recv).
# Version 3: optional TLS under the HMAC handshake, plus the serve-daemon
# client frames (SESSION/SUBMIT/JOB_DONE/SWEEP_DONE) multiplexed on the
# same listening socket as worker HELLOs.
PROTOCOL_VERSION = 3

#: Hard ceiling on one frame; a Metrics payload is a few KB, so anything
#: near this is a corrupt or hostile stream, not a big result.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")

# -- message types ----------------------------------------------------------
CHALLENGE = "challenge"      # coordinator -> dialer: prove the shared secret
AUTH = "auth"                # dialer -> coordinator: HMAC over the nonce
HELLO = "hello"              # worker -> coordinator: join the registry
WELCOME = "welcome"          # coordinator -> worker: registered
REJECT = "reject"            # coordinator -> worker: refused (salt/version)
JOB = "job"                  # coordinator -> worker: run this JobSpec
RESULT = "result"            # worker -> coordinator: metrics or error
HEARTBEAT = "heartbeat"      # worker -> coordinator: still alive
DRAIN = "drain"              # coordinator -> worker: finish + exit
GOODBYE = "goodbye"          # worker -> coordinator: clean departure
STATUS = "status"            # client -> coordinator: registry snapshot?
STATUS_REPLY = "status-reply"

# -- serve-daemon client frames (protocol v3) -------------------------------
SESSION = "session"          # client -> daemon: open a sweep session
SESSION_OK = "session-ok"    # daemon -> client: session registered
SUBMIT = "submit"            # client -> daemon: one sweep of JobSpecs
SWEEP_ACCEPTED = "sweep-accepted"   # daemon -> client: sweep queued
JOB_DONE = "job-done"        # daemon -> client: one job's result (streamed)
SWEEP_DONE = "sweep-done"    # daemon -> client: sweep fully settled


class ProtocolError(RuntimeError):
    """Framing violation: truncated frame, oversized frame, bad JSON."""


class AuthenticationError(ProtocolError):
    """Handshake authentication failed (missing or wrong shared secret)."""


class ClusterError(RuntimeError):
    """Fleet-level failure (no workers, bad bind, handshake trouble)."""


_ENV_SECRET = "REPRO_CLUSTER_SECRET"


def default_secret():
    """``$REPRO_CLUSTER_SECRET``, or ``None`` when auth is not configured."""
    return os.environ.get(_ENV_SECRET) or None


def compute_mac(secret, nonce):
    """HMAC-SHA256 proof-of-secret over a handshake nonce (hex digest)."""
    return hmac.new(str(secret).encode("utf-8"), str(nonce).encode("utf-8"),
                    hashlib.sha256).hexdigest()


def verify_mac(secret, nonce, offered):
    """Constant-time check of an offered handshake MAC."""
    if not isinstance(offered, str):
        return False
    return hmac.compare_digest(compute_mac(secret, nonce), offered)


def authenticate_client(connection, secret):
    """Dialer side of the shared-secret gate, before any other frame.

    With a secret configured the coordinator speaks first: wait for its
    ``CHALLENGE`` and answer with the MAC.  Raises
    :class:`AuthenticationError` if the coordinator never challenges
    (it is running without a secret) -- a configuration mismatch is an
    error, not something to silently paper over.
    """
    if not secret:
        return
    challenge = connection.recv()
    if challenge is None:
        raise AuthenticationError(
            "coordinator closed the connection before the auth challenge "
            "(wrong address, or it rejected an earlier frame)")
    if challenge.get("type") != CHALLENGE:
        raise AuthenticationError(
            f"a secret is configured but the coordinator sent "
            f"{challenge.get('type')!r} instead of an auth challenge "
            f"(is it running with --secret?)")
    connection.send(AUTH, mac=compute_mac(secret, challenge.get("nonce")))


def parse_address(address):
    """``"host:port"`` -> ``(host, port)``; bare ``":port"`` means loopback."""
    if isinstance(address, (tuple, list)):
        host, port = address
        return host, int(port)
    host, sep, port = str(address).rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"address must look like HOST:PORT, got {address!r}")
    return host or "127.0.0.1", int(port)


def encode(message):
    """One wire frame (header + JSON payload) for ``message``."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message of {len(payload)} bytes exceeds the "
                            f"{MAX_MESSAGE_BYTES}-byte frame limit")
    return _HEADER.pack(len(payload)) + payload


def _recv_exactly(sock, count, *, at_boundary):
    """Read exactly ``count`` bytes; ``None`` on clean EOF at a boundary.

    On a socket with a bounded timeout, an idle timeout (no bytes read
    yet, waiting at a frame boundary) re-raises ``socket.timeout`` so the
    caller can decide whether the peer is merely quiet or dead; a timeout
    *mid-frame* means the stream is desynchronized (the partial bytes are
    lost) and is promoted to :class:`ProtocolError`.
    """
    chunks = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except socket.timeout:
            if at_boundary and remaining == count:
                raise
            raise ProtocolError(
                f"timed out mid-frame ({count - remaining} of {count} "
                f"bytes received); stream desynchronized") from None
        if not chunk:
            if at_boundary and remaining == count:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining} of "
                f"{count} bytes received)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_message(sock, message):
    sock.sendall(encode(message))


def recv_message(sock):
    """Next message from ``sock``; ``None`` on clean EOF between frames."""
    header = _recv_exactly(sock, _HEADER.size, at_boundary=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the "
                            f"{MAX_MESSAGE_BYTES}-byte limit")
    payload = _recv_exactly(sock, length, at_boundary=False)
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable frame: {error}") from error


class Connection:
    """A socket plus a send lock (heartbeat threads share the socket)."""

    def __init__(self, sock):
        self.sock = sock
        self._send_lock = threading.Lock()
        try:
            self.peer = "%s:%d" % sock.getpeername()[:2]
        except OSError:
            self.peer = "?"

    def send(self, message_type, **fields):
        message = {"type": message_type}
        message.update(fields)
        with self._send_lock:
            send_message(self.sock, message)

    def recv(self):
        return recv_message(self.sock)

    def close(self):
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


def dial(address, *, timeout=10.0, tls=None, secret=None):
    """Connect + (optional) TLS wrap + (optional) HMAC auth, in order.

    The shared dialer for workers, status queries, and serve clients:
    TLS is the transport (wrapped first, so the HMAC handshake runs
    inside the encrypted channel), the shared secret is the
    authentication.  ``tls`` defaults to the environment
    (``$REPRO_TLS_CA`` / ``$REPRO_TLS_FINGERPRINT``); pass ``False`` to
    force plaintext.  Returns an authenticated :class:`Connection`.
    """
    if tls is None:
        from .tls import TLSConfig
        tls = TLSConfig.from_env()
    sock = socket.create_connection(parse_address(address), timeout=timeout)
    try:
        if tls:
            sock = tls.wrap(sock)
        connection = Connection(sock)
        authenticate_client(connection, secret)
    except BaseException:
        sock.close()
        raise
    return connection


def query_status(address, timeout=5.0, secret=None, tls=None):
    """One-shot status query against a running coordinator or daemon.

    ``secret`` defaults to ``$REPRO_CLUSTER_SECRET`` and ``tls`` to the
    ``$REPRO_TLS_*`` environment; when the coordinator requires
    authentication the challenge is answered before the ``STATUS``
    frame is sent.
    """
    if secret is None:
        secret = default_secret()
    connection = dial(address, timeout=timeout, tls=tls, secret=secret)
    try:
        connection.send(STATUS)
        reply = connection.recv()
    finally:
        connection.close()
    if reply is not None and reply.get("type") == CHALLENGE:
        raise AuthenticationError(
            "coordinator requires a shared secret "
            "(--secret / $REPRO_CLUSTER_SECRET)")
    if reply is not None and reply.get("type") == REJECT:
        raise AuthenticationError(
            f"coordinator rejected the status query: "
            f"{reply.get('reason', 'no reason given')}")
    if reply is None or reply.get("type") != STATUS_REPLY:
        raise ProtocolError(f"unexpected status reply: {reply!r}")
    reply.pop("type", None)
    return reply
