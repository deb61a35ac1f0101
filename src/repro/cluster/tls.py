"""TLS transport for cluster and serve sockets (``ssl`` stdlib only).

The HMAC challenge/response handshake (protocol v2) authenticates peers
but leaves every frame cleartext; off-LAN that exposes job specs,
metrics, and the handshake traffic itself.  :class:`TLSConfig` closes
that gap by wrapping the raw TCP socket in TLS *before* the first frame,
so the HMAC handshake -- still the authentication layer -- runs inside
the encrypted channel.

Two trust models, because sweep fleets rarely have a real PKI:

* **CA verification** (``--tls-ca``): the client loads the CA (usually
  the server's own self-signed certificate) and the ``ssl`` module
  verifies the chain.  Hostname checking is deliberately off -- fleets
  dial daemons by IP and the certificate subject is not part of
  the trust decision; the CA file is.
* **Fingerprint pinning** (``--tls-fingerprint``): no CA file to
  distribute -- the client accepts any certificate during the TLS
  handshake, then compares the SHA-256 of the peer's DER certificate
  against the pinned value with a constant-time compare and aborts on
  mismatch.  This is how spawned loopback workers trust their parent
  daemon: the daemon exports its own fingerprint through the child
  environment, never a file.

Server side needs ``--tls-cert`` + ``--tls-key`` and nothing else: TLS
authenticates the server and encrypts the link, and any client that
trusts the server may connect -- the HMAC secret is the client-auth
gate.  Clients present no certificate, so a server-side ``--tls-ca`` is
refused rather than demanding one no client could offer.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import ssl

_ENV_CA = "REPRO_TLS_CA"
_ENV_FINGERPRINT = "REPRO_TLS_FINGERPRINT"
#: Every variable :meth:`TLSConfig.from_env` reads.
TLS_ENVIRONMENT = (_ENV_CA, _ENV_FINGERPRINT)


class TLSConfigError(ValueError):
    """Inconsistent TLS configuration (missing cert/key, bad files)."""


def certificate_fingerprint(certfile):
    """``sha256:<hex>`` fingerprint of the first certificate in a PEM file."""
    with open(certfile) as handle:
        der = ssl.PEM_cert_to_DER_cert(handle.read())
    return "sha256:" + hashlib.sha256(der).hexdigest()


def _normalize_fingerprint(fingerprint):
    value = str(fingerprint).strip().lower()
    if value.startswith("sha256:"):
        value = value[len("sha256:"):]
    return value.replace(":", "")


class TLSConfig:
    """One side's TLS posture; :meth:`wrap` turns a TCP socket into TLS.

    Build with :meth:`server` or :meth:`client` (or :meth:`from_args`
    for CLI plumbing); ``None`` everywhere means "no TLS", which callers
    represent as a ``None`` config, not an empty one.
    """

    def __init__(self, *, server_side, certfile=None, keyfile=None,
                 cafile=None, fingerprint=None):
        self.server_side = bool(server_side)
        self.certfile = certfile
        self.keyfile = keyfile
        self.cafile = cafile
        self.fingerprint = (_normalize_fingerprint(fingerprint)
                            if fingerprint else None)
        self._context = None
        if self.server_side:
            if not certfile or not keyfile:
                raise TLSConfigError(
                    "server-side TLS needs both --tls-cert and --tls-key")
        elif not cafile and not self.fingerprint:
            raise TLSConfigError(
                "client-side TLS needs --tls-ca (CA verification) or "
                "--tls-fingerprint (certificate pinning)")

    # ------------------------------------------------------------------
    @classmethod
    def server(cls, certfile, keyfile):
        return cls(server_side=True, certfile=certfile, keyfile=keyfile)

    @classmethod
    def client(cls, cafile=None, fingerprint=None):
        return cls(server_side=False, cafile=cafile, fingerprint=fingerprint)

    @classmethod
    def from_env(cls):
        """Client config from ``$REPRO_TLS_CA`` / ``$REPRO_TLS_FINGERPRINT``.

        ``None`` when neither is set -- the no-TLS default.  This is how
        spawned loopback workers inherit the daemon's transport.
        """
        cafile = os.environ.get(_ENV_CA) or None
        fingerprint = os.environ.get(_ENV_FINGERPRINT) or None
        if not cafile and not fingerprint:
            return None
        return cls.client(cafile=cafile, fingerprint=fingerprint)

    @classmethod
    def from_args(cls, args, *, server_side):
        """CLI plumbing: a config from ``--tls-*`` flags, or ``None``.

        Server side activates on ``--tls-cert`` and refuses ``--tls-ca``
        (clients present no certificate to verify); client side on
        ``--tls-ca`` / ``--tls-fingerprint``, falling back to the
        environment so worker subprocesses need no extra flags.
        """
        cert = getattr(args, "tls_cert", None)
        key = getattr(args, "tls_key", None)
        ca = getattr(args, "tls_ca", None)
        pin = getattr(args, "tls_fingerprint", None)
        if server_side:
            if ca:
                raise TLSConfigError(
                    "--tls-ca is client-side only: clients present no "
                    "certificate, so a server cannot demand one")
            if not cert and not key:
                return None
            return cls.server(cert, key)
        if not ca and not pin:
            return cls.from_env()
        return cls.client(cafile=ca, fingerprint=pin)

    # ------------------------------------------------------------------
    def own_fingerprint(self):
        """``sha256:...`` of our own certificate (server side only)."""
        if not self.certfile:
            return None
        return certificate_fingerprint(self.certfile)

    def _build_context(self):
        if self.server_side:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(self.certfile, self.keyfile)
            return context
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
        # Fleets dial by IP; the trust anchor is the CA file or the
        # pinned fingerprint, not the certificate's subject name.
        context.check_hostname = False
        if self.cafile:
            context.load_verify_locations(self.cafile)
            context.verify_mode = ssl.CERT_REQUIRED
        else:
            # Pinning: accept the handshake, verify the certificate hash
            # ourselves in wrap() below.
            context.verify_mode = ssl.CERT_NONE
        return context

    def wrap(self, sock):
        """TLS-wrap ``sock`` (handshake included); returns the SSL socket.

        Raises :class:`ssl.SSLError` (an ``OSError``) on handshake
        failure and :class:`PinnedCertificateError` when fingerprint
        pinning rejects the peer -- in both cases the caller must treat
        the connection as dead.
        """
        if self._context is None:
            self._context = self._build_context()
        wrapped = self._context.wrap_socket(sock,
                                            server_side=self.server_side)
        if not self.server_side and self.fingerprint:
            der = wrapped.getpeercert(binary_form=True)
            offered = hashlib.sha256(der or b"").hexdigest()
            if not hmac.compare_digest(offered, self.fingerprint):
                try:
                    wrapped.close()
                except OSError:
                    pass
                raise PinnedCertificateError(
                    f"peer certificate sha256:{offered} does not match the "
                    f"pinned fingerprint sha256:{self.fingerprint}")
        return wrapped

    def child_environment(self):
        """Env vars a spawned loopback worker needs to dial us back.

        Server side exports its own certificate fingerprint so children
        pin it without any file distribution; client side re-exports
        whatever trust material it holds.
        """
        if self.server_side:
            return {_ENV_FINGERPRINT: self.own_fingerprint()}
        env = {}
        if self.cafile:
            env[_ENV_CA] = self.cafile
        if self.fingerprint:
            env[_ENV_FINGERPRINT] = "sha256:" + self.fingerprint
        return env

    def __repr__(self):
        side = "server" if self.server_side else "client"
        trust = ("ca" if self.cafile else
                 "pinned" if self.fingerprint else "cert")
        return f"TLSConfig({side}, trust={trust})"


class PinnedCertificateError(ssl.SSLError):
    """Fingerprint pinning rejected the peer certificate.

    An ``ssl.SSLError`` subclass (hence ``OSError``) so every existing
    connection-failure path treats it as a dead connection, while
    callers that care (the worker CLI) can still name it.
    """
