"""HTTP clients for the gateway wire protocol.

GatewayClient is the agent-facing surface (sign / authenticate / status);
AdminClient adds the operator endpoints behind the shared admin secret.
Every call records the raw response in the client transcript so harnesses
can audit and byte-scan exactly what crossed the wire.

A client keeps its connections open between calls. Each request takes an
idle connection from a small pool, or opens one, and puts it back when the
response is read, so one client may be shared by several threads. A
request is sent again, once, only when it went out on a reused connection
that the server had already closed: no byte of a response came back, so
the server never ran it. A timeout is never retried.

Each request, head and body, goes out in one write, and each response is
read through one buffered reader kept with its connection, by the same
`httpapi.read_head` the server reads requests with. It reads only the
framing the server writes, a body of exactly Content-Length bytes: any
other response raises ServiceUnreachable, as a refused connection does.
A 403 raises the gateway's own `GatewayDenied`, with its `DenyReason`.
"""

from __future__ import annotations

import http.client
import json
import re
import threading
import urllib.parse
from typing import Any

from .attestation import AttestationToken
from .errors import (
    AdminAuthFailure,
    GatewayDenied,
    InvalidPolicy,
    MalformedRequest,
    ServiceUnreachable,
    UnknownProfile,
    VaultError,
)
from .httpapi import ADMIN_SECRET_HEADER, ATTESTATION_HEADER, FramingError, body_length, read_head
from .policy import DenyReason

# Idle connections a client keeps; more concurrent calls open more, and the
# surplus is closed as they finish.
POOL_SIZE = 4
# What a reused connection raises when the server closed it before reading
# the request: sending it again cannot run it twice.
_STALE = (ConnectionResetError, BrokenPipeError)
_STATUS_LINE = re.compile(r"HTTP/1\.([01]) ([1-9][0-9]{2})(?: .*)?")


class _Link:
    """One pooled connection: `http.client.HTTPConnection` owns the socket,
    and one buffered reader reads every response off it."""

    def __init__(self, host: str, port: int, timeout: float):
        self.conn = http.client.HTTPConnection(host, port, timeout=timeout)
        self.conn.connect()
        self.rfile = self.conn.sock.makefile("rb")

    def exchange(self, message: bytes) -> tuple[int, bytes, bool] | None:
        """Send a request and read its response. Returns the status, the body
        and whether the connection can carry another request: not after
        `Connection: close` or an HTTP/1.0 response. None when the server
        had closed the connection: no byte of a response came back."""
        try:
            self.conn.sock.sendall(message)
            head = read_head(self.rfile)
        except _STALE:
            return None
        if head is None:
            return None
        status_line, headers = head
        match = _STATUS_LINE.fullmatch(status_line)
        if match is None:
            raise FramingError(f"malformed status line: {status_line[:40]!r}")
        length = body_length(headers)
        if length is None:
            raise FramingError("response without Content-Length")
        body = self.rfile.read(length)
        if len(body) < length:
            raise FramingError("the connection closed inside the response body")
        keep = match[1] == "1" and "close" not in headers.get("connection", "").lower()
        return int(match[2]), body, keep

    def close(self) -> None:
        self.rfile.close()
        self.conn.close()


class GatewayClient:
    def __init__(self, base_url: str, *, timeout: float = 10.0):
        self._idle: list[_Link] = []
        self._idle_lock = threading.Lock()
        parsed = urllib.parse.urlparse(base_url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ServiceUnreachable(f"unsupported endpoint url: {base_url}")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self._authority = parsed.netloc.rpartition("@")[2]
        self.timeout = timeout
        self.transcript: list[dict[str, Any]] = []

    def close(self) -> None:
        """Close the idle connections; a later call opens new ones."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for link in idle:
            link.close()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # Callers never open a connection themselves, so one that drops a client
    # without closing it gets its sockets closed rather than warned about.
    __del__ = close

    # -- low level ---------------------------------------------------------------

    def _message(self, method: str, path: str, payload: bytes | None, headers: dict) -> bytes:
        lines = [f"{method} {path} HTTP/1.1", f"Host: {self._authority}"]
        if payload is not None:
            lines.append(f"Content-Length: {len(payload)}")
        lines += [f"{name}: {value}" for name, value in headers.items()]
        text = "".join(lines)
        if " " in path or not (text.isascii() and text.isprintable()):
            raise FramingError("request target or header is not printable ASCII")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
        return head + payload if payload else head

    def _exchange(self, message: bytes) -> tuple[int, bytes]:
        """Send one request on a pooled connection and read its response."""
        with self._idle_lock:
            link = self._idle.pop() if self._idle else None
        try:
            response = link.exchange(message) if link is not None else None
            if response is None:  # no idle connection, or a stale one
                if link is not None:
                    link.close()
                    link = None
                link = _Link(self.host, self.port, self.timeout)
                response = link.exchange(message)
                if response is None:
                    raise ConnectionResetError("closed before any byte of a response")
        except BaseException:
            if link is not None:
                link.close()
            raise
        status, body, keep = response
        with self._idle_lock:
            keep = keep and len(self._idle) < POOL_SIZE
            if keep:
                self._idle.append(link)
        if not keep:
            link.close()
        return status, body

    def request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        headers: dict | None = None,
    ) -> tuple[int, dict, str]:
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        send_headers = {"Content-Type": "application/json"}
        send_headers.update(headers or {})
        try:
            status, data = self._exchange(self._message(method, path, payload, send_headers))
        except (OSError, FramingError) as err:
            raise ServiceUnreachable(
                f"{method} {path} against {self.host}:{self.port} failed: {err}"
            ) from err
        raw = data.decode("utf-8", "replace")
        try:
            parsed = json.loads(raw) if raw else {}
        except ValueError:
            parsed = {"error": "NonJsonResponse", "raw": raw}
        self.transcript.append(
            {
                "method": method,
                "path": path,
                "request_body": payload.decode("utf-8") if payload else None,
                "status": status,
                "response": raw,
            }
        )
        return status, parsed, raw

    @staticmethod
    def _raise_for(status: int, body: dict) -> None:
        if status == 403 and body.get("reason") in [r.value for r in DenyReason]:
            raise GatewayDenied(DenyReason(body["reason"]), retry_after=body.get("retry_after"))
        if status == 404:
            raise UnknownProfile(body.get("message", "not found"))
        if status == 401:
            raise AdminAuthFailure(body.get("message", "admin auth failed"))
        if status == 400:
            error = body.get("error", "MalformedRequest")
            if error == "InvalidPolicy":
                raise InvalidPolicy(body.get("message", "invalid policy"))
            raise MalformedRequest(body.get("message", "bad request"))
        if status != 200:
            raise VaultError(body.get("message") or f"unexpected status {status}: {body}")

    def _call(self, method: str, path: str, body=None, headers=None) -> dict:
        status, parsed, _ = self.request(method, path, body, headers)
        self._raise_for(status, parsed)
        return parsed

    # -- identity endpoints ---------------------------------------------------------

    @staticmethod
    def _token_header(token: AttestationToken | None) -> dict:
        return {ATTESTATION_HEADER: token.to_header()} if token is not None else {}

    def sign(
        self, profile_id: str, payload_digest: bytes, token: AttestationToken | None
    ) -> dict:
        return self._call(
            "POST",
            "/identity/sign",
            {"profile_id": profile_id, "payload_digest": payload_digest.hex()},
            self._token_header(token),
        )

    def authenticate(
        self,
        profile_id: str,
        rand: bytes,
        autn: bytes,
        token: AttestationToken | None,
    ) -> dict:
        return self._call(
            "POST",
            "/identity/authenticate",
            {"profile_id": profile_id, "rand": rand.hex(), "autn": autn.hex()},
            self._token_header(token),
        )

    def status(self, profile_id: str, token: AttestationToken | None = None) -> dict:
        return self._call(
            "GET", f"/identity/status/{profile_id}", None, self._token_header(token)
        )


class AdminClient(GatewayClient):
    def __init__(self, base_url: str, admin_secret: str, *, timeout: float = 10.0):
        super().__init__(base_url, timeout=timeout)
        self.admin_secret = admin_secret

    def _admin_call(self, method: str, path: str, body=None) -> dict:
        return self._call(method, path, body, {ADMIN_SECRET_HEADER: self.admin_secret})

    def provision(self, request_document: dict) -> dict:
        return self._admin_call("POST", "/admin/provision", request_document)

    def revoke(self, profile_id: str, reason: str) -> dict:
        return self._admin_call(
            "POST", "/admin/revoke", {"profile_id": profile_id, "reason": reason}
        )

    def lifecycle(self, profile_id: str, action: str) -> dict:
        return self._admin_call(
            "POST", "/admin/lifecycle", {"profile_id": profile_id, "action": action}
        )

    def update_policy(self, profile_id: str, policy_document: dict) -> dict:
        return self._admin_call(
            "POST", "/admin/policy", {"profile_id": profile_id, "policy": policy_document}
        )

    def audit_verify(self) -> dict:
        return self._admin_call("GET", "/admin/audit/verify")
