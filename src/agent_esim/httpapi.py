"""HTTP/1.1 + JSON wire protocol in front of the gateway.

Identity endpoints (attestation travels base64-encoded in the
X-Attestation-Token header):

    POST /identity/sign            {profile_id, payload_digest}
    POST /identity/authenticate    {profile_id, rand, autn}
    GET  /identity/status/{profile_id}

Admin endpoints require the shared admin secret in X-Admin-Secret (the
desk-scale stand-in for a mutually authenticated channel):

    POST /admin/provision          provisioning request document
    POST /admin/revoke             {profile_id, reason}
    POST /admin/lifecycle          {profile_id, action: suspend | resume}
    POST /admin/policy             {profile_id, policy}
    GET  /admin/audit/verify

Binary fields are lowercase hex on the wire. A profile id, in a body or
in the status path, has at most MAX_PROFILE_ID_CHARS characters; a longer
one gets 400 and writes no audit record. Status mapping: allow 200,
denied 403 (+ Retry-After on rate-limit denials), unknown profile 404,
invalid input 400, duplicate/illegal transition 409, missing or wrong
admin secret 401, storage or vault failure 503.

HTTP subset. The server speaks HTTP/1.1 and answers HTTP/1.0 requests too.
A request body is delimited by Content-Length alone: a request carrying
Transfer-Encoding gets 501, and Content-Length values that differ get 400
(RFC 9112 section 6.3). A request line or header line over MAX_LINE_BYTES,
or more than MAX_HEADERS header lines, gets 431; a malformed request line or
header line gets 400; a body over MAX_BODY_BYTES gets 400. Each of these
refusals is one JSON error with `Connection: close`, runs no handler, and
ends the connection, because where the next request would start is unknown.
`Expect: 100-continue` gets an interim `100 Continue` before the body is
read. Server and client read a message head through one function,
`read_head`, and a body length through one, `body_length`.

Connections persist (HTTP/1.1 keep-alive): a client may send any number of
requests on one connection, and the server handles them in order on one
thread per connection. An HTTP/1.0 request, or one with `Connection: close`,
ends its connection after the response. The server reads each request's
body before any check that can fail, so an error response leaves the
connection at the next request. Each response goes out in one write:
headers and body as two small writes would hold the body back behind
Nagle's algorithm until the client's delayed ACK. A connection idle for
IDLE_TIMEOUT_S is closed, which gives its thread back, and
`GatewayHTTPServer.stop` shuts down every connection it still holds. At
most MAX_CONNECTIONS connections are open at once: one past that gets a
JSON 503 with `Connection: close` from the accepting thread and is closed
without a thread of its own.
"""

from __future__ import annotations

import hmac
import json
import re
import socket
import socketserver
import threading
import time
from email.utils import formatdate
from http import HTTPStatus

from .attestation import AttestationToken
from .errors import (
    AdminAuthFailure,
    AgentEsimError,
    DuplicateProfile,
    GatewayDenied,
    IllegalTransition,
    InvalidPolicy,
    InvalidProfile,
    MalformedRequest,
    StorageFailure,
    UnknownProfile,
    VaultError,
    WireFormatError,
)
from .gateway import IdentityGateway
from .policy import DelegationPolicy
from .vault import AkaSuccess, AkaSyncFailure, BindingMetadata

ATTESTATION_HEADER = "X-Attestation-Token"
ADMIN_SECRET_HEADER = "X-Admin-Secret"

# Seconds a kept-alive connection may wait for its next request.
IDLE_TIMEOUT_S = 15.0
# Most connections open at once, each holding one thread; more are refused.
MAX_CONNECTIONS = 256
# Largest message body either end reads; a bigger request is refused unread.
MAX_BODY_BYTES = 1 << 20
# Longest start line or header line, and most header lines, in a message head.
MAX_LINE_BYTES = 8192
MAX_HEADERS = 64
# Longest profile id a request may name; issued ids have 17 characters.
MAX_PROFILE_ID_CHARS = 64

SERVER_NAME = "agent-esim/0.1"
_REASONS = {status.value: status.phrase for status in HTTPStatus}
# An RFC 9110 token (a method or a header field name), and the request lines served.
_TOKEN = r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+"
_FIELD_NAME = re.compile(_TOKEN)
_REQUEST_LINE = re.compile(rf"({_TOKEN}) (\S+) HTTP/1\.([01])")

_STATUS_FOR = {
    UnknownProfile: 404,
    InvalidPolicy: 400,
    InvalidProfile: 400,
    MalformedRequest: 400,
    WireFormatError: 400,
    DuplicateProfile: 409,
    IllegalTransition: 409,
    AdminAuthFailure: 401,
    StorageFailure: 503,
    VaultError: 503,
}


# -- message framing, shared by the server and the client ---------------------------


class FramingError(Exception):
    """A message whose head or body length cannot be read. `status` and
    `error` are what the server answers to such a request; the client
    reports it as ServiceUnreachable."""

    def __init__(self, message: str, status: int = 400, error: str = "MalformedRequest"):
        super().__init__(message)
        self.status = status
        self.error = error


def _response(status: int, payload: dict, date: str, extra_headers=None, close=False) -> bytes:
    """A whole JSON response, head and body, ready for one write."""
    data = json.dumps(payload).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\n"
        f"Server: {SERVER_NAME}\r\nDate: {date}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
    )
    for name, value in (extra_headers or {}).items():
        head += f"{name}: {value}\r\n"
    if close:
        head += "Connection: close\r\n"
    return head.encode("latin-1") + b"\r\n" + data


def _head_line(raw: bytes) -> str:
    """A line of a message head, decoded, with its line ending."""
    if raw[-1:] != b"\n":
        if len(raw) > MAX_LINE_BYTES:
            raise FramingError(f"a head line is over {MAX_LINE_BYTES} bytes", 431, "HeadTooLarge")
        raise FramingError("the message head ended early")
    return raw.decode("latin-1")


def read_head(rfile) -> tuple[str, dict[str, str]] | None:
    """Read one message head (start line, header lines, empty line) from a
    buffered binary stream. Returns the start line and the headers, names
    lowercased and repeated fields joined by ", ", or None when the stream
    ends before the head's first byte. Raises FramingError for a line over
    MAX_LINE_BYTES, more than MAX_HEADERS header lines, a malformed header
    line or a head cut short."""
    raw = rfile.readline(MAX_LINE_BYTES + 1)
    if not raw:
        return None
    start_line = _head_line(raw).rstrip("\r\n")
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = _head_line(rfile.readline(MAX_LINE_BYTES + 1))
        if line == "\r\n" or line == "\n":
            return start_line, headers
        name, colon, value = line.partition(":")
        if not colon or not _FIELD_NAME.fullmatch(name):
            raise FramingError("malformed header line")
        name = name.lower()
        value = value.strip(" \t\r\n")
        headers[name] = f"{headers[name]}, {value}" if name in headers else value
    raise FramingError(f"more than {MAX_HEADERS} header lines", 431, "HeadTooLarge")


def body_length(headers: dict[str, str]) -> int | None:
    """The body length a head declares, or None when it has no Content-Length.
    Raises FramingError for Transfer-Encoding, which neither end reads, and
    for a Content-Length that is not one number from 0 to MAX_BODY_BYTES."""
    if "transfer-encoding" in headers:
        raise FramingError(
            "Transfer-Encoding is not supported; send Content-Length", 501, "NotImplemented"
        )
    value = headers.get("content-length")
    if value is None:
        return None
    values = {v.strip(" \t") for v in value.split(",")}
    if len(values) > 1:
        raise FramingError("conflicting Content-Length values")
    text = values.pop()
    if not (text.isascii() and text.isdigit() and len(text) < 16) or int(text) > MAX_BODY_BYTES:
        raise FramingError(f"Content-Length must be 0 to {MAX_BODY_BYTES}")
    return int(text)


def _hex_field(body: dict, name: str, length: int | None = None) -> bytes:
    value = body.get(name)
    if not isinstance(value, str):
        raise MalformedRequest(f"missing or non-string field: {name}")
    try:
        raw = bytes.fromhex(value)
    except ValueError as err:
        raise MalformedRequest(f"field {name} is not valid hex") from err
    if length is not None and len(raw) != length:
        raise MalformedRequest(f"field {name} must be {length} bytes")
    return raw


def _str_field(body: dict, name: str) -> str:
    value = body.get(name)
    if not isinstance(value, str) or not value:
        raise MalformedRequest(f"missing or empty field: {name}")
    return value


def _profile_id(value) -> str:
    if not isinstance(value, str) or not 0 < len(value) <= MAX_PROFILE_ID_CHARS:
        raise MalformedRequest(f"profile_id must be 1 to {MAX_PROFILE_ID_CHARS} characters")
    return value


def aka_outcome_to_json(outcome) -> dict:
    payload = {"outcome": outcome.kind}
    if isinstance(outcome, AkaSuccess):
        payload.update(res=outcome.res.hex(), ck=outcome.ck.hex(), ik=outcome.ik.hex())
    elif isinstance(outcome, AkaSyncFailure):
        payload["auts"] = outcome.auts.to_bytes().hex()
    return payload


def provision_request_from_json(body: dict) -> tuple[BindingMetadata, DelegationPolicy | None]:
    """The binding and the optional initial policy of a provisioning
    document. This checks the document's shape (a list, hex, strings);
    `BindingMetadata` checks the binding itself."""
    measurements = body.get("expected_measurements")
    if not isinstance(measurements, list):
        raise InvalidProfile("expected_measurements", "expected_measurements must be a list")
    try:
        parsed = frozenset(bytes.fromhex(m) for m in measurements)
    except (TypeError, ValueError) as err:
        raise InvalidProfile("expected_measurements", f"bad measurement hex: {err}") from err
    policy = None
    if body.get("initial_policy") is not None:
        policy = DelegationPolicy.from_json(body["initial_policy"])
    manifest = None
    if body.get("manifest_digest"):
        manifest = _hex_field(body, "manifest_digest")
    binding = BindingMetadata(
        agent_public_key=_hex_field(body, "agent_public_key"),
        expected_measurements=parsed,
        enterprise_namespace=_str_field(body, "enterprise_namespace"),
        container_fingerprint=manifest,
    )
    return binding, policy


class _Handler(socketserver.StreamRequestHandler):
    """Serves one connection: reads its requests one after another and
    answers each in one write, until either end closes it."""

    # bound by the server factory
    gateway: IdentityGateway
    admin_secret: str

    # (method, path) -> endpoint; GET /identity/status/{profile_id} goes by prefix
    _ROUTES = {
        ("POST", "/identity/sign"): "_post_sign",
        ("POST", "/identity/authenticate"): "_post_authenticate",
        ("POST", "/admin/provision"): "_post_provision",
        ("POST", "/admin/revoke"): "_post_revoke",
        ("POST", "/admin/lifecycle"): "_post_lifecycle",
        ("POST", "/admin/policy"): "_post_policy",
        ("GET", "/admin/audit/verify"): "_get_audit_verify",
        ("GET", "/healthz"): "_get_health",
    }
    _STATUS_PATH = "/identity/status/"

    def setup(self) -> None:
        self.timeout = IDLE_TIMEOUT_S  # read per connection, not per class
        super().setup()

    def handle(self) -> None:
        try:
            while self._handle_one():
                pass
        except OSError:  # timed out, reset or shut down: the connection is over
            pass

    def _handle_one(self) -> bool:
        """Read one request and answer it; returns whether the connection
        stays open. The body is read before any check that can fail, so an
        error response leaves the connection at the next request; a request
        whose end cannot be found is refused and closes the connection."""
        try:
            head = read_head(self.rfile)
            if head is None:
                return False
            request_line, self.headers = head
            match = _REQUEST_LINE.fullmatch(request_line)
            if match is None:
                raise FramingError("malformed request line")
            method, self.path, minor = match.groups()
            length = body_length(self.headers) or 0
            http11 = minor == "1"
            self.keep_alive = http11 and "close" not in self.headers.get("connection", "").lower()
            if http11 and self.headers.get("expect", "").lower() == "100-continue":
                self.request.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
            self._raw_body = self.rfile.read(length)
            if len(self._raw_body) < length:
                raise FramingError("the request body ended early")
        except FramingError as err:
            self.keep_alive = False
            self._send(err.status, {"error": err.error, "message": str(err)})
            return False
        self._route(method)
        return self.keep_alive

    def _route(self, method: str) -> None:
        endpoint = self._ROUTES.get((method, self.path))
        if endpoint is not None:
            self._dispatch(getattr(self, endpoint))
        elif method == "GET" and self.path.startswith(self._STATUS_PATH):
            profile_id = self.path[len(self._STATUS_PATH):]
            self._dispatch(lambda: self._get_status(profile_id))
        elif method in ("GET", "POST"):
            self._send(404, {"error": "NotFound", "message": self.path})
        else:
            self._send(501, {"error": "NotImplemented", "message": f"method {method}"})

    def _send(self, status: int, payload: dict, extra_headers: dict | None = None) -> None:
        # Head and body in one write (see the module docstring for why).
        self.request.sendall(
            _response(
                status, payload, self.server.http_date(), extra_headers, not self.keep_alive
            )
        )

    # -- helpers ---------------------------------------------------------------

    def _body(self) -> dict:
        try:
            body = json.loads((self._raw_body or b"{}").decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as err:
            raise MalformedRequest(f"request body is not valid JSON: {err}") from err
        if not isinstance(body, dict):
            raise MalformedRequest("request body must be a JSON object")
        return body

    def _attestation(self) -> AttestationToken | None:
        header = self.headers.get(ATTESTATION_HEADER.lower())
        if not header:
            return None
        try:
            return AttestationToken.from_header(header)
        except WireFormatError:
            return None  # undecodable token fails the attestation check downstream

    def _require_admin(self) -> None:
        supplied = self.headers.get(ADMIN_SECRET_HEADER.lower()) or ""
        if not self.admin_secret or not hmac.compare_digest(supplied, self.admin_secret):
            raise AdminAuthFailure("admin secret missing or wrong")

    def _send_error(self, err: Exception) -> None:
        if isinstance(err, GatewayDenied):
            headers = {}
            payload = {"error": "denied", "reason": err.reason.value}
            if err.retry_after is not None:
                payload["retry_after"] = int(err.retry_after)
                headers["Retry-After"] = str(int(err.retry_after))
            self._send(403, payload, headers)
            return
        status = _STATUS_FOR.get(type(err), 500 if not isinstance(err, AgentEsimError) else 400)
        payload = {"error": type(err).__name__, "message": str(err)}
        if isinstance(err, InvalidProfile):
            payload["field"] = err.field
        self._send(status, payload)

    def _dispatch(self, handler) -> None:
        """Send the endpoint's payload with 200, or its failure as an error."""
        try:
            payload = handler()
        except Exception as err:  # every failure maps to a JSON error response
            self._send_error(err)
            return
        self._send(200, payload)

    # -- endpoint bodies -----------------------------------------------------------

    def _source(self) -> str:
        return self.client_address[0]

    def _post_sign(self):
        body = self._body()
        return self.gateway.handle_sign(
            _profile_id(body.get("profile_id")),
            _hex_field(body, "payload_digest", 32),
            self._attestation(),
            self._source(),
        )

    def _post_authenticate(self):
        body = self._body()
        outcome = self.gateway.handle_authenticate(
            _profile_id(body.get("profile_id")),
            _hex_field(body, "rand", 16),
            _hex_field(body, "autn", 16),
            self._attestation(),
            self._source(),
        )
        return aka_outcome_to_json(outcome)

    def _get_status(self, profile_id: str):
        return self.gateway.handle_status(_profile_id(profile_id), self._attestation())

    def _post_provision(self):
        self._require_admin()
        return self.gateway.admin_provision(*provision_request_from_json(self._body()))

    def _post_revoke(self):
        self._require_admin()
        body = self._body()
        reason = body.get("reason")
        if not isinstance(reason, (str, type(None))):
            raise MalformedRequest("field reason must be a string")
        previous = self.gateway.revoke_profile(
            _profile_id(body.get("profile_id")), reason or "unspecified"
        )
        return {"previous_state": previous.value, "state": "Revoked"}

    def _post_lifecycle(self):
        self._require_admin()
        body = self._body()
        return self.gateway.lifecycle(_profile_id(body.get("profile_id")), _str_field(body, "action"))

    def _post_policy(self):
        self._require_admin()
        body = self._body()
        policy = DelegationPolicy.from_json(body.get("policy") or {})
        previous = self.gateway.update_policy(_profile_id(body.get("profile_id")), policy)
        return {"previous_policy_id": previous, "policy_id": policy.policy_id}

    def _get_audit_verify(self):
        return self.gateway.verify_audit().to_json()

    def _get_health(self):
        return {"ok": True}


class _ConnectionServer(socketserver.ThreadingTCPServer):
    """Runs each connection on its own daemon thread, up to MAX_CONNECTIONS
    at once, and keeps each open connection with its thread, so
    `close_connections` can end them."""

    allow_reuse_address = True

    def __init__(self, address, handler):
        super().__init__(address, handler)
        self._open: dict[socket.socket, threading.Thread] = {}
        self._open_lock = threading.Lock()
        self._date = (0, "")

    def http_date(self) -> str:
        """The Date header value, formatted once per second."""
        second, text = self._date
        now = int(time.time())
        if now != second:
            text = formatdate(now, usegmt=True)
            self._date = (now, text)
        return text

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            thread = None
            if len(self._open) < MAX_CONNECTIONS:
                thread = threading.Thread(
                    target=self.process_request_thread, args=(request, client_address), daemon=True
                )
                self._open[request] = thread
        if thread is not None:
            thread.start()
            return
        refusal = {"error": "Unavailable", "message": f"over {MAX_CONNECTIONS} open connections"}
        try:  # a fresh socket's send buffer holds this small reply: no wait
            request.sendall(_response(503, refusal, self.http_date(), close=True))
        except OSError:
            pass
        self.shutdown_request(request)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.pop(request, None)
        super().shutdown_request(request)

    def close_connections(self, timeout: float) -> None:
        """Shut down the reading side of every open connection and wait up
        to `timeout` seconds for their threads: a thread waiting for the next
        request reads end of file, and one mid-request sends its response
        first."""
        with self._open_lock:
            held = list(self._open.items())
        for conn, _ in held:
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:  # already closed by its own thread
                pass
        for _, thread in held:
            thread.join(timeout)


class GatewayHTTPServer:
    """Threaded HTTP front end: `start` runs the accept loop on a daemon
    thread, with one more thread per open connection, up to MAX_CONNECTIONS;
    `stop` ends them all. `stack.serving` is the one way the program runs a
    state directory through it."""

    def __init__(self, gateway: IdentityGateway, host: str, port: int, admin_secret: str):
        handler = type(
            "BoundHandler", (_Handler,), {"gateway": gateway, "admin_secret": admin_secret}
        )
        self._httpd = _ConnectionServer((host, port), handler)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def base_url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="gateway-http",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop accepting, then end every open connection and its thread."""
        if self._thread is not None:  # `shutdown` waits for a loop that ran
            self._httpd.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._httpd.server_close()
        self._httpd.close_connections(timeout=5)
