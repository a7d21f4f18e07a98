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
    POST /admin/lifecycle          {profile_id, action, reason?}
    POST /admin/policy             {profile_id, policy}
    GET  /admin/audit/verify

Binary fields are lowercase hex on the wire. Status mapping: allow 200,
denied 403 (+ Retry-After on rate-limit denials), unknown profile 404,
invalid input 400, duplicate/illegal transition 409, missing or wrong
admin secret 401, storage or vault failure 503.

Connections persist (HTTP/1.1 keep-alive): a client may send any number of
requests on one connection, and the server handles them on one thread per
connection. The server reads each request's body before any check that can
fail, so an error response leaves the connection at the next request. Each
response goes out in one write: headers and body as two small writes would
hold the body back behind Nagle's algorithm until the client's delayed ACK.
A connection idle for IDLE_TIMEOUT_S is closed, which gives its thread back,
and `GatewayHTTPServer.stop` shuts down every connection it still holds.
"""

from __future__ import annotations

import hmac
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .attestation import AttestationToken
from .errors import (
    AdminAuthFailure,
    AgentEsimError,
    ChallengeExpired,
    DuplicateProfile,
    DuplicateSubscriber,
    GatewayDenied,
    IllegalTransition,
    InvalidImsi,
    InvalidPolicy,
    InvalidProfile,
    MalformedRequest,
    StorageFailure,
    UnknownChallenge,
    UnknownProfile,
    UnknownSubscriber,
    VaultError,
    WireFormatError,
)
from .gateway import IdentityGateway, ProvisionRequest
from .policy import DelegationPolicy
from .vault import AkaSuccess, AkaSyncFailure

ATTESTATION_HEADER = "X-Attestation-Token"
ADMIN_SECRET_HEADER = "X-Admin-Secret"

# Seconds a kept-alive connection may wait for its next request.
IDLE_TIMEOUT_S = 15.0
# Largest request body the server reads; a bigger one is refused unread.
MAX_BODY_BYTES = 1 << 20

_STATUS_FOR = {
    UnknownProfile: 404,
    UnknownSubscriber: 404,
    UnknownChallenge: 404,
    InvalidPolicy: 400,
    InvalidProfile: 400,
    InvalidImsi: 400,
    MalformedRequest: 400,
    WireFormatError: 400,
    ChallengeExpired: 410,
    DuplicateProfile: 409,
    DuplicateSubscriber: 409,
    IllegalTransition: 409,
    AdminAuthFailure: 401,
    StorageFailure: 503,
    VaultError: 503,
}


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


def aka_outcome_to_json(outcome) -> dict:
    payload = {"outcome": outcome.kind}
    if isinstance(outcome, AkaSuccess):
        payload.update(res=outcome.res.hex(), ck=outcome.ck.hex(), ik=outcome.ik.hex())
    elif isinstance(outcome, AkaSyncFailure):
        payload["auts"] = outcome.auts.to_bytes().hex()
    return payload


def provision_request_from_json(body: dict) -> ProvisionRequest:
    measurements = body.get("expected_measurements")
    if not isinstance(measurements, list) or not measurements:
        raise InvalidProfile("expected_measurements", "at least one measurement required")
    try:
        parsed = frozenset(bytes.fromhex(m) for m in measurements)
    except (TypeError, ValueError) as err:
        raise InvalidProfile("expected_measurements", f"bad measurement hex: {err}") from err
    policy = None
    if body.get("initial_policy") is not None:
        policy = DelegationPolicy.from_json(body["initial_policy"])
    manifest = None
    if body.get("manifest_digest"):
        manifest = _hex_field(body, "manifest_digest", 32)
    return ProvisionRequest(
        agent_public_key=_hex_field(body, "agent_public_key"),
        expected_measurements=parsed,
        enterprise_namespace=_str_field(body, "enterprise_namespace"),
        initial_policy=policy,
        manifest_digest=manifest,
    )


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "agent-esim/0.1"

    # bound by the server factory
    gateway: IdentityGateway
    admin_secret: str

    def log_message(self, fmt, *args):  # quiet by default
        pass

    # -- helpers ---------------------------------------------------------------

    def setup(self) -> None:
        self.timeout = IDLE_TIMEOUT_S  # read per connection, not per class
        super().setup()

    def _read_body(self) -> bool:
        """Read the request body, so that the next request on this connection
        starts where it should. A body whose end cannot be found, or one
        over MAX_BODY_BYTES, gets an error response and closes the
        connection; returns whether the request can go on."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            message = f"Content-Length must be 0 to {MAX_BODY_BYTES}"
            # the Connection header also makes this handler close it
            self._send(400, {"error": "MalformedRequest", "message": message},
                       {"Connection": "close"})
            return False
        self._raw_body = self.rfile.read(length)
        return True

    def _body(self) -> dict:
        try:
            body = json.loads((self._raw_body or b"{}").decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as err:
            raise MalformedRequest(f"request body is not valid JSON: {err}") from err
        if not isinstance(body, dict):
            raise MalformedRequest("request body must be a JSON object")
        return body

    def _attestation(self) -> AttestationToken | None:
        header = self.headers.get(ATTESTATION_HEADER)
        if not header:
            return None
        try:
            return AttestationToken.from_header(header)
        except WireFormatError:
            return None  # undecodable token fails the attestation check downstream

    def _require_admin(self) -> None:
        supplied = self.headers.get(ADMIN_SECRET_HEADER) or ""
        if not self.admin_secret or not hmac.compare_digest(supplied, self.admin_secret):
            raise AdminAuthFailure("admin secret missing or wrong")

    def _send(self, status: int, payload: dict, extra_headers: dict | None = None) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        # End the headers and write them with the body in one write (see the
        # module docstring for why).
        self._headers_buffer.append(b"\r\n" + data)
        self.flush_headers()

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
        try:
            status, payload, headers = handler()
        except Exception as err:  # every failure maps to a JSON error response
            self._send_error(err)
            return
        self._send(status, payload, headers)

    # -- routing -----------------------------------------------------------------

    def do_POST(self):
        if not self._read_body():
            return
        routes = {
            "/identity/sign": self._post_sign,
            "/identity/authenticate": self._post_authenticate,
            "/admin/provision": self._post_provision,
            "/admin/revoke": self._post_revoke,
            "/admin/lifecycle": self._post_lifecycle,
            "/admin/policy": self._post_policy,
        }
        route = routes.get(self.path)
        if route is None:
            self._send(404, {"error": "NotFound", "message": self.path})
            return
        self._dispatch(route)

    def do_GET(self):
        if not self._read_body():
            return
        if self.path.startswith("/identity/status/"):
            profile_id = self.path[len("/identity/status/"):]
            self._dispatch(lambda: self._get_status(profile_id))
        elif self.path == "/admin/audit/verify":
            self._dispatch(self._get_audit_verify)
        elif self.path == "/healthz":
            self._send(200, {"ok": True})
        else:
            self._send(404, {"error": "NotFound", "message": self.path})

    # -- endpoint bodies -----------------------------------------------------------

    def _source(self) -> str:
        return self.client_address[0]

    def _post_sign(self):
        body = self._body()
        result = self.gateway.handle_sign(
            _str_field(body, "profile_id"),
            _hex_field(body, "payload_digest", 32),
            self._attestation(),
            self._source(),
        )
        return 200, result, None

    def _post_authenticate(self):
        body = self._body()
        outcome = self.gateway.handle_authenticate(
            _str_field(body, "profile_id"),
            _hex_field(body, "rand", 16),
            _hex_field(body, "autn", 16),
            self._attestation(),
            self._source(),
        )
        return 200, aka_outcome_to_json(outcome), None

    def _get_status(self, profile_id: str):
        if not profile_id:
            raise MalformedRequest("missing profile id in path")
        status = self.gateway.handle_status(profile_id, self._attestation(), self._source())
        return 200, status, None

    def _post_provision(self):
        self._require_admin()
        request = provision_request_from_json(self._body())
        return 200, self.gateway.admin_provision(request), None

    def _post_revoke(self):
        self._require_admin()
        body = self._body()
        previous = self.gateway.revoke_profile(
            _str_field(body, "profile_id"), body.get("reason") or "unspecified"
        )
        return 200, {"previous_state": previous.value, "state": "Revoked"}, None

    def _post_lifecycle(self):
        self._require_admin()
        body = self._body()
        result = self.gateway.lifecycle(
            _str_field(body, "profile_id"),
            _str_field(body, "action"),
            reason=body.get("reason") or "",
        )
        return 200, result, None

    def _post_policy(self):
        self._require_admin()
        body = self._body()
        policy = DelegationPolicy.from_json(body.get("policy") or {})
        previous = self.gateway.update_policy(_str_field(body, "profile_id"), policy)
        return 200, {"previous_policy_id": previous, "policy_id": policy.policy_id}, None

    def _get_audit_verify(self):
        return 200, self.gateway.verify_audit().to_json(), None


class _ConnectionServer(ThreadingHTTPServer):
    """Runs each connection on its own daemon thread and keeps each open
    connection with its thread, so `close_connections` can end them."""

    def __init__(self, address, handler):
        super().__init__(address, handler)
        self._open: dict[socket.socket, threading.Thread] = {}
        self._open_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(
            target=self.process_request_thread, args=(request, client_address), daemon=True
        )
        with self._open_lock:
            self._open[request] = thread
        thread.start()

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
    """Threaded HTTP front end; one OS thread per open connection."""

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

    def serve_forever(self) -> None:
        self._httpd.serve_forever(poll_interval=0.05)

    def stop(self) -> None:
        """Stop accepting, then end every open connection and its thread."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd.close_connections(timeout=5)
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
