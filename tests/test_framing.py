"""HTTP/1.1 framing on both ends: what the server refuses, what it accepts
from other clients, and how the client reads responses it cannot pool or
cannot frame. Requests and responses are written and read as raw bytes."""

import json
import socket
import threading

import pytest

from agent_esim import httpapi
from agent_esim.client import GatewayClient
from agent_esim.errors import ServiceUnreachable

from tests.conftest import Stack, digest_of
from tests.test_connections import _signer, connects  # noqa: F401
from tests.test_http_api import ADMIN_SECRET, served  # noqa: F401


def _read_to_eof(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def _exchange(server, data: bytes, *, half_close: bool = False) -> bytes:
    """Write `data` on a fresh connection and read until the server closes it."""
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        return _read_to_eof(sock)


def _responses(data: bytes) -> list[tuple[int, dict, bytes]]:
    """Split a byte stream into (status, headers, body) responses, each
    delimited by its Content-Length."""
    found = []
    while data:
        head, _, data = data.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = {k.lower(): v.strip() for k, _, v in (ln.partition(":") for ln in lines)}
        length = int(headers.get("content-length", 0))
        found.append((int(status_line.split(" ")[1]), headers, data[:length]))
        data = data[length:]
    return found


def _request(method: str, path: str, body: bytes = b"", headers: dict | None = None,
             version: str = "HTTP/1.1") -> bytes:
    lines = [f"{method} {path} {version}", "Host: test"]
    lines += [f"{name}: {value}" for name, value in (headers or {}).items()]
    if body:
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _sign_body(profile_id: str, message: bytes) -> bytes:
    return json.dumps(
        {"profile_id": profile_id, "payload_digest": digest_of(message).hex()}
    ).encode()


# -- stop() without a serve loop ---------------------------------------------------


def test_stop_returns_when_server_never_served(tmp_path):
    stack = Stack(tmp_path / "state")
    server = httpapi.GatewayHTTPServer(stack.gateway, "127.0.0.1", 0, ADMIN_SECRET)
    stopper = threading.Thread(target=server.stop, daemon=True)
    stopper.start()
    stopper.join(2)
    try:
        assert not stopper.is_alive()
    finally:
        stack.close()


# -- requests the server cannot delimit: one JSON error, then close ----------------

REVOKE = b'{"profile_id": "x", "reason": "y"}'
REFUSED = {
    "transfer-encoding": (
        b"POST /admin/revoke HTTP/1.1\r\nHost: test\r\nX-Admin-Secret: " + ADMIN_SECRET.encode()
        + b"\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n" % len(REVOKE) + REVOKE + b"\r\n0\r\n\r\n",
        501,
    ),
    "conflicting-content-length": (
        b"POST /admin/revoke HTTP/1.1\r\nHost: test\r\nX-Admin-Secret: " + ADMIN_SECRET.encode()
        + b"\r\nContent-Length: %d\r\nContent-Length: 5\r\n\r\n" % len(REVOKE) + REVOKE,
        400,
    ),
    "long-request-line": (
        b"GET /healthz?" + b"a" * httpapi.MAX_LINE_BYTES + b" HTTP/1.1\r\n\r\n", 431,
    ),
    "long-header-line": (
        b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * httpapi.MAX_LINE_BYTES + b"\r\n\r\n", 431,
    ),
    "too-many-headers": (
        b"GET /healthz HTTP/1.1\r\n"
        + b"".join(b"X-H%d: v\r\n" % i for i in range(httpapi.MAX_HEADERS + 1)) + b"\r\n",
        431,
    ),
    "malformed-request-line": (b"GET /healthz\r\n\r\n", 400),
    "unknown-version": (b"GET /healthz HTTP/2.0\r\n\r\n", 400),
    "malformed-header-line": (b"GET /healthz HTTP/1.1\r\nX-No-Colon\r\n\r\n", 400),
    "header-name-with-space": (b"GET /healthz HTTP/1.1\r\nX-Name : v\r\n\r\n", 400),
    "head-cut-short": (b"GET /healthz HTTP/1.1\r\nHost: te", 400),
    "body-cut-short": (b"POST /identity/sign HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}", 400),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_undelimitable_request_gets_one_error_and_close(served, monkeypatch, case):  # noqa: F811
    stack, server = served
    data, status = REFUSED[case]
    calls = []
    monkeypatch.setattr(stack.gateway, "revoke_profile", lambda *a, **k: calls.append(a))
    # a request cut short is only known to be once the client stops sending
    half_close = case.endswith("cut-short")
    (answer,) = _responses(_exchange(server, data, half_close=half_close))
    assert answer[0] == status
    assert answer[1]["connection"] == "close"
    assert set(json.loads(answer[2])) == {"error", "message"}
    assert calls == []


# -- what other HTTP clients send ------------------------------------------------------


def test_expect_100_continue_gets_interim_response(served):  # noqa: F811
    _, server = served
    body = json.dumps({"profile_id": "nobody", "reason": "r"}).encode()
    head = _request("POST", "/admin/revoke", headers={
        "X-Admin-Secret": ADMIN_SECRET, "Expect": "100-continue",
        "Content-Length": len(body), "Connection": "close",
    })
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(head)
        interim = sock.recv(len(b"HTTP/1.1 100 Continue\r\n\r\n"), socket.MSG_WAITALL)
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(body)
        (answer,) = _responses(_read_to_eof(sock))
    assert answer[0] == 404 and json.loads(answer[2])["error"] == "UnknownProfile"


def test_http10_request_is_answered_then_closed(served):  # noqa: F811
    _, server = served
    (answer,) = _responses(_exchange(server, _request("GET", "/healthz", version="HTTP/1.0")))
    assert answer[0] == 200 and json.loads(answer[2]) == {"ok": True}
    assert answer[1]["connection"] == "close"


def test_request_written_one_byte_at_a_time_is_answered(served):  # noqa: F811
    stack, server = served
    profile_id, token = _signer(stack, server)
    data = _request("POST", "/identity/sign", _sign_body(profile_id, b"slow"), {
        httpapi.ATTESTATION_HEADER: token.to_header(), "Connection": "close",
    })
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for i in range(len(data)):
            sock.send(data[i:i + 1])
        (answer,) = _responses(_read_to_eof(sock))
    assert answer[0] == 200 and "signature" in json.loads(answer[2])


def test_pipelined_requests_are_answered_in_order(served):  # noqa: F811
    stack, server = served
    profile_id, token = _signer(stack, server)
    header = {httpapi.ATTESTATION_HEADER: token.to_header()}
    data = (
        _request("POST", "/identity/sign", _sign_body(profile_id, b"first"), header)
        + _request("GET", "/nope")
        + _request("GET", "/healthz", headers={"Connection": "close"})
    )
    answers = _responses(_exchange(server, data))
    assert [a[0] for a in answers] == [200, 404, 200]
    assert "signature" in json.loads(answers[0][2])
    assert json.loads(answers[2][2]) == {"ok": True}


def test_header_names_match_in_any_case(served):  # noqa: F811
    stack, server = served
    profile_id, token = _signer(stack, server)
    data = (
        _request("POST", "/identity/sign", _sign_body(profile_id, b"lower"),
                 {"x-attestation-token": token.to_header()})
        + _request("GET", "/admin/audit/verify",
                   headers={"X-ADMIN-SECRET": ADMIN_SECRET, "CONNECTION": "Close"})
    )
    answers = _responses(_exchange(server, data))
    assert [a[0] for a in answers] == [200, 200]
    assert json.loads(answers[1][2])["ok"] is True


def test_unknown_method_gets_json_error_and_keeps_connection(served):  # noqa: F811
    _, server = served
    data = _request("PUT", "/healthz", b"{}") + _request(
        "GET", "/healthz", headers={"Connection": "close"}
    )
    answers = _responses(_exchange(server, data))
    assert [a[0] for a in answers] == [501, 200]
    assert json.loads(answers[0][2])["error"] == "NotImplemented"


# -- the client against a server that answers each connection once ---------------------


@pytest.fixture
def one_shot():
    """Starts a listener that answers each connection with the given bytes
    (after reading the request head) and then closes it."""
    listeners = []

    def start(reply: bytes, connections: int = 1) -> str:
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(5)
        listeners.append(listener)

        def serve():
            for _ in range(connections):
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                with conn:
                    received = b""
                    while b"\r\n\r\n" not in received:
                        chunk = conn.recv(4096)
                        if not chunk:
                            break
                        received += chunk
                    conn.sendall(reply)

        threading.Thread(target=serve, daemon=True).start()
        host, port = listener.getsockname()
        return f"http://{host}:{port}"

    yield start
    for listener in listeners:
        listener.close()


BAD_RESPONSES = {
    "garbage-status-line": b"garbage\r\nContent-Length: 2\r\n\r\n{}",
    "non-numeric-content-length": b"HTTP/1.1 200 OK\r\nContent-Length: two\r\n\r\n{}",
    "close-mid-body": b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"ok\": ",
    "close-mid-head": b"HTTP/1.1 200 OK\r\nContent-Len",
    "chunked": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
}


@pytest.mark.parametrize("case", sorted(BAD_RESPONSES))
def test_unframable_response_raises_service_unreachable(one_shot, case):
    client = GatewayClient(one_shot(BAD_RESPONSES[case]), timeout=5)
    with pytest.raises(ServiceUnreachable):
        client.request("GET", "/healthz")
    assert client._idle == []


def test_connection_close_response_is_not_pooled(one_shot, connects):  # noqa: F811
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}"
    client = GatewayClient(one_shot(reply, connections=2), timeout=5)
    for expected_connects in (1, 2):
        assert client.request("GET", "/healthz") == (200, {}, "{}")
        assert client._idle == [] and connects[0] == expected_connects


def test_response_without_length_is_read_to_eof_and_not_pooled(one_shot, connects):  # noqa: F811
    reply = b'HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{"ok": true}'
    client = GatewayClient(one_shot(reply, connections=2), timeout=5)
    for expected_connects in (1, 2):
        assert client.request("GET", "/healthz")[:2] == (200, {"ok": True})
        assert client._idle == [] and connects[0] == expected_connects


def test_unsendable_request_raises_service_unreachable(served):  # noqa: F811
    _, server = served
    with GatewayClient(server.base_url) as client:
        with pytest.raises(ServiceUnreachable):
            client.status("x\r\nX-Admin-Secret: injected")
        with pytest.raises(ServiceUnreachable):
            client.request("GET", "/healthz", headers={"X-Note": "café"})
        assert client.request("GET", "/healthz")[0] == 200
