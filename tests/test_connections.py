"""Persistent connections: the client's pool, body reads on error paths and
the server's connection lifecycle."""

import http.client
import json
import secrets
import selectors
import socket
import sys
import threading
import time

import pytest

from agent_esim import httpapi
from agent_esim.client import POOL_SIZE, AdminClient, GatewayClient
from agent_esim.errors import ServiceUnreachable
from agent_esim.vault import verify_profile_signature

from tests.conftest import Stack, digest_of
from tests.test_http_api import ADMIN_SECRET, provision_document, served  # noqa: F401


@pytest.fixture
def connects(monkeypatch):
    """Counts `HTTPConnection.connect` calls."""
    count = [0]
    connect = http.client.HTTPConnection.connect

    def counting(conn):
        count[0] += 1
        connect(conn)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counting)
    return count


def _signer(stack, server):
    admin = AdminClient(server.base_url, ADMIN_SECRET)
    measurement = secrets.token_bytes(32)
    created = admin.provision(provision_document(measurement))
    admin.close()
    return created["profile_id"], stack.token_for(measurement)


def _handler_threads():
    return [t for t in threading.enumerate() if "process_request_thread" in t.name]


# -- the server reads each body before any check that can fail ---------------------

BODY_CASES = {
    "wrong-admin-secret": (
        "/admin/revoke",
        {httpapi.ADMIN_SECRET_HEADER: "wrong"},
        b'{"profile_id": "x", "reason": "y"}',
    ),
    "unknown-path": ("/nope", {}, b'{"profile_id": "x"}'),
    "not-json": ("/identity/sign", {}, b"{this is not json"),
}


@pytest.mark.parametrize("case", sorted(BODY_CASES))
def test_error_response_leaves_connection_at_next_request(served, case):  # noqa: F811
    _, server = served
    path, headers, body = BODY_CASES[case]
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=5)
    try:
        conn.request("POST", path, body=body, headers=headers)
        response = conn.getresponse()
        assert response.status in (400, 401, 404)
        json.loads(response.read())
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read()) == {"ok": True}
    finally:
        conn.close()


@pytest.mark.parametrize("length", ["twelve", "-1", str(httpapi.MAX_BODY_BYTES + 1)])
def test_unusable_content_length_is_refused_and_closes_connection(served, length):  # noqa: F811
    _, server = served
    conn = http.client.HTTPConnection(*server.address, timeout=5)
    try:
        conn.putrequest("POST", "/identity/sign")
        conn.putheader("Content-Length", length)
        conn.endheaders()
        response = conn.getresponse()
        assert response.status == 400 and response.will_close
        assert json.loads(response.read())["error"] == "MalformedRequest"
    finally:
        conn.close()


# -- the client's pool ---------------------------------------------------------------


def test_one_connection_serves_many_calls(served, connects):  # noqa: F811
    stack, server = served
    profile_id, token = _signer(stack, server)
    connects[0] = 0
    with GatewayClient(server.base_url) as client:
        for i in range(50):
            client.sign(profile_id, digest_of(b"call %d" % i), token)
    assert connects[0] == 1


def test_client_shared_by_threads(served):  # noqa: F811
    stack, server = served
    profile_id, token = _signer(stack, server)
    client = GatewayClient(server.base_url)
    results, errors = [], []

    def work(worker):
        try:
            for i in range(25):
                digest = digest_of(b"worker %d call %d" % (worker, i))
                results.append((digest, client.sign(profile_id, digest, token)))
        except Exception as err:
            errors.append(err)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(client._idle) <= POOL_SIZE
    client.close()
    assert errors == []
    assert len(results) == 100 and len(client.transcript) == 100
    for digest, signed in results:
        assert verify_profile_signature(
            bytes.fromhex(signed["public_key"]), profile_id, digest,
            bytes.fromhex(signed["signature"]),
        )


def test_idle_connection_closed_by_server_is_replaced(served, connects, monkeypatch):  # noqa: F811
    _, server = served
    monkeypatch.setattr(httpapi, "IDLE_TIMEOUT_S", 0.2)
    with GatewayClient(server.base_url) as client:
        assert client.request("GET", "/healthz")[0] == 200
        time.sleep(0.5)
        assert client.request("GET", "/healthz")[0] == 200
    assert connects[0] == 2


def test_timed_out_request_is_not_sent_again(served, monkeypatch):  # noqa: F811
    stack, server = served
    profile_id, token = _signer(stack, server)
    calls = []
    handle_sign = stack.gateway.handle_sign

    def slow_sign(*args):
        calls.append(args)
        time.sleep(0.6)
        return handle_sign(*args)

    monkeypatch.setattr(stack.gateway, "handle_sign", slow_sign)
    client = GatewayClient(server.base_url, timeout=0.3)
    assert client.request("GET", "/healthz")[0] == 200  # the sign reuses this connection
    with pytest.raises(ServiceUnreachable):
        client.sign(profile_id, digest_of(b"slow"), token)
    time.sleep(1.0)
    assert len(calls) == 1
    client.close()


# -- the server's connection lifecycle -----------------------------------------------


def test_stop_ends_kept_connections(tmp_path):
    stack = Stack(tmp_path / "state")
    server = httpapi.GatewayHTTPServer(stack.gateway, "127.0.0.1", 0, ADMIN_SECRET)
    server.start()
    clients = [GatewayClient(server.base_url) for _ in range(5)]
    earlier = set(_handler_threads())
    try:
        for client in clients:
            assert client.request("GET", "/healthz")[0] == 200
        assert len(set(_handler_threads()) - earlier) == 5
        server.stop()
        time.sleep(1.0)
        assert set(_handler_threads()) - earlier == set()
    finally:
        for client in clients:
            client.close()
        stack.close()


def _wait_until_no_connection_is_open(server):
    deadline = time.monotonic() + 10
    while server._open and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not server._open


def test_connections_past_the_cap_are_refused_without_a_thread(served, monkeypatch):  # noqa: F811
    stack, server = served
    profile_id, token = _signer(stack, server)
    _wait_until_no_connection_is_open(server)  # the signer's admin connection
    monkeypatch.setattr(httpapi, "MAX_CONNECTIONS", 8)
    before = threading.active_count()
    silent = [socket.create_connection(server.address, timeout=5) for _ in range(20)]
    try:
        refused = []
        with selectors.DefaultSelector() as waiting:
            for sock in silent:
                waiting.register(sock, selectors.EVENT_READ)
            deadline = time.monotonic() + 10
            while len(refused) < 12 and time.monotonic() < deadline:
                for key, _ in waiting.select(timeout=0.5):
                    waiting.unregister(key.fileobj)
                    refused.append(key.fileobj)
            assert not waiting.select(timeout=0.3)  # the 8 admitted ones hear nothing
        assert len(refused) == 12
        assert threading.active_count() <= before + 8 + 2
        for sock in refused:
            reply = b""
            while chunk := sock.recv(4096):  # the server closes after its one reply
                reply += chunk
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 503 ") and b"\r\nConnection: close" in head
            assert json.loads(body)["error"] == "Unavailable"
    finally:
        for sock in silent:
            sock.close()
    _wait_until_no_connection_is_open(server)
    with GatewayClient(server.base_url) as client:
        client.sign(profile_id, digest_of(b"after the flood"), token)
