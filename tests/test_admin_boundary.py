"""The admin boundary: every path under /admin/ needs the admin secret,
checked once, on the header's bytes, before its endpoint runs. Requests are
written as raw bytes, so a header can carry any Latin-1 byte."""

import json
import secrets

import pytest

from agent_esim.policy import permissive_policy

from tests.test_framing import _exchange, _request, _responses
from tests.test_http_api import ADMIN_SECRET, provision_document, served  # noqa: F401

# What a caller without the right secret sends in X-Admin-Secret (None: no header).
BAD_SECRETS = {"missing": None, "wrong": "not-the-admin-secret", "latin-1-byte": "\xe9"}
ADMIN_ROUTES = ["provision", "lifecycle", "policy", "revoke", "audit/verify"]


def _admin_request(server, route: str, body: dict | None, secret: str | None):
    headers = {"Connection": "close"}
    if secret is not None:
        headers["X-Admin-Secret"] = secret
    method = "GET" if body is None else "POST"
    payload = b"" if body is None else json.dumps(body).encode()
    data = _request(method, f"/admin/{route}", payload, headers)
    ((status, _, answer),) = _responses(_exchange(server, data))
    return status, json.loads(answer)


def _bodies(profile_id: str) -> dict[str, dict | None]:
    return {
        "provision": provision_document(secrets.token_bytes(32)),
        "lifecycle": {"profile_id": profile_id, "action": "suspend"},
        "policy": {"profile_id": profile_id,
                   "policy": permissive_policy(policy_id="p-2").to_json()},
        "revoke": {"profile_id": profile_id, "reason": "boundary"},
        "audit/verify": None,
    }


def _state(stack) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(stack.state_dir.iterdir())}


@pytest.fixture
def verify_calls(served, monkeypatch):  # noqa: F811
    stack, _ = served
    calls = []
    verify = stack.gateway.verify_audit

    def counted():
        calls.append(1)
        return verify()

    monkeypatch.setattr(stack.gateway, "verify_audit", counted)
    return calls


@pytest.mark.parametrize("secret", sorted(BAD_SECRETS))
@pytest.mark.parametrize("route", ADMIN_ROUTES)
def test_every_admin_route_refuses_a_caller_without_the_secret(  # noqa: F811
    served, verify_calls, route, secret
):
    stack, server = served
    created, _ = stack.provision()
    before = _state(stack)
    status, body = _admin_request(
        server, route, _bodies(created["profile_id"])[route], BAD_SECRETS[secret]
    )
    assert (status, body["error"]) == (401, "AdminAuthFailure")
    assert _state(stack) == before  # no audit record, and no other write
    assert verify_calls == []


def test_with_the_secret_every_admin_route_answers_as_before(served, verify_calls):  # noqa: F811
    stack, server = served
    created, _ = stack.provision(policy=permissive_policy(policy_id="p-1"))
    bodies = _bodies(created["profile_id"])
    answers = {route: _admin_request(server, route, bodies[route], ADMIN_SECRET)
               for route in ADMIN_ROUTES}
    assert {route: status for route, (status, _) in answers.items()} == dict.fromkeys(
        ADMIN_ROUTES, 200
    )
    assert answers["lifecycle"][1] == {"previous_state": "Active", "state": "Suspended"}
    assert answers["policy"][1] == {"previous_policy_id": "p-1", "policy_id": "p-2"}
    assert answers["revoke"][1] == {"previous_state": "Suspended", "state": "Revoked"}
    # two provisions, suspend, policy, revoke
    assert answers["audit/verify"][1] == {"ok": True, "length": 5}
    assert answers["provision"][1]["profile_id"] in stack.vault
    assert verify_calls == [1]


def test_the_secret_is_checked_before_the_body_and_routing_comes_first(served):  # noqa: F811
    _, server = served
    data = _request("POST", "/admin/provision", b"{not json", {"Connection": "close"})
    ((status, _, body),) = _responses(_exchange(server, data))
    assert (status, json.loads(body)["error"]) == (401, "AdminAuthFailure")
    for secret in (None, ADMIN_SECRET):
        status, body = _admin_request(server, "no-such-route", None, secret)
        assert (status, body["error"]) == (404, "NotFound")
