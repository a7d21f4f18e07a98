"""Wire protocol: endpoints, status mapping, headers, and secret hygiene."""

import json
import secrets

import pytest

from agent_esim.audit import AuditOperation, load_audit_records, verify_audit_file
from agent_esim.client import AdminClient, GatewayClient
from agent_esim.errors import (
    AdminAuthFailure,
    AgentEsimError,
    DuplicateProfile,
    GatewayDenied,
    IllegalTransition,
    InvalidPolicy,
    InvalidProfile,
    MalformedRequest,
    ProfileNotActive,
    StorageFailure,
    UnknownProfile,
    VaultError,
    WireFormatError,
)
from agent_esim.httpapi import MAX_PROFILE_ID_CHARS, GatewayHTTPServer
from agent_esim.policy import DelegationPolicy, DenyReason, GatewayOp, permissive_policy
from agent_esim.vault import ProfileState
from agent_esim.wire import request_digest, scan_for_secrets

from tests.conftest import Stack, digest_of
from tests.test_policy import MISTYPED_DOCUMENTS, REFUSED_DOCUMENTS

ADMIN_SECRET = "test-admin-secret"


@pytest.fixture
def served(tmp_path):
    stack = Stack(tmp_path / "state")
    server = GatewayHTTPServer(stack.gateway, "127.0.0.1", 0, ADMIN_SECRET)
    server.start()
    yield stack, server
    server.stop()
    stack.close()


def provision_document(measurement, policy=None):
    return {
        "agent_public_key": secrets.token_bytes(32).hex(),
        "expected_measurements": [measurement.hex()],
        "enterprise_namespace": "acme/http",
        "initial_policy": (policy or permissive_policy()).to_json(),
    }


def test_provision_sign_status_flow(served):
    stack, server = served
    admin = AdminClient(server.base_url, ADMIN_SECRET)
    client = GatewayClient(server.base_url)
    measurement = secrets.token_bytes(32)
    created = admin.provision(provision_document(measurement))
    assert set(created) == {"profile_id", "imsi", "iccid", "public_signing_key"}

    token = stack.token_for(measurement)
    payload = digest_of(b"over the wire")
    signed = client.sign(created["profile_id"], payload, token)
    assert signed["public_key"] == created["public_signing_key"]

    status = client.status(created["profile_id"])
    assert status["state"] == "Active"
    assert status["bound"] is True
    assert status["imsi"] == created["imsi"]
    assert "attestation_ok" not in status  # no token supplied

    with_token = client.status(created["profile_id"], token)
    assert with_token["attestation_ok"] is True


def test_authenticate_full_round_over_wire(served):
    stack, server = served
    admin = AdminClient(server.base_url, ADMIN_SECRET)
    client = GatewayClient(server.base_url)
    measurement = secrets.token_bytes(32)
    created = admin.provision(provision_document(measurement))

    challenge = stack.netcore.generate_challenge(created["imsi"])
    result = client.authenticate(
        created["profile_id"], challenge["rand"], challenge["autn"],
        stack.token_for(measurement),
    )
    assert result["outcome"] == "success"
    assert stack.netcore.confirm_res(
        challenge["challenge_id"], bytes.fromhex(result["res"])
    )


def test_denied_maps_to_403_with_reason(served):
    stack, server = served
    admin = AdminClient(server.base_url, ADMIN_SECRET)
    client = GatewayClient(server.base_url)
    measurement = secrets.token_bytes(32)
    created = admin.provision(provision_document(measurement))
    with pytest.raises(GatewayDenied) as exc:
        client.sign(created["profile_id"], bytes(32), None)  # no attestation header
    assert exc.value.reason == "Attestation"


def test_rate_limit_denial_carries_retry_after(served):
    stack, server = served
    admin = AdminClient(server.base_url, ADMIN_SECRET)
    client = GatewayClient(server.base_url)
    measurement = secrets.token_bytes(32)
    created = admin.provision(
        provision_document(measurement, permissive_policy(max_ops=1, window_seconds=60))
    )
    token = stack.token_for(measurement)
    client.sign(created["profile_id"], bytes(32), token)
    status, body, _ = client.request(
        "POST",
        "/identity/sign",
        {"profile_id": created["profile_id"], "payload_digest": bytes(32).hex()},
        {"X-Attestation-Token": token.to_header()},
    )
    assert status == 403
    assert body["reason"] == "RateLimit"
    assert body["retry_after"] >= 1


def denial_policy(reason: DenyReason) -> DelegationPolicy:
    """A policy under which an attested sign is denied for `reason`, when
    the policy is where that check looks."""
    if reason is DenyReason.POLICY_VALIDITY:
        return permissive_policy(not_before=1.0, lifetime_seconds=1.0)
    if reason is DenyReason.OP_PERMISSION:
        return permissive_policy(ops=[GatewayOp.STATUS])
    if reason is DenyReason.CIDR_SCOPE:
        return DelegationPolicy.from_json(
            dict(permissive_policy().to_json(), cidr_allowlist=["10.0.0.0/8"])
        )
    if reason is DenyReason.RATE_LIMIT:
        return permissive_policy(max_ops=1, window_seconds=60)
    return permissive_policy()


@pytest.mark.parametrize("reason", list(DenyReason), ids=lambda reason: reason.value)
def test_each_denial_reaches_the_client_as_gateway_denied(served, reason):
    stack, server = served
    admin = AdminClient(server.base_url, ADMIN_SECRET)
    client = GatewayClient(server.base_url)
    measurement = secrets.token_bytes(32)
    pid = admin.provision(provision_document(measurement, denial_policy(reason)))["profile_id"]
    token = stack.token_for(
        secrets.token_bytes(32) if reason is DenyReason.MEASUREMENT_MATCH else measurement
    )
    if reason is DenyReason.ATTESTATION:
        token = None
    if reason is DenyReason.PROFILE_STATE:
        admin.lifecycle(pid, "suspend")
    if reason is DenyReason.RATE_LIMIT:
        client.sign(pid, bytes(32), token)
    with pytest.raises(GatewayDenied) as exc:
        client.sign(pid, bytes(32), token)
    denial = exc.value
    assert denial.reason is reason
    assert denial.reason == reason.value and isinstance(denial.reason, str)
    assert str(denial) == f"denied: {reason.value}"
    if reason is DenyReason.RATE_LIMIT:
        assert 1 <= denial.retry_after <= 60
    else:
        assert denial.retry_after is None
    assert load_audit_records(stack.audit.path)[-1].outcome.detail == reason.value


EDGE_ERRORS = [
    (UnknownProfile("x"), 404),
    (DuplicateProfile("x"), 409),
    (IllegalTransition(ProfileState.REVOKED, ProfileState.ACTIVE), 409),
    (AdminAuthFailure("x"), 401),
    (StorageFailure("x"), 503),
    (VaultError("x"), 503),
    (MalformedRequest("x"), 400),
    (InvalidPolicy("x"), 400),
    (InvalidProfile("binding.x"), 400),
    (WireFormatError("x"), 400),
    (ProfileNotActive(ProfileState.SUSPENDED), 400),
    (AgentEsimError("x"), 400),
    (GatewayDenied(DenyReason.RATE_LIMIT, retry_after=7), 403),
    (RuntimeError("x"), 500),
    (KeyError("x"), 500),
]


@pytest.mark.parametrize(
    "err, status", EDGE_ERRORS, ids=[type(err).__name__ for err, _ in EDGE_ERRORS]
)
def test_each_error_class_answers_its_status(served, monkeypatch, err, status):
    stack, server = served
    admin = AdminClient(server.base_url, ADMIN_SECRET)

    def fail():
        raise err

    monkeypatch.setattr(stack.gateway, "verify_audit", fail)
    answer, body, _ = admin.request("GET", "/admin/audit/verify", None,
                                    {"X-Admin-Secret": ADMIN_SECRET})
    if isinstance(err, GatewayDenied):
        assert (answer, body) == (403, {"error": "denied", "reason": "RateLimit", "retry_after": 7})
    else:
        assert (answer, body["error"]) == (status, type(err).__name__)
    if isinstance(err, AgentEsimError):
        assert type(err).status == status


@pytest.mark.parametrize(
    "path, fields",
    [
        ("/identity/sign", {"payload_digest": "ab" * 31}),
        ("/identity/sign", {"payload_digest": "ab" * 33}),
        ("/identity/sign", {"payload_digest": ""}),
        ("/identity/authenticate", {"rand": "00" * 15, "autn": "00" * 16}),
        ("/identity/authenticate", {"rand": "00" * 16, "autn": "00" * 17}),
    ],
    ids=["digest-31", "digest-33", "digest-empty", "rand-15", "autn-17"],
)
def test_a_field_of_the_wrong_length_answers_400_unaudited(served, path, fields):
    stack, server = served
    admin = AdminClient(server.base_url, ADMIN_SECRET)
    measurement = secrets.token_bytes(32)
    pid = admin.provision(provision_document(measurement))["profile_id"]
    before = state_files(stack)
    status, body, _ = admin.request(
        "POST", path, dict(fields, profile_id=pid),
        {"X-Attestation-Token": stack.token_for(measurement).to_header()},
    )
    assert (status, body["error"]) == (400, "MalformedRequest")
    assert "must be" in body["message"]
    assert state_files(stack) == before


@pytest.mark.parametrize("manifest", [True, False], ids=["manifest", "no-manifest"])
def test_provision_digest_is_computed_from_the_wire_document(served, manifest):
    stack, server = served
    admin = AdminClient(server.base_url, ADMIN_SECRET)
    document = provision_document(secrets.token_bytes(32))
    document["expected_measurements"].append(secrets.token_bytes(32).hex())
    if manifest:
        document["manifest_digest"] = secrets.token_bytes(32).hex()
    profile_id = admin.provision(document)["profile_id"]
    expected = request_digest(
        "provision",
        profile_id,
        {
            "agent_public_key": bytes.fromhex(document["agent_public_key"]),
            "namespace": document["enterprise_namespace"].encode("utf-8"),
            "measurements": b"".join(
                sorted(bytes.fromhex(m) for m in document["expected_measurements"])
            ),
            "manifest": bytes.fromhex(document.get("manifest_digest", "")),
        },
    )
    (record,) = [r for r in stack.audit.records() if r.profile_id == profile_id]
    assert record.operation is AuditOperation.PROVISION
    assert record.request_digest == expected


@pytest.mark.parametrize(
    "change, field",
    [
        ({"expected_measurements": []}, "binding.expected_measurements"),
        ({"expected_measurements": ["ab" * 31]}, "binding.expected_measurements"),
        ({"expected_measurements": "ab" * 32}, "expected_measurements"),
        ({"manifest_digest": "cd" * 31}, "binding.container_fingerprint"),
        ({"agent_public_key": ""}, "binding.agent_public_key"),
        ({"agent_public_key": "ab" * 31}, "binding.agent_public_key"),
        ({"agent_public_key": "ab" * 33}, "binding.agent_public_key"),
    ],
    ids=["no-measurement", "short-measurement", "not-a-list", "short-manifest",
         "empty-agent-key", "short-agent-key", "long-agent-key"],
)
def test_provision_binding_errors_map_to_400(served, change, field):
    stack, server = served
    admin = AdminClient(server.base_url, ADMIN_SECRET)
    document = {**provision_document(secrets.token_bytes(32)), **change}
    status, body, _ = admin.request(
        "POST", "/admin/provision", document, {"X-Admin-Secret": ADMIN_SECRET}
    )
    assert (status, body["error"], body["field"]) == (400, "InvalidProfile", field)
    assert stack.vault.profile_ids() == []
    assert stack.audit.records() == []


def test_unknown_profile_maps_to_404(served):
    _, server = served
    client = GatewayClient(server.base_url)
    with pytest.raises(UnknownProfile):
        client.status("esim-does-not-exist")


def test_malformed_body_maps_to_400(served):
    _, server = served
    client = GatewayClient(server.base_url)
    status, body, _ = client.request("POST", "/identity/sign", {"profile_id": "x"})
    assert status == 400 and body["error"] == "MalformedRequest"
    status, _, _ = client.request("POST", "/identity/unknown", {})
    assert status == 404


def test_undecodable_attestation_header_is_denied_not_500(served):
    import base64

    from agent_esim.wire import TOKEN_MAGIC, encode_fields, encode_timestamp

    stack, server = served
    admin = AdminClient(server.base_url, ADMIN_SECRET)
    client = GatewayClient(server.base_url)
    measurement = secrets.token_bytes(32)
    created = admin.provision(provision_document(measurement))
    hostile_headers = [
        "!!!garbage!!!",  # not base64
        base64.b64encode(b"not-a-token").decode(),  # bad magic
        base64.b64encode(  # valid framing, invalid UTF-8 inside
            TOKEN_MAGIC
            + encode_fields(
                bytes(32), b"\xff\xfe", encode_timestamp(1.0), encode_timestamp(2.0),
                bytes(16), b"root", b"sig",
            )
        ).decode(),
    ]
    for header in hostile_headers:
        status, body, _ = client.request(
            "POST",
            "/identity/sign",
            {"profile_id": created["profile_id"], "payload_digest": bytes(32).hex()},
            {"X-Attestation-Token": header},
        )
        assert status == 403, header
        assert body["reason"] == "Attestation"


def test_admin_requires_secret(served):
    _, server = served
    bad_admin = AdminClient(server.base_url, "wrong-secret")
    with pytest.raises(AdminAuthFailure):
        bad_admin.provision(provision_document(secrets.token_bytes(32)))
    status, _, _ = GatewayClient(server.base_url).request(
        "POST", "/admin/revoke", {"profile_id": "x", "reason": "y"}
    )
    assert status == 401


def test_lifecycle_endpoints(served):
    stack, server = served
    admin = AdminClient(server.base_url, ADMIN_SECRET)
    measurement = secrets.token_bytes(32)
    created = admin.provision(provision_document(measurement))
    pid = created["profile_id"]
    assert admin.lifecycle(pid, "suspend")["state"] == "Suspended"
    assert admin.lifecycle(pid, "resume")["state"] == "Active"
    assert admin.revoke(pid, "wire test")["previous_state"] == "Active"
    # illegal transition surfaces as 409
    status, body, _ = admin.request(
        "POST",
        "/admin/lifecycle",
        {"profile_id": pid, "action": "resume"},
        {"X-Admin-Secret": ADMIN_SECRET},
    )
    assert status == 409
    assert body["error"] == "IllegalTransition"


def test_lifecycle_endpoint_does_not_revoke(served):
    stack, server = served
    admin = AdminClient(server.base_url, ADMIN_SECRET)
    pid = admin.provision(provision_document(secrets.token_bytes(32)))["profile_id"]
    status, body, _ = admin.request(
        "POST",
        "/admin/lifecycle",
        {"profile_id": pid, "action": "revoke"},
        {"X-Admin-Secret": ADMIN_SECRET},
    )
    assert status == 400
    assert body["error"] == "MalformedRequest"
    assert admin.status(pid)["state"] == "Active"


def test_policy_update_over_wire(served):
    stack, server = served
    admin = AdminClient(server.base_url, ADMIN_SECRET)
    client = GatewayClient(server.base_url)
    measurement = secrets.token_bytes(32)
    created = admin.provision(provision_document(measurement))
    tight = permissive_policy(max_ops=1, window_seconds=60, policy_id="tight")
    result = admin.update_policy(created["profile_id"], tight.to_json())
    assert result["policy_id"] == "tight"
    token = stack.token_for(measurement)
    client.sign(created["profile_id"], bytes(32), token)
    with pytest.raises(GatewayDenied) as exc:
        client.sign(created["profile_id"], bytes(32), token)
    assert exc.value.reason == "RateLimit"
    # invalid policy document -> 400
    bad = tight.to_json()
    bad["validity"] = {"not_before": 5, "not_after": 4}
    status, body, _ = admin.request(
        "POST",
        "/admin/policy",
        {"profile_id": created["profile_id"], "policy": bad},
        {"X-Admin-Secret": ADMIN_SECRET},
    )
    assert status == 400 and body["error"] == "InvalidPolicy"
    for not_an_object in ("tight", True, 7, ["allowed_ops"]):
        status, body, _ = admin.request(
            "POST",
            "/admin/policy",
            {"profile_id": created["profile_id"], "policy": not_an_object},
            {"X-Admin-Secret": ADMIN_SECRET},
        )
        assert (status, body["error"]) == (400, "InvalidPolicy"), not_an_object


def test_policy_update_on_a_revoked_profile_answers_400(served):
    stack, server = served
    admin = AdminClient(server.base_url, ADMIN_SECRET)
    kept = permissive_policy(policy_id="kept")
    created = admin.provision(provision_document(secrets.token_bytes(32), kept))
    admin.revoke(created["profile_id"], "done")
    records = len(stack.audit.records())
    status, body, _ = admin.request(
        "POST",
        "/admin/policy",
        {"profile_id": created["profile_id"], "policy": permissive_policy(policy_id="late").to_json()},
        {"X-Admin-Secret": ADMIN_SECRET},
    )
    assert (status, body["error"]) == (400, "ProfileNotActive")
    assert len(stack.audit.records()) == records + 1
    assert admin.status(created["profile_id"])["policy"]["policy_id"] == "kept"


def test_audit_verify_endpoint(served):
    stack, server = served
    admin = AdminClient(server.base_url, ADMIN_SECRET)
    admin.provision(provision_document(secrets.token_bytes(32)))
    result = admin.audit_verify()
    assert result["ok"] is True and result["length"] >= 1


def test_audit_verify_endpoint_reads_only_the_committed_prefix(served):
    stack, server = served
    admin = AdminClient(server.base_url, ADMIN_SECRET)
    admin.provision(provision_document(secrets.token_bytes(32)))
    length = admin.audit_verify()["length"]
    with open(stack.audit.path, "ab") as fh:  # half of a frame still being written
        fh.write((200).to_bytes(4, "big") + b'{"seq":')
    assert admin.audit_verify() == {"ok": True, "length": length}
    offline = verify_audit_file(stack.audit.path)
    assert (offline.ok, offline.length, offline.first_bad_seq) == (False, length, length + 1)


def test_wire_responses_never_leak_key_material(served):
    stack, server = served
    admin = AdminClient(server.base_url, ADMIN_SECRET)
    client = GatewayClient(server.base_url)
    measurement = secrets.token_bytes(32)
    created = admin.provision(provision_document(measurement))
    token = stack.token_for(measurement)
    client.sign(created["profile_id"], digest_of(b"msg"), token)
    challenge = stack.netcore.generate_challenge(created["imsi"])
    client.authenticate(created["profile_id"], challenge["rand"], challenge["autn"], token)
    client.status(created["profile_id"])

    profile = stack.vault._profiles[created["profile_id"]]
    secrets_list = [
        profile.key_material.k,
        profile.key_material.opc,
        profile.signing_key.private_bytes_raw(),
    ]
    wire_blob = json.dumps(admin.transcript + client.transcript).encode()
    assert scan_for_secrets(wire_blob, secrets_list) == []


def state_files(stack):
    """Every file of the state directory, byte for byte."""
    return {p.name: p.read_bytes() for p in stack.state_dir.iterdir() if p.is_file()}


def admin_post(admin, path, body):
    return admin.request("POST", path, body, {"X-Admin-Secret": ADMIN_SECRET})


@pytest.mark.parametrize(
    "case",
    ["numeric policy_id", "numeric cidr entry", "NaN window", "infinite window",
     "window 'inf'", "infinite not_after", *MISTYPED_DOCUMENTS],
)
def test_policy_the_check_refuses_answers_400_and_changes_nothing(served, case):
    stack, server = served
    admin = AdminClient(server.base_url, ADMIN_SECRET)
    created = admin.provision(provision_document(secrets.token_bytes(32)))
    before = state_files(stack)
    document = REFUSED_DOCUMENTS[case]
    status, body, _ = admin_post(
        admin, "/admin/policy", {"profile_id": created["profile_id"], "policy": document}
    )
    assert (status, body["error"]) == (400, "InvalidPolicy")
    provision = dict(provision_document(secrets.token_bytes(32)), initial_policy=document)
    status, body, _ = admin_post(admin, "/admin/provision", provision)
    assert (status, body["error"]) == (400, "InvalidPolicy")
    assert state_files(stack) == before
    assert stack.vault.profile_ids() == [created["profile_id"]]


@pytest.mark.parametrize("reason", [5, 1.5, True, ["compromised"], {"why": "compromised"}])
def test_revoke_with_a_non_string_reason_answers_400(served, reason):
    stack, server = served
    admin = AdminClient(server.base_url, ADMIN_SECRET)
    profile_id = admin.provision(provision_document(secrets.token_bytes(32)))["profile_id"]
    before = state_files(stack)
    status, body, _ = admin_post(
        admin, "/admin/revoke", {"profile_id": profile_id, "reason": reason}
    )
    assert (status, body["error"]) == (400, "MalformedRequest")
    assert state_files(stack) == before
    assert stack.vault.get_state(profile_id) is ProfileState.ACTIVE


def test_revoke_without_a_reason_records_unspecified(served):
    stack, server = served
    admin = AdminClient(server.base_url, ADMIN_SECRET)
    for extra in ({}, {"reason": ""}, {"reason": None}):
        profile_id = admin.provision(provision_document(secrets.token_bytes(32)))["profile_id"]
        status, _, _ = admin_post(admin, "/admin/revoke", dict(extra, profile_id=profile_id))
        assert status == 200
        assert load_audit_records(stack.audit.path)[-1].outcome.detail == "Revoked: unspecified"


ID_REQUESTS = {
    "sign": ("POST", "/identity/sign", {"payload_digest": "00" * 32}),
    "authenticate": ("POST", "/identity/authenticate", {"rand": "00" * 16, "autn": "00" * 16}),
    "revoke": ("POST", "/admin/revoke", {"reason": "test"}),
    "lifecycle": ("POST", "/admin/lifecycle", {"action": "suspend"}),
    "policy": ("POST", "/admin/policy", {"policy": permissive_policy().to_json()}),
    "status": ("GET", "/identity/status/", None),
}


@pytest.mark.parametrize("endpoint", ID_REQUESTS)
def test_profile_ids_over_the_limit_answer_400_unaudited(served, endpoint):
    stack, server = served
    client = GatewayClient(server.base_url)
    method, path, fields = ID_REQUESTS[endpoint]

    def send(profile_id):
        if fields is None:
            return client.request(method, path + profile_id, None, {"X-Admin-Secret": ADMIN_SECRET})
        body = dict(fields, profile_id=profile_id)
        return client.request(method, path, body, {"X-Admin-Secret": ADMIN_SECRET})

    longest = "esim-" + "x" * (MAX_PROFILE_ID_CHARS - 5)
    assert MAX_PROFILE_ID_CHARS == len(longest) == 64
    status, body, _ = send(longest)
    assert (status, body["error"]) == (404, "UnknownProfile")
    records = load_audit_records(stack.audit.path)
    assert len(records) == 1 and records[0].profile_id == longest
    before = stack.audit.path.read_bytes()
    status, body, _ = send(longest + "y")
    assert (status, body["error"]) == (400, "MalformedRequest")
    assert stack.audit.path.read_bytes() == before
