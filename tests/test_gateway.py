"""Gateway decision pipeline, auditing, revocation, and policy admin."""

import secrets
import threading
import time

import pytest

from agent_esim.attestation import SoftwareRootOfTrust
from agent_esim.audit import AuditOperation
from agent_esim.config import ServiceConfig
from agent_esim.errors import (
    GatewayDenied,
    InvalidPolicy,
    InvalidProfile,
    MalformedRequest,
    StorageFailure,
    UnknownProfile,
    UnknownSubscriber,
    VaultError,
)
from agent_esim.gateway import ProvisionRequest
from agent_esim.policy import (
    DelegationPolicy,
    DenyReason,
    GatewayOp,
    RateLimit,
    Validity,
    permissive_policy,
)
from agent_esim.stack import build_stack
from agent_esim.vault import AkaSuccess, AkaSyncFailure, ProfileState, verify_profile_signature

from tests.conftest import digest_of


def provisioned_agent(stack, **kwargs):
    result, measurement = stack.provision(**kwargs)
    return result["profile_id"], result, measurement


def test_sign_allow_path(stack):
    profile_id, result, measurement = provisioned_agent(stack)
    token = stack.token_for(measurement)
    payload = digest_of(b"hello world")
    signed = stack.gateway.handle_sign(profile_id, payload, token, "127.0.0.1")
    assert verify_profile_signature(
        bytes.fromhex(signed["public_key"]), profile_id, payload,
        bytes.fromhex(signed["signature"]),
    )
    assert signed["public_key"] == result["public_signing_key"]
    records = stack.audit.records()
    assert records[-1].operation is AuditOperation.SIGN
    assert records[-1].outcome.kind == "allowed"


def test_authenticate_end_to_end(stack):
    profile_id, result, measurement = provisioned_agent(stack)
    token = stack.token_for(measurement)
    challenge = stack.netcore.generate_challenge(result["imsi"])
    outcome = stack.gateway.handle_authenticate(
        profile_id, challenge["rand"], challenge["autn"], token, "127.0.0.1"
    )
    assert isinstance(outcome, AkaSuccess)
    assert stack.netcore.confirm_res(challenge["challenge_id"], outcome.res) is True


def test_sync_failure_is_audited_allowed(stack):
    profile_id, result, measurement = provisioned_agent(stack)
    token = stack.token_for(measurement)
    challenge = stack.netcore.generate_challenge(result["imsi"])
    first = stack.gateway.handle_authenticate(
        profile_id, challenge["rand"], challenge["autn"], token, "127.0.0.1"
    )
    assert isinstance(first, AkaSuccess)
    replay = stack.gateway.handle_authenticate(
        profile_id, challenge["rand"], challenge["autn"], stack.token_for(measurement),
        "127.0.0.1",
    )
    assert isinstance(replay, AkaSyncFailure)
    record = stack.audit.records()[-1]
    assert record.outcome.kind == "allowed"
    assert record.outcome.detail == "sync_failure"


def test_missing_or_bogus_attestation_denied(stack):
    profile_id, _, measurement = provisioned_agent(stack)
    with pytest.raises(GatewayDenied) as exc:
        stack.gateway.handle_sign(profile_id, bytes(32), None, "127.0.0.1")
    assert exc.value.reason is DenyReason.ATTESTATION
    rogue = SoftwareRootOfTrust.generate("rogue")
    bad = rogue.issue_token(measurement, "env-x")
    with pytest.raises(GatewayDenied) as exc:
        stack.gateway.handle_sign(profile_id, bytes(32), bad, "127.0.0.1")
    assert exc.value.reason is DenyReason.ATTESTATION


def test_expired_attestation_denied(stack):
    profile_id, _, measurement = provisioned_agent(stack)
    stale = stack.token_for(measurement, issued_at=time.time() - 900, validity_seconds=60)
    with pytest.raises(GatewayDenied) as exc:
        stack.gateway.handle_sign(profile_id, bytes(32), stale, "127.0.0.1")
    assert exc.value.reason is DenyReason.ATTESTATION


def test_unlisted_measurement_denied(stack):
    profile_id, _, _ = provisioned_agent(stack)
    other = stack.token_for(secrets.token_bytes(32))
    with pytest.raises(GatewayDenied) as exc:
        stack.gateway.handle_sign(profile_id, bytes(32), other, "127.0.0.1")
    assert exc.value.reason is DenyReason.MEASUREMENT_MATCH


def test_op_permission_denied(stack):
    policy = permissive_policy()
    sign_only = DelegationPolicy(
        policy_id="sign-only",
        rate_limit=policy.rate_limit,
        validity=policy.validity,
        allowed_ops=frozenset({GatewayOp.SIGN}),
    )
    profile_id, result, measurement = provisioned_agent(stack, policy=sign_only)
    token = stack.token_for(measurement)
    challenge = stack.netcore.generate_challenge(result["imsi"])
    with pytest.raises(GatewayDenied) as exc:
        stack.gateway.handle_authenticate(
            profile_id, challenge["rand"], challenge["autn"], token, "127.0.0.1"
        )
    assert exc.value.reason is DenyReason.OP_PERMISSION


def test_cidr_scope_denied(stack):
    scoped = permissive_policy()
    scoped = DelegationPolicy(
        policy_id="scoped",
        rate_limit=scoped.rate_limit,
        validity=scoped.validity,
        allowed_ops=scoped.allowed_ops,
        cidr_allowlist=frozenset({"192.168.0.0/16"}),
    )
    profile_id, _, measurement = provisioned_agent(stack, policy=scoped)
    token = stack.token_for(measurement)
    with pytest.raises(GatewayDenied) as exc:
        stack.gateway.handle_sign(profile_id, bytes(32), token, "10.1.2.3")
    assert exc.value.reason is DenyReason.CIDR_SCOPE
    assert stack.gateway.handle_sign(profile_id, bytes(32), token, "192.168.7.7")


def test_policy_validity_denied(stack):
    expired = DelegationPolicy(
        policy_id="expired",
        rate_limit=RateLimit(max_ops=10, window_seconds=60),
        validity=Validity(not_before=1.0, not_after=2.0),
        allowed_ops=frozenset({GatewayOp.SIGN}),
    )
    profile_id, _, measurement = provisioned_agent(stack, policy=expired)
    token = stack.token_for(measurement)
    with pytest.raises(GatewayDenied) as exc:
        stack.gateway.handle_sign(profile_id, bytes(32), token, "127.0.0.1")
    assert exc.value.reason is DenyReason.POLICY_VALIDITY


def test_first_failing_check_wins(stack):
    # profile revoked AND attestation missing AND op not permitted:
    # ProfileState is first in the fixed order
    profile_id, _, _ = provisioned_agent(stack)
    stack.gateway.revoke_profile(profile_id, "test")
    with pytest.raises(GatewayDenied) as exc:
        stack.gateway.handle_sign(profile_id, bytes(32), None, "10.0.0.1")
    assert exc.value.reason is DenyReason.PROFILE_STATE


def test_rate_limit_sequential(stack):
    policy = permissive_policy(max_ops=10, window_seconds=60.0)
    profile_id, _, measurement = provisioned_agent(stack, policy=policy)
    token = stack.token_for(measurement)
    outcomes = []
    for _ in range(11):
        try:
            stack.gateway.handle_sign(profile_id, secrets.token_bytes(32), token, "127.0.0.1")
            outcomes.append("allow")
        except GatewayDenied as denial:
            outcomes.append(denial.reason)
    assert outcomes[:10] == ["allow"] * 10
    assert outcomes[10] is DenyReason.RATE_LIMIT


def test_rate_limit_retry_after(stack):
    policy = permissive_policy(max_ops=1, window_seconds=60.0)
    profile_id, _, measurement = provisioned_agent(stack, policy=policy)
    token = stack.token_for(measurement)
    stack.gateway.handle_sign(profile_id, bytes(32), token, "127.0.0.1")
    with pytest.raises(GatewayDenied) as exc:
        stack.gateway.handle_sign(profile_id, bytes(32), token, "127.0.0.1")
    assert exc.value.reason is DenyReason.RATE_LIMIT
    assert 1 <= exc.value.retry_after <= 60


def test_rate_limit_concurrent_exactness(stack):
    policy = permissive_policy(max_ops=10, window_seconds=60.0)
    profile_id, _, measurement = provisioned_agent(stack, policy=policy)
    token = stack.token_for(measurement)
    results = []
    lock = threading.Lock()

    def fire():
        try:
            stack.gateway.handle_sign(profile_id, secrets.token_bytes(32), token, "127.0.0.1")
            value = "allow"
        except GatewayDenied as denial:
            value = denial.reason
        with lock:
            results.append(value)

    threads = [threading.Thread(target=fire) for _ in range(11)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results.count("allow") == 10
    assert results.count(DenyReason.RATE_LIMIT) == 1


def test_status_exempt_from_rate_limit_and_measurement(stack):
    policy = permissive_policy(max_ops=1, window_seconds=3600.0)
    profile_id, _, measurement = provisioned_agent(stack, policy=policy)
    token = stack.token_for(measurement)
    stack.gateway.handle_sign(profile_id, bytes(32), token, "127.0.0.1")
    for _ in range(5):  # far past the rate budget, still fine
        status = stack.gateway.handle_status(profile_id)
    assert status["state"] == "Active"
    assert status["bound"] is True
    assert status["rate_limit_headroom"] == 0
    assert status["policy"]["policy_id"] == policy.policy_id


def test_status_waits_for_the_gate(stack):
    profile_id, _, _ = provisioned_agent(stack)
    stack.gateway.handle_status(profile_id)  # keeps the profile's gate
    gate = stack.gateway._gates[profile_id]
    held, release = threading.Event(), threading.Event()
    statuses = []

    def holder():
        with gate.lock:
            held.set()
            release.wait(5)

    holding = threading.Thread(target=holder)
    holding.start()
    held.wait(5)
    asking = threading.Thread(
        target=lambda: statuses.append(stack.gateway.handle_status(profile_id))
    )
    asking.start()
    asking.join(0.2)
    assert statuses == []  # still waiting on the gate
    release.set()
    holding.join()
    asking.join(5)
    assert [s["state"] for s in statuses] == ["Active"]


def test_status_of_revoked_profile(stack):
    profile_id, _, _ = provisioned_agent(stack)
    stack.gateway.revoke_profile(profile_id, "compromised")
    status = stack.gateway.handle_status(profile_id)
    assert status["state"] == "Revoked"
    assert status["bound"] is False


def test_status_unknown_profile_audited(stack):
    with pytest.raises(UnknownProfile):
        stack.gateway.handle_status("esim-none")
    record = stack.audit.records()[-1]
    assert record.outcome.kind == "error"
    assert record.outcome.detail == "UnknownProfile"


def test_revoke_then_sign_denied(stack):
    profile_id, _, measurement = provisioned_agent(stack)
    token = stack.token_for(measurement)
    previous = stack.gateway.revoke_profile(profile_id, "drill")
    assert previous is ProfileState.ACTIVE
    with pytest.raises(GatewayDenied) as exc:
        stack.gateway.handle_sign(profile_id, bytes(32), token, "127.0.0.1")
    assert exc.value.reason is DenyReason.PROFILE_STATE
    # second revoke is an idempotent, audited no-op
    assert stack.gateway.revoke_profile(profile_id, "again") is ProfileState.REVOKED
    state_changes = [
        r for r in stack.audit.records() if r.operation is AuditOperation.STATE_CHANGE
    ]
    assert len(state_changes) == 2


def test_revocation_immediacy_under_concurrency(stack):
    policy = permissive_policy(max_ops=100_000, window_seconds=60.0)
    profile_id, _, measurement = provisioned_agent(stack, policy=policy)
    token = stack.token_for(measurement)
    stop = threading.Event()

    def hammer():
        while not stop.is_set():
            try:
                stack.gateway.handle_sign(
                    profile_id, secrets.token_bytes(32), token, "127.0.0.1"
                )
            except GatewayDenied:
                return

    threads = [threading.Thread(target=hammer) for _ in range(6)]
    for t in threads:
        t.start()
    time.sleep(0.05)
    stack.gateway.revoke_profile(profile_id, "stress")
    stop.set()
    for t in threads:
        t.join()
    records = [r for r in stack.audit.records() if r.profile_id == profile_id]
    revoke_seq = next(
        r.seq for r in records
        if r.operation is AuditOperation.STATE_CHANGE and "Revoked" in (r.outcome.detail or "")
    )
    allows_after = [
        r for r in records
        if r.operation is AuditOperation.SIGN
        and r.outcome.kind == "allowed"
        and r.seq > revoke_seq
    ]
    assert allows_after == []


def test_update_policy_tightens_rate(stack):
    profile_id, _, measurement = provisioned_agent(
        stack, policy=permissive_policy(max_ops=10, window_seconds=60.0, policy_id="loose")
    )
    token = stack.token_for(measurement)
    stack.gateway.handle_sign(profile_id, bytes(32), token, "127.0.0.1")
    tight = permissive_policy(max_ops=1, window_seconds=60.0, policy_id="tight")
    previous = stack.gateway.update_policy(profile_id, tight)
    assert previous == "loose"
    with pytest.raises(GatewayDenied) as exc:
        stack.gateway.handle_sign(profile_id, bytes(32), token, "127.0.0.1")
    assert exc.value.reason is DenyReason.RATE_LIMIT


def test_update_policy_validation(stack):
    profile_id, _, _ = provisioned_agent(stack)
    with pytest.raises(InvalidPolicy):
        DelegationPolicy(
            policy_id="bad",
            rate_limit=RateLimit(max_ops=1, window_seconds=60),
            validity=Validity(not_before=5.0, not_after=4.0),
            allowed_ops=frozenset({GatewayOp.SIGN}),
        )
    with pytest.raises(UnknownProfile):
        stack.gateway.update_policy("esim-missing", permissive_policy())


def test_mediation_completeness(stack):
    """Every gateway response maps to exactly one audit record."""
    profile_id, result, measurement = provisioned_agent(stack)
    token = stack.token_for(measurement)
    responses = 1  # the provision itself
    stack.gateway.handle_sign(profile_id, bytes(32), token, "127.0.0.1"); responses += 1
    challenge = stack.netcore.generate_challenge(result["imsi"])
    stack.gateway.handle_authenticate(
        profile_id, challenge["rand"], challenge["autn"], token, "127.0.0.1"
    ); responses += 1
    stack.gateway.handle_status(profile_id); responses += 1
    with pytest.raises(GatewayDenied):
        stack.gateway.handle_sign(profile_id, bytes(32), None, "127.0.0.1")
    responses += 1
    with pytest.raises(UnknownProfile):
        stack.gateway.handle_status("esim-ghost")
    responses += 1
    stack.gateway.update_policy(profile_id, permissive_policy()); responses += 1
    stack.gateway.revoke_profile(profile_id, "done"); responses += 1
    assert len(stack.audit.records()) == responses
    assert stack.gateway.verify_audit().ok


def _authenticate(stack, profile_id, result, measurement):
    challenge = stack.netcore.generate_challenge(result["imsi"])
    return stack.gateway.handle_authenticate(
        profile_id, challenge["rand"], challenge["autn"], stack.token_for(measurement),
        "127.0.0.1",
    )


# entry point -> (store, store method it calls, call(stack, profile_id, result, measurement))
ENTRY_POINTS = {
    "sign": (
        "vault", "usim_sign",
        lambda s, pid, res, m: s.gateway.handle_sign(pid, bytes(32), s.token_for(m), "127.0.0.1"),
    ),
    "authenticate": ("vault", "usim_authenticate", _authenticate),
    "status": ("vault", "get_profile_status", lambda s, pid, res, m: s.gateway.handle_status(pid)),
    "provision": ("policies", "set", lambda s, pid, res, m: s.provision()),
    "revoke": (
        "vault", "set_profile_state",
        lambda s, pid, res, m: s.gateway.revoke_profile(pid, "test"),
    ),
    "lifecycle": (
        "vault", "set_profile_state",
        lambda s, pid, res, m: s.gateway.lifecycle(pid, "suspend"),
    ),
    "update_policy": (
        "policies", "set",
        lambda s, pid, res, m: s.gateway.update_policy(pid, permissive_policy()),
    ),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_fail_closed_on_audit_storage_failure(stack, entry):
    _, _, call = ENTRY_POINTS[entry]
    profile_id, result, measurement = provisioned_agent(stack)
    stack.audit._log.close()  # break the audit store underneath the gateway
    with pytest.raises(StorageFailure):
        call(stack, profile_id, result, measurement)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_fail_closed_on_vault_internal_failure(stack, monkeypatch, entry):
    store, method, call = ENTRY_POINTS[entry]
    profile_id, result, measurement = provisioned_agent(stack)

    def explode(*args, **kwargs):
        raise RuntimeError("simulated secure-element fault")

    monkeypatch.setattr(getattr(stack, store), method, explode)
    before = len(stack.audit.records())
    profiles = stack.vault.profile_ids()
    with pytest.raises(VaultError):
        call(stack, profile_id, result, measurement)
    new_records = stack.audit.records()[before:]
    assert len(new_records) == 1
    assert new_records[0].outcome.kind == "error"
    assert new_records[0].outcome.detail == "VaultError"
    # a failed provision leaves no profile, live or after a restart
    assert stack.vault.profile_ids() == profiles
    rebuilt = build_stack(ServiceConfig(state_dir=stack.state_dir))
    assert rebuilt.vault.profile_ids() == profiles
    rebuilt.close()


def test_failed_install_leaves_the_imsi_unknown_to_the_network_core(stack, monkeypatch):
    installing = []

    def explode(profile):
        installing.append(profile.imsi)
        raise RuntimeError("simulated secure-element fault")

    monkeypatch.setattr(stack.vault, "install_profile", explode)
    with pytest.raises(VaultError):
        stack.provision()
    (imsi,) = installing
    with pytest.raises(UnknownSubscriber):
        stack.netcore.generate_challenge(imsi)
    assert stack.netcore.pending_count() == 0
    rebuilt = build_stack(ServiceConfig(state_dir=stack.state_dir))
    try:
        with pytest.raises(UnknownSubscriber):
            rebuilt.netcore.generate_challenge(imsi)
        assert rebuilt.netcore._sqn_he == {}
    finally:
        rebuilt.close()


def test_unknown_profile_ids_add_no_locks(stack):
    profile_id, _, measurement = provisioned_agent(stack)
    stack.gateway.handle_sign(profile_id, bytes(32), stack.token_for(measurement), "127.0.0.1")
    assert list(stack.gateway._gates) == [profile_id]
    before = len(stack.audit.records())
    for i in range(50):
        with pytest.raises(UnknownProfile):
            stack.gateway.handle_sign(f"esim-ghost{i}", bytes(32), None, "127.0.0.1")
        with pytest.raises(UnknownProfile):
            stack.gateway.handle_status(f"esim-ghost{i}")
    assert list(stack.gateway._gates) == [profile_id]
    new_records = stack.audit.records()[before:]
    assert len(new_records) == 100
    assert {(r.outcome.kind, r.outcome.detail) for r in new_records} == {
        ("error", "UnknownProfile")
    }


def test_malformed_inputs_rejected(stack):
    profile_id, _, measurement = provisioned_agent(stack)
    token = stack.token_for(measurement)
    with pytest.raises(MalformedRequest):
        stack.gateway.handle_sign(profile_id, b"short", token, "127.0.0.1")
    with pytest.raises(MalformedRequest):
        stack.gateway.handle_authenticate(profile_id, b"x", bytes(16), token, "127.0.0.1")


def test_provision_rejects_empty_measurements(stack):
    with pytest.raises(InvalidProfile):
        ProvisionRequest(
            agent_public_key=bytes(32),
            expected_measurements=frozenset(),
            enterprise_namespace="acme",
            initial_policy=permissive_policy(),
        )


def request_without_policy():
    return ProvisionRequest(
        agent_public_key=secrets.token_bytes(32),
        expected_measurements=frozenset({secrets.token_bytes(32)}),
        enterprise_namespace="acme/test",
    )


def test_provision_without_a_policy_binds_the_default(stack):
    stack.gateway.default_policy = permissive_policy(policy_id="fallback")
    profile_id = stack.gateway.admin_provision(request_without_policy())["profile_id"]
    assert stack.policies.get(profile_id).policy_id == "fallback"
    assert stack.gateway.handle_status(profile_id)["policy"]["policy_id"] == "fallback"


def test_provision_without_any_policy_is_refused(stack):
    assert stack.gateway.default_policy is None
    with pytest.raises(InvalidPolicy):
        stack.gateway.admin_provision(request_without_policy())
    assert stack.vault.profile_ids() == []


def test_provision_output_is_public_only(stack):
    import json

    result, _ = stack.provision()
    blob = json.dumps(result).encode()
    for profile_id in stack.vault.profile_ids():
        profile = stack.vault._profiles[profile_id]
        km = profile.key_material
        private = profile.signing_key.private_bytes_raw()
        for secret in (km.k, km.opc, private):
            assert secret.hex().encode() not in blob
