"""Agent flows end to end over the wire: AKA, resync, messaging, isolation."""

import json
import secrets

import pytest

from agent_esim.agent import (
    AgentRuntime,
    RelyingService,
    SignedAgentMessage,
    agent_authenticate,
    send_signed_message,
    verify_peer_message,
)
from agent_esim.client import AdminClient, GatewayClient
from agent_esim.errors import GatewayDenied
from agent_esim.httpapi import GatewayHTTPServer
from agent_esim.netcore import NetworkCore
from agent_esim.wire import scan_for_secrets

from tests.conftest import Stack

ADMIN_SECRET = "agent-admin"


@pytest.fixture
def env(tmp_path):
    stack = Stack(tmp_path / "state")
    server = GatewayHTTPServer(stack.gateway, "127.0.0.1", 0, ADMIN_SECRET)
    server.start()
    yield stack, server
    server.stop()
    stack.close()


def make_agent(stack, server, name="agent-a", policy=None, measurement=None):
    result, measurement = stack.provision(policy=policy, measurement=measurement)
    return AgentRuntime(
        agent_id=name,
        profile_id=result["profile_id"],
        measurement=measurement,
        environment_id=f"env-{name}",
        attestation_signer=stack.root,
        client=GatewayClient(server.base_url),
    ), result


def test_agent_authenticate_healthy(env):
    stack, server = env
    agent, _ = make_agent(stack, server)
    relying = RelyingService(stack.netcore)
    session = agent_authenticate(agent, relying)
    assert session.authenticated is True
    assert session.resync_rounds == 0
    steps = [hop["step"] for hop in session.transcript]
    assert steps == ["status", "challenge", "gateway_authenticate", "confirm"]


def test_agent_authenticate_with_resync(env, tmp_path):
    stack, server = env
    agent, _ = make_agent(stack, server)
    relying = RelyingService(stack.netcore)
    # move the vault's accepted SQN ahead of a rebuilt operator store
    for _ in range(4):
        assert agent_authenticate(agent, relying).authenticated
    fresh_core = NetworkCore(tmp_path / "rebuilt-core", stack.vault.key_material_for)
    rebuilt = RelyingService(fresh_core)
    session = agent_authenticate(agent, rebuilt)
    assert session.authenticated is True
    assert session.resync_rounds == 1
    assert any(hop["step"] == "resynchronize" for hop in session.transcript)
    fresh_core.close()


def test_agent_with_unlisted_measurement_denied(env):
    stack, server = env
    agent, _ = make_agent(stack, server)
    agent.measurement = secrets.token_bytes(32)  # drifted code identity
    relying = RelyingService(stack.netcore)
    with pytest.raises(GatewayDenied) as exc:
        agent_authenticate(agent, relying)
    assert exc.value.reason == "MeasurementMatch"


def test_signed_message_round_trip(env):
    stack, server = env
    agent, _ = make_agent(stack, server)
    message = send_signed_message(agent, b"hello peers")
    verifier = GatewayClient(server.base_url)
    verdict = verify_peer_message(message, verifier)
    assert verdict.valid is True
    assert verdict.sender_state == "Active"


def test_tampered_message_rejected(env):
    stack, server = env
    agent, _ = make_agent(stack, server)
    message = send_signed_message(agent, b"original")
    verifier = GatewayClient(server.base_url)
    tampered = SignedAgentMessage(
        sender_profile_id=message.sender_profile_id,
        payload=b"forged",
        payload_digest=message.payload_digest,
        signature=message.signature,
        sender_public_key=message.sender_public_key,
    )
    assert verify_peer_message(tampered, verifier).valid is False
    # digest recomputed over forged payload also fails the signature
    import hashlib

    recomputed = SignedAgentMessage(
        sender_profile_id=message.sender_profile_id,
        payload=b"forged",
        payload_digest=hashlib.sha256(b"forged").digest(),
        signature=message.signature,
        sender_public_key=message.sender_public_key,
    )
    assert verify_peer_message(recomputed, verifier).valid is False


def test_message_from_revoked_sender_rejected(env):
    stack, server = env
    agent, _ = make_agent(stack, server)
    message = send_signed_message(agent, b"pre-revocation offer")
    admin = AdminClient(server.base_url, ADMIN_SECRET)
    admin.revoke(agent.profile_id, "compromised")
    verdict = verify_peer_message(message, GatewayClient(server.base_url))
    assert verdict.valid is False
    assert verdict.sender_state == "Revoked"


def test_key_substitution_detected(env):
    stack, server = env
    agent_a, _ = make_agent(stack, server, name="a")
    agent_b, _ = make_agent(stack, server, name="b")
    message = send_signed_message(agent_a, b"signed by a")
    other_key = send_signed_message(agent_b, b"x").sender_public_key
    forged = SignedAgentMessage(
        sender_profile_id=message.sender_profile_id,
        payload=message.payload,
        payload_digest=message.payload_digest,
        signature=message.signature,
        sender_public_key=other_key,
    )
    verdict = verify_peer_message(forged, GatewayClient(server.base_url))
    assert verdict.valid is False


def test_revoked_sender_message_denied_at_send(env):
    stack, server = env
    agent, _ = make_agent(stack, server)
    AdminClient(server.base_url, ADMIN_SECRET).revoke(agent.profile_id, "gone")
    with pytest.raises(GatewayDenied) as exc:
        send_signed_message(agent, b"too late")
    assert exc.value.reason == "ProfileState"


def test_agent_memory_never_holds_profile_secrets(env):
    stack, server = env
    agent, result = make_agent(stack, server)
    relying = RelyingService(stack.netcore)
    agent_authenticate(agent, relying)
    send_signed_message(agent, b"payload")
    agent.client.status(agent.profile_id)

    profile = stack.vault._profiles[agent.profile_id]
    secrets_list = [
        profile.key_material.k,
        profile.key_material.opc,
        profile.signing_key.private_bytes_raw(),
    ]
    snapshot = agent.memory_snapshot()
    assert scan_for_secrets(snapshot, secrets_list) == []
    # and the full wire transcript as observed by the agent
    wire = json.dumps(agent.client.transcript).encode()
    assert scan_for_secrets(wire, secrets_list) == []


def test_message_json_round_trip(env):
    stack, server = env
    agent, _ = make_agent(stack, server)
    message = send_signed_message(agent, b"wire format")
    assert SignedAgentMessage.from_json(message.to_json()) == message
