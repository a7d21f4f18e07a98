"""Attestation token codec and verifier checks."""

import secrets

import pytest

from agent_esim.attestation import (
    AttestationFailure,
    AttestationToken,
    SoftwareRootOfTrust,
    verify_attestation,
    verify_token_integrity,
)
from agent_esim.errors import WireFormatError
from agent_esim.vault import BindingMetadata

NOW = 50_000.0


@pytest.fixture
def root():
    return SoftwareRootOfTrust.generate("tee-root-1")


@pytest.fixture
def roots(root):
    return {root.root_id: root.public_key}


def binding_for(measurement):
    return BindingMetadata(
        agent_public_key=secrets.token_bytes(32),
        expected_measurements=frozenset({measurement}),
        enterprise_namespace="acme/attest",
    )


def issue(root, measurement, issued_at=NOW - 10, validity=300.0, **kwargs):
    return root.issue_token(
        measurement, "vm-uuid-1", issued_at=issued_at, validity_seconds=validity, **kwargs
    )


def test_wire_round_trip(root):
    measurement = secrets.token_bytes(32)
    token = issue(root, measurement)
    decoded = AttestationToken.from_header(token.to_header())
    assert decoded == token


def test_wire_rejects_garbage():
    with pytest.raises(WireFormatError):
        AttestationToken.from_wire(b"not-a-token")
    with pytest.raises(WireFormatError):
        AttestationToken.from_header("%%%not-base64%%%")


def test_valid_token_passes(root, roots):
    measurement = secrets.token_bytes(32)
    token = issue(root, measurement)
    assert verify_token_integrity(token, roots, NOW) is None
    assert verify_attestation(token, binding_for(measurement), NOW, roots=roots) is None


def test_unknown_root(root, roots):
    stranger = SoftwareRootOfTrust.generate("rogue-root")
    token = issue(stranger, secrets.token_bytes(32))
    assert verify_token_integrity(token, roots, NOW) is AttestationFailure.UNKNOWN_ROOT


def test_bad_signature(root, roots):
    measurement = secrets.token_bytes(32)
    token = issue(root, measurement)
    forged = AttestationToken(
        measurement=token.measurement,
        environment_id=token.environment_id,
        issued_at=token.issued_at,
        expires_at=token.expires_at,
        nonce=token.nonce,
        root_id=token.root_id,
        signature=secrets.token_bytes(64),
    )
    assert verify_token_integrity(forged, roots, NOW) is AttestationFailure.BAD_SIGNATURE


def test_resigned_by_unregistered_key_is_unknown_root(roots):
    # a structurally perfect token signed by a key the gateway never saw
    rogue = SoftwareRootOfTrust.generate("tee-root-2")
    token = issue(rogue, secrets.token_bytes(32))
    assert verify_token_integrity(token, roots, NOW) is AttestationFailure.UNKNOWN_ROOT


def test_expired_exactly_after_window(root, roots):
    token = issue(root, secrets.token_bytes(32), issued_at=NOW - 301, validity=300.0)
    # boundary: now == expires_at is still valid; one second later is not
    assert verify_token_integrity(token, roots, token.expires_at) is None
    assert (
        verify_token_integrity(token, roots, token.expires_at + 1.0)
        is AttestationFailure.EXPIRED
    )


def test_not_yet_valid(root, roots):
    token = issue(root, secrets.token_bytes(32), issued_at=NOW + 60)
    assert verify_token_integrity(token, roots, NOW) is AttestationFailure.NOT_YET_VALID


def test_measurement_mismatch(root, roots):
    listed = secrets.token_bytes(32)
    token = issue(root, secrets.token_bytes(32))
    result = verify_attestation(token, binding_for(listed), NOW, roots=roots)
    assert result is AttestationFailure.MEASUREMENT_MISMATCH


def test_policy_allowlist_intersection(root, roots):
    measurement = secrets.token_bytes(32)
    token = issue(root, measurement)
    binding = binding_for(measurement)
    # bound but not in the (non-empty) policy allowlist
    assert (
        verify_attestation(
            token, binding, NOW, roots=roots,
            measurement_allowlist={secrets.token_bytes(32)},
        )
        is AttestationFailure.MEASUREMENT_MISMATCH
    )
    # empty allowlist imposes no extra restriction
    assert (
        verify_attestation(token, binding, NOW, roots=roots, measurement_allowlist=frozenset())
        is None
    )
    assert (
        verify_attestation(token, binding, NOW, roots=roots, measurement_allowlist={measurement})
        is None
    )


def test_first_failing_check_order(root, roots):
    # expired wins over a measurement mismatch
    token = issue(root, secrets.token_bytes(32), issued_at=NOW - 1000, validity=10.0)
    result = verify_attestation(
        token, binding_for(secrets.token_bytes(32)), NOW, roots=roots
    )
    assert result is AttestationFailure.EXPIRED
