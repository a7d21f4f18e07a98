"""Vault behavior: install, AKA, signing, lifecycle, persistence, isolation."""

import json
import secrets
import sys
import threading
import time
from types import SimpleNamespace

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from agent_esim import vault as vault_module
from agent_esim.config import ServiceConfig
from agent_esim.errors import (
    DuplicateProfile,
    IllegalTransition,
    InvalidProfile,
    ProfileNotActive,
    StorageFailure,
    UnknownProfile,
)
from agent_esim.identifiers import IdentifierAllocator
from agent_esim.milenage import MilenageKeyMaterial, generate_auth_vector
from agent_esim.recordlog import FrameWalk, write_frames
from agent_esim.stack import build_stack
from agent_esim.vault import (
    AkaMacFailure,
    AkaSuccess,
    AkaSyncFailure,
    BindingMetadata,
    ProfileState,
    SimVault,
    new_profile,
    verify_profile_signature,
)

from tests.conftest import Stack


def make_binding(measurement=None):
    return BindingMetadata(
        agent_public_key=secrets.token_bytes(32),
        expected_measurements=frozenset({measurement or secrets.token_bytes(32)}),
        enterprise_namespace="acme/unit",
    )


def make_profile(profile_id="p-1", imsi="001010000000001", iccid=None, km=None):
    allocator_iccid = iccid
    if allocator_iccid is None:
        # any Luhn-valid 19-digit value works for direct installs
        from agent_esim.identifiers import luhn_check_digit

        body = "890101" + imsi[-12:]
        allocator_iccid = body + luhn_check_digit(body)
    km = km or MilenageKeyMaterial(k=secrets.token_bytes(16), opc=secrets.token_bytes(16))
    return new_profile(profile_id, imsi, allocator_iccid, km, make_binding())


@pytest.fixture
def vault(tmp_path):
    v = SimVault(tmp_path / "state")
    yield v
    v.close()


def test_install_and_status(vault):
    profile = make_profile()
    assert vault.install_profile(profile) == "p-1"
    status = vault.get_profile_status("p-1")
    assert status["state"] == "Provisioned"
    assert status["imsi"] == "001010000000001"
    assert status["sqn_ms"] == 0


def test_install_rejects_duplicates(vault):
    vault.install_profile(make_profile())
    with pytest.raises(DuplicateProfile):
        vault.install_profile(make_profile())  # same profile_id
    with pytest.raises(DuplicateProfile):
        vault.install_profile(make_profile(profile_id="p-2"))  # same imsi
    clone = make_profile(profile_id="p-3", imsi="001010000000002")
    vault.install_profile(clone)


def test_install_rejects_bad_imsi(vault):
    with pytest.raises(InvalidProfile) as exc:
        vault.install_profile(make_profile(imsi="00101000000000"))  # 14 digits
    assert exc.value.field == "imsi"


def test_install_rejects_bad_iccid(vault):
    with pytest.raises(InvalidProfile) as exc:
        vault.install_profile(make_profile(iccid="8901010000000000000"))  # bad Luhn
    assert exc.value.field == "iccid"


def test_install_requires_measurement(vault):
    with pytest.raises(InvalidProfile):
        BindingMetadata(
            agent_public_key=b"\x00" * 32,
            expected_measurements=frozenset({b"short"}),
            enterprise_namespace="x",
        )


@pytest.mark.parametrize("key", [b"", bytes(31), bytes(33)], ids=["empty", "31-bytes", "33-bytes"])
def test_binding_agent_key_must_be_32_bytes(key):
    with pytest.raises(InvalidProfile) as exc:
        BindingMetadata(
            agent_public_key=key,
            expected_measurements=frozenset({bytes(32)}),
            enterprise_namespace="x",
        )
    assert exc.value.field == "binding.agent_public_key"


def test_lifecycle_machine(vault):
    vault.install_profile(make_profile())
    assert vault.set_profile_state("p-1", ProfileState.ACTIVE) == ProfileState.PROVISIONED
    assert vault.set_profile_state("p-1", ProfileState.SUSPENDED) == ProfileState.ACTIVE
    assert vault.set_profile_state("p-1", ProfileState.ACTIVE) == ProfileState.SUSPENDED
    assert vault.set_profile_state("p-1", ProfileState.REVOKED) == ProfileState.ACTIVE
    # terminal: revoke is idempotent, anything else is illegal
    assert vault.set_profile_state("p-1", ProfileState.REVOKED) == ProfileState.REVOKED
    with pytest.raises(IllegalTransition):
        vault.set_profile_state("p-1", ProfileState.ACTIVE)


def test_illegal_transition_provisioned_to_suspended(vault):
    vault.install_profile(make_profile())
    with pytest.raises(IllegalTransition):
        vault.set_profile_state("p-1", ProfileState.SUSPENDED)


def test_crypto_requires_active(vault):
    vault.install_profile(make_profile())
    with pytest.raises(ProfileNotActive) as exc:
        vault.usim_sign("p-1", bytes(32))
    assert exc.value.state == ProfileState.PROVISIONED
    with pytest.raises(UnknownProfile):
        vault.usim_sign("nope", bytes(32))


def test_sign_round_trip(vault):
    profile = make_profile()
    vault.install_profile(profile)
    vault.set_profile_state("p-1", ProfileState.ACTIVE)
    digest = secrets.token_bytes(32)
    result = vault.usim_sign("p-1", digest)
    assert verify_profile_signature(
        bytes.fromhex(result["public_key"]), "p-1", digest, bytes.fromhex(result["signature"])
    )
    # wrong profile's key must not verify
    other = make_profile(profile_id="p-2", imsi="001010000000002")
    vault.install_profile(other)
    assert not verify_profile_signature(
        other.public_signing_key(), "p-1", digest, bytes.fromhex(result["signature"])
    )


def test_authenticate_success_and_replay(vault):
    km = MilenageKeyMaterial(k=secrets.token_bytes(16), opc=secrets.token_bytes(16))
    vault.install_profile(make_profile(km=km))
    vault.set_profile_state("p-1", ProfileState.ACTIVE)
    rand = secrets.token_bytes(16)
    vector = generate_auth_vector(km, rand, 1, b"\x80\x00")
    outcome = vault.usim_authenticate("p-1", rand, vector.autn)
    assert isinstance(outcome, AkaSuccess)
    assert outcome.res == vector.xres
    assert outcome.ck == vector.ck
    assert outcome.ik == vector.ik
    assert vault.get_profile_status("p-1")["sqn_ms"] == 1
    # replay: same vector no longer fresh
    replay = vault.usim_authenticate("p-1", rand, vector.autn)
    assert isinstance(replay, AkaSyncFailure)


def test_authenticate_mac_failure(vault):
    km = MilenageKeyMaterial(k=secrets.token_bytes(16), opc=secrets.token_bytes(16))
    vault.install_profile(make_profile(km=km))
    vault.set_profile_state("p-1", ProfileState.ACTIVE)
    rand = secrets.token_bytes(16)
    vector = generate_auth_vector(km, rand, 1, b"\x80\x00")
    tampered = bytearray(vector.autn)
    tampered[-1] ^= 0x01  # flip a MAC bit
    outcome = vault.usim_authenticate("p-1", rand, bytes(tampered))
    assert isinstance(outcome, AkaMacFailure)
    assert vault.get_profile_status("p-1")["sqn_ms"] == 0  # no side effects


def test_sqn_monotonic_across_interleavings(vault):
    km = MilenageKeyMaterial(k=secrets.token_bytes(16), opc=secrets.token_bytes(16))
    vault.install_profile(make_profile(km=km))
    vault.set_profile_state("p-1", ProfileState.ACTIVE)
    vectors = [
        (generate_auth_vector(km, rand := secrets.token_bytes(16), sqn, b"\x80\x00"), rand, sqn)
        for sqn in range(1, 21)
    ]
    accepted = []
    lock = threading.Lock()

    def worker(chunk):
        for vector, rand, sqn in chunk:
            outcome = vault.usim_authenticate("p-1", rand, vector.autn)
            if isinstance(outcome, AkaSuccess):
                with lock:
                    accepted.append(sqn)

    threads = [threading.Thread(target=worker, args=(vectors[i::4],)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert vault.get_profile_status("p-1")["sqn_ms"] == max(accepted)
    assert len(accepted) == len(set(accepted))


def test_sqn_order_under_concurrent_aka(tmp_path, monkeypatch):
    state = tmp_path / "state"
    vault = SimVault(state)
    km = MilenageKeyMaterial(k=secrets.token_bytes(16), opc=secrets.token_bytes(16))
    vault.install_profile(make_profile(km=km))
    vault.set_profile_state("p-1", ProfileState.ACTIVE)
    vectors = [
        (generate_auth_vector(km, rand := secrets.token_bytes(16), sqn, b"\x80\x00"), rand)
        for sqn in range(1, 121)
    ]
    append = vault._log.append

    def slow_append(record):
        time.sleep(0.0005)  # widens the gap between the SQN check and its write
        append(record)

    monkeypatch.setattr(vault._log, "append", slow_append)

    def worker(chunk):
        for vector, rand in chunk:
            vault.usim_authenticate("p-1", rand, vector.autn)

    threads = [threading.Thread(target=worker, args=(vectors[i::6],)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    vault.close()
    with FrameWalk(state / "vault.log") as walk:
        frames = list(walk)
    written = [r["sqn_ms"] for r in map(json.loads, frames) if r["type"] == "sqn"]
    assert written
    assert all(a < b for a, b in zip(written, written[1:]))
    reopened = SimVault(state)
    assert reopened.get_profile_status("p-1")["sqn_ms"] == max(written)
    reopened.close()


def test_persistence_across_restart(tmp_path):
    state = tmp_path / "state"
    vault = SimVault(state)
    km = MilenageKeyMaterial(k=secrets.token_bytes(16), opc=secrets.token_bytes(16))
    vault.install_profile(make_profile(km=km))
    vault.set_profile_state("p-1", ProfileState.ACTIVE)
    rand = secrets.token_bytes(16)
    vector = generate_auth_vector(km, rand, 7, b"\x80\x00")
    assert isinstance(vault.usim_authenticate("p-1", rand, vector.autn), AkaSuccess)
    before = vault.get_profile_status("p-1")
    vault.close()

    reopened = SimVault(state)
    after = reopened.get_profile_status("p-1")
    assert after == before
    assert after["sqn_ms"] == 7
    # signing still works with the persisted private key
    digest = secrets.token_bytes(32)
    result = reopened.usim_sign("p-1", digest)
    assert verify_profile_signature(
        bytes.fromhex(result["public_key"]), "p-1", digest, bytes.fromhex(result["signature"])
    )
    reopened.close()


def test_install_record_written_with_a_policy_id_still_opens(tmp_path):
    """Older versions stored a copy of the policy id in each `install`
    record; `PolicyStore` owns it now, and such a log still opens."""
    state = tmp_path / "state"
    vault = SimVault(state)
    vault.install_profile(make_profile())
    before = vault.get_profile_status("p-1")
    vault.close()
    with FrameWalk(state / "vault.log") as walk:
        header, frames = walk.header, list(walk)
    record = json.loads(frames[0])
    assert "policy_id" not in record["profile"]
    record["profile"]["policy_id"] = "pol-1"
    write_frames(state / "vault.log", header, [json.dumps(record).encode()])

    reopened = SimVault(state)
    assert reopened.get_profile_status("p-1") == before
    reopened.close()


def store_with_second_profile_edited(state, profile_id, edit):
    """A `vault.log` in `state` holding two profiles, the second of them
    `profile_id` with `edit` applied to its stored record."""
    vault = SimVault(state)
    vault.install_profile(make_profile("esim-good", imsi="001010000000001"))
    vault.install_profile(make_profile(profile_id, imsi="001010000000002"))
    vault.close()
    with FrameWalk(state / "vault.log") as walk:
        header, frames = walk.header, list(walk)
    records = [json.loads(frame) for frame in frames]
    edit(records[1]["profile"])
    write_frames(state / "vault.log", header, [json.dumps(r).encode() for r in records])


@pytest.mark.parametrize("key_hex", ["", "ab" * 31], ids=["empty", "31-bytes"])
def test_stored_binding_the_check_refuses_stops_the_open(tmp_path, key_hex):
    state = tmp_path / "state"
    store_with_second_profile_edited(
        state, "esim-refused",
        lambda profile: profile["binding"].__setitem__("agent_public_key", key_hex),
    )
    refused = r"vault\.log: profile esim-refused: agent public key must be 32 bytes"
    with pytest.raises(StorageFailure, match=refused):
        SimVault(state)
    with pytest.raises(StorageFailure, match=refused):
        build_stack(ServiceConfig(state_dir=state, listen_port=0), sync=False)


MALFORMED = {
    "k-not-hex": (lambda p: p.__setitem__("k", "zz"), "non-hexadecimal"),
    "k-15-bytes": (lambda p: p.__setitem__("k", "ab" * 15), "k must be 16 bytes"),
    "signing-key-31-bytes": (
        lambda p: p.__setitem__("signing_key", p["signing_key"][:62]),
        "signing key must be 32 bytes",
    ),
    "imsi-missing": (lambda p: p.pop("imsi"), "no field 'imsi'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_stored_profile_stops_the_open(tmp_path, case):
    edit, why = MALFORMED[case]
    state = tmp_path / "state"
    store_with_second_profile_edited(state, "esim-bad", edit)
    refused = rf"vault\.log: profile esim-bad: .*{why}"
    with pytest.raises(StorageFailure, match=refused):
        SimVault(state)
    with pytest.raises(StorageFailure, match=refused):
        build_stack(ServiceConfig(state_dir=state, listen_port=0), sync=False)


def churned_store(state, count=50):
    """A stack directory holding `count` profiles, every third one revoked;
    returns {profile_id: (provision result, measurement)}."""
    stack = Stack(state, sync=False)
    provisioned = {}
    for i in range(count):
        result, measurement = stack.provision()
        provisioned[result["profile_id"]] = (result, measurement)
        if i % 3 == 0:
            stack.gateway.revoke_profile(result["profile_id"], "churned")
    stack.close()
    return provisioned


def test_open_builds_no_signing_key_and_first_sign_builds_one(tmp_path, monkeypatch):
    provisioned = churned_store(tmp_path / "state")
    built = []

    def from_private_bytes(seed):
        built.append(seed)
        return Ed25519PrivateKey.from_private_bytes(seed)

    # The vault sees only these two calls, so any other Ed25519 call fails.
    monkeypatch.setattr(
        vault_module, "Ed25519PrivateKey",
        SimpleNamespace(from_private_bytes=from_private_bytes, generate=Ed25519PrivateKey.generate),
    )
    stack = Stack(tmp_path / "state", sync=False)
    assert len(stack.vault.profile_ids()) == 50
    assert built == []
    live = next(
        pid for pid in provisioned if stack.vault.get_state(pid) is ProfileState.ACTIVE
    )
    measurement = provisioned[live][1]

    def sign(profile_id, measurement):
        stack.gateway.handle_sign(
            profile_id, secrets.token_bytes(32), stack.token_for(measurement), "127.0.0.1"
        )

    sign(live, measurement)
    assert len(built) == 1
    sign(live, measurement)
    assert len(built) == 1
    # A profile provisioned now keeps the key provisioning generated.
    result, fresh_measurement = stack.provision()
    sign(result["profile_id"], fresh_measurement)
    assert len(built) == 1
    stack.close()


def test_restarted_profiles_sign_and_report_the_provisioned_key(tmp_path):
    provisioned = churned_store(tmp_path / "state", count=6)
    stack = Stack(tmp_path / "state", sync=False)
    states = set()
    for pid, (result, measurement) in provisioned.items():
        status = stack.gateway.handle_status(pid)
        assert status["public_signing_key"] == result["public_signing_key"]
        states.add(status["state"])
        if status["state"] == ProfileState.ACTIVE.value:
            digest = secrets.token_bytes(32)
            signed = stack.gateway.handle_sign(
                pid, digest, stack.token_for(measurement), "127.0.0.1"
            )
            assert verify_profile_signature(
                bytes.fromhex(result["public_signing_key"]), pid, digest,
                bytes.fromhex(signed["signature"]),
            )
    assert states == {ProfileState.ACTIVE.value, ProfileState.REVOKED.value}
    stack.close()


def test_concurrent_first_signs_after_a_restart_all_verify(tmp_path):
    vault = SimVault(tmp_path / "state")
    vault.install_profile(make_profile())
    vault.set_profile_state("p-1", ProfileState.ACTIVE)
    public_key = vault.get_profile_status("p-1")["public_signing_key"]
    vault.close()
    signed = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):  # each round reopens, so the key is built again
            reopened = SimVault(tmp_path / "state")
            start = threading.Barrier(8)

            def sign():
                start.wait(timeout=10)
                digest = secrets.token_bytes(32)
                signed.append((digest, reopened.usim_sign("p-1", digest)))

            threads = [threading.Thread(target=sign) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive()
            reopened.close()
    finally:
        sys.setswitchinterval(interval)
    assert len(signed) == 160
    for digest, result in signed:
        assert result["public_key"] == public_key
        assert verify_profile_signature(
            bytes.fromhex(public_key), "p-1", digest, bytes.fromhex(result["signature"])
        )


def test_profile_repr_holds_no_signing_seed(tmp_path):
    fresh = make_profile()  # its key already built
    vault = SimVault(tmp_path / "state")
    vault.install_profile(fresh)
    vault.close()
    reopened = SimVault(tmp_path / "state")
    restored = reopened._profiles["p-1"]  # its key not built yet
    assert restored.signing_seed == fresh.signing_seed
    for profile in (fresh, restored):
        seed = profile.signing_seed
        text = repr(profile)
        assert seed.hex() not in text.lower() and repr(seed)[2:-1] not in text
    reopened.close()


def test_status_never_exposes_key_material(vault):
    km = MilenageKeyMaterial(k=secrets.token_bytes(16), opc=secrets.token_bytes(16))
    profile = make_profile(km=km)
    private = profile.signing_key.private_bytes_raw()
    vault.install_profile(profile)
    status_blob = json.dumps(vault.get_profile_status("p-1")).encode()
    for secret in (km.k, km.opc, private):
        assert secret not in status_blob
        assert secret.hex().encode() not in status_blob


def test_state_gate_has_no_side_effects(vault):
    km = MilenageKeyMaterial(k=secrets.token_bytes(16), opc=secrets.token_bytes(16))
    vault.install_profile(make_profile(km=km))
    vault.set_profile_state("p-1", ProfileState.ACTIVE)
    vault.set_profile_state("p-1", ProfileState.SUSPENDED)
    rand = secrets.token_bytes(16)
    vector = generate_auth_vector(km, rand, 3, b"\x80\x00")
    with pytest.raises(ProfileNotActive):
        vault.usim_authenticate("p-1", rand, vector.autn)
    assert vault.get_profile_status("p-1")["sqn_ms"] == 0


def test_allocator_uniqueness_and_formats(vault, tmp_path):
    from agent_esim.identifiers import luhn_valid

    allocator = IdentifierAllocator(vault)
    seen = set()
    for _ in range(50):
        imsi, iccid = allocator.allocate()
        assert len(imsi) == 15 and imsi.isdigit()
        assert imsi.startswith("00101")
        assert len(iccid) == 19 and luhn_valid(iccid)
        assert (imsi, iccid) not in seen
        seen.add((imsi, iccid))
    # unique across a restart: the stack's vault holds what was issued
    stack = Stack(tmp_path / "stack", sync=False)
    issued = {stack.provision()[0]["imsi"] for _ in range(3)}
    stack.close()
    reopened = Stack(tmp_path / "stack", sync=False)
    assert reopened.provision()[0]["imsi"] not in issued
    reopened.close()
