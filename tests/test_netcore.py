"""Operator-side behavior: vectors, confirmation, resynchronization, expiry."""

import secrets

import pytest

from agent_esim import recordlog

from agent_esim.errors import (
    ChallengeExpired,
    ResyncMacFailure,
    UnknownChallenge,
    UnknownSubscriber,
)
from agent_esim.milenage import (
    Auts,
    MilenageKeyMaterial,
    parse_autn,
    f2345,
    sqn_from_bytes,
)
from agent_esim.netcore import NETCORE_HEADER, NetworkCore
from agent_esim.vault import AkaSuccess, AkaSyncFailure, ProfileState, SimVault
from agent_esim.wire import scan_for_secrets

from tests.test_vault import make_profile

IMSI = "001010000000001"


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def keys():
    """IMSI -> key material: the lookup the core is built with."""
    return {}


@pytest.fixture
def core(tmp_path, clock, keys):
    c = NetworkCore(tmp_path / "state", keys.get, clock=clock)
    yield c
    c.close()


def fresh_km():
    return MilenageKeyMaterial(k=secrets.token_bytes(16), opc=secrets.token_bytes(16))


def test_generate_challenge_unknown_subscriber(core):
    with pytest.raises(UnknownSubscriber):
        core.generate_challenge(IMSI)


def test_challenge_fields_and_sqn_advance(core, keys):
    km = fresh_km()
    keys[IMSI] = km
    first = core.generate_challenge(IMSI)
    second = core.generate_challenge(IMSI)
    assert len(first["rand"]) == 16 and len(first["autn"]) == 16
    assert first["rand"] != second["rand"]
    # embedded SQN strictly increases
    def embedded_sqn(ch):
        ak = f2345(km, ch["rand"])[3]
        return sqn_from_bytes(parse_autn(ch["autn"], ak).sqn)

    assert embedded_sqn(second) == embedded_sqn(first) + 1
    assert core.subscriber_sqn(IMSI) == 2


def test_end_to_end_with_vault(tmp_path, core, keys):
    km = fresh_km()
    keys[IMSI] = km
    vault = SimVault(tmp_path / "vault-state")
    vault.install_profile(make_profile(km=km))
    vault.set_profile_state("p-1", ProfileState.ACTIVE)

    challenge = core.generate_challenge(IMSI)
    outcome = vault.usim_authenticate("p-1", challenge["rand"], challenge["autn"])
    assert isinstance(outcome, AkaSuccess)
    assert core.confirm_res(challenge["challenge_id"], outcome.res) is True
    # single-use: a second confirmation of the same id is rejected
    with pytest.raises(UnknownChallenge):
        core.confirm_res(challenge["challenge_id"], outcome.res)
    vault.close()


def test_confirm_res_wrong_response(core, keys):
    km = fresh_km()
    keys[IMSI] = km
    challenge = core.generate_challenge(IMSI)
    wrong = bytes(8)
    assert core.confirm_res(challenge["challenge_id"], wrong) is False


def test_confirm_res_expiry(core, keys, clock):
    keys[IMSI] = fresh_km()
    challenge = core.generate_challenge(IMSI)
    clock.advance(61.0)
    with pytest.raises(ChallengeExpired):
        core.confirm_res(challenge["challenge_id"], bytes(8))
    with pytest.raises(UnknownChallenge):
        core.confirm_res(challenge["challenge_id"], bytes(8))


def test_expire_stale_challenges(core, keys, clock):
    keys[IMSI] = fresh_km()
    core.generate_challenge(IMSI)
    core.generate_challenge(IMSI)
    assert core.pending_count() == 2
    clock.advance(120.0)
    assert core.expire_stale_challenges() == 2
    assert core.pending_count() == 0


def test_issuing_drops_expired_challenges(tmp_path, clock):
    state = tmp_path / "state"
    keys = {IMSI: fresh_km()}.get
    core = NetworkCore(state, keys, clock=clock, challenge_ttl=60.0)
    issued = []  # (issued_at, challenge_id), none answered
    while clock.now < 1000.0 + 3 * 60.0:
        issued.append((clock.now, core.generate_challenge(IMSI)["challenge_id"]))
        clock.advance(7.0)
    last_ttl = [cid for at, cid in issued if at >= issued[-1][0] - 60.0]
    assert len(issued) == 26 and len(last_ttl) == 9
    assert core.pending_count() == len(last_ttl)
    assert list(core._pending) == last_ttl
    with pytest.raises(UnknownChallenge):  # dropped, not merely expired
        core.confirm_res(issued[0][1], bytes(8))
    core.close()

    reopened = NetworkCore(state, keys, clock=clock, challenge_ttl=60.0)
    assert reopened.pending_count() == len(last_ttl)
    assert reopened.subscriber_sqn(IMSI) == len(issued)
    reopened.close()


def test_resynchronize_round(tmp_path, core, keys):
    km = fresh_km()
    keys[IMSI] = km
    vault = SimVault(tmp_path / "vault-state")
    vault.install_profile(make_profile(km=km))
    vault.set_profile_state("p-1", ProfileState.ACTIVE)

    # advance the vault beyond the network: fresh network store emulated by
    # consuming vectors from a throwaway core first
    for sqn in range(5):
        challenge = core.generate_challenge(IMSI)
        assert isinstance(
            vault.usim_authenticate("p-1", challenge["rand"], challenge["autn"]),
            AkaSuccess,
        )
    # now replay an old-style vector: force a stale challenge by rebuilding
    # the operator store from zero
    fresh = NetworkCore(tmp_path / "fresh-core", keys.get)
    stale = fresh.generate_challenge(IMSI)
    outcome = vault.usim_authenticate("p-1", stale["rand"], stale["autn"])
    assert isinstance(outcome, AkaSyncFailure)
    fresh.resynchronize(IMSI, stale["rand"], outcome.auts)
    retry = fresh.generate_challenge(IMSI)
    final = vault.usim_authenticate("p-1", retry["rand"], retry["autn"])
    assert isinstance(final, AkaSuccess)
    assert fresh.confirm_res(retry["challenge_id"], final.res) is True
    fresh.close()
    vault.close()


def test_resynchronize_rejects_bad_mac(core, keys):
    km = fresh_km()
    keys[IMSI] = km
    challenge = core.generate_challenge(IMSI)
    bogus = Auts(conc_sqn_ms=bytes(6), mac_s=secrets.token_bytes(8))
    with pytest.raises(ResyncMacFailure):
        core.resynchronize(IMSI, challenge["rand"], bogus)
    with pytest.raises(UnknownSubscriber):
        core.resynchronize("001019999999999", challenge["rand"], bogus)


def test_restart_preserves_subscribers_and_pending(tmp_path, clock):
    state = tmp_path / "state"
    keys = {IMSI: fresh_km()}.get
    core = NetworkCore(state, keys, clock=clock)
    challenge = core.generate_challenge(IMSI)
    core.close()

    reopened = NetworkCore(state, keys, clock=clock)
    assert reopened.subscriber_sqn(IMSI) == 1
    assert reopened.pending_count() == 1
    assert reopened.confirm_res(challenge["challenge_id"], bytes(8)) is False
    reopened.close()


def test_rand_freshness_over_many_draws(tmp_path):
    core = NetworkCore(tmp_path / "state", {IMSI: fresh_km()}.get, sync=False)
    seen = set()
    for _ in range(10_000):
        rand = core.generate_challenge(IMSI)["rand"]
        assert rand not in seen
        seen.add(rand)
    core.close()


@pytest.mark.parametrize("state", [ProfileState.SUSPENDED, ProfileState.REVOKED])
def test_vectors_for_an_inactive_profile(tmp_path, state):
    """The vault still answers key lookups for a profile that is not Active,
    so its IMSI keeps getting vectors; the vault refuses to answer them."""
    km = fresh_km()
    vault = SimVault(tmp_path / "state")
    vault.install_profile(make_profile(km=km))
    vault.set_profile_state("p-1", ProfileState.ACTIVE)
    vault.set_profile_state("p-1", state)
    core = NetworkCore(tmp_path / "state", vault.key_material_for)
    try:
        challenge = core.generate_challenge(IMSI)
        assert len(challenge["rand"]) == 16 and len(challenge["autn"]) == 16
        ak = f2345(km, challenge["rand"])[3]
        assert sqn_from_bytes(parse_autn(challenge["autn"], ak).sqn) == 1
    finally:
        core.close()
        vault.close()


def test_log_with_subscriber_keys_opens_and_compacts_them_away(tmp_path, clock):
    """A log from when the core kept its own copy of Ki and OPc: the
    `subscriber` record gives its SQN only, and a compaction drops the keys."""
    km = fresh_km()
    vault = SimVault(tmp_path / "state")
    vault.install_profile(make_profile(km=km))
    vault.set_profile_state("p-1", ProfileState.ACTIVE)
    pending = secrets.token_hex(16)
    records = [
        {"type": "subscriber", "imsi": IMSI, "k": km.k.hex(), "opc": km.opc.hex(),
         "sqn_he": 2, "amf": "8000"},
        {"type": "challenge", "challenge_id": pending, "imsi": IMSI, "sqn_he": 3,
         "rand": secrets.token_hex(16), "xres": secrets.token_hex(8),
         "issued_at": clock.now, "expires_at": clock.now + 60.0},
    ]
    path = tmp_path / "state" / "netcore.log"
    recordlog.write_frames(path, NETCORE_HEADER, map(recordlog._encode, records))
    core = NetworkCore(tmp_path / "state", vault.key_material_for, clock=clock)
    assert (core._sqn_he, list(core._pending)) == ({IMSI: 3}, [pending])

    challenge = core.generate_challenge(IMSI)
    outcome = vault.usim_authenticate("p-1", challenge["rand"], challenge["autn"])
    assert isinstance(outcome, AkaSuccess)
    assert core.confirm_res(challenge["challenge_id"], outcome.res) is True
    assert scan_for_secrets(path.read_bytes(), [km.k, km.opc])  # the old record
    with core._log._lock:
        core._log._compact()
    assert scan_for_secrets(path.read_bytes(), [km.k, km.opc]) == []
    core.close()

    reopened = NetworkCore(tmp_path / "state", vault.key_material_for, clock=clock)
    assert (reopened._sqn_he, list(reopened._pending)) == ({IMSI: 4}, [pending])
    reopened.close()
    vault.close()
