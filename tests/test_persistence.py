"""Every store applies what it logs: a failed append changes nothing, and a
restart rebuilds exactly the state the live process held."""

import errno
import random
import secrets
import sys
import threading

import pytest

from agent_esim import recordlog
from agent_esim.agent import RelyingService
from agent_esim.audit import AuditLog, AuditOperation, AuditOutcome
from agent_esim.config import ServiceConfig
from agent_esim.errors import GatewayDenied, StorageFailure
from agent_esim.identifiers import IdentifierAllocator
from agent_esim.milenage import MilenageKeyMaterial, build_auts, generate_auth_vector
from agent_esim.netcore import NetworkCore
from agent_esim.policy import PolicyStore, permissive_policy
from agent_esim.stack import build_stack
from agent_esim.vault import AkaMacFailure, AkaSuccess, AkaSyncFailure, ProfileState, SimVault

from tests.conftest import Stack
from tests.test_netcore import FakeClock
from tests.test_vault import make_profile

KM = MilenageKeyMaterial(k=secrets.token_bytes(16), opc=secrets.token_bytes(16))
IMSI = "001010000000001"
OTHER_IMSI = "001010000000002"
RAND = secrets.token_bytes(16)


def _vault(path):
    vault = SimVault(path)
    vault.install_profile(make_profile(km=KM))
    vault.set_profile_state("p-1", ProfileState.ACTIVE)
    return vault


def _core(path):
    core = NetworkCore(path)
    core.register_subscriber(IMSI, KM)
    core.generate_challenge(IMSI)
    return core


def _policies(path):
    store = PolicyStore(path)
    store.set("p-1", permissive_policy(policy_id="old"))
    return store


def _allocator(path):
    allocator = IdentifierAllocator(path)
    allocator.allocate()
    return allocator


def _audit(path):
    log = AuditLog(path)
    log.append("p-1", AuditOperation.SIGN, AuditOutcome.allowed(), bytes(32))
    return log


OBSERVE = {
    SimVault: lambda v: [v.get_profile_status(pid) for pid in v.profile_ids()],
    NetworkCore: lambda c: (
        {imsi: c.subscriber_sqn(imsi) for imsi in c._subscribers}, c.pending_count()
    ),
    PolicyStore: lambda p: p.get("p-1"),
    IdentifierAllocator: lambda a: a._next,
    AuditLog: lambda a: (a._seq, a._last_hash),
}

# write -> (open a store holding some state, the write that must fail)
WRITES = {
    "vault-install": (_vault, lambda v: v.install_profile(make_profile("p-2", OTHER_IMSI))),
    "vault-state": (_vault, lambda v: v.set_profile_state("p-1", ProfileState.SUSPENDED)),
    "vault-sqn": (
        _vault,
        lambda v: v.usim_authenticate(
            "p-1", RAND, generate_auth_vector(KM, RAND, 5, b"\x80\x00").autn
        ),
    ),
    "netcore-register": (_core, lambda c: c.register_subscriber(OTHER_IMSI, KM)),
    "netcore-challenge": (_core, lambda c: c.generate_challenge(IMSI)),
    "netcore-confirm": (_core, lambda c: c.confirm_res(next(iter(c._pending)), bytes(8))),
    "netcore-resync": (_core, lambda c: c.resynchronize(IMSI, RAND, build_auts(KM, RAND, 7))),
    "policy-set": (_policies, lambda p: p.set("p-1", permissive_policy(policy_id="new"))),
    "allocate": (_allocator, lambda a: a.allocate()),
    "audit-append": (
        _audit,
        lambda a: a.append("p-1", AuditOperation.SIGN, AuditOutcome.allowed(), bytes(32)),
    ),
}


@pytest.mark.parametrize("write", sorted(WRITES))
def test_failed_append_changes_no_memory(tmp_path, write):
    open_store, attempt = WRITES[write]
    store = open_store(tmp_path / "state")
    observe = OBSERVE[type(store)]
    before = observe(store)
    store._log.close()
    with pytest.raises(StorageFailure):
        attempt(store)
    assert observe(store) == before


@pytest.mark.parametrize("write", sorted(WRITES))
def test_torn_append_rebuilds_state_before_it(tmp_path, write):
    open_store, attempt = WRITES[write]
    store = open_store(tmp_path / "state")
    observe = OBSERVE[type(store)]
    before = observe(store)
    attempt(store)
    store._log.close()
    path = store._log.path
    path.write_bytes(path.read_bytes()[:-10])  # a crash in the middle of that append
    reopened = type(store)(tmp_path / "state")
    assert reopened._log.dropped_bytes > 0
    assert observe(reopened) == before
    reopened._log.close()


def _tamper_mac(autn: bytes) -> bytes:
    return autn[:-1] + bytes([autn[-1] ^ 0x01])


def _snapshot(stack) -> dict:
    vault = {}
    for pid in stack.vault.profile_ids():
        status = stack.vault.get_profile_status(pid)
        vault[pid] = (status["state"], status["sqn_ms"], status["public_signing_key"])
    return {
        "vault": vault,
        "sqn_he": {
            imsi: stack.netcore.subscriber_sqn(imsi) for imsi in stack.netcore._subscribers
        },
        "pending": sorted(stack.netcore._pending),
        "policies": {pid: stack.policies.get(pid).policy_id for pid in vault},
        "next_serial": stack.allocator._next,
        "audit": (stack.audit._seq, stack.audit._last_hash),
    }


KINDS = (
    "provision", "sign", "aka", "mac_failure", "sync_resync", "suspend", "resume",
    "revoke", "policy", "unanswered", "tick",
)


def test_restart_rebuilds_live_state(tmp_path):
    rng = random.Random(20261018)
    clock = FakeClock(1_700_000_000.0)
    stack = Stack(tmp_path / "state", clock=clock, sync=False)
    relying = RelyingService(stack.netcore)
    agents = {}  # profile_id -> (imsi, measurement)
    states = {}  # profile_id -> ProfileState, as the test drives them
    outcomes = set()

    def token(pid):
        return stack.token_for(agents[pid][1], issued_at=clock.now)

    def authenticate(pid, challenge, autn=None):
        outcome = stack.gateway.handle_authenticate(
            pid, challenge["rand"], autn or challenge["autn"], token(pid), "127.0.0.1"
        )
        outcomes.add(outcome.kind)
        return outcome

    def pick(*wanted):
        ids = sorted(pid for pid, state in states.items() if state in wanted)
        return rng.choice(ids) if ids else None

    def suspend(pid):
        stack.gateway.lifecycle(pid, "suspend")
        states[pid] = ProfileState.SUSPENDED

    def provision():
        result, measurement = stack.provision()
        agents[result["profile_id"]] = (result["imsi"], measurement)
        states[result["profile_id"]] = ProfileState.ACTIVE

    for _ in range(3):
        provision()
    deck = list(KINDS) * 8
    rng.shuffle(deck)
    for kind in deck:
        if kind not in ("provision", "tick", "sign") and not pick(ProfileState.ACTIVE):
            provision()
        active = pick(ProfileState.ACTIVE)
        if kind == "resume" and not pick(ProfileState.SUSPENDED):
            suspend(active)
        if kind == "provision":
            provision()
        elif kind == "tick":
            clock.advance(25.0)  # unanswered challenges outlive their TTL
        elif kind == "sign":
            pid = rng.choice(sorted(states))  # denied unless Active
            try:
                stack.gateway.handle_sign(pid, bytes(32), token(pid), "127.0.0.1")
            except GatewayDenied:
                assert states[pid] is not ProfileState.ACTIVE
        elif kind == "aka":
            challenge = relying.request_challenge(agents[active][0])
            outcome = authenticate(active, challenge)
            assert isinstance(outcome, AkaSuccess)
            assert relying.submit_response(challenge["challenge_id"], outcome.res)
        elif kind == "mac_failure":
            challenge = relying.request_challenge(agents[active][0])
            outcome = authenticate(active, challenge, _tamper_mac(challenge["autn"]))
            assert isinstance(outcome, AkaMacFailure)
        elif kind == "sync_resync":
            imsi = agents[active][0]
            older = relying.request_challenge(imsi)
            newer = relying.request_challenge(imsi)
            assert isinstance(authenticate(active, newer), AkaSuccess)
            stale = authenticate(active, older)
            assert isinstance(stale, AkaSyncFailure)
            relying.resynchronize(imsi, older["rand"], stale.auts)
            retry = relying.request_challenge(imsi)
            outcome = authenticate(active, retry)
            assert relying.submit_response(retry["challenge_id"], outcome.res)
        elif kind == "suspend":
            suspend(active)
        elif kind == "resume":
            pid = pick(ProfileState.SUSPENDED)
            stack.gateway.lifecycle(pid, "resume")
            states[pid] = ProfileState.ACTIVE
        elif kind == "revoke":
            stack.gateway.revoke_profile(active, "test")
            states[active] = ProfileState.REVOKED
        elif kind == "policy":
            stack.gateway.update_policy(active, permissive_policy())
        elif kind == "unanswered":
            relying.request_challenge(agents[active][0])

    assert outcomes == {"success", "mac_failure", "sync_failure"}
    assert stack.gateway.verify_audit().ok
    live = _snapshot(stack)
    assert live["pending"]
    rebuilt = build_stack(ServiceConfig(state_dir=stack.state_dir), clock=clock, sync=False)
    try:
        assert _snapshot(rebuilt) == live
    finally:
        rebuilt.close()
        stack.close()


@pytest.mark.parametrize("store", ["audit", "vault"])
def test_failed_fsync_leaves_no_bytes_behind(tmp_path, monkeypatch, store):
    stack = Stack(tmp_path / "state")
    pid = stack.provision()[0]["profile_id"]
    stack.gateway.lifecycle(pid, "suspend")
    log = getattr(stack, store)._log
    size = log.path.stat().st_size
    fsync, failed = recordlog.os.fsync, []

    def fsync_failing_once(fd):
        if not failed and fd == log._fh.fileno():
            failed.append(fd)
            raise OSError(errno.EIO, "injected fsync failure")
        fsync(fd)

    monkeypatch.setattr(recordlog.os, "fsync", fsync_failing_once)
    with pytest.raises(StorageFailure):
        stack.gateway.lifecycle(pid, "resume")
    assert failed and log.path.stat().st_size == size
    stack.gateway.handle_status(pid)  # the next acknowledged append
    assert stack.gateway.verify_audit().ok
    live = _snapshot(stack)
    rebuilt = build_stack(ServiceConfig(state_dir=stack.state_dir))
    try:
        assert _snapshot(rebuilt) == live
    finally:
        rebuilt.close()
        stack.close()


def test_unsynced_stack_provisions_without_fsync(tmp_path, monkeypatch):
    stack = Stack(tmp_path / "state", sync=False)
    calls = []
    monkeypatch.setattr(recordlog.os, "fsync", calls.append)
    stack.provision()
    stack.close()
    assert calls == []


def test_concurrent_writes_apply_every_record(tmp_path):
    core = NetworkCore(tmp_path / "state", sync=False)
    core.register_subscriber(IMSI, KM)
    allocator = IdentifierAllocator(tmp_path / "state")
    threads, rounds = 6, 40
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:

        def work():
            for i in range(rounds):
                challenge = core.generate_challenge(IMSI)
                if i % 2:
                    core.confirm_res(challenge["challenge_id"], bytes(8))
                allocator.allocate()

        workers = [threading.Thread(target=work) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
    assert core.subscriber_sqn(IMSI) == threads * rounds
    assert core.pending_count() == threads * rounds // 2
    assert allocator._next == threads * rounds + 1
    core.close()
    allocator.close()
    reopened = NetworkCore(tmp_path / "state")
    assert reopened.subscriber_sqn(IMSI) == threads * rounds
    assert reopened.pending_count() == threads * rounds // 2
    reopened.close()
