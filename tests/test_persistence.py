"""Every store applies what it logs: a failed append changes nothing, and a
restart rebuilds exactly the state the live process held."""

import errno
import random
import secrets
import subprocess
import sys
import threading
import zlib
from collections import Counter

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
from agent_esim.wire import scan_for_secrets

from tests.conftest import Stack
from tests.test_acceptance import secrets_of
from tests.test_netcore import FakeClock
from tests.test_vault import make_profile

KM = MilenageKeyMaterial(k=secrets.token_bytes(16), opc=secrets.token_bytes(16))
IMSI = "001010000000001"
OTHER_IMSI = "001010000000002"
RAND = secrets.token_bytes(16)
KEYS = {IMSI: KM}.get


def _vault(path):
    vault = SimVault(path)
    vault.install_profile(make_profile(km=KM))
    vault.set_profile_state("p-1", ProfileState.ACTIVE)
    return vault


def _core(path):
    core = NetworkCore(path, KEYS)
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


def _netcore_state(core):
    return dict(core._sqn_he), dict(core._pending)


def _reopen(store, path):
    """A store of the same type on `path`; the network core also needs its
    key lookup."""
    return NetworkCore(path, KEYS) if isinstance(store, NetworkCore) else type(store)(path)


OBSERVE = {
    SimVault: lambda v: [v.get_profile_status(pid) for pid in v.profile_ids()],
    NetworkCore: _netcore_state,
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
    reopened = _reopen(store, tmp_path / "state")
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
        "sqn_he": dict(stack.netcore._sqn_he),
        "pending": sorted(stack.netcore._pending),
        "policies": {pid: stack.policies.get(pid).policy_id for pid in vault},
        "next_serial": stack.allocator._next,
        "audit": (stack.audit._seq, stack.audit._last_hash),
    }


KINDS = (
    "provision", "sign", "aka", "mac_failure", "sync_resync", "suspend", "resume",
    "revoke", "policy", "unanswered", "tick",
)


def _drive_deck(state_dir, rounds=8):
    """Drive a shuffled deck of every kind of write through a live stack;
    returns the stack (still open) and its clock."""
    rng = random.Random(20261018)
    clock = FakeClock(1_700_000_000.0)
    stack = Stack(state_dir, clock=clock, sync=False)
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
    deck = list(KINDS) * rounds
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
    return stack, clock


def _assert_restart_rebuilds(stack, clock):
    live = _snapshot(stack)
    assert live["pending"]
    rebuilt = build_stack(ServiceConfig(state_dir=stack.state_dir), clock=clock, sync=False)
    try:
        assert _snapshot(rebuilt) == live
    finally:
        rebuilt.close()
        stack.close()


def test_restart_rebuilds_live_state(tmp_path):
    _assert_restart_rebuilds(*_drive_deck(tmp_path / "state"))


def test_restart_rebuilds_live_state_after_compactions(tmp_path, monkeypatch):
    monkeypatch.setattr(recordlog, "COMPACT_MIN_BYTES", 128)
    compactions = Counter()
    compact = recordlog.RecordLog._compact

    def counted(log):
        compactions[log.path.name] += 1
        compact(log)

    monkeypatch.setattr(recordlog.RecordLog, "_compact", counted)
    stack, clock = _drive_deck(tmp_path / "state", rounds=16)
    assert min(
        compactions[name] for name in ("vault.log", "netcore.log", "policies.log", "alloc.log")
    ) >= 3, compactions
    assert compactions["audit.log"] == 0
    assert not list(stack.state_dir.glob("*" + recordlog.COMPACT_SUFFIX))
    _assert_restart_rebuilds(stack, clock)


def test_compacted_netcore_keeps_sqn_past_a_pending_older_challenge(tmp_path):
    core = _core(tmp_path / "state")  # one challenge pending at SQN 1
    newer = core.generate_challenge(IMSI)
    core.confirm_res(newer["challenge_id"], bytes(8))
    live = _netcore_state(core)
    with core._log._lock:
        core._log._compact()
    core.close()
    reopened = NetworkCore(tmp_path / "state", KEYS)
    assert _netcore_state(reopened) == live
    assert reopened.subscriber_sqn(IMSI) == 2
    reopened.close()


@pytest.mark.parametrize("fault", ["temp-write", "temp-fsync", "replace", "reopen"])
def test_failed_compaction_rebuilds_the_acknowledged_state(tmp_path, monkeypatch, fault):
    monkeypatch.setattr(recordlog, "COMPACT_MIN_BYTES", 300)
    core = _core(tmp_path / "state")
    temp = core._log._compact_path
    failed = []

    def fail(*args, **kwargs):
        failed.append(args)
        raise OSError(errno.EIO, "injected failure")

    with monkeypatch.context() as patch:
        if fault == "temp-write":
            patch.setattr(recordlog, "write_frames", fail)
        elif fault == "temp-fsync":
            fsync = recordlog.os.fsync
            patch.setattr(
                recordlog.os, "fsync",
                lambda fd: fail() if temp.exists() else fsync(fd),
            )
        elif fault == "replace":
            patch.setattr(recordlog.os, "replace", fail)
        else:
            real_open = open
            patch.setattr(
                recordlog, "open",
                lambda f, mode="r", **kw: fail() if mode == "ab" else real_open(f, mode, **kw),
                raising=False,
            )
        while not failed:
            core.generate_challenge(IMSI)  # acknowledged, compaction or not
    acknowledged = _netcore_state(core)
    assert not temp.exists()
    if fault == "reopen":  # the rename happened: the log fails closed
        with pytest.raises(StorageFailure):
            core.generate_challenge(IMSI)
    else:
        core.generate_challenge(IMSI)
        acknowledged = _netcore_state(core)
    assert _netcore_state(core) == acknowledged
    core.close()
    reopened = NetworkCore(tmp_path / "state", KEYS)
    assert _netcore_state(reopened) == acknowledged
    reopened.close()


def test_netcore_log_holds_no_key_material(tmp_path, monkeypatch):
    """The vault is the only holder of Ki and OPc: neither provisioning nor
    AKA flows nor a compaction put any of them in `netcore.log`."""
    monkeypatch.setattr(recordlog, "COMPACT_MIN_BYTES", 1024)
    compactions = Counter()
    compact = recordlog.RecordLog._compact

    def counted(log):
        compactions[log.path.name] += 1
        compact(log)

    monkeypatch.setattr(recordlog.RecordLog, "_compact", counted)
    stack = Stack(tmp_path / "state", sync=False)
    try:
        relying = RelyingService(stack.netcore)
        agents = [stack.provision() for _ in range(2)]
        for _ in range(20):
            for result, measurement in agents:
                challenge = relying.request_challenge(result["imsi"])
                outcome = stack.gateway.handle_authenticate(
                    result["profile_id"], challenge["rand"], challenge["autn"],
                    stack.token_for(measurement), "127.0.0.1",
                )
                assert relying.submit_response(challenge["challenge_id"], outcome.res)
        assert compactions["netcore.log"] >= 2, compactions
        keys = secrets_of(stack)
        # the scan finds the keys where they are stored, and none in netcore.log
        assert scan_for_secrets((stack.state_dir / "vault.log").read_bytes(), keys)
        assert scan_for_secrets((stack.state_dir / "netcore.log").read_bytes(), keys) == []
    finally:
        stack.close()


def test_aka_traffic_keeps_the_logs_bounded(tmp_path, monkeypatch):
    stack = Stack(tmp_path / "state", sync=False)
    relying = RelyingService(stack.netcore)
    result, measurement = stack.provision(policy=permissive_policy(max_ops=10_000))
    pid, imsi = result["profile_id"], result["imsi"]
    stores = {"netcore.log": stack.netcore, "vault.log": stack.vault}
    # per log: compactions, records in the last snapshot, appends since it
    compactions, snapshot_records, since = Counter(), Counter(), Counter()
    append, compact = recordlog.RecordLog.append, recordlog.RecordLog._compact

    def counted_append(log, record):
        since[log.path.name] += 1
        append(log, record)

    def counted_compact(log):
        compactions[log.path.name] += 1
        snapshot_records[log.path.name] = sum(1 for _ in log._snapshot())
        since[log.path.name] = 0
        compact(log)

    monkeypatch.setattr(recordlog.RecordLog, "append", counted_append)
    monkeypatch.setattr(recordlog.RecordLog, "_compact", counted_compact)
    largest = Counter()
    for _ in range(2000):
        challenge = relying.request_challenge(imsi)
        outcome = stack.gateway.handle_authenticate(
            pid, challenge["rand"], challenge["autn"], stack.token_for(measurement), "127.0.0.1"
        )
        assert relying.submit_response(challenge["challenge_id"], outcome.res)
        for name, store in stores.items():
            largest[name] = max(largest[name], store._log.path.stat().st_size)
    sqn_ms = stack.vault.get_profile_status(pid)["sqn_ms"]
    for name, store in stores.items():
        snapshot = sum(len(recordlog._frame(recordlog._encode(r))) for r in store._snapshot())
        assert largest[name] < 2 * recordlog.COMPACT_MIN_BYTES + snapshot, name
        assert compactions[name] >= 1 and snapshot_records[name] <= 2, name
    stack.close()

    applied = Counter()
    for name, store_type in (("netcore.log", NetworkCore), ("vault.log", SimVault)):
        apply = store_type._apply

        def counting(store, rec, name=name, apply=apply):
            applied[name] += 1
            apply(store, rec)

        monkeypatch.setattr(store_type, "_apply", counting)
    rebuilt = build_stack(ServiceConfig(state_dir=stack.state_dir), sync=False)
    try:
        # the replay reads the last snapshot (one profile; one subscriber and
        # at most one pending challenge) and the appends after it, which fit
        # in COMPACT_MIN_BYTES: not the 2000 flows' history
        for name in stores:
            assert applied[name] == snapshot_records[name] + since[name] < 2000, name
        assert rebuilt.vault.get_profile_status(pid)["sqn_ms"] == sqn_ms
        assert rebuilt.netcore.subscriber_sqn(imsi) == 2000
    finally:
        rebuilt.close()


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
    core = NetworkCore(tmp_path / "state", KEYS, sync=False)
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
    reopened = NetworkCore(tmp_path / "state", KEYS)
    assert reopened.subscriber_sqn(IMSI) == threads * rounds
    assert reopened.pending_count() == threads * rounds // 2
    reopened.close()


# -- the audit log's checkpoint ------------------------------------------------------


def _audit_state(audit):
    return audit._seq, audit._last_hash, audit._log.committed_end


def _drive_checkpointed_deck(state_dir, monkeypatch):
    """The restart deck with a checkpoint every 2 KiB of audit records;
    returns the stack, its clock and how often each log checkpointed."""
    monkeypatch.setattr(recordlog, "COMPACT_MIN_BYTES", 2048)
    checkpoints = Counter()
    checkpoint = recordlog.RecordLog._checkpoint

    def counted(log, last_at):
        checkpoints[log.path.name] += 1
        checkpoint(log, last_at)

    monkeypatch.setattr(recordlog.RecordLog, "_checkpoint", counted)
    stack, clock = _drive_deck(state_dir, rounds=8)
    return stack, clock, checkpoints


def test_restart_from_the_audit_checkpoint_rebuilds_live_state(tmp_path, monkeypatch):
    stack, clock, checkpoints = _drive_checkpointed_deck(tmp_path / "state", monkeypatch)
    assert checkpoints["audit.log"] >= 3 and set(checkpoints) == {"audit.log"}, checkpoints
    live = _audit_state(stack.audit)
    applied, apply = [], AuditLog._apply

    def counting(audit, rec):
        applied.append(rec["seq"])
        apply(audit, rec)

    with monkeypatch.context() as patch:
        patch.setattr(AuditLog, "_apply", counting)
        rebuilt = build_stack(ServiceConfig(state_dir=stack.state_dir), clock=clock, sync=False)
    try:
        assert _audit_state(rebuilt.audit) == live
        # the checkpoint's last record and the ones after it, not the chain
        assert applied == list(range(applied[0], live[0] + 1)) and applied[0] > 1
        assert rebuilt.audit.verify().length == live[0]
    finally:
        rebuilt.close()
    _assert_restart_rebuilds(stack, clock)


def test_audit_checkpoint_holds_no_key_material(tmp_path, monkeypatch):
    stack, _, checkpoints = _drive_checkpointed_deck(tmp_path / "state", monkeypatch)
    try:
        keys = secrets_of(stack)
        assert checkpoints["audit.log"] and keys
        # the scan finds the keys where they are stored, and none in the checkpoint
        assert scan_for_secrets((stack.state_dir / "vault.log").read_bytes(), keys)
        assert scan_for_secrets((stack.state_dir / "audit.log.ckpt").read_bytes(), keys) == []
    finally:
        stack.close()


# Appends audit records in a fresh process and calls os._exit at a chosen
# point, after printing the sequence number the log has made durable.
CRASH_SCRIPT = """
import os, sys
from agent_esim import recordlog
from agent_esim.audit import AuditLog, AuditOperation, AuditOutcome

state_dir, point = sys.argv[1:]
recordlog.COMPACT_MIN_BYTES = 2048
audit = AuditLog(state_dir)
replace = os.replace


def crash(*args):
    print(audit._seq, flush=True)
    os._exit(0)


def replace_then_crash(*args):
    replace(*args)
    crash()


class TornWrite:
    def __init__(self, fh):
        self.fh = fh

    def write(self, frame):
        self.fh.write(frame[: len(frame) // 2])
        crash()


if point == "before-replace":
    recordlog.os.replace = crash
elif point == "after-replace":
    recordlog.os.replace = replace_then_crash
for i in range(1000):
    log = audit._log
    if point == "mid-append" and 0 < log._checkpoint_end < log.committed_end:
        log._fh = TornWrite(log._fh)
    audit.append("p-%d" % (i % 3), AuditOperation.SIGN, AuditOutcome.allowed(), bytes(32))
print("no crash", flush=True)
"""


@pytest.mark.parametrize("point", ["before-replace", "after-replace", "mid-append"])
def test_crash_around_a_checkpoint_reopens_the_durable_chain(tmp_path, point):
    state = tmp_path / "state"
    run = subprocess.run(
        [sys.executable, "-c", CRASH_SCRIPT, str(state), point],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    durable = int(run.stdout)
    temp = state / "audit.log.ckpt.tmp"
    assert temp.exists() == (point == "before-replace")
    reopened = AuditLog(state)
    try:
        assert reopened._seq == durable > 0
        status = reopened.verify()
        assert status.ok and status.length == durable
        assert (reopened._log.dropped_bytes > 0) == (point == "mid-append")
        assert reopened._log._crc == zlib.crc32(reopened.path.read_bytes())
        assert not temp.exists()
        reopened.append("p-0", AuditOperation.SIGN, AuditOutcome.allowed(), bytes(32))
        assert reopened.verify().length == durable + 1
    finally:
        reopened.close()
