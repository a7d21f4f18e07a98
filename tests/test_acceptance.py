"""Acceptance suite.

One test per acceptance criterion, at its stated tolerance, each named
test_criterion_<n>_*. A terminal-summary hook in conftest prints one
PASS/FAIL line per criterion at the end of the run.
"""

import itertools
import json
import random
import secrets
import threading
import time

from agent_esim.attestation import (
    AttestationFailure,
    AttestationToken,
    SoftwareRootOfTrust,
    verify_attestation,
)
from agent_esim.audit import AuditLog, AuditOperation, AuditOutcome, verify_audit_file
from agent_esim.agent import RelyingService, agent_authenticate, send_signed_message
from agent_esim.cli import main as cli_main
from agent_esim.client import AdminClient, GatewayClient
from agent_esim.errors import GatewayDenied
from agent_esim.httpapi import GatewayHTTPServer
from agent_esim.milenage import MilenageKeyMaterial, derive_opc, milenage_compute
from agent_esim.netcore import NetworkCore
from agent_esim.policy import DenyReason, permissive_policy
from agent_esim.recordlog import FrameWalk, write_frames
from agent_esim.vault import AkaSuccess, AkaSyncFailure
from agent_esim.wire import scan_for_secrets

from tests.conftest import Stack
from tests.test_milenage import CONFORMANCE_SETS


def secrets_of(stack) -> list[bytes]:
    out = []
    for profile_id in stack.vault.profile_ids():
        profile = stack.vault._profiles[profile_id]
        out += [
            profile.key_material.k,
            profile.key_material.opc,
            profile.signing_key.private_bytes_raw(),
        ]
    return out


# -- 1 -----------------------------------------------------------------------

def test_criterion_1_milenage_conformance():
    """All published conformance sets reproduce byte-exact in under 1 s."""
    started = time.perf_counter()
    for vec in CONFORMANCE_SETS:
        assert derive_opc(vec["k"], vec["op"]) == vec["opc"]
        km = MilenageKeyMaterial(k=vec["k"], opc=vec["opc"])
        out = milenage_compute(km, vec["rand"], vec["sqn"], vec["amf"])
        assert (
            out.mac_a, out.mac_s, out.res, out.ck, out.ik, out.ak, out.ak_star
        ) == (
            vec["mac_a"], vec["mac_s"], vec["res"], vec["ck"], vec["ik"],
            vec["ak"], vec["ak_star"],
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"conformance run took {elapsed:.3f}s"


# -- 2 -----------------------------------------------------------------------

def test_criterion_2_end_to_end_authentication(tmp_path):
    """100/100 fresh agents authenticate; 100/100 replays are not fresh."""
    stack = Stack(tmp_path / "state")
    started = time.perf_counter()
    consumed = []
    try:
        for _ in range(100):
            result, measurement = stack.provision()
            token = stack.token_for(measurement)
            challenge = stack.netcore.generate_challenge(result["imsi"])
            outcome = stack.gateway.handle_authenticate(
                result["profile_id"], challenge["rand"], challenge["autn"],
                token, "127.0.0.1",
            )
            assert isinstance(outcome, AkaSuccess)
            assert stack.netcore.confirm_res(challenge["challenge_id"], outcome.res)
            consumed.append((result["profile_id"], challenge, measurement))
        # replay every consumed challenge: the vault must reject it as stale
        replay_outcomes = []
        for profile_id, challenge, measurement in consumed:
            replay = stack.gateway.handle_authenticate(
                profile_id, challenge["rand"], challenge["autn"],
                stack.token_for(measurement), "127.0.0.1",
            )
            replay_outcomes.append(isinstance(replay, AkaSyncFailure))
        assert replay_outcomes.count(True) == 100
    finally:
        stack.close()
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"end-to-end run took {elapsed:.1f}s"


# -- 3 -----------------------------------------------------------------------

def test_criterion_3_resynchronization(tmp_path):
    """Vault SQN ahead of the network: exactly one AUTS round restores auth."""
    for trial in range(20):
        stack = Stack(tmp_path / f"state-{trial}")
        try:
            result, measurement = stack.provision()
            profile_id, imsi = result["profile_id"], result["imsi"]
            token = lambda: stack.token_for(measurement)
            # advance the vault-side counter
            for _ in range(3):
                ch = stack.netcore.generate_challenge(imsi)
                assert isinstance(
                    stack.gateway.handle_authenticate(
                        profile_id, ch["rand"], ch["autn"], token(), "127.0.0.1"
                    ),
                    AkaSuccess,
                )
            # operator store rebuilt from zero: its next vector is stale
            rebuilt = NetworkCore(tmp_path / f"rebuilt-{trial}", stack.vault.key_material_for)

            stale = rebuilt.generate_challenge(imsi)
            first = stack.gateway.handle_authenticate(
                profile_id, stale["rand"], stale["autn"], token(), "127.0.0.1"
            )
            assert isinstance(first, AkaSyncFailure), f"trial {trial}: expected stale vector"
            rebuilt.resynchronize(imsi, stale["rand"], first.auts)

            retry = rebuilt.generate_challenge(imsi)
            second = stack.gateway.handle_authenticate(
                profile_id, retry["rand"], retry["autn"], token(), "127.0.0.1"
            )
            assert isinstance(second, AkaSuccess), f"trial {trial}: one round must suffice"
            assert rebuilt.confirm_res(retry["challenge_id"], second.res) is True
            rebuilt.close()
        finally:
            stack.close()


# -- 4 -----------------------------------------------------------------------

def test_criterion_4_key_isolation(tmp_path, capsys, monkeypatch):
    """Zero occurrences of Ki/OPc/private signing keys in anything observable."""
    from agent_esim.agent import AgentRuntime
    from agent_esim.config import ADMIN_SECRET_ENV

    monkeypatch.setenv(ADMIN_SECRET_ENV, "acceptance-admin")
    stack = Stack(tmp_path / "state")
    server = GatewayHTTPServer(stack.gateway, "127.0.0.1", 0, "acceptance-admin")
    server.start()
    observable = bytearray()
    try:
        admin = AdminClient(server.base_url, "acceptance-admin")
        agents = []
        for i in range(3):
            measurement = secrets.token_bytes(32)
            created = admin.provision(
                {
                    "agent_public_key": secrets.token_bytes(32).hex(),
                    "expected_measurements": [measurement.hex()],
                    "enterprise_namespace": "acceptance/iso",
                    "initial_policy": permissive_policy().to_json(),
                }
            )
            agents.append(
                AgentRuntime(
                    agent_id=f"iso-{i}",
                    profile_id=created["profile_id"],
                    measurement=measurement,
                    environment_id=f"env-{i}",
                    attestation_signer=stack.root,
                    client=GatewayClient(server.base_url),
                )
            )
        relying = RelyingService(stack.netcore)
        for agent in agents:
            assert agent_authenticate(agent, relying).authenticated
            send_signed_message(agent, b"isolation probe")
            agent.client.status(agent.profile_id)

        # wire messages, both directions, as observed by every client
        for agent in agents:
            observable += json.dumps(agent.client.transcript).encode()
        observable += json.dumps(admin.transcript).encode()
        # agent-side memory snapshots
        for agent in agents:
            observable += agent.memory_snapshot()
    finally:
        server.stop()

    # CLI output: provision + status + audit-verify in direct mode
    cli_state = tmp_path / "cli-state"
    policy_file = tmp_path / "policy.json"
    policy_file.write_text(json.dumps(permissive_policy().to_json()))
    assert cli_main([
        "--state-dir", str(cli_state), "--json", "provision",
        "--agent-key", secrets.token_bytes(32).hex(),
        "--measurement", secrets.token_bytes(32).hex(),
        "--namespace", "acceptance/cli",
        "--policy-file", str(policy_file),
    ]) == 0
    cli_out = capsys.readouterr()
    created = json.loads(cli_out.out)
    assert cli_main(["--state-dir", str(cli_state), "status", created["profile_id"]]) == 0
    assert cli_main(["--state-dir", str(cli_state), "audit-verify"]) == 0
    cli_out2 = capsys.readouterr()
    observable += (cli_out.out + cli_out.err + cli_out2.out + cli_out2.err).encode()

    # scenario report file and rendered text
    report = None
    from agent_esim.scenarios import run_scenario

    report_path = tmp_path / "scenario-report.json"
    report = run_scenario("enterprise-alert-agent", report_path=report_path)
    observable += report_path.read_bytes()
    observable += report.render_text().encode()

    all_secrets = secrets_of(stack)
    from agent_esim.vault import SimVault

    cli_vault = SimVault(cli_state)
    for profile_id in cli_vault.profile_ids():
        profile = cli_vault._profiles[profile_id]
        all_secrets += [
            profile.key_material.k,
            profile.key_material.opc,
            profile.signing_key.private_bytes_raw(),
        ]
    cli_vault.close()
    stack.close()

    assert len(all_secrets) == 12  # 4 profiles x 3 secrets
    hits = scan_for_secrets(bytes(observable), all_secrets)
    assert hits == [], f"key material leaked: {len(hits)} hit(s)"


# -- 5 -----------------------------------------------------------------------

def test_criterion_5_rate_limiting(tmp_path):
    """{10/60 s}: sequential and concurrent both 10 allow + 1 deny; 100
    randomized interleavings never exceed 10 allows."""
    stack = Stack(tmp_path / "state")
    policy = permissive_policy(max_ops=10, window_seconds=60.0)
    try:
        # sequential
        result, measurement = stack.provision(policy=policy)
        token = stack.token_for(measurement)
        sequential = []
        for _ in range(11):
            try:
                stack.gateway.handle_sign(
                    result["profile_id"], secrets.token_bytes(32), token, "127.0.0.1"
                )
                sequential.append("allow")
            except GatewayDenied as denial:
                sequential.append(denial.reason)
        assert sequential.count("allow") == 10
        assert sequential[10] is DenyReason.RATE_LIMIT

        # concurrent, same shape
        result, measurement = stack.provision(policy=policy)
        token = stack.token_for(measurement)
        outcomes = []
        lock = threading.Lock()

        def fire(jitter=0.0):
            time.sleep(jitter)
            try:
                stack.gateway.handle_sign(
                    result["profile_id"], secrets.token_bytes(32), token, "127.0.0.1"
                )
                value = "allow"
            except GatewayDenied as denial:
                value = denial.reason
            with lock:
                outcomes.append(value)

        threads = [threading.Thread(target=fire) for _ in range(11)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes.count("allow") == 10
        assert outcomes.count(DenyReason.RATE_LIMIT) == 1

        # 100 randomized concurrent interleavings
        rng = random.Random(20260808)
        for run in range(100):
            result, measurement = stack.provision(policy=policy)
            token = stack.token_for(measurement)
            outcomes = []
            n_threads = rng.randint(11, 16)
            threads = [
                threading.Thread(target=fire, kwargs={"jitter": rng.uniform(0, 0.003)})
                for _ in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            allowed = outcomes.count("allow")
            assert allowed <= 10, f"run {run}: {allowed} allows out of {n_threads}"
    finally:
        stack.close()


# -- 6 -----------------------------------------------------------------------

def test_criterion_6_revocation_immediacy(tmp_path):
    """50/50 stress runs: no Allow audited after the revocation record."""
    stack = Stack(tmp_path / "state")
    policy = permissive_policy(max_ops=10_000_000, window_seconds=60.0)
    try:
        for run in range(50):
            result, measurement = stack.provision(policy=policy)
            profile_id = result["profile_id"]
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
            time.sleep(0.002 * (run % 5))
            stack.gateway.revoke_profile(profile_id, f"stress-{run}")
            stop.set()
            for t in threads:
                t.join()

            records = [r for r in stack.audit.records() if r.profile_id == profile_id]
            revoke_seq = next(
                r.seq for r in records if r.operation is AuditOperation.STATE_CHANGE
            )
            late_allows = [
                r for r in records
                if r.operation is AuditOperation.SIGN
                and r.outcome.kind == "allowed"
                and r.seq > revoke_seq
            ]
            assert late_allows == [], f"run {run}: allow admitted after revocation"
    finally:
        stack.close()


# -- 7 -----------------------------------------------------------------------

def test_criterion_7_audit_integrity(tmp_path):
    """10,000-record chain: tampering localized exactly; intact verify < 1 s."""
    log = AuditLog(tmp_path / "state", sync=False)
    for i in range(10_000):
        log.append(
            f"p-{i % 7}", AuditOperation.SIGN, AuditOutcome.allowed(),
            secrets.token_bytes(32),
        )
    log.close()
    path = log.path

    started = time.perf_counter()
    status = verify_audit_file(path)
    elapsed = time.perf_counter() - started
    assert status.ok and status.length == 10_000
    assert elapsed < 1.0, f"intact verification took {elapsed:.3f}s"

    with FrameWalk(path) as walk:
        header, pristine = walk.header, list(walk)
    rng = random.Random(7)
    positions = sorted({1, 2, 5000, 9999, 10_000} | {rng.randint(3, 9998) for _ in range(7)})

    for seq in positions:
        # single-field mutation at seq
        frames = list(pristine)
        record = json.loads(frames[seq - 1])
        record["profile_id"] = record["profile_id"] + "-tampered"
        frames[seq - 1] = json.dumps(record, separators=(",", ":"), sort_keys=True).encode()
        write_frames(path, header, frames)
        result = verify_audit_file(path)
        assert (result.ok, result.first_bad_seq) == (False, seq), f"mutation at {seq}"

        # deletion of seq; removing the final record is a tail truncation,
        # which yields a valid shorter chain and is reported by length
        frames = list(pristine)
        del frames[seq - 1]
        write_frames(path, header, frames)
        result = verify_audit_file(path)
        if seq < 10_000:
            assert (result.ok, result.first_bad_seq) == (False, seq), f"deletion at {seq}"
        else:
            assert (result.ok, result.length) == (True, 9_999)

        # adjacent swap of (seq, seq+1)
        if seq < 10_000:
            frames = list(pristine)
            frames[seq - 1], frames[seq] = frames[seq], frames[seq - 1]
            write_frames(path, header, frames)
            result = verify_audit_file(path)
            assert (result.ok, result.first_bad_seq) == (False, seq), f"swap at {seq}"

    # restore and confirm intact again
    write_frames(path, header, pristine)
    assert verify_audit_file(path).ok


# -- 8 -----------------------------------------------------------------------

def _forged_token(root, *, good_root, good_sig, not_expired, not_premature, measurement):
    """Construct a token whose checks pass/fail exactly as requested."""
    now = time.time()
    issued = now - 60 if not_premature else now + 600
    expires = now + 300 if not_expired else now - 10
    signer = root if good_root else SoftwareRootOfTrust.generate("unregistered-root")
    token = AttestationToken(
        measurement=measurement,
        environment_id="matrix-env",
        issued_at=issued,
        expires_at=expires,
        nonce=secrets.token_bytes(16),
        root_id=signer.root_id,
        signature=b"",
    )
    signature = signer._private_key.sign(token.signed_payload())
    if not good_sig:
        signature = bytes(64)
    return AttestationToken(
        measurement=token.measurement,
        environment_id=token.environment_id,
        issued_at=token.issued_at,
        expires_at=token.expires_at,
        nonce=token.nonce,
        root_id=token.root_id,
        signature=signature,
    )


def test_criterion_8_attestation_gating(tmp_path):
    """The 5 failure kinds map to their exact reasons; the 2^5 pass/fail
    matrix allows only the all-pass corner."""
    stack = Stack(tmp_path / "state")
    try:
        result, measurement = stack.provision()
        profile_id = result["profile_id"]
        binding = stack.vault.get_binding(profile_id)
        now = time.time()

        expected_kind_order = [
            AttestationFailure.UNKNOWN_ROOT,
            AttestationFailure.BAD_SIGNATURE,
            AttestationFailure.EXPIRED,
            AttestationFailure.NOT_YET_VALID,
            AttestationFailure.MEASUREMENT_MISMATCH,
        ]
        observed_kinds = {}
        observed_reasons = {}

        for bits in itertools.product([True, False], repeat=5):
            good_root, good_sig, not_expired, not_premature, good_meas = bits
            token = _forged_token(
                stack.root,
                good_root=good_root,
                good_sig=good_sig,
                not_expired=not_expired,
                not_premature=not_premature,
                measurement=measurement if good_meas else secrets.token_bytes(32),
            )
            verdict = verify_attestation(token, binding, now, roots=stack.roots)
            failures = [
                kind
                for kind, passed in zip(expected_kind_order, bits)
                if not passed
            ]
            if all(bits):
                assert verdict is None, "all-pass corner must verify"
            else:
                assert verdict is failures[0], f"bits {bits}: got {verdict}"

            # gateway-level deny reason for the same token
            try:
                stack.gateway.handle_sign(
                    profile_id, secrets.token_bytes(32), token, "127.0.0.1"
                )
                gateway_outcome = "allow"
            except GatewayDenied as denial:
                gateway_outcome = denial.reason
            if all(bits):
                assert gateway_outcome == "allow"
            elif not (good_root and good_sig and not_expired and not_premature):
                assert gateway_outcome is DenyReason.ATTESTATION
            else:
                assert gateway_outcome is DenyReason.MEASUREMENT_MATCH

            # record single-failure observations for the exact-kind assertion
            if bits.count(False) == 1:
                kind = failures[0]
                observed_kinds[kind] = verdict
                observed_reasons[kind] = gateway_outcome

        assert set(observed_kinds) == set(expected_kind_order)
        for kind, verdict in observed_kinds.items():
            assert verdict is kind
        for kind in expected_kind_order[:4]:
            assert observed_reasons[kind] is DenyReason.ATTESTATION
        assert (
            observed_reasons[AttestationFailure.MEASUREMENT_MISMATCH]
            is DenyReason.MEASUREMENT_MATCH
        )
    finally:
        stack.close()


# -- 9 -----------------------------------------------------------------------

def test_criterion_9_scenario_suite(tmp_path, capsys):
    """All three built-in scenarios exit 0 with verified audit chains, < 60 s."""
    started = time.perf_counter()
    for name in ("enterprise-alert-agent", "finance-decision-agent", "agent-marketplace"):
        report_path = tmp_path / f"{name}.json"
        code = cli_main(["--json", "scenario", name, "--report", str(report_path)])
        out = capsys.readouterr().out
        assert code == 0, f"{name} exited {code}"
        printed = json.loads(out)
        saved = json.loads(report_path.read_text())
        assert printed["passed"] is True and saved["passed"] is True
        assert saved["audit_chain_ok"] is True
        assert saved["checks"] and all(saved["checks"].values())
        assert saved["counts"] == printed["counts"]
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"scenario suite took {elapsed:.1f}s"
