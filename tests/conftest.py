"""Shared fixtures: a fully wired service stack on a temp state directory.

Also hosts the terminal-summary hook that prints one PASS/FAIL line per
acceptance criterion after the run.
"""

import hashlib
import os
import re
import secrets
from pathlib import Path

import pytest

from agent_esim.attestation import SoftwareRootOfTrust
from agent_esim.config import ServiceConfig
from agent_esim.gateway import ProvisionRequest
from agent_esim.policy import permissive_policy
from agent_esim.stack import build_stack

# Subprocesses the tests start (`python -m agent_esim.cli serve`) import the
# package from this checkout too, as pytest's own `pythonpath` setting does.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


class Stack:
    """The production service assembly plus a generated TEE root and helpers."""

    def __init__(self, state_dir, *, clock=None, sync=True):
        self.state_dir = Path(state_dir)
        self.root = SoftwareRootOfTrust.generate("tee-root-1")
        config = ServiceConfig(state_dir=self.state_dir, listen_port=0)
        config.attestation_roots.append((self.root.root_id, self.root.public_key))
        kwargs = {} if clock is None else {"clock": clock}
        self._stack = build_stack(config, sync=sync, **kwargs)
        self.vault = self._stack.vault
        self.netcore = self._stack.netcore
        self.policies = self._stack.policies
        self.audit = self._stack.audit
        self.roots = self._stack.roots
        self.allocator = self._stack.allocator
        self.gateway = self._stack.gateway

    def provision(self, *, measurement=None, policy=None, namespace="acme/test"):
        """Provision one agent profile; returns (result dict, measurement)."""
        measurement = measurement or secrets.token_bytes(32)
        request = ProvisionRequest(
            agent_public_key=secrets.token_bytes(32),
            expected_measurements=frozenset({measurement}),
            enterprise_namespace=namespace,
            initial_policy=policy or permissive_policy(),
        )
        return self.gateway.admin_provision(request), measurement

    def token_for(self, measurement, **kwargs):
        kwargs.setdefault("validity_seconds", 300.0)
        return self.root.issue_token(measurement, "env-test", **kwargs)

    def close(self):
        self._stack.close()


@pytest.fixture
def stack(tmp_path):
    s = Stack(tmp_path / "state")
    yield s
    s.close()


def digest_of(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest()


ACCEPTANCE_CRITERIA = {
    1: "MILENAGE conformance (published test sets, byte-exact, < 1 s)",
    2: "end-to-end authentication (100/100 fresh, 100/100 replays stale, < 30 s)",
    3: "resynchronization (one AUTS round restores auth, 20/20)",
    4: "key isolation (zero Ki/OPc/private-key bytes observable)",
    5: "rate limiting (10+1 sequential and concurrent; <= 10 in 100 interleavings)",
    6: "revocation immediacy (no allow after revoke, 50/50 stress runs)",
    7: "audit integrity (10k chain; tamper localized; verify < 1 s)",
    8: "attestation gating (5 exact failure kinds; 2^5 matrix)",
    9: "scenario suite (3 scenarios exit 0, audit verified, < 60 s)",
}

_CRITERION_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[int, str] = {}
    for status, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(status, []):
            if getattr(report, "when", "call") != "call":
                continue
            match = _CRITERION_PATTERN.search(getattr(report, "nodeid", ""))
            if match:
                outcomes[int(match.group(1))] = label
    if not outcomes:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for number in sorted(ACCEPTANCE_CRITERIA):
        if number in outcomes:
            description = ACCEPTANCE_CRITERIA[number]
            terminalreporter.write_line(f"  {outcomes[number]}  {number}. {description}")
