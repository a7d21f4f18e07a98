"""The three seeded closed-loop workloads.

Each workload builds its inputs from the seed before any timing starts and
keeps its own model of the expected outcome of every op, so a result is
checked against what the generator predicted, never against what the
service happened to answer.

    sign   1 agent signing distinct 32-byte digests over HTTP under a
           permissive policy: transport, attestation, policy, vault Ed25519
           and one audit append per op. MILENAGE and the network core do no
           work, so this is the bypass case for any AKA change.
    aka    2 agents on 2 threads, each on its own profile, running the full
           `agent_authenticate` flow (status, challenge, gateway AKA,
           confirm): three MILENAGE evaluations and six fsyncs per flow,
           with the two agents' appends overlapping.
    churn  1 client mixing admin writes (provision, policy, suspend/resume,
           revoke, illegal transitions) with deny and error traffic over a
           growing profile population: the only workload that writes
           profile and policy state, takes the deny paths and grows
           per-profile state under hostile input.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from agent_esim.agent import AgentRuntime, agent_authenticate
from agent_esim.attestation import SoftwareRootOfTrust
from agent_esim.client import GatewayClient
from agent_esim.httpapi import ADMIN_SECRET_HEADER, ATTESTATION_HEADER
from agent_esim.policy import DelegationPolicy, permissive_policy
from agent_esim.vault import verify_profile_signature

# Both windows outlast any run, so no admission ever leaves a window and the
# churn model can predict every RateLimit denial exactly.
LONG_WINDOW_S = 1e7
TIGHT_MAX_OPS = 2


def open_policy() -> DelegationPolicy:
    return permissive_policy(policy_id="open", max_ops=10**9, window_seconds=LONG_WINDOW_S)


def tight_policy() -> DelegationPolicy:
    return permissive_policy(
        policy_id="tight", max_ops=TIGHT_MAX_OPS, window_seconds=LONG_WINDOW_S
    )


def seeded_root(rng: random.Random) -> SoftwareRootOfTrust:
    return SoftwareRootOfTrust(
        "perfbench-tee-root", Ed25519PrivateKey.from_private_bytes(rng.randbytes(32))
    )


def agent_measurement(name: str) -> bytes:
    return hashlib.sha256(f"perfbench-agent-code:{name}".encode()).digest()


@dataclass
class Agent:
    runtime: AgentRuntime
    imsi: str
    public_key: bytes


class Loop:
    """One closed-loop client: `op(i)` runs op i and says whether its outcome
    matched the model. Checks too costly for the timed loop are queued and
    run by `deferred_failures` after timing ends."""

    def __init__(self, client: GatewayClient, ops: int, warmup: int):
        self.client = client
        self.ops = ops
        self.warmup = warmup
        self._signatures: list[tuple[Agent, bytes, bytes]] = []

    def op(self, i: int) -> bool:
        raise NotImplementedError

    def _expect_signature(self, agent: Agent, body: dict, digest: bytes) -> bool:
        if body.get("profile_id") != agent.runtime.profile_id:
            return False
        if body.get("public_key") != agent.public_key.hex():
            return False
        self._signatures.append((agent, digest, bytes.fromhex(body["signature"])))
        return True

    def deferred_failures(self) -> int:
        """Signatures checked against the key returned at provisioning."""
        bad = sum(
            not verify_profile_signature(
                agent.public_key, agent.runtime.profile_id, digest, signature
            )
            for agent, digest, signature in self._signatures
        )
        self._signatures.clear()
        return bad


class Workload:
    name: str
    clients: int
    rate: float     # nominal ops per second on a 2-vCPU VM, as run; sizes the op count
    warmup: int     # untimed ops per client before the timed phase

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        per_client = max(1, round(self.rate * seconds / self.clients))
        self.ops = per_client * self.clients
        self.root = seeded_root(random.Random(f"{seed}:root"))

    def provision(self, env) -> list[Agent]:
        """Create the initial profiles; part of set-up time."""
        raise NotImplementedError

    def loops(self, env, agents: list[Agent]) -> list[Loop]:
        raise NotImplementedError

    def audit_records(self) -> int:
        """Audit records expected once every op has run: one per response."""
        raise NotImplementedError

    @property
    def per_client(self) -> int:
        return self.ops // self.clients


class SignWorkload(Workload):
    name = "sign"
    clients = 1
    rate = 750.0
    warmup = 100

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        rng = random.Random(f"{seed}:sign")
        self.digests = [rng.randbytes(32) for _ in range(self.warmup + self.ops)]

    def provision(self, env) -> list[Agent]:
        return [env.new_agent("sign-0", open_policy())]

    def loops(self, env, agents: list[Agent]) -> list[Loop]:
        return [SignLoop(agents[0], self.digests, self.ops, self.warmup)]

    def audit_records(self) -> int:
        return 1 + self.warmup + self.ops


class SignLoop(Loop):
    def __init__(self, agent: Agent, digests: list[bytes], ops: int, warmup: int):
        super().__init__(agent.runtime.client, ops, warmup)
        self.agent = agent
        self.digests = digests

    def op(self, i: int) -> bool:
        runtime = self.agent.runtime
        digest = self.digests[i]
        body = runtime.client.sign(runtime.profile_id, digest, runtime.fresh_token())
        return self._expect_signature(self.agent, body, digest)


class AkaWorkload(Workload):
    name = "aka"
    clients = 2
    rate = 270.0
    warmup = 25

    def provision(self, env) -> list[Agent]:
        return [env.new_agent(f"aka-{k}", open_policy()) for k in range(self.clients)]

    def loops(self, env, agents: list[Agent]) -> list[Loop]:
        return [AkaLoop(agent, env.relying, self.per_client, self.warmup) for agent in agents]

    def audit_records(self) -> int:
        # provisioning, then status + authenticate per flow
        return self.clients * (1 + 2 * (self.warmup + self.per_client))


class AkaLoop(Loop):
    def __init__(self, agent: Agent, relying, ops: int, warmup: int):
        super().__init__(agent.runtime.client, ops, warmup)
        self.agent = agent
        self.relying = relying
        self.flows = 0
        self.resyncs = 0

    def op(self, i: int) -> bool:
        session = agent_authenticate(self.agent.runtime, self.relying)
        self.flows += 1
        self.resyncs += session.resync_rounds
        return session.authenticated is True


# -- churn ----------------------------------------------------------------------

# The churn mix is synthetic: there is no traffic trace of the service to
# weight it by, so every kind is drawn equally often. Kinds are dealt from a
# deck of all of them, shuffled afresh once dealt out, so that every seed runs
# the same mix and only the order differs. What each kind is there to move:
CHURN_KINDS = (
    "sign",            # allow path (vault.sign_ms) and RateLimit denials
    "status",          # status path, which takes no attestation
    "sign_no_token",   # Attestation denial before any verify
    "sign_expired",    # Attestation denial after a token verify (attestation.verify_ms)
    "sign_inactive",   # ProfileState denial on a suspended or revoked profile
    "unknown_sign",    # 404 on an unknown id: state growth (restart_s, peak_rss_mb)
    "unknown_status",  # the same without credentials
    "challenge",       # never answered (netcore.pending_end, restart_s)
    "provision",       # admin write, population growth (vault.admin_ms, disk_bytes_per_op)
    "policy_tight",    # policy write (policy.enforce_ms); makes RateLimit denials
    "policy_open",     # policy write that lifts the limit
    "suspend",         # lifecycle write; makes ProfileState denials
    "resume",          # lifecycle write
    "revoke",          # revocation; makes ProfileState denials for good
    "bad_transition",  # illegal lifecycle transition: 409 (gateway.errors)
)
# The profile states a kind draws its target from, so that each kind meets
# the outcome it is there for; any other kind draws from every profile.
CHURN_TARGETS = {
    "sign": ("Active",),
    "sign_no_token": ("Active",),
    "sign_expired": ("Active",),
    "sign_inactive": ("Suspended", "Revoked"),
    "policy_tight": ("Active", "Suspended"),
    "policy_open": ("Active", "Suspended"),
    "suspend": ("Active",),
    "resume": ("Suspended",),
    "revoke": ("Active", "Suspended"),
    "bad_transition": ("Active", "Revoked"),  # resume on Active or Revoked: 409
}
CHURN_INITIAL_PROFILES = 24


@dataclass
class _SlotModel:
    state: str = "Active"
    tight: bool = False
    admitted: int = 0    # admissions so far; no window ever drops one


@dataclass(frozen=True)
class ChurnStep:
    kind: str
    target: int | str          # slot index, or an unknown profile id
    status: int | None         # expected HTTP status (None: in-process op)
    detail: str | None = None  # expected deny reason, or profile state for status
    digest: bytes = b""


def plan_churn(rng: random.Random, steps: int, initial: int) -> list[ChurnStep]:
    """The op script and every expected outcome, from the seed alone."""
    slots = [_SlotModel() for _ in range(initial)]
    plan: list[ChurnStep] = []

    def pick(states: tuple[str, ...]) -> int | None:
        found = [i for i, s in enumerate(slots) if s.state in states]
        return rng.choice(found) if found else None

    def sign_expectation(slot: _SlotModel, valid_token: bool) -> tuple[int, str | None]:
        if slot.state != "Active":
            return 403, "ProfileState"
        if not valid_token:
            return 403, "Attestation"
        if slot.tight and slot.admitted >= TIGHT_MAX_OPS:
            return 403, "RateLimit"
        slot.admitted += 1
        return 200, None

    deck: list[str] = []
    for _ in range(steps):
        if not deck:
            deck = rng.sample(CHURN_KINDS, len(CHURN_KINDS))
        kind = deck.pop()
        states = CHURN_TARGETS.get(kind)
        target = pick(states) if states else rng.randrange(len(slots))
        if target is None:
            kind, target = "status", rng.randrange(len(slots))
        slot = slots[target]

        if kind in ("sign", "sign_no_token", "sign_expired", "sign_inactive"):
            status, detail = sign_expectation(slot, kind in ("sign", "sign_inactive"))
            plan.append(ChurnStep(kind, target, status, detail, rng.randbytes(32)))
        elif kind == "status":
            plan.append(ChurnStep(kind, target, 200, slot.state))
        elif kind in ("unknown_sign", "unknown_status"):
            unknown = "esim-x" + rng.randbytes(6).hex()
            plan.append(ChurnStep(kind, unknown, 404, None, rng.randbytes(32)))
        elif kind == "challenge":
            plan.append(ChurnStep(kind, target, None))
        elif kind == "provision":
            slots.append(_SlotModel())
            plan.append(ChurnStep(kind, len(slots) - 1, 200))
        elif kind in ("policy_tight", "policy_open"):
            slot.tight = kind == "policy_tight"
            plan.append(ChurnStep(kind, target, 200))
        elif kind == "suspend":
            slot.state = "Suspended"
            plan.append(ChurnStep(kind, target, 200))
        elif kind == "resume":
            slot.state = "Active"
            plan.append(ChurnStep(kind, target, 200))
        elif kind == "revoke":
            slot.state = "Revoked"
            plan.append(ChurnStep(kind, target, 200))
        else:  # bad_transition
            plan.append(ChurnStep(kind, target, 409))
    return plan


class ChurnWorkload(Workload):
    name = "churn"
    clients = 1
    rate = 800.0
    warmup = 60

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        self.plan = plan_churn(
            random.Random(f"{seed}:churn"), self.warmup + self.ops, CHURN_INITIAL_PROFILES
        )

    def provision(self, env) -> list[Agent]:
        return [
            env.new_agent(f"churn-{k}", open_policy(), client=env.admin)
            for k in range(CHURN_INITIAL_PROFILES)
        ]

    def loops(self, env, agents: list[Agent]) -> list[Loop]:
        return [ChurnLoop(env, agents, self.plan, self.ops, self.warmup)]

    def audit_records(self) -> int:
        http_steps = sum(step.kind != "challenge" for step in self.plan)
        return CHURN_INITIAL_PROFILES + http_steps


class ChurnLoop(Loop):
    def __init__(self, env, slots: list[Agent], plan: list[ChurnStep], ops: int, warmup: int):
        super().__init__(env.admin, ops, warmup)
        self.env = env
        self.slots = slots
        self.plan = plan
        self.admin_headers = {ADMIN_SECRET_HEADER: env.admin.admin_secret}

    def _sign(self, step: ChurnStep, profile_id: str, token) -> tuple[int, dict]:
        headers = {ATTESTATION_HEADER: token.to_header()} if token is not None else None
        status, body, _ = self.client.request(
            "POST",
            "/identity/sign",
            {"profile_id": profile_id, "payload_digest": step.digest.hex()},
            headers,
        )
        return status, body

    def _admin(self, path: str, body: dict) -> tuple[int, dict]:
        status, parsed, _ = self.client.request("POST", path, body, self.admin_headers)
        return status, parsed

    def op(self, i: int) -> bool:
        step = self.plan[i]
        kind = step.kind
        if kind == "provision":
            self.slots.append(
                self.env.new_agent(f"churn-{step.target}", open_policy(), client=self.client)
            )
            return len(self.slots) == step.target + 1
        if kind in ("unknown_sign", "unknown_status"):
            if kind == "unknown_sign":
                status, _ = self._sign(step, step.target, None)
            else:
                status, _, _ = self.client.request("GET", f"/identity/status/{step.target}")
            return status == step.status

        agent = self.slots[step.target]
        runtime = agent.runtime
        pid = runtime.profile_id
        if kind == "challenge":
            challenge = self.env.relying.request_challenge(agent.imsi)
            return len(challenge["rand"]) == 16 and len(challenge["autn"]) == 16
        if kind in ("sign", "sign_inactive"):
            status, body = self._sign(step, pid, runtime.fresh_token())
        elif kind == "sign_no_token":
            status, body = self._sign(step, pid, None)
        elif kind == "sign_expired":
            token = runtime.attestation_signer.issue_token(
                runtime.measurement, runtime.environment_id,
                validity_seconds=1.0, issued_at=time.time() - 3600.0,
            )
            status, body = self._sign(step, pid, token)
        elif kind == "status":
            status, body, _ = self.client.request("GET", f"/identity/status/{pid}")
            return status == 200 and body.get("state") == step.detail
        elif kind in ("policy_tight", "policy_open"):
            policy = tight_policy() if kind == "policy_tight" else open_policy()
            status, body = self._admin(
                "/admin/policy", {"profile_id": pid, "policy": policy.to_json()}
            )
        elif kind == "revoke":
            status, body = self._admin("/admin/revoke", {"profile_id": pid, "reason": "churn"})
        else:  # suspend, resume, bad_transition
            action = "suspend" if kind == "suspend" else "resume"
            status, body = self._admin("/admin/lifecycle", {"profile_id": pid, "action": action})

        if status != step.status:
            return False
        if status == 403:
            return body.get("reason") == step.detail
        if kind == "sign":
            return self._expect_signature(agent, body, step.digest)
        return True


WORKLOADS = {w.name: w for w in (SignWorkload, AkaWorkload, ChurnWorkload)}

