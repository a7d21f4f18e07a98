"""Boots the service, drives one workload, checks it and computes the metrics.

One pass sets up, runs the workload's untimed warm-up and then its timed
phase. In each of several rounds after that it verifies the audit chain over
HTTP, rebuilds the stack from the state directory and makes one more set-up
in a fresh directory. Last come the deferred checks and the key-isolation
scan. `run` makes one untraced pass for the end-to-end metrics, or an
untraced and a traced pass for the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import cryptography

from agent_esim.agent import AgentRuntime, RelyingService
from agent_esim.client import AdminClient, GatewayClient
from agent_esim.config import ServiceConfig
from agent_esim.policy import DelegationPolicy
from agent_esim.stack import build_stack

import instrument
from tracer import Tracer
from workloads import WORKLOADS, Agent, Loop, Workload, agent_measurement

ADMIN_SECRET = "perfbench-admin"
ROUNDS = 20
THREAD_TIMEOUT_S = 150.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("restart_s", "s"),
    ("audit_verify_s", "s"),
    ("disk_bytes_per_op", "B/op"),
    ("peak_rss_mb", "MB"),
)

# The service never uses key bytes in these logs; vault.log and netcore.log
# hold Ki, OPc and signing keys in the clear by design and are not scanned.
SCANNED_STATE_FILES = ("audit.log", "policies.log", "alloc.log")


class Env:
    """A running stack, its HTTP server and an admin client."""

    def __init__(self, state_dir: Path, root, transcript_path: Path):
        self.state_dir = state_dir
        self.root = root
        self.config = ServiceConfig(
            state_dir=state_dir, listen_host="127.0.0.1", listen_port=0,
            admin_secret=ADMIN_SECRET,
        )
        self.config.attestation_roots.append((root.root_id, root.public_key))
        self.stack = build_stack(self.config)
        self.server = self.stack.build_server(admin_secret=ADMIN_SECRET)
        self.server.start()
        self.admin = AdminClient(self.server.base_url, ADMIN_SECRET)
        self.relying = RelyingService(self.stack.netcore)
        self.transcript_path = transcript_path
        self._sink = open(transcript_path, "ab")
        self._sink_lock = threading.Lock()
        self._running = True

    def new_agent(
        self, name: str, policy: DelegationPolicy, client: GatewayClient | None = None
    ) -> Agent:
        measurement = agent_measurement(name)
        created = self.admin.provision(
            {
                "agent_public_key": hashlib.sha256(f"perfbench-key:{name}".encode()).hexdigest(),
                "expected_measurements": [measurement.hex()],
                "enterprise_namespace": f"perfbench/{name}",
                "initial_policy": policy.to_json(),
            }
        )
        runtime = AgentRuntime(
            agent_id=name,
            profile_id=created["profile_id"],
            measurement=measurement,
            environment_id=f"vm-{name}",
            attestation_signer=self.root,
            client=client or GatewayClient(self.server.base_url),
        )
        return Agent(runtime, created["imsi"], bytes.fromhex(created["public_signing_key"]))

    def sink(self, client: GatewayClient) -> None:
        """Move the client's transcript to disk so it is scanned, not kept."""
        entries = client.transcript
        if not entries:
            return
        lines = [
            f"{e['method']} {e['path']} {e['status']}\n{e['request_body']}\n{e['response']}\n"
            for e in entries
        ]
        entries.clear()
        with self._sink_lock:
            self._sink.write("".join(lines).encode("utf-8"))

    def secrets(self) -> list[bytes]:
        """Every profile's Ki, OPc and private signing key."""
        found = []
        for profile in self.stack.vault._profiles.values():
            found += [
                profile.key_material.k,
                profile.key_material.opc,
                profile.signing_key.private_bytes_raw(),
            ]
        return found

    def stop(self) -> None:
        if self._running:
            self._running = False
            self.server.stop()
            self.stack.close()
            self._sink.close()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def find_secrets(blob: bytes, secrets: list[bytes]) -> list[bytes]:
    """What `wire.scan_for_secrets` returns (each secret found in `blob`, raw
    or as hex in either case), in one pass per encoding rather than one per
    secret, so the scan stays cheap as the profile population grows."""
    raw = _occurring(blob, set(secrets))
    hexed = _occurring(blob.lower(), {s.hex().encode("ascii") for s in secrets})
    return [s for s in secrets if s in raw or s.hex().encode("ascii") in hexed]


def _occurring(hay: bytes, needles: set[bytes]) -> set[bytes]:
    """The non-empty needles that occur in `hay`. An occurrence of a needle
    of length L covers a whole block of `hay` that starts at a multiple of
    (L + 1) // 2, so only those blocks are looked up."""
    if not needles:
        return set()
    size = (min(map(len, needles)) + 1) // 2
    pieces: dict[bytes, list[bytes]] = defaultdict(list)
    for needle in needles:
        for j in range(len(needle) - size + 1):
            pieces[needle[j:j + size]].append(needle)
    blocks = (hay[q:q + size] for q in range(0, len(hay) - size + 1, size))
    hits = set(filter(pieces.__contains__, blocks))
    return {needle for piece in hits for needle in pieces[piece] if needle in hay}


def scan_files(paths, secrets: list[bytes]) -> list[str]:
    """Names of the files in which any secret appears, raw or hex."""
    leaked = []
    for path in paths:
        if Path(path).is_file() and find_secrets(Path(path).read_bytes(), secrets):
            leaked.append(str(path))
    return leaked


@dataclass
class Pass:
    traced: bool
    setup_s: list[float] = field(default_factory=list)
    start_s: float = 0.0     # when the timed phase began
    timed: list[tuple[float, float]] = field(default_factory=list)  # (end, latency)
    attempted: int = 0
    failed: int = 0
    verify_s: list[float] = field(default_factory=list)
    restart_s: list[float] = field(default_factory=list)
    disk_bytes: int = 0
    peak_rss_mb: float = 0.0  # high-water mark when the timed phase ends
    pending_end: int = 0
    loops: list[Loop] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    secrets: list[bytes] = field(default_factory=list)
    run_spans: list = field(default_factory=list)
    restart_spans: list = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    def fail(self, err: BaseException) -> None:
        if len(self.errors) < 5:
            self.errors.append("".join(traceback.format_exception_only(type(err), err)).strip())


def _drive(env: Env, loops: list[Loop], timed: bool, result: Pass) -> None:
    """Run every loop on its own thread (inline when there is one)."""
    clock = time.perf_counter
    lock = threading.Lock()

    def run(loop: Loop) -> None:
        lo, hi = (loop.warmup, loop.warmup + loop.ops) if timed else (0, loop.warmup)
        done = []
        failed = 0
        for i in range(lo, hi):
            t0 = clock()
            try:
                ok = loop.op(i)
            except Exception as err:  # a raising op is a failed op; keep going
                ok = False
                result.fail(err)
            t1 = clock()
            done.append((t1, t1 - t0))
            failed += not ok
            env.sink(loop.client)
        with lock:
            result.attempted += hi - lo
            result.failed += failed
            if timed:
                result.timed += done

    result.start_s = clock()
    if len(loops) == 1:
        run(loops[0])
    else:
        threads = [threading.Thread(target=run, args=(loop,)) for loop in loops]
        for t in threads:
            t.start()
        for t in threads:
            t.join(THREAD_TIMEOUT_S)
        if any(t.is_alive() for t in threads):
            raise RuntimeError("a client thread did not finish in time")


def _set_up(workload: Workload, work_dir: Path, tag: str) -> tuple[Env, list[Agent], float]:
    """Boot a stack and server in a fresh directory and provision the
    workload's initial profiles; returns the time that took."""
    t0 = time.perf_counter()
    env = Env(work_dir / f"state-{tag}", workload.root, work_dir / f"transcript-{tag}.txt")
    agents = workload.provision(env)
    elapsed = time.perf_counter() - t0
    env.sink(env.admin)
    return env, agents, elapsed


def run_pass(workload: Workload, work_dir: Path, tracer: Tracer | None, rounds: int) -> Pass:
    """Set up, warm up, run the timed phase, then measure in `rounds` rounds
    of (audit verify, restart, extra set-up), so that the samples of each
    spread over several seconds rather than one burst."""
    result = Pass(tracer is not None)
    leaks: list[str] = []
    env, agents, elapsed = _set_up(workload, work_dir, "run")
    result.setup_s.append(elapsed)
    try:
        loops = result.loops = workload.loops(env, agents)
        _drive(env, loops, False, result)
        size0 = dir_bytes(env.state_dir)
        if tracer is not None:
            instrument.install(tracer)
            tracer.start()
        _drive(env, loops, True, result)
        if tracer is not None:
            result.run_spans = tracer.stop("run")
            result.counts = dict(tracer.counts)
        # Taken before the restarts and scans below: their replayed stacks and
        # file copies would otherwise set the high-water mark.
        result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.disk_bytes = dir_bytes(env.state_dir) - size0
        result.pending_end = env.stack.netcore.pending_count()
        profiles = len(env.stack.vault.profile_ids())
        expected = workload.audit_records()

        # The restarts replay the state directory while the idle service
        # still has it open: nothing is appended once the timed phase ends.
        verified = replayed = True
        for r in range(rounds):
            t0 = time.perf_counter()
            chain = env.admin.audit_verify()
            result.verify_s.append(time.perf_counter() - t0)
            verified &= chain.get("ok") is True and chain.get("length") == expected
            env.sink(env.admin)

            if tracer is not None:
                tracer.start()
            t0 = time.perf_counter()
            stack = build_stack(env.config)
            result.restart_s.append(time.perf_counter() - t0)
            if tracer is not None:
                result.restart_spans += tracer.stop("restart")
            replayed &= len(stack.vault.profile_ids()) == profiles
            replayed &= stack.netcore.pending_count() == result.pending_end
            stack.close()

            extra, _, elapsed = _set_up(workload, work_dir, str(r))
            result.setup_s.append(elapsed)
            extra.stop()
            leaks += scan_files([extra.transcript_path], extra.secrets())
            shutil.rmtree(extra.state_dir)
        result.checks["audit_chain_ok_and_complete"] = verified
        result.checks["restart_replays_state"] = replayed
        secrets = env.secrets()
    finally:
        if tracer is not None:
            tracer.restore()
        env.stop()

    deferred = sum(loop.deferred_failures() for loop in loops)
    result.failed += deferred
    result.checks["signatures_verify"] = deferred == 0
    leaks += scan_files(
        [env.transcript_path] + [env.state_dir / name for name in SCANNED_STATE_FILES],
        secrets,
    )
    result.checks["no_key_material_in_output"] = not leaks
    result.secrets = secrets
    shutil.rmtree(env.state_dir)
    return result


# -- metrics ----------------------------------------------------------------------


def throughput(p: Pass) -> float:
    """Completed timed ops over the wall time of the timed phase."""
    last = max(end for end, _ in p.timed)
    return len(p.timed) / (last - p.start_s)


# Restart and audit verify report their fastest round: the host only ever
# slows a round down, and in probes their medians spread past the bound.
def end_to_end(p: Pass) -> dict[str, float]:
    latencies = [lat for _, lat in p.timed]
    return {
        "setup_s": statistics.median(p.setup_s),
        "ops_per_s": throughput(p),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
        "restart_s": min(p.restart_s),
        "audit_verify_s": min(p.verify_s),
        "disk_bytes_per_op": p.disk_bytes / len(p.timed),
        "peak_rss_mb": p.peak_rss_mb,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run the benchmark; returns the report (result, metadata, checks)."""
    workload = WORKLOADS[workload_name](seed, seconds)
    meta = metadata(workload, trace)
    work_dir = out_dir / f"work-{workload_name}-{seed}-{os.getpid()}"
    # Server and clients share one CPU. Their Python code runs under one
    # interpreter lock, and fsync waits overlap on one CPU as well, so a
    # second CPU adds little but a cross-CPU wakeup at each hop between
    # client and server threads, whose cost follows the host's load. In
    # paired 8 s runs on a 2-vCPU VM, aka's p90 read 8.8-10.9 ms pinned and
    # 10.6-17.7 ms unpinned, churn 864-900 op/s pinned and 625-777 unpinned.
    # Threads started from here on inherit the mask.
    allowed = os.sched_getaffinity(0)
    meta["cpus"] = sorted(allowed)[-1:]
    os.sched_setaffinity(0, meta["cpus"])
    try:
        # With tracing, the untraced pass only prices the tracing.
        plain = run_pass(workload, _fresh_dir(work_dir / "plain"), None, 1 if trace else ROUNDS)
        passes = [plain]
        if trace:
            tracer = Tracer()
            workload = WORKLOADS[workload_name](seed, seconds)
            traced = run_pass(workload, _fresh_dir(work_dir / "traced"), tracer, ROUNDS)
            passes.append(traced)
            spans_path = out_dir / f"spans-{workload_name}.jsonl"
            tracer.write(spans_path)
            metrics, absent = instrument.per_layer(
                workload, traced, throughput(plain) / throughput(traced)
            )
            leaked = scan_files([spans_path], traced.secrets)
            traced.checks["no_key_material_in_spans"] = not leaked
        else:
            absent = {}
            metrics = {
                name: {"value": value, "unit": unit}
                for (name, unit), value in zip(END_TO_END, end_to_end(plain).values())
            }
    finally:
        os.sched_setaffinity(0, allowed)
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    checks = {f"{'traced.' if p.traced else ''}{k}": v for p in passes for k, v in p.checks.items()}
    meta["failed_ratio"] = failed / attempted
    meta["timed_ops"] = [len(p.timed) for p in passes]
    meta["errors"] = [e for p in passes for e in p.errors]
    return {
        "meta": meta,
        "checks": checks,
        "absent": absent,
        "secrets": [s for p in passes for s in p.secrets],
        "result": {
            "correct": failed == 0 and all(checks.values()),
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def _fresh_dir(path: Path) -> Path:
    path.mkdir(parents=True)
    return path


def metadata(workload: Workload, trace: bool) -> dict:
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": trace,
        "ops": workload.ops,
        "warmup_ops_per_client": workload.warmup,
        "clients": workload.clients,
        "fsync": True,
        "transport": "loopback only (127.0.0.1); challenge issue and confirm in-process",
        "git_rev": git_rev(Path(__file__).resolve().parent.parent),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


def git_rev(root: Path) -> str:
    """HEAD's commit id, or 'unknown' outside a git checkout. The search for
    a repository stops at `root`, so a checkout nested in another repository
    does not report that one's HEAD."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"
