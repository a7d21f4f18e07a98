"""One-process service assembly: vault + network core + gateway.

This is the deployment shape the CLI serves: all three services live in
one process behind shared state, with the gateway as the only agent-facing
surface. `build_stack` opens a state directory's logs; `serving` is the one
way to run a directory as a service. It holds an exclusive `flock` on
`<state_dir>/serve.lock` for as long as it serves, so a second process
(another `serve`, a direct-mode CLI command, a scenario on that directory)
is refused before it reads any log, and the kernel drops the lock when its
holder dies. `serve`, every direct-mode admin command and the scenarios go
through it; `build_stack` and `ServiceStack.build_server` take no lock, for
callers that reopen a directory in-process, as tests and the benchmark's
restart rounds do.
"""

from __future__ import annotations

import fcntl
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from .audit import AuditLog
from .config import ServiceConfig
from .errors import StorageFailure
from .gateway import IdentityGateway
from .httpapi import GatewayHTTPServer
from .identifiers import IdentifierAllocator
from .netcore import NetworkCore
from .policy import PolicyStore
from .vault import SimVault


@dataclass
class ServiceStack:
    config: ServiceConfig
    vault: SimVault
    netcore: NetworkCore
    policies: PolicyStore
    audit: AuditLog
    roots: dict[str, bytes]
    allocator: IdentifierAllocator
    gateway: IdentityGateway

    def build_server(self, *, admin_secret: str | None = None) -> GatewayHTTPServer:
        secret = admin_secret or self.config.resolve_admin_secret()
        return GatewayHTTPServer(
            self.gateway, self.config.listen_host, self.config.listen_port, secret
        )

    def close(self) -> None:
        self.vault.close()
        self.netcore.close()
        self.policies.close()
        self.audit.close()


def build_stack(
    config: ServiceConfig,
    *,
    clock: Callable[[], float] = time.time,
    sync: bool = True,
) -> ServiceStack:
    state_dir = Path(config.state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    # First: a stored policy the check refuses stops the open before any log is held.
    policies = PolicyStore(state_dir, sync=sync)
    vault = SimVault(state_dir, sync=sync)
    netcore = NetworkCore(
        state_dir,
        vault.key_material_for,
        sqn_step=config.sqn_step,
        challenge_ttl=config.challenge_ttl_seconds,
        clock=clock,
        sync=sync,
    )
    audit = AuditLog(state_dir, sync=sync, clock=clock)
    roots = dict(config.attestation_roots)
    allocator = IdentifierAllocator(
        vault, imsi_prefix=config.imsi_prefix, iccid_prefix=config.iccid_prefix
    )
    gateway = IdentityGateway(
        vault,
        policies,
        audit,
        roots,
        allocator=allocator,
        default_policy=config.default_policy,
        operator_op=config.operator_op,
        clock=clock,
    )
    return ServiceStack(
        config=config,
        vault=vault,
        netcore=netcore,
        policies=policies,
        audit=audit,
        roots=roots,
        allocator=allocator,
        gateway=gateway,
    )


@contextmanager
def serving(
    config: ServiceConfig, host: str, port: int, admin_secret: str
) -> Iterator[tuple[ServiceStack, GatewayHTTPServer]]:
    """Serve `config.state_dir` on (host, port) while the block runs; yields
    the stack and its started server, and stops and closes both on exit.
    Raises StorageFailure, before opening any log, while another process
    serves the directory."""
    state_dir = Path(config.state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    with ExitStack() as scope:
        lock = scope.enter_context(open(state_dir / "serve.lock", "ab"))
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError as err:
            raise StorageFailure(f"{state_dir} is served by another process") from err
        stack = build_stack(config)
        scope.callback(stack.close)
        server = GatewayHTTPServer(stack.gateway, host, port, admin_secret)
        scope.callback(server.stop)
        server.start()
        yield stack, server
