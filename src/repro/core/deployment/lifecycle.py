"""Deployment lifecycle operations beyond install/teardown.

* **DHCP refresh** — the §3.1 post-ACK address move into the PVN's
  block.
* **Migration** — when a device roams to another AP inside the same
  provider, run a stateful make-before-break handoff
  (:mod:`repro.core.deployment.migration`): instantiate the chain at
  the new attachment point, checkpoint and ship middlebox state,
  atomically cut over — or roll back completely.
* **Expiry sweeps** — deployments are leased; unfunded leases are torn
  down, freeing NFV capacity.
* **Health & repair** — crashed middlebox containers are restarted in
  place; a chain on a dead host is evacuated by the reconciler.
* **Degradation** — a deployment that cannot be repaired within budget
  falls back to :mod:`repro.core.tunneling` VPN mode (the paper's
  incremental-deployment story run in reverse: when the in-network PVN
  breaks, the tunnel keeps the user's policies alive end-to-end).
"""

from __future__ import annotations

import dataclasses

from repro.core.deployment.manager import (
    Deployment,
    DeploymentManager,
    DeploymentState,
)
from repro.core.deployment.migration import (
    MigrationResult,
    ensure_coordinator,
)
from repro.core.tunneling.vpn import FullTunnel
from repro.errors import DeploymentError
from repro.netproto.dhcp import DhcpServer, Lease
from repro.nfv.container import ContainerState


def refresh_address(
    manager: DeploymentManager,
    dhcp: DhcpServer,
    deployment_id: str,
    client_mac: str,
    now: float,
) -> Lease:
    """Move the device's lease into its deployment's subnet."""
    deployment = manager.deployment(deployment_id)
    if deployment.state is not DeploymentState.ACTIVE:
        raise DeploymentError(
            f"cannot refresh into inactive deployment {deployment_id}"
        )
    return dhcp.refresh_into_pvn(client_mac, deployment_id, now)


def migrate_device(
    manager: DeploymentManager,
    deployment_id: str,
    new_device_node: str,
    now: float = 0.0,
    leases: "LeaseTable | None" = None,
    ledger=None,
) -> MigrationResult:
    """Stateful make-before-break migration after the device moved APs.

    Runs a full two-phase transaction through the manager's
    :class:`~repro.core.deployment.migration.MigrationCoordinator`:
    target containers are instantiated at the new attachment point
    (charging full instantiation latency for every moved middlebox),
    middlebox state is checkpointed and shipped, and the cutover
    commits atomically — SDN rules, the DHCP subnet binding, and the
    funding lease all follow the surviving deployment id.  Any failure
    rolls back to the untouched source deployment.
    """
    coordinator = ensure_coordinator(manager, ledger=ledger, leases=leases)
    return coordinator.migrate(deployment_id, new_device_node, now)


@dataclasses.dataclass
class LeaseTable:
    """Funding leases: deployment id -> paid-until time."""

    leases: dict[str, float] = dataclasses.field(default_factory=dict)

    def fund(self, deployment_id: str, until: float) -> None:
        self.leases[deployment_id] = max(
            self.leases.get(deployment_id, 0.0), until
        )

    def transfer(self, old_id: str, new_id: str) -> None:
        """Move a funding entry to the deployment that superseded it.

        Migration commits call this so the paid-until time follows the
        surviving deployment instead of stranding on the fenced source
        (which the next expiry sweep would otherwise tear down while
        the live target ran unfunded).
        """
        if old_id in self.leases:
            until = self.leases.pop(old_id)
            self.leases[new_id] = max(self.leases.get(new_id, 0.0), until)

    def expired(self, now: float) -> list[str]:
        return sorted(
            deployment_id for deployment_id, until in self.leases.items()
            if until < now
        )


@dataclasses.dataclass(frozen=True)
class HealthReport:
    """One deployment's health at a point in time."""

    deployment_id: str
    healthy: bool
    crashed_services: tuple[str, ...]
    dead_hosts: tuple[str, ...]


def health_check(
    manager: DeploymentManager, deployment_id: str
) -> HealthReport:
    """Inspect one deployment's containers and their hosts."""
    deployment = manager.deployment(deployment_id)
    crashed = deployment.crashed_services()
    embedding_hosts = {
        d.node for d in deployment.embedding.plan.decisions
        if not d.reused_physical
    }
    dead = tuple(sorted(
        node for node in embedding_hosts
        if node in manager.hosts and not manager.hosts[node].alive
    ))
    return HealthReport(
        deployment_id=deployment_id,
        healthy=(deployment.state is DeploymentState.ACTIVE
                 and not crashed and not dead),
        crashed_services=crashed,
        dead_hosts=dead,
    )


@dataclasses.dataclass(frozen=True)
class RepairResult:
    """What one repair attempt achieved."""

    repaired: bool
    restarted: tuple[str, ...] = ()   # rebooted on their original host
    reason: str = ""


def repair_deployment(
    manager: DeploymentManager, deployment_id: str, now: float
) -> RepairResult:
    """Restart a deployment's crashed containers in place, if possible.

    Crashed containers whose host is alive (or which run on no host)
    are restarted where they are, at one instantiation time.  A
    container stranded on a dead host cannot be restarted: moving the
    chain off a dead host is evacuation's job
    (:class:`~repro.core.deployment.reconciler.Reconciler`), so the
    failure is reported, not raised, and nothing is restarted.
    """
    deployment = manager.deployment(deployment_id)
    if deployment.state is not DeploymentState.ACTIVE:
        return RepairResult(
            repaired=False,
            reason=f"deployment is {deployment.state.value}, not repairable",
        )
    crashed = deployment.crashed_services()
    if not crashed:
        return RepairResult(repaired=True, reason="already healthy")

    host_by_service = {
        d.service: d.node for d in deployment.embedding.plan.decisions
    }
    dead = {name for name, host in manager.hosts.items() if not host.alive}
    stranded = [s for s in crashed if host_by_service.get(s) in dead]
    if stranded:
        return RepairResult(
            repaired=False,
            reason=f"host dead under {','.join(stranded)}; evacuate",
        )
    for service in crashed:
        container = deployment.containers[service]
        if manager.sim is not None:
            container.start(manager.sim)
        else:
            container.start_immediately(now)

    deployment.repairs += 1
    if manager.tracer is not None:
        manager.tracer.emit(
            now, "recovery", manager.provider, event="repaired",
            deployment_id=deployment_id, restarted=",".join(crashed),
        )
    return RepairResult(repaired=True, restarted=crashed, reason="repaired")


def degrade_to_tunnel(
    manager: DeploymentManager,
    deployment_id: str,
    endpoint: str,
    now: float,
) -> FullTunnel:
    """Give up on the in-network chain and fall back to VPN mode.

    The deployment's flow rules and containers are released, its data
    path redirects every packet to ``endpoint``, and the deployment
    enters :attr:`DeploymentState.DEGRADED` — still billed, still
    auditable, but no longer running middleboxes in the access
    network.  Returns the :class:`FullTunnel` modelling the fallback.
    """
    deployment = manager.deployment(deployment_id)
    if deployment.state is DeploymentState.TORN_DOWN:
        raise DeploymentError(
            f"cannot degrade torn-down deployment {deployment_id}"
        )
    tunnel = FullTunnel(
        manager.topo,
        device_node=deployment.embedding.device_node,
        endpoint_node=endpoint,
        gateway_node=deployment.embedding.gateway_node,
    )
    if manager.controller is not None:
        manager.controller.remove_pvn(deployment_id)
    for host in manager.hosts.values():
        host.terminate_owner(deployment.user)
    for container in deployment.containers.values():
        if container.state is not ContainerState.STOPPED:
            container.stop()
    deployment.datapath.degraded_to = endpoint
    deployment.state = DeploymentState.DEGRADED
    deployment.degraded_to = endpoint
    if manager.tracer is not None:
        manager.tracer.emit(
            now, "recovery", manager.provider, event="degraded",
            deployment_id=deployment_id, endpoint=endpoint,
        )
    return tunnel


def sweep_expired(
    manager: DeploymentManager, leases: LeaseTable, now: float
) -> list[str]:
    """Tear down every deployment whose lease lapsed; returns their ids."""
    torn_down = []
    for deployment_id in leases.expired(now):
        deployment = manager.deployments.get(deployment_id)
        if deployment is None or deployment.state is not DeploymentState.ACTIVE:
            continue
        manager.teardown(deployment_id)
        torn_down.append(deployment_id)
    for deployment_id in torn_down:
        del leases.leases[deployment_id]
    return torn_down
