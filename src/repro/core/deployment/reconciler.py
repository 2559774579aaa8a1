"""Declarative self-healing: desired state, diffed continuously.

One converge loop keeps every PVN alive: repair it in place if you
can, otherwise fall back to the tunnel (§3.3).  This module holds:

* :class:`DesiredState` — the source of truth: one
  :class:`DeploymentSpec` per user saying what *should* be running,
  independent of what currently is;
* :class:`Reconciler` — a converge loop on the simulator clock that
  every tick (a) replays the migration journal, (b) classifies hosts
  through the phi-accrual detector (:mod:`repro.health`), (c)
  evacuates deployments off confirmed-dead hosts through journaled
  :meth:`~repro.core.deployment.migration.MigrationCoordinator
  .evacuate` transactions, restoring middlebox state from the
  replicator's snapshots, (d) restarts crashed containers in place on
  live hosts, (e) re-diffs desired against observed state and
  redeploys anything missing, and (f) prunes actual state no spec
  wants anymore.  A deployment whose evacuations or restarts exhaust
  one shared budget degrades to the VPN fallback;
* :class:`StateReplicator` — periodic checkpoints of every dedicated
  container, so host death loses at most one replication interval of
  middlebox state instead of all of it.

The partition/crash distinction is load-bearing: a host the detector
declares DEAD while a declared partition window is open is *deferred*
(the beats will return when the partition heals; evacuating would be a
false positive and double-run the user's chain), up to a grace budget
after which the reconciler evacuates anyway — a partition long enough
is operationally a crash.  Host death is the detector's call alone:
the restart rule leaves any deployment with a dead host to evacuation.

Every action is appended to the event log and — when a device's
evidence ledger is attached — recorded as ``fault:reconcile_*``
evidence, so the §3.1 audit trail accounts for the full fault history.
"""

from __future__ import annotations

import dataclasses

from repro.core.deployment.lifecycle import (
    degrade_to_tunnel,
    health_check,
    repair_deployment,
)
from repro.core.deployment.manager import (
    Deployment,
    DeploymentManager,
    DeploymentState,
)
from repro.core.deployment.migration import ensure_coordinator
from repro.core.discovery.messages import DeploymentAck, DeploymentRequest
from repro.core.pvnc.compiler import UserEnvironment
from repro.core.tunneling.vpn import FullTunnel
from repro.errors import ConfigurationError, ReproError
from repro.health import HealthService, HostState, PRIORITY_CRITICAL
from repro.netsim.simulator import Simulator
from repro.nfv.container import ContainerCheckpoint, ContainerState
from repro.obs import runtime as obs_runtime

if False:  # pragma: no cover - typing only
    from repro.core.auditor.violations import EvidenceLedger


# -- desired state ----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DeploymentSpec:
    """What one user's PVN *should* look like, attachment included."""

    user: str
    request: DeploymentRequest
    device_node: str
    env: UserEnvironment
    priority: int = PRIORITY_CRITICAL   # reconciler traffic is critical


class DesiredState:
    """The declarative store the reconciler converges the world to."""

    def __init__(self) -> None:
        self.specs: dict[str, DeploymentSpec] = {}
        self.generation = 0

    def declare(self, spec: DeploymentSpec) -> None:
        self.specs[spec.user] = spec
        self.generation += 1

    def forget(self, user: str) -> bool:
        if self.specs.pop(user, None) is not None:
            self.generation += 1
            return True
        return False

    def __len__(self) -> int:
        return len(self.specs)

    @classmethod
    def capture(cls, manager: DeploymentManager) -> "DesiredState":
        """Adopt every currently-ACTIVE deployment as desired state —
        the migration path from imperative to declarative operation."""
        desired = cls()
        for deployment_id in sorted(manager.deployments):
            deployment = manager.deployments[deployment_id]
            if deployment.state is not DeploymentState.ACTIVE:
                continue
            if deployment.env is None:
                continue
            pvnc = deployment.compiled.pvnc
            desired.declare(DeploymentSpec(
                user=deployment.user,
                request=DeploymentRequest(
                    device_id=f"{deployment.user}:reconciler",
                    offer_id=0,
                    pvnc=pvnc,
                    accepted_services=pvnc.used_services(),
                    payment=deployment.price_paid,
                ),
                device_node=deployment.embedding.device_node,
                env=deployment.env,
            ))
        return desired


# -- policy and events ------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ReconcilePolicy:
    """Cadence, budgets, and fallbacks for the converge loop."""

    interval: float = 0.25
    #: How long a DEAD-but-partitioned host is granted before the
    #: reconciler stops believing the partition will heal.
    partition_grace: float = 5.0
    #: Evacuations driven per tick (the rest stay queued) — bounds the
    #: control-plane burst a multi-host failure can cause.
    max_evacuations_per_tick: int = 8
    #: Evacuations, or in-place restarts within one continuous outage,
    #: per deployment before degrading to tunnel.
    max_attempts: int = 3
    fallback_endpoint: str = "cloud"
    #: Replication cadence for :class:`StateReplicator` (0 disables).
    replica_interval: float = 1.0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigurationError("reconcile interval must be positive")
        if self.partition_grace < 0:
            raise ConfigurationError("partition_grace must be >= 0")
        if self.max_evacuations_per_tick < 1:
            raise ConfigurationError("max_evacuations_per_tick must be >= 1")
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")


@dataclasses.dataclass(frozen=True)
class ReconcileEvent:
    """One reconciler action (the audit-facing trace)."""

    time: float
    kind: str       # host_dead | evacuated | repaired | degraded | ...
    subject: str    # host or deployment id
    detail: str


@dataclasses.dataclass(frozen=True)
class RepairRecord:
    """One completed recovery, for repair-time distributions."""

    deployment_id: str
    host: str
    detected_at: float
    resolved_at: float
    action: str     # evacuated | repaired | degraded | redeployed

    @property
    def repair_time(self) -> float:
        return self.resolved_at - self.detected_at


# -- state replication ------------------------------------------------------


class StateReplicator:
    """Rolling checkpoints of dedicated containers.

    Host death destroys the live state of every container on the host;
    the replicator bounds the loss to one replication interval by
    keeping the last consistent
    :class:`~repro.nfv.container.ContainerCheckpoint` per (deployment,
    service) — exactly what
    :meth:`~repro.core.deployment.migration.MigrationCoordinator
    .evacuate` restores from when the live container is gone.
    """

    def __init__(self) -> None:
        self._replicas: dict[str, dict[str, ContainerCheckpoint]] = {}
        self.snapshots = 0

    def snapshot(self, manager: DeploymentManager, now: float) -> int:
        """Checkpoint every live dedicated container of every ACTIVE
        deployment; prunes replicas of deployments no longer active."""
        captured = 0
        active: set[str] = set()
        for deployment_id in sorted(manager.deployments):
            deployment = manager.deployments[deployment_id]
            if deployment.state is not DeploymentState.ACTIVE:
                continue
            active.add(deployment_id)
            store = self._replicas.setdefault(deployment_id, {})
            for service, container in sorted(deployment.containers.items()):
                if container.state not in (ContainerState.RUNNING,
                                           ContainerState.INSTANTIATING):
                    continue
                store[service] = ContainerCheckpoint.capture(
                    container, now, service
                )
                captured += 1
        for deployment_id in list(self._replicas):
            if deployment_id not in active:
                del self._replicas[deployment_id]
        self.snapshots += 1
        return captured

    def replicas_for(self, deployment_id: str
                     ) -> dict[str, ContainerCheckpoint]:
        return dict(self._replicas.get(deployment_id, {}))

    def drop(self, deployment_id: str) -> None:
        self._replicas.pop(deployment_id, None)

    @property
    def total_bytes(self) -> int:
        return sum(
            checkpoint.size_bytes
            for store in self._replicas.values()
            for checkpoint in store.values()
        )


# -- the reconciler ---------------------------------------------------------


class Reconciler:
    """The converge loop: observe, diff, repair, repeat."""

    def __init__(
        self,
        manager: DeploymentManager,
        sim: Simulator,
        health: HealthService,
        desired: DesiredState | None = None,
        policy: ReconcilePolicy | None = None,
        ledger: "EvidenceLedger | None" = None,
    ) -> None:
        self.manager = manager
        self.sim = sim
        self.health = health
        self.desired = desired or DesiredState()
        self.policy = policy or ReconcilePolicy()
        self.ledger = ledger
        self.coordinator = ensure_coordinator(manager, ledger=ledger)
        self.replicator = StateReplicator()
        self.events: list[ReconcileEvent] = []
        self.repairs: list[RepairRecord] = []
        self.tunnels: dict[str, FullTunnel] = {}
        self.ticks = 0
        self._running = False
        self._last_replica = float("-inf")
        self._evacuated_hosts: set[str] = set()     # already handled
        self._deferred: dict[str, float] = {}       # host -> first DEAD time
        self._heal_wait: set[str] = set()           # post-heal beat pending
        self._queue: list[tuple[str, str]] = []     # (deployment, host)
        self._attempts: dict[str, int] = {}
        self._outage_started: dict[str, float] = {}

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Begin converging (idempotent)."""
        if self._running:
            return
        self._running = True
        self.health.start()
        self.sim.schedule(self.policy.interval, self._tick)

    def stop(self) -> None:
        self._running = False

    # -- the loop ---------------------------------------------------------

    def _tick(self) -> None:
        if not self._running:
            return
        self.ticks += 1
        now = self.sim.now
        self._replay_migrations(now)
        self._classify_hosts(now)
        self._drain_evacuations(now)
        self._restart_crashed(now)
        self._replicate(now)
        self._converge_desired(now)
        self.sim.schedule(self.policy.interval, self._tick)

    def _replay_migrations(self, now: float) -> None:
        for txn_id, action, detail in self.coordinator.recover(now):
            self._emit(now, f"migration_{action}", txn_id, detail)

    # -- host classification ----------------------------------------------

    def _classify_hosts(self, now: float) -> None:
        for name in sorted(self.manager.hosts):
            host = self.manager.hosts[name]
            state = self.health.state_of(name, now)
            if state is HostState.DEAD and name not in self._evacuated_hosts:
                if self.health.partitioned(name, now):
                    self._heal_wait.discard(name)
                    first = self._deferred.setdefault(name, now)
                    if now - first < self.policy.partition_grace:
                        if first == now:
                            self._emit(
                                now, "deferred", name,
                                "DEAD but partitioned; deferring "
                                f"evacuation up to "
                                f"{self.policy.partition_grace:g}s",
                            )
                        continue
                    self._emit(now, "partition_expired", name,
                               "partition outlived the grace budget; "
                               "treating the host as dead")
                elif name in self._deferred and name not in self._heal_wait:
                    # The window just healed and the first post-heal
                    # beat may still be in flight (heal time can align
                    # exactly with a tick).  One tick of patience
                    # before declaring death avoids evacuating a host
                    # that is about to report in.
                    self._heal_wait.add(name)
                    self._emit(now, "heal_wait", name,
                               "partition healed; awaiting first beat")
                    continue
                self._deferred.pop(name, None)
                self._heal_wait.discard(name)
                self._evacuated_hosts.add(name)
                self._emit(now, "host_dead", name,
                           f"phi={self.health.phi(name, now):.2f} "
                           f"alive={host.alive}")
                self._queue_evacuations(name, now)
            elif state is not HostState.DEAD:
                self._deferred.pop(name, None)
                self._heal_wait.discard(name)
                if name in self._evacuated_hosts and host.alive:
                    # Back from the dead (HOST_UP + resumed beats):
                    # eligible for placement and future failures again.
                    self._evacuated_hosts.discard(name)
                    self._emit(now, "host_recovered", name, "beats resumed")

    def _queue_evacuations(self, host_name: str, now: float) -> None:
        affected: set[str] = set()
        if self.manager.optimizer is not None:
            affected.update(
                self.manager.optimizer.pool.fail_node(host_name)
            )
        for deployment_id in sorted(self.manager.deployments):
            deployment = self.manager.deployments[deployment_id]
            if deployment.state is not DeploymentState.ACTIVE:
                continue
            if any(d.node == host_name
                   for d in deployment.embedding.plan.decisions):
                affected.add(deployment_id)
        queued = [
            deployment_id for deployment_id in sorted(affected)
            if (deployment_id in self.manager.deployments
                and self.manager.deployments[deployment_id].state
                is DeploymentState.ACTIVE)
        ]
        for deployment_id in queued:
            self._queue.append((deployment_id, host_name))
            self._outage_started.setdefault(deployment_id, now)
        self._emit(now, "evacuation_queued", host_name,
                   f"{len(queued)} deployment(s) to move")

    # -- evacuation -------------------------------------------------------

    def _drain_evacuations(self, now: float) -> None:
        budget = self.policy.max_evacuations_per_tick
        retry: list[tuple[str, str]] = []
        obs = obs_runtime.current()
        while self._queue and budget > 0:
            deployment_id, host_name = self._queue.pop(0)
            deployment = self.manager.deployments.get(deployment_id)
            if (deployment is None
                    or deployment.state is not DeploymentState.ACTIVE):
                self._outage_started.pop(deployment_id, None)
                continue
            budget -= 1
            replicas = self.replicator.replicas_for(deployment_id)
            try:
                result = self.coordinator.evacuate(
                    deployment_id, now, replicas=replicas,
                )
            except ReproError as exc:
                result = None
                reason = str(exc)
            else:
                reason = result.reason
            if result is not None and result.committed:
                detected = self._outage_started.pop(deployment_id, now)
                self.repairs.append(RepairRecord(
                    deployment_id=deployment_id, host=host_name,
                    detected_at=detected, resolved_at=self.sim.now,
                    action="evacuated",
                ))
                self._attempts.pop(deployment_id, None)
                self.replicator.drop(deployment_id)
                self._emit(
                    now, "evacuated", deployment_id,
                    f"-> {result.deployment_id} off {host_name}; "
                    f"restored {len(result.restored_services)} service(s)"
                    + (f", {len(result.replica_services)} from replica"
                       if result.replica_services else ""),
                )
                if obs is not None:
                    obs.metrics.counter(
                        "repro_evacuations",
                        "Crash evacuations by outcome",
                        ("provider", "outcome"),
                    ).labels(provider=self.manager.provider,
                             outcome="committed").inc()
                continue
            attempts = self._attempts.get(deployment_id, 0) + 1
            self._attempts[deployment_id] = attempts
            self._emit(
                now, "evacuation_failed", deployment_id,
                f"attempt {attempts}/"
                f"{self.policy.max_attempts}: {reason}",
            )
            if attempts >= self.policy.max_attempts:
                self._degrade(deployment_id, host_name, now)
            else:
                retry.append((deployment_id, host_name))
        self._queue.extend(retry)

    def _degrade(self, deployment_id: str, host_name: str,
                 now: float) -> None:
        """Attempt budget exhausted: protect via the VPN fallback —
        stale-state service beats policy bypass, and policy bypass
        beats nothing, but a tunnel we can always have."""
        try:
            tunnel = degrade_to_tunnel(
                self.manager, deployment_id,
                self.policy.fallback_endpoint, now,
            )
        except ReproError as exc:
            self._emit(now, "degrade_failed", deployment_id, str(exc))
            return
        self.tunnels[deployment_id] = tunnel
        # Snapshot the datapath's counters at the moment of degradation
        # (the setter just flushed its compiled pipelines), so chaos
        # runs see the fast path torn down, not just the event.
        self.manager.deployments[deployment_id].datapath.publish_counters(now)
        detected = self._outage_started.pop(deployment_id, now)
        self.repairs.append(RepairRecord(
            deployment_id=deployment_id, host=host_name,
            detected_at=detected, resolved_at=self.sim.now,
            action="degraded",
        ))
        self._attempts.pop(deployment_id, None)
        self._emit(now, "degraded", deployment_id,
                   f"VPN fallback via {self.policy.fallback_endpoint}")
        obs = obs_runtime.current()
        if obs is not None:
            obs.metrics.counter(
                "repro_evacuations",
                "Crash evacuations by outcome",
                ("provider", "outcome"),
            ).labels(provider=self.manager.provider,
                     outcome="degraded").inc()

    # -- in-place restart -------------------------------------------------

    def _restart_crashed(self, now: float) -> None:
        """Restart crashed containers on live hosts (or on no host).

        A deployment with a dead host is left to detection and
        evacuation.  Restarts count against the shared attempt budget
        until a tick sees the deployment healthy again, so a crash loop
        degrades instead of restarting forever.
        """
        queued = {deployment_id for deployment_id, _ in self._queue}
        for deployment_id in sorted(self.manager.deployments):
            deployment = self.manager.deployments[deployment_id]
            if (deployment.state is not DeploymentState.ACTIVE
                    or deployment_id in queued):
                continue
            report = health_check(self.manager, deployment_id)
            if report.dead_hosts:
                continue
            if not report.crashed_services:
                self._attempts.pop(deployment_id, None)
                self._outage_started.pop(deployment_id, None)
                continue
            self._outage_started.setdefault(deployment_id, now)
            host_name = ",".join(sorted({
                d.node for d in deployment.embedding.plan.decisions
                if d.service in report.crashed_services
            }))
            attempts = self._attempts.get(deployment_id, 0) + 1
            if attempts > self.policy.max_attempts:
                self._degrade(deployment_id, host_name, now)
                continue
            self._attempts[deployment_id] = attempts
            # No crashed container sits on a dead host here, so the
            # in-place restart cannot fail.
            result = repair_deployment(self.manager, deployment_id, now)
            self.repairs.append(RepairRecord(
                deployment_id=deployment_id, host=host_name,
                detected_at=now, resolved_at=self.sim.now,
                action="repaired",
            ))
            self._emit(
                now, "repaired", deployment_id,
                f"attempt {attempts}/{self.policy.max_attempts}: "
                f"restarted {','.join(result.restarted)}",
            )

    # -- replication ------------------------------------------------------

    def _replicate(self, now: float) -> None:
        if self.policy.replica_interval <= 0:
            return
        if now - self._last_replica < self.policy.replica_interval:
            return
        self._last_replica = now
        self.replicator.snapshot(self.manager, now)
        obs = obs_runtime.current()
        if obs is not None:
            obs.metrics.gauge(
                "repro_replica_bytes",
                "Bytes held by the state replicator",
                ("provider",),
            ).labels(provider=self.manager.provider).set(
                float(self.replicator.total_bytes)
            )

    # -- the declarative diff ---------------------------------------------

    def _converge_desired(self, now: float) -> None:
        if not self.desired.specs:
            return   # nothing declared; nothing to converge or prune
        observed: dict[str, Deployment] = {}
        for deployment_id in sorted(self.manager.deployments):
            deployment = self.manager.deployments[deployment_id]
            if deployment.state is DeploymentState.ACTIVE:
                observed.setdefault(deployment.user, deployment)
        for user in sorted(self.desired.specs):
            if user in observed:
                continue
            if any(did for did, host in self._queue
                   if self.manager.deployments.get(did) is not None
                   and self.manager.deployments[did].user == user):
                continue   # an evacuation is already in flight for them
            self._redeploy(self.desired.specs[user], now)
        for user in sorted(observed):
            if user not in self.desired.specs:
                deployment = observed[user]
                self.manager.teardown(deployment.deployment_id)
                self.replicator.drop(deployment.deployment_id)
                self._emit(now, "pruned", deployment.deployment_id,
                           f"no desired spec for {user}")

    def _redeploy(self, spec: DeploymentSpec, now: float) -> None:
        """Bring a missing user back: fresh deploy, then retire any
        degraded remnant *surgically* (its rules and containers are
        already gone — a full ``teardown`` would ``terminate_owner``
        the replacement's fresh containers too)."""
        degraded = [
            d for d in self.manager.deployments_for(spec.user)
            if d.state is DeploymentState.DEGRADED
        ]
        ack = self.manager.deploy(
            spec.request, spec.env, spec.device_node, now,
        )
        if not isinstance(ack, DeploymentAck):
            self._emit(now, "redeploy_nacked", spec.user,
                       getattr(ack, "reason", "no ack"))
            return
        for remnant in degraded:
            if self.manager.optimizer is not None:
                self.manager.optimizer.release(
                    remnant.deployment_id, now=now
                )
            remnant.state = DeploymentState.TORN_DOWN
            self.tunnels.pop(remnant.deployment_id, None)
        self.repairs.append(RepairRecord(
            deployment_id=ack.deployment_id, host="",
            detected_at=now, resolved_at=self.sim.now,
            action="redeployed",
        ))
        self._emit(now, "redeployed", spec.user,
                   f"-> {ack.deployment_id}"
                   + (f" (retired {len(degraded)} degraded remnant(s))"
                      if degraded else ""))

    # -- accounting -------------------------------------------------------

    def _emit(self, time: float, kind: str, subject: str,
              detail: str) -> None:
        self.events.append(ReconcileEvent(
            time=time, kind=kind, subject=subject, detail=detail,
        ))
        if self.ledger is not None:
            self.ledger.record_fault(
                time, self.manager.provider, subject,
                kind=f"reconcile_{kind}", detail=detail,
            )

    def events_of(self, kind: str) -> list[ReconcileEvent]:
        return [e for e in self.events if e.kind == kind]

    def repair_times(self, action: str | None = None) -> list[float]:
        return [
            r.repair_time for r in self.repairs
            if action is None or r.action == action
        ]

    def converged(self) -> bool:
        """Every desired user has an ACTIVE deployment and no
        evacuations are pending."""
        if self._queue:
            return False
        active_users = {
            d.user for d in self.manager.deployments.values()
            if d.state is DeploymentState.ACTIVE
        }
        return all(user in active_users for user in self.desired.specs)
