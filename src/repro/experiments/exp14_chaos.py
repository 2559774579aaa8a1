"""E14 — chaos: fault injection, repair, and graceful degradation.

The §3.3 availability question run as an experiment: subject one PVN
session to a scripted chaos scenario — middlebox crashes, link flaps,
a loss burst, provider silence, dropped discovery messages, and
finally the death of every NFV host — and measure whether the
robustness layer keeps the user's policies alive:

* every crash is **detected** and **repaired** while capacity remains,
* when repair becomes impossible the deployment **degrades** to the
  VPN tunneling fallback instead of silently hanging,
* the auditor's evidence ledger accounts for **100 %** of injected
  faults, and
* the whole run is **deterministic**: the experiment executes the
  scenario twice and compares normalised event-trace digests.
"""

from __future__ import annotations

import hashlib

from repro.core import PvnSession, default_pvnc
from repro.core.deployment.manager import DeploymentState
from repro.core.deployment.reconciler import ReconcilePolicy
from repro.core.discovery.retry import RetryPolicy
from repro.experiments.harness import ExperimentResult, main
from repro.faults import FaultKind, make_event, normalise_ids
from repro.netsim.packet import Packet

#: The scripted chaos scenario: three middlebox crashes, two link
#: flaps, a loss burst, provider silence, host-level chaos (heartbeat
#: loss, a control-plane partition, an abrupt host crash), and total
#: host failure — the full fault taxonomy.
CHAOS_SCRIPT = """
# -- phase 1: crashes the provider can repair in place ----------------
at 1.0 crash tls_validator
at 1.5 crash pii_detector
at 2.0 crash transcoder

# -- phase 2: the network misbehaves ----------------------------------
at 2.2 link-down agg ap1
at 2.3 link-down gw home
at 2.4 loss-burst agg core rate=0.3 duration=0.3
at 2.6 link-up agg ap1
at 2.7 link-up gw home
at 2.8 silence duration=0.5

# -- phase 3: host-level chaos the health plane must classify ---------
at 3.0 heartbeat-loss nfv0 count=2     # live host merely looks slow
at 3.1 partition nfv1 duration=0.3     # window heals; no false eviction
at 3.5 host-crash nfv1                 # abrupt death: containers + reservations gone

# -- phase 4: unrecoverable — every NFV host dies ---------------------
at 3.8 host-down nfv0
at 3.9 host-down nfv1
"""


def _execute(seed: int) -> dict:
    """One full chaos run; returns raw observations."""
    session = PvnSession.build(seed=seed)

    # Two DMs are eaten before the first flood: discovery must retry
    # with backoff to get connected at all.
    injector = session.inject_faults("")
    injector.inject_now(make_event(0.0, FaultKind.DM_DROP, count=2))
    outcome = session.connect(
        default_pvnc(), retry_policy=RetryPolicy(max_attempts=4)
    )
    assert outcome.deployed, outcome.reason
    deployment = session.provider.manager.deployments[outcome.deployment_id]

    reconciler = session.enable_robustness(
        ReconcilePolicy(interval=0.25, max_attempts=3)
    )
    session.inject_faults(CHAOS_SCRIPT)

    probe = Packet(src=outcome.connection.device_ip, dst="198.51.100.5",
                   owner=session.device.user, payload=b"probe")

    # Run through the repairable phases, probing the data path.
    session.sim.run(until=2.9)
    mid_probe = session.send(probe)
    repairs_mid = deployment.repairs

    # Run through total host failure to the degradation verdict.
    session.sim.run(until=5.0)
    end_probe = session.send(probe)

    tunnel = reconciler.tunnels.get(outcome.deployment_id)
    ledger = session.device.ledger

    # Accounting: every applied fault must appear in the audit ledger.
    recorded = {
        (r.time, r.test) for r in ledger.fault_records(session.provider.name)
    }
    accounted = sum(
        1 for a in injector.applied
        if (a.time, f"fault:{a.kind.value}") in recorded
    )

    blob = "\n".join([
        injector.trace(),
        *(f"{e.time:.6f} {e.subject} {e.kind} {e.detail}"
          for e in reconciler.events),
        *(f"{r.time:.6f} {r.deployment_id} {r.test} {r.detail}"
          for r in ledger.fault_records()),
    ])
    digest = hashlib.sha256(normalise_ids(blob).encode()).hexdigest()

    counts = injector.counts()
    return {
        "digest": digest,
        "attempts": outcome.connection.negotiation.attempts,
        "faults_injected": len(injector.applied),
        "accounted": accounted,
        "crashes": counts.get("middlebox_crash", 0),
        "host_failures": counts.get("host_down", 0),
        "flaps": min(counts.get("link_down", 0), counts.get("link_up", 0)),
        "repairs": deployment.repairs,
        "repairs_mid": repairs_mid,
        "mid_action": mid_probe.action,
        "end_action": end_probe.action,
        "end_endpoint": end_probe.tunnel_endpoint,
        "state": deployment.state,
        "degraded_to": deployment.degraded_to,
        "tunnel_rtt": (tunnel.effective_path("origin").rtt
                       if tunnel is not None else float("nan")),
        # A silent hang: a deployment still ACTIVE with a crashed
        # container the loop neither restarted nor degraded.
        "unresolved": sum(
            1 for d in session.provider.manager.deployments.values()
            if d.state is DeploymentState.ACTIVE and d.crashed_services()
        ),
    }


def run(seed: int = 0) -> ExperimentResult:
    first = _execute(seed)
    second = _execute(seed)
    deterministic = first["digest"] == second["digest"]

    r = first
    degraded = r["state"] is DeploymentState.DEGRADED
    rows = [
        ("discovery under DM loss",
         f"connected after {r['attempts']} flood attempts"),
        ("middlebox crashes",
         f"{r['crashes']} injected, {r['repairs_mid']} repairs in place"),
        ("link flaps + loss burst",
         f"{r['flaps']} flaps survived, probe {r['mid_action']}ed mid-chaos"),
        ("total NFV host failure",
         f"{r['host_failures']} hosts down -> "
         f"degraded to {r['degraded_to']!r} "
         f"(probe now {r['end_action']}s via {r['end_endpoint']})"),
        ("audit accounting",
         f"{r['accounted']}/{r['faults_injected']} injected faults in "
         "evidence ledger"),
        ("determinism",
         "two executions, identical normalised trace digests"
         if deterministic else "TRACE DIVERGED between executions"),
    ]
    metrics = {
        "faults_injected": float(r["faults_injected"]),
        "fault_accounting": (r["accounted"] / r["faults_injected"]
                             if r["faults_injected"] else 0.0),
        "middlebox_crashes": float(r["crashes"]),
        "link_flaps": float(r["flaps"]),
        "repairs": float(r["repairs"]),
        "degraded_to_tunnel": float(degraded),
        "unresolved_outages": float(r["unresolved"]),
        "discovery_attempts": float(r["attempts"]),
        "tunnel_rtt_ms": r["tunnel_rtt"] * 1e3,
        "deterministic": float(deterministic),
    }
    return ExperimentResult(
        experiment_id="E14",
        title="chaos: crash repair, link flaps, and graceful degradation "
              "to tunneling",
        columns=["chaos phase", "outcome"],
        rows=rows,
        metrics=metrics,
        notes=[
            f"trace digest {r['digest'][:16]}… (seed {seed}; normalised "
            "for process-global deployment counters)",
            "attempt budget 3: after three failed evacuations the "
            "reconciler tears down the broken chain and redirects the "
            "data path through the VPN fallback — policies survive, "
            "in-network optimisation is lost",
        ],
    )


if __name__ == "__main__":  # pragma: no cover
    main(run)
