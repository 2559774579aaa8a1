"""End-to-end graceful degradation: kill the provider's NFV layer
mid-session and verify traffic continues through the VPN fallback
while the auditor keeps the evidence."""

import pytest

from repro.core import PvnSession, default_pvnc
from repro.core.deployment.lifecycle import degrade_to_tunnel
from repro.core.deployment.manager import DeploymentState
from repro.core.deployment.reconciler import ReconcilePolicy
from repro.errors import DeploymentError
from repro.netsim.packet import Packet


@pytest.fixture
def session():
    session = PvnSession.build(seed=2)
    outcome = session.connect(default_pvnc())
    assert outcome.deployed, outcome.reason
    session.outcome = outcome
    return session


def probe(session):
    return session.send(Packet(
        src=session.outcome.connection.device_ip,
        dst="198.51.100.5", owner=session.device.user, payload=b"probe",
    ))


class TestDegradationEndToEnd:
    def test_total_middlebox_loss_degrades_but_traffic_flows(self, session):
        deployment_id = session.outcome.deployment_id
        deployment = session.provider.manager.deployments[deployment_id]
        assert probe(session).action == "forward"

        reconciler = session.enable_robustness(
            ReconcilePolicy(interval=0.25, max_attempts=3,
                            fallback_endpoint="cloud")
        )
        # Every provider middlebox dies: both NFV hosts fail, so the
        # chain can neither restart in place nor evacuate anywhere.
        session.inject_faults(
            "at 1.0 host-down nfv0\nat 1.0 host-down nfv1"
        )
        session.sim.run(until=4.0)

        assert deployment.state is DeploymentState.DEGRADED
        assert deployment.degraded_to == "cloud"
        # The session keeps working: packets now ride the tunnel.
        result = probe(session)
        assert result.action == "tunnel"
        assert result.tunnel_endpoint == "cloud"
        assert "degraded:tunnel" in result.verdict_reasons

        # The fallback tunnel is a real path through the topology.
        tunnel = reconciler.tunnels[deployment_id]
        path = tunnel.effective_path("origin")
        assert path.rtt > 0 and path.bandwidth_bps > 0

        # The reconciler tried the full attempt budget first.
        failed = [e for e in reconciler.events_of("evacuation_failed")
                  if e.subject == deployment_id]
        assert len(failed) == 3
        assert [r.action for r in reconciler.repairs
                if r.deployment_id == deployment_id] == ["degraded"]
        assert not any(
            d.state is DeploymentState.ACTIVE and d.crashed_services()
            for d in session.provider.manager.deployments.values()
        )

    def test_auditor_holds_the_full_evidence_trail(self, session):
        session.enable_robustness(
            ReconcilePolicy(interval=0.25, max_attempts=2)
        )
        session.inject_faults(
            "at 1.0 host-down nfv0\nat 1.0 host-down nfv1"
        )
        session.sim.run(until=3.0)

        ledger = session.device.ledger
        tests = {r.test for r in ledger.fault_records(session.provider.name)}
        # Injected faults, the detection/evacuation attempts, and the
        # final degradation are all on the record.
        assert "fault:host_down" in tests
        assert "fault:reconcile_host_dead" in tests
        assert "fault:reconcile_evacuation_failed" in tests
        assert "fault:reconcile_degraded" in tests
        # None of it pollutes the policy-violation evidence.
        assert ledger.violation_count(session.provider.name) == 0

    def test_evacuation_wins_when_capacity_survives(self, session):
        deployment_id = session.outcome.deployment_id
        reconciler = session.enable_robustness(
            ReconcilePolicy(interval=0.25)
        )
        # Only one host dies; the other can absorb the evacuation.
        session.inject_faults("at 1.0 host-down nfv0")
        session.sim.run(until=3.0)
        # The connection follows its lineage to the survivor.
        assert probe(session).action == "forward"
        survivor = session.device.connection.deployment
        assert survivor.deployment_id != deployment_id
        assert survivor.lineage == deployment_id
        assert survivor.state is DeploymentState.ACTIVE
        assert survivor.crashed_services() == ()
        [evacuated] = reconciler.events_of("evacuated")
        assert evacuated.subject == deployment_id
        assert "from replica" in evacuated.detail
        assert [r.action for r in reconciler.repairs] == ["evacuated"]

    def test_connection_follows_rolled_forward_migration(self, session):
        """A COMMIT-silenced migration leaves the session on its fenced
        source; once the loop rolls the journal forward, sends reach
        the target instead of dropping on the stale epoch."""
        source_id = session.outcome.deployment_id
        reconciler = session.enable_robustness(
            ReconcilePolicy(interval=0.25)
        )
        manager = session.provider.manager
        manager.migration_coordinator.arm_commit_silence(duration=0.5)
        result = session.migrate("dev_alice_ap1", ap="ap1")
        assert result.pending and not result.committed
        session.sim.run_for(0.5)
        assert reconciler.events_of("migration_rolled_forward")
        assert manager.deployment(source_id).state \
            is DeploymentState.SUPERSEDED

        outcome = probe(session)
        assert outcome.action == "forward"
        assert "fencing:stale_epoch" not in outcome.verdict_reasons
        [target] = [d for d in manager.deployments_for("alice")
                    if d.state is DeploymentState.ACTIVE]
        assert target.lineage == source_id
        assert session.device.connection.deployment is target
        assert session.device.connection.deployment_id == \
            target.deployment_id

    def test_cannot_degrade_a_torn_down_deployment(self, session):
        deployment_id = session.outcome.deployment_id
        session.teardown()
        with pytest.raises(DeploymentError, match="torn-down"):
            degrade_to_tunnel(session.provider.manager, deployment_id,
                              "cloud", now=session.sim.now)
