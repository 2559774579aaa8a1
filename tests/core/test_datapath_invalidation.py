"""Cross-layer invalidation of compiled datapath state.

The compiled fast path (per-class pipelines in the PVN datapath, the
microflow cache at the ingress switch) is only safe because every
routing-mode change flushes it.  These tests pin that contract for the
transitions the migration and recovery layers perform: epoch-fence
adoption, degradation to the VPN fallback, the migration TRANSFER
bridge, and the COMMIT cutover's switch-cache fence.
"""

import pytest

from repro.core.deployment import LeaseTable, migrate_device
from repro.core.deployment.manager import DeploymentManager
from repro.core.discovery.messages import DeploymentAck, DeploymentRequest
from repro.core.pvnc import UserEnvironment
from repro.core.session import default_pvnc
from repro.netproto.dhcp import DhcpServer
from repro.netproto.dns import Resolver, TrustAnchor, Zone, ZoneSigner
from repro.netproto.tls import make_web_pki
from repro.netsim import (
    Host,
    Link,
    Packet,
    Simulator,
    Tracer,
    attach_device,
    build_access_network,
    build_wide_area,
)
from repro.nfv import NfvHost
from repro.sdn import Controller, SdnSwitch


def make_env():
    _, trust_store, _ = make_web_pki(0.0, ["x.example.com"])
    anchor = TrustAnchor()
    anchor.add_zone("example.com", b"zk")
    signer = ZoneSigner("example.com", key=b"zk")
    zone = Zone("example.com", signer=signer)
    zone.add("x.example.com", "A", "198.51.100.9")
    return UserEnvironment(
        trust_store=trust_store,
        trust_anchor=anchor,
        open_resolvers=[Resolver("open0", [zone])],
    )


@pytest.fixture
def world():
    """A deployable world with a real SDN ingress switch + controller."""
    sim = Simulator()
    topo = build_wide_area(build_access_network())
    attach_device(topo, "dev_alice")
    attach_device(topo, "dev_alice2", ap="ap1")
    switch = SdnSwitch(sim, "agg")
    controller = Controller()
    controller.adopt(switch)
    hosts = {n: NfvHost(n) for n in topo.nodes_of_kind("nfv")}
    tracer = Tracer()
    manager = DeploymentManager(
        provider="isp", topo=topo, hosts=hosts, sim=sim,
        controller=controller, tracer=tracer,
        dhcp=DhcpServer("10.10.0.0/16", pvn_server="pvn.isp"),
    )
    return sim, switch, controller, manager, tracer


@pytest.fixture
def deployed(world):
    sim, switch, controller, manager, tracer = world
    pvnc = default_pvnc()
    request = DeploymentRequest(
        device_id="alice:mac", offer_id=1, pvnc=pvnc,
        accepted_services=pvnc.used_services(), payment=10.0,
    )
    ack = manager.deploy(request, make_env(), "dev_alice", now=sim.now)
    assert isinstance(ack, DeploymentAck), getattr(ack, "reason", "")
    return world, ack


def alice_packet(**kwargs):
    defaults = dict(src="10.0.0.1", dst="198.51.100.9", dst_port=80,
                    owner="alice", size=400)
    defaults.update(kwargs)
    return Packet(**defaults)


class TestPipelineInvalidation:
    def test_epoch_advance_flushes_compiled_pipelines(self, deployed):
        (sim, *_), ack = deployed
        manager = deployed[0][3]
        datapath = manager.deployment(ack.deployment_id).datapath
        datapath.process(alice_packet(), now=sim.now)
        compiled = datapath.pipeline_compiles
        assert compiled >= 1
        invalidated = datapath.pipeline_invalidations

        datapath.epoch = datapath.epoch + 1
        assert datapath.pipeline_invalidations == invalidated + 1
        # The next packet recompiles against the new epoch.
        datapath.process(alice_packet(), now=sim.now)
        assert datapath.pipeline_compiles > compiled

    def test_degraded_to_tunnel_invalidates_and_redirects(self, deployed):
        (sim, *_), ack = deployed
        manager = deployed[0][3]
        datapath = manager.deployment(ack.deployment_id).datapath
        datapath.process(alice_packet(), now=sim.now)
        invalidated = datapath.pipeline_invalidations

        datapath.degraded_to = "cloud"
        assert datapath.pipeline_invalidations == invalidated + 1
        outcome = datapath.process(alice_packet(), now=sim.now)
        assert outcome.action == "tunnel"
        assert outcome.tunnel_endpoint == "cloud"
        assert outcome.verdict_reasons == ("degraded:tunnel",)
        # Setting the same endpoint again is a no-op, not a re-flush.
        datapath.degraded_to = "cloud"
        assert datapath.pipeline_invalidations == invalidated + 1

    def test_bridge_open_and_close_each_invalidate(self, deployed):
        (sim, *_), ack = deployed
        manager = deployed[0][3]
        datapath = manager.deployment(ack.deployment_id).datapath
        datapath.process(alice_packet(), now=sim.now)
        invalidated = datapath.pipeline_invalidations

        datapath.bridging_to = "cloud"
        assert datapath.pipeline_invalidations == invalidated + 1
        outcome = datapath.process(alice_packet(), now=sim.now)
        assert outcome.verdict_reasons == ("migrating:bridge",)
        datapath.bridging_to = ""
        assert datapath.pipeline_invalidations == invalidated + 2
        # Back to normal processing after the bridge closes.
        outcome = datapath.process(alice_packet(), now=sim.now)
        assert outcome.action != "tunnel"

    def test_counters_publish_through_manager_tracer(self, deployed):
        (sim, _, _, manager, tracer), ack = deployed
        datapath = manager.deployment(ack.deployment_id).datapath
        datapath.process(alice_packet(), now=sim.now)
        datapath.publish_counters(sim.now)
        record = tracer.latest("datapath", ack.deployment_id)
        assert record is not None
        assert record.get("packets_processed") == 1
        assert record.get("pipeline_compiles") >= 1


class TestMigrationFencesSwitchCache:
    def test_commit_adopts_epoch_fence_token(self, deployed):
        (sim, switch, controller, manager, _), ack = deployed
        # Warm the microflow cache with a non-PVN flow (negative entry).
        switch.process(alice_packet(owner="bob"))
        assert len(switch.flow_cache) == 1

        leases = LeaseTable()
        leases.fund(ack.deployment_id, until=500.0)
        source = manager.deployment(ack.deployment_id)
        result = migrate_device(manager, ack.deployment_id, "dev_alice2",
                                now=sim.now, leases=leases)
        assert result.committed

        # The cutover flushed everything cached at the ingress switch...
        assert len(switch.flow_cache) == 0
        assert switch.flow_cache.invalidations >= 1
        # ...and adopted the (lineage, epoch) fence token: re-fencing
        # with the committed token is a no-op, a later epoch flushes.
        flushes = switch.flow_cache.flushes
        switch.flow_cache.fence((source.lineage_id, result.epoch),
                                now=sim.now)
        assert switch.flow_cache.flushes == flushes
        switch.process(alice_packet(owner="bob"))
        switch.flow_cache.fence((source.lineage_id, result.epoch + 1),
                                now=sim.now)
        assert len(switch.flow_cache) == 0

    def test_owner_traffic_reaches_target_after_commit(self, deployed):
        (sim, switch, _, manager, _), ack = deployed
        core = Host(sim, "core", "10.255.0.1")
        Link(switch, core, latency=0.001, bandwidth_bps=1e9)
        source = manager.deployment(ack.deployment_id)
        # Warm both cache tiers with an entry steering into the source.
        switch.process(alice_packet())
        assert source.datapath.packets_processed == 1

        result = migrate_device(manager, ack.deployment_id, "dev_alice2",
                                now=sim.now)
        assert result.committed
        target = manager.deployment(result.deployment_id)
        switch.process(alice_packet(src_port=40001))
        assert target.datapath.packets_processed == 1
        assert source.datapath.packets_processed == 1
        assert source.datapath.stale_rejections == 0
        sim.run()
        assert len(core.delivered) == 2
        assert switch.packets_received == switch.packets_forwarded == 2
        assert switch.packets_received == (
            switch.packets_forwarded + switch.packets_dropped
            + switch.packets_punted + switch.packets_consumed
        )

    def test_stale_source_still_rejects_after_cutover(self, deployed):
        (sim, _, _, manager, _), ack = deployed
        result = migrate_device(manager, ack.deployment_id, "dev_alice2",
                                now=sim.now)
        assert result.committed
        source = manager.deployment(ack.deployment_id)
        outcome = source.datapath.process(alice_packet(), now=sim.now)
        assert outcome.verdict_reasons == ("fencing:stale_epoch",)
        assert source.datapath.stale_rejections == 1
        # The surviving target processes normally, on fresh pipelines.
        target = manager.deployment(result.deployment_id)
        outcome = target.datapath.process(alice_packet(), now=sim.now)
        assert outcome.verdict_reasons != ("fencing:stale_epoch",)
        assert target.datapath.pipeline_compiles >= 1
