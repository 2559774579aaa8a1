"""``traffic``: open-loop flows through a live switched PVN network.

The network is the live data plane of the integration tests, rebuilt
from public classes: device ``Host`` -> ``SdnSwitch`` agg -> ``SdnSwitch``
core -> gateway ``Host``, both switches under one ``Controller``, and a
``DeploymentManager(controller=...)`` that steers each PVN owner's
packets through its chain at agg.  ``pvns`` PVNs are deployed in
set-up with the same policy mix as ``attach``.

Flows arrive as a Poisson process in simulated time.  Their kinds and
lengths come from ``repro.workloads.traffic.synth_flows``: many 1-packet
DNS and short API flows, and a few long video flows.  Each flow sends
MTU packets at ``FLOW_RATE_BPS`` until it ends or the arrival window
closes.  Arrivals and packets are scheduled lazily (each schedules the
next), so the event heap holds in-flight work, not the whole schedule.
A seeded share of flows belongs to owners with no PVN.  A slow churn
tears down and redeploys one PVN at a time during traffic, which fires
the flow-cache fences and re-runs placement on a fixed topology.

Payloads by flow class (packets travel device -> gateway; the PVN
chain matches on the packet owner, not the direction):

* ``https`` flows open with a TLS handshake, valid or (a seeded share)
  forged by ``MitmInterceptor``, then carry opaque TLS records;
* cleartext ``web`` flows open with a GET and carry text responses;
* cleartext ``app_api`` and ``iot`` flows POST bodies, a seeded share
  of which carry PII;
* ``video`` flows carry cleartext media segments, so the video chain
  (transcoder, proxy) has work; an access network can only transcode
  what it can read;
* ``dns`` flows carry one signed DNS response.
"""

from __future__ import annotations

import dataclasses
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np

from repro.core.deployment.manager import DeploymentManager
from repro.core.discovery.messages import DeploymentAck, DeploymentRequest
from repro.core.pvnc.compiler import UserEnvironment, reset_compile_cache
from repro.core.pvnc.dsl import parse_pvnc
from repro.middleboxes.pii_detector import PII_PATTERNS
from repro.netproto.dns import DnsQuery, Resolver, TrustAnchor, Zone, ZoneSigner
from repro.netproto.http import (
    CONTENT_TEXT,
    CONTENT_VIDEO,
    HttpRequest,
    HttpResponse,
)
from repro.netproto.tls import CertificateAuthority, MitmInterceptor, make_web_pki
from repro.netsim import Host, Link, Packet, Simulator
from repro.netsim.topology import PhysicalTopology
from repro.nfv import NfvHost
from repro.sdn import Controller, SdnSwitch
from repro.workloads.traffic import DEFAULT_MIX, synth_flows

from pvnbench.common import (
    RoundResult,
    clock,
    control_plane_counts,
    digest_of,
    policy_texts,
)

MTU = 1500
DEVICE_IP = "10.10.0.2"
GATEWAY = "gw"
FLOW_RATE_BPS = 2e6         # each flow's sending rate
GUEST_SHARE = 0.15          # flows of owners without a PVN
FORGED_SHARE = 0.2          # https flows that open with a forged chain
PII_SHARE = 0.3             # cleartext app_api/iot flows carrying PII
CHURN_EVERY_S = 0.0125      # one PVN redeploy per this much traffic
BLOCK_EVENTS = 32           # simulator events per timed step


@dataclasses.dataclass(frozen=True)
class FlowPlan:
    """One scheduled flow: when, whose, what, how many packets."""

    index: int
    start: float
    owner: str
    pvn_owner: bool
    kind: str
    https: bool
    n_packets: int
    forged: bool
    pii: bool


class TrafficWorkload:
    """``flows_per_s`` x ``window_s`` flows over ``pvns`` live PVNs."""

    def __init__(self, seed: int, root: Path, pvns: int = 12,
                 window_s: float = 0.5, flows_per_s: float = 1200.0) -> None:
        self.seed = seed
        self.pvns = pvns
        self.window_s = window_s
        self.templates = policy_texts(root)
        rng = np.random.default_rng(seed)
        pick = random.Random(seed)
        # The policies alternate over the PVNs (seeded order): their
        # chains cost differently per packet, so a seeded share would
        # make the seed move the per-packet cost.
        names = sorted(self.templates)
        pick.shuffle(names)
        self.policy_of = [names[i % len(names)] for i in range(pvns)]
        self.plans = self._plan(rng, pick, flows_per_s)

    def _plan(self, rng, pick, flows_per_s) -> list[FlowPlan]:
        """The round's flows: a Poisson process conditioned on its count,
        so arrival instants are uniform over the window.  Each kind gets
        exactly its ``DEFAULT_MIX`` share of the flows and its lengths
        from ``synth_flows``; exactly ``GUEST_SHARE`` of the owners are guests.
        Fixing the shares keeps the per-packet work comparable across
        seeds while the seed still decides every length and instant."""
        n = max(len(DEFAULT_MIX), round(flows_per_s * self.window_s))
        specs = []
        for kind, weight in DEFAULT_MIX:
            specs += synth_flows(rng, n_flows=max(1, round(n * weight)),
                                 mix=((kind, 1.0),))
        pick.shuffle(specs)
        starts = np.sort(rng.uniform(0.0, self.window_s, size=len(specs)))
        guests = [i < len(specs) * GUEST_SHARE for i in range(len(specs))]
        pick.shuffle(guests)
        plans = []
        for index, (spec, start, guest) in enumerate(
                zip(specs, starts.tolist(), guests)):
            owner = (f"guest{pick.randrange(8)}" if guest
                     else f"pvnuser{pick.randrange(self.pvns)}")
            https = spec.https and spec.kind != "video"
            plans.append(FlowPlan(
                index=index, start=start, owner=owner, pvn_owner=not guest,
                kind=spec.kind, https=https,
                n_packets=max(1, math.ceil(spec.size_bytes / MTU)),
                forged=https and pick.random() < FORGED_SHARE,
                pii=(not https and spec.kind in ("app_api", "iot")
                     and pick.random() < PII_SHARE),
            ))
        return plans

    # -- set-up -------------------------------------------------------------

    def setup(self) -> dict:
        reset_compile_cache()
        sim = Simulator()
        topo = PhysicalTopology("bench-live")
        topo.add_node("dev", kind="host")
        topo.add_node("agg", kind="switch")
        topo.add_node("core", kind="switch")
        topo.add_node(GATEWAY, kind="server")
        topo.add_node("nfv0", kind="nfv")
        topo.add_link("dev", "agg", 0.002, 1e9)
        topo.add_link("agg", "core", 0.001, 10e9)
        topo.add_link("core", GATEWAY, 0.001, 10e9)
        topo.add_link("nfv0", "agg", 0.0005, 10e9)

        device = Host(sim, "dev", DEVICE_IP)
        gateway = Host(sim, GATEWAY, "10.10.255.1")
        agg = SdnSwitch(sim, "agg")
        core = SdnSwitch(sim, "core")
        Link(device, agg, latency=0.002, bandwidth_bps=1e9)
        Link(agg, core, latency=0.001, bandwidth_bps=10e9)
        Link(core, gateway, latency=0.001, bandwidth_bps=10e9)
        controller = Controller()
        controller.adopt(agg)
        controller.adopt(core)
        controller.install_default_route("agg", "0.0.0.0/0", "core")
        controller.install_default_route("core", "0.0.0.0/0", GATEWAY)

        manager = DeploymentManager(
            provider="bench-live", topo=topo, hosts={"nfv0": NfvHost("nfv0")},
            controller=controller, sim=sim,
        )
        _, trust_store, servers = make_web_pki(
            sim.now, ["bank.example.com", "video.example.com"])
        signer = ZoneSigner("example.com", key=b"zone:example.com")
        zone = Zone("example.com", signer=signer)
        zone.add("bank.example.com", "A", "198.51.100.5")
        anchor = TrustAnchor()
        anchor.add_zone("example.com", b"zone:example.com")
        env = UserEnvironment(trust_store=trust_store, trust_anchor=anchor)
        mitm = MitmInterceptor("evil", CertificateAuthority("Evil", b"e"),
                               now=sim.now)
        valid = servers["bank.example.com"].respond("bank.example.com")
        world = {
            "sim": sim, "device": device, "gateway": gateway,
            "switches": (agg, core), "manager": manager, "env": env,
            "deployments": {},
            "payloads": {
                "tls_valid": valid,
                "tls_forged": mitm.intercept(valid),
                "dns": Resolver("bench", [zone]).resolve(
                    DnsQuery("bank.example.com")),
                "video": HttpResponse(body=bytes(range(256)) * 5,
                                      content_type=CONTENT_VIDEO),
                "text": HttpResponse(
                    body=b"<p>the quick brown fox jumps</p>" * 36,
                    content_type=CONTENT_TEXT),
            },
        }
        for index in range(self.pvns):
            self._deploy(world, index)
        return world

    def _deploy(self, world: dict, index: int) -> None:
        user = f"pvnuser{index}"
        pvnc = parse_pvnc(self.templates[self.policy_of[index]].format(
            user=user))
        request = DeploymentRequest(
            device_id=f"{user}:dev", offer_id=index, pvnc=pvnc,
            accepted_services=pvnc.used_services(), payment=10.0)
        ack = world["manager"].deploy(request, world["env"], "dev",
                                      now=world["sim"].now)
        if not isinstance(ack, DeploymentAck):
            raise RuntimeError(f"set-up deploy NACKed: {ack.reason}")
        world["deployments"][index] = ack.deployment_id

    # -- the timed round ------------------------------------------------------

    def play(self, world: dict) -> RoundResult:
        sim: Simulator = world["sim"]
        device: Host = world["device"]
        gateway: Host = world["gateway"]
        manager: DeploymentManager = world["manager"]
        payloads = world["payloads"]
        plans = self.plans
        gap = MTU * 8 / FLOW_RATE_BPS
        window = self.window_s
        pending: list[tuple[FlowPlan, int, Packet]] = []
        per_flow = [[0, 0, 0] for _ in plans]   # delivered, policy, lost
        checks: Counter = Counter()
        injected = [0]

        def settle(keep_in_flight: bool) -> None:
            still = []
            for item in pending:
                plan, seq, packet = item
                if packet.delivered_at is not None:
                    continue        # the gateway handler accounted it
                if packet.dropped and "(pvn " in packet.drop_reason:
                    per_flow[plan.index][1] += 1
                    _classify_drop(plan, seq, checks)
                elif keep_in_flight and not packet.dropped:
                    still.append(item)
                else:
                    per_flow[plan.index][2] += 1
                    checks["lost"] += 1
            pending[:] = still

        def on_gateway(packet: Packet) -> None:
            plan, seq, sent = packet.metadata["bench"]
            per_flow[plan.index][0] += 1
            _classify_delivery(plan, seq, packet, sent, checks)
            gateway.delivered.clear()

        gateway.bind_default(on_gateway)

        def send(plan: FlowPlan, seq: int) -> None:
            payload = _payload(plan, seq, payloads)
            packet = Packet(
                src=DEVICE_IP, dst="198.51.100.9",
                protocol="udp" if plan.kind == "dns" else "tcp",
                src_port=20_000 + plan.index % 40_000,
                dst_port=(53 if plan.kind == "dns"
                          else 443 if plan.https else 80),
                size=MTU if plan.kind != "dns" else 120,
                payload=payload, flow_id=plan.index + 1, owner=plan.owner,
            )
            body = getattr(payload, "body", None)
            packet.metadata["bench"] = (plan, seq, (payload, body))
            pending.append((plan, seq, packet))
            injected[0] += 1
            device.originate(packet, via="agg")
            if len(pending) >= 4096:
                settle(keep_in_flight=True)
            following = sim.now + gap
            if seq + 1 < plan.n_packets and following < window:
                sim.schedule_at(following, send, plan, seq + 1)

        def arrive(position: int) -> None:
            plan = plans[position]
            send(plan, 0)
            if position + 1 < len(plans):
                sim.schedule_at(plans[position + 1].start, arrive,
                                position + 1)

        churned = [0]

        def churn(tick: int) -> None:
            index = tick % self.pvns
            manager.teardown(world["deployments"][index])
            self._deploy(world, index)
            churned[0] += 1
            if sim.now + CHURN_EVERY_S < window:
                sim.schedule(CHURN_EVERY_S, churn, tick + 1)

        setup_counts = control_plane_counts(manager)
        # Set-up runs no events, so the round starts at simulated time 0.
        sim.schedule_at(plans[0].start, arrive, 0)
        sim.schedule_at(CHURN_EVERY_S, churn, 0)
        blocks: list[float] = []
        last = clock()
        # Until the heap drains, so every injected packet terminates.
        while sim.pending_events:
            sim.run(max_events=BLOCK_EVENTS)
            now = clock()
            blocks.append(now - last)
            last = now
        settle(keep_in_flight=False)

        agg, core = world["switches"]
        switch_counters = {sw.name: sw.counters() for sw in (agg, core)}
        delivered = sum(f[0] for f in per_flow)
        policy = sum(f[1] for f in per_flow)
        lost = injected[0] - delivered - policy
        return RoundResult(
            attempted=injected[0],
            failed=lost,
            work=delivered + policy,
            step_s=blocks,
            latency_s=blocks[:-1],      # the last block is a remainder
            digest=digest_of({
                "flows": per_flow,
                "switches": switch_counters,
                "checks": sorted(checks.items()),
                "churned": churned[0],
            }),
            record={"switches": switch_counters, "checks": dict(checks)},
            counts=_layer_counts(world, injected[0], setup_counts),
        )


def _layer_counts(world: dict, injected: int,
                  setup_counts: dict[str, float]) -> dict[str, float]:
    """Public counters over the timed region (set-up's deploys excluded)."""
    counts: dict[str, float] = {
        "packets": injected,
        "events": world["sim"].processed_events,
    }
    for key, value in control_plane_counts(world["manager"]).items():
        counts[key] = value - setup_counts[key]
    for switch in world["switches"]:
        for field, value in switch.counters().items():
            counts[f"switch_{field}"] = counts.get(f"switch_{field}", 0) + value
        micro, mega = switch.flow_cache, switch.megaflow_cache
        for tier, cache in (("micro", micro), ("mega", mega)):
            counts[f"{tier}_hits"] = counts.get(f"{tier}_hits", 0) + cache.hits
            counts[f"{tier}_lookups"] = (counts.get(f"{tier}_lookups", 0)
                                         + cache.hits + cache.misses)
        counts["cache_invalidations"] = (counts.get("cache_invalidations", 0)
                                         + micro.invalidations
                                         + mega.invalidations)
        counts["full_scans"] = (counts.get("full_scans", 0)
                                + switch.full_classifications)
        for link in switch.links.values():
            counts["link_drops"] = (counts.get("link_drops", 0)
                                    + link.stats_from(switch).lost)
    device = world["device"]
    for link in device.links.values():
        counts["link_drops"] += link.stats_from(device).lost
    return counts


def _payload(plan: FlowPlan, seq: int, payloads: dict):
    kind = plan.kind
    if kind == "dns":
        return payloads["dns"]
    if plan.https:
        if seq == 0:
            return payloads["tls_forged" if plan.forged else "tls_valid"]
        return HttpRequest("POST", "bank.example.com", "/api",
                           body=b"ciphertext", https=True)
    if kind == "video":
        return payloads["video"]
    if kind == "web":
        if seq == 0:
            return HttpRequest("GET", "news.example.com", "/story")
        return payloads["text"]
    body = (b"action=sync&email=user%d@mail.example.com" % seq if plan.pii
            else b"action=sync&state=%d" % seq)
    return HttpRequest("POST", "api.example.com", "/sync", body=body)


def _has_pii(body: bytes) -> bool:
    return any(pattern.search(body) for pattern in PII_PATTERNS.values())


def _classify_delivery(plan: FlowPlan, seq: int, packet: Packet, sent,
                       checks: Counter) -> None:
    """Account one packet the gateway received."""
    payload = packet.payload
    if not plan.pvn_owner:
        sent_payload, sent_body = sent
        untouched = (payload is sent_payload
                     and getattr(payload, "body", None) == sent_body
                     and "traffic_class" not in packet.metadata)
        checks["guest_untouched" if untouched else "guest_modified"] += 1
        return
    if plan.forged and seq == 0:
        checks["forged_delivered"] += 1
    if plan.pii:
        body = getattr(payload, "body", b"")
        checks["pii_raw" if _has_pii(body) else "pii_scrubbed"] += 1


def _classify_drop(plan: FlowPlan, seq: int, checks: Counter) -> None:
    """Account one packet a PVN chain dropped by policy."""
    if not plan.pvn_owner:
        checks["guest_modified"] += 1
    elif plan.forged and seq == 0:
        checks["forged_dropped"] += 1
    elif plan.pii:
        checks["pii_dropped"] += 1
    else:
        checks["other_policy_drop"] += 1


def check(record: dict) -> list[str]:
    """Switch conservation, no raw PII from PVN owners at the gateway,
    every forged TLS response to a PVN owner dropped, guests untouched."""
    problems = []
    for name, c in sorted(record["switches"].items()):
        out = c["forwarded"] + c["dropped"] + c["punted"] + c["consumed"]
        if c["received"] != out:
            problems.append(f"switch {name}: received {c['received']} != "
                            f"forwarded+dropped+punted+consumed {out}")
    checks = record["checks"]
    if checks.get("pii_raw", 0):
        problems.append(f"{checks['pii_raw']} PVN-owner packets reached "
                        "the gateway with raw PII")
    if checks.get("forged_delivered", 0):
        problems.append(f"{checks['forged_delivered']} forged TLS "
                        "responses reached a PVN owner's gateway path")
    if checks.get("guest_modified", 0):
        problems.append(f"{checks['guest_modified']} packets of owners "
                        "without a PVN were modified or dropped")
    for needed in ("forged_dropped", "guest_untouched"):
        if not checks.get(needed, 0):
            problems.append(f"the round exercised no {needed} case")
    if not (checks.get("pii_scrubbed", 0) + checks.get("pii_dropped", 0)):
        problems.append("the round exercised no PII case")
    return problems
