"""``attach``: closed-loop device attaches against one access provider.

One caller at a time, like ``PvnSession.connect``: each arriving
device runs ``Device.attach`` then ``Device.establish_pvn`` (compile,
negotiate, embed, admit, install, attest, DHCP refresh) and the next
device waits for it.  A seeded share of arrivals are first-time devices
whose attach adds a topology node; the rest return on a node that
already exists.  Departures go through ``DeploymentManager.teardown``
and hold the live population at ``live_target``, below the provider's
NFV admission limit.

Each round builds a fresh provider (set-up) and replays the same
seeded arrival sequence, so every round does identical work and the
outcome digest must repeat exactly.
"""

from __future__ import annotations

import ipaddress
import random
import re
from collections import Counter
from pathlib import Path

from repro.core.deployment.manager import DeploymentState
from repro.core.device import Device
from repro.core.provider import AccessProvider
from repro.core.pvnc.compiler import UserEnvironment, reset_compile_cache
from repro.core.pvnc.dsl import parse_pvnc
from repro.netproto.dns import Resolver, TrustAnchor, Zone, ZoneSigner
from repro.netproto.tls import make_web_pki
from repro.netsim.simulator import Simulator

from pvnbench.common import (
    RoundResult,
    clock,
    control_plane_counts,
    digest_of,
    policy_texts,
)

#: Share of arrivals that are first-time devices (a new topology node).
FIRST_TIME_SHARE = 0.5


class AttachWorkload:
    """Seeded arrivals of ``arrivals`` attach attempts per round."""

    def __init__(self, seed: int, root: Path, arrivals: int = 400,
                 live_target: int = 40) -> None:
        self.seed = seed
        self.arrivals = arrivals
        self.live_target = live_target
        self.templates = policy_texts(root)

    # -- set-up -------------------------------------------------------------

    def setup(self) -> dict:
        """The provider, the web PKI and DNS trust the devices carry."""
        reset_compile_cache()
        sim = Simulator()
        provider = AccessProvider("isp-bench", sim=sim, seed=self.seed)
        _, trust_store, _ = make_web_pki(
            sim.now, ["bank.example.com", "news.example.com"])
        signer = ZoneSigner("example.com", key=b"zone:example.com")
        zone = Zone("example.com", signer=signer)
        zone.add("bank.example.com", "A", "198.51.100.5")
        anchor = TrustAnchor()
        anchor.add_zone("example.com", b"zone:example.com")
        env = UserEnvironment(
            trust_store=trust_store, trust_anchor=anchor,
            open_resolvers=[Resolver(f"open{i}", [zone]) for i in range(3)],
        )
        return {"provider": provider, "env": env}

    # -- the timed round ------------------------------------------------------

    def play(self, world: dict) -> RoundResult:
        provider: AccessProvider = world["provider"]
        env: UserEnvironment = world["env"]
        manager = provider.manager
        rng = random.Random(self.seed)
        # Exact shares, seeded order: which arrivals are first-time
        # devices is shuffled per seed, how many is not, and the two
        # policies alternate over devices.
        first_time = [arrival < self.arrivals * FIRST_TIME_SHARE
                      for arrival in range(self.arrivals)]
        rng.shuffle(first_time)
        names = sorted(self.templates)
        rng.shuffle(names)
        devices: list[Device] = []
        pvncs = []
        offline: list[int] = []
        live: list[int] = []
        latency_s: list[float] = []
        step_s: list[float] = []
        outcomes: list[tuple] = []
        successes: list[tuple] = []
        failed = 0
        reasons: Counter = Counter()

        step_start = clock()
        for arrival in range(self.arrivals):
            if not offline or first_time[arrival]:
                index = len(devices)
                user = f"user{index}"
                devices.append(Device(
                    user=user, mac=_mac(index), env=env,
                    node_name=f"dev{index}"))
                template = self.templates[names[index % len(names)]]
                pvncs.append(parse_pvnc(template.format(user=user)))
            else:
                index = offline.pop(rng.randrange(len(offline)))
            device = devices[index]

            op_start = clock()
            reason = ""
            try:
                device.attach(provider)
                connection = device.establish_pvn([provider], pvncs[index])
            except Exception as exc:  # every failure is counted, not fatal
                connection = None
                reason = f"{type(exc).__name__}: {exc}"
            else:
                if not connection.attestation_verified:
                    reason = "attestation not verified"
            elapsed = clock() - op_start

            if reason:
                failed += 1
                offline.append(index)
                reason = _normalise(reason)
                reasons[reason] += 1
                outcomes.append((arrival, index, reason))
            else:
                latency_s.append(elapsed)
                live.append(index)
                deployment = connection.deployment
                successes.append((connection.attestation_verified,
                                  connection.device_ip, deployment.subnet))
                outcomes.append((arrival, index, "ok", connection.device_ip,
                                 list(connection.services)))
            while len(live) > self.live_target:
                leaving = live.pop(rng.randrange(len(live)))
                gone = devices[leaving]
                manager.teardown(gone.connection.deployment_id)
                gone.connection = None
                offline.append(leaving)
            now = clock()
            step_s.append(now - step_start)
            step_start = now

        live_containers = sum(h.container_count
                              for h in provider.hosts.values())
        owned = sum(len(d.containers) for d in manager.deployments.values()
                    if d.state is DeploymentState.ACTIVE)
        return RoundResult(
            attempted=self.arrivals,
            failed=failed,
            work=self.arrivals - failed,
            step_s=step_s,
            latency_s=latency_s,
            digest=digest_of(outcomes),
            record={"successes": successes, "reasons": dict(reasons)},
            counts={
                "leaked_containers": live_containers - owned,
                "topology_nodes": provider.topo.graph.number_of_nodes(),
                **control_plane_counts(manager),
            },
        )


def check(record: dict) -> list[str]:
    """Every successful attach has a verified attestation and a lease
    inside its PVN's subnet."""
    problems = []
    for verified, ip, subnet in record["successes"]:
        if not verified:
            problems.append(f"attach leased {ip} without verified attestation")
        if ipaddress.ip_address(ip) not in ipaddress.ip_network(subnet):
            problems.append(f"lease {ip} lies outside PVN subnet {subnet}")
    if not record["successes"]:
        problems.append("no attach succeeded")
    return problems


def _mac(index: int) -> str:
    return "02:00:" + ":".join(
        f"{(index >> shift) & 0xFF:02x}" for shift in (24, 16, 8, 0))


def _normalise(reason: str) -> str:
    """Failure reasons without process-global deployment numbers."""
    return re.sub(r"/pvn\d+", "/pvn#", reason)
