"""Per-layer attribution for the traced run.

The benchmark wraps the public entry points of each layer, at the name
each caller looks up, from its own code: no file under ``src/`` is
edited.  Wrapped calls nest, so a layer's self time is its duration
minus the time of the wrapped calls inside it.  Spans are aggregated
per layer name (calls, total, self) as they close, rather than kept
one by one, so a traced run holds no per-packet state.
"""

from __future__ import annotations

import functools
import time
from typing import Callable

#: Wall clock for spans: nested spans must share one clock, and CPU-time
#: reads cost several times more per call than ``perf_counter``.
_span_clock = time.perf_counter


class LayerStats:
    """Calls, total seconds, and seconds spent in wrapped children."""

    __slots__ = ("calls", "total", "child")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.child = 0.0

    @property
    def self_s(self) -> float:
        return self.total - self.child


class SpanRecorder:
    """Aggregates nested spans per layer name."""

    def __init__(self) -> None:
        self.layers: dict[str, LayerStats] = {}
        self._stack: list[float] = []

    def stats(self, name: str) -> LayerStats:
        stats = self.layers.get(name)
        if stats is None:
            stats = self.layers[name] = LayerStats()
        return stats

    def wrap(self, name: str | Callable[..., str], fn: Callable) -> Callable:
        """``fn`` timed as a span of ``name`` (or of ``name(*args)``)."""
        stack = self._stack
        fixed = self.stats(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats = fixed if fixed is not None else self.stats(name(*args))
            stack.append(0.0)
            start = _span_clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _span_clock() - start
                stats.calls += 1
                stats.total += duration
                stats.child += stack.pop()
                if stack:
                    stack[-1] += duration

        return traced


def _middlebox_layer(middlebox, *_args) -> str:
    return f"middleboxes.{middlebox.service}"


def _targets():
    """(layer name, owner object, attribute) for every wrapped entry
    point; owners are the modules or classes the callers look up."""
    from repro.core.auditor.attestation import (
        AttestationVerifier,
        TrustedPlatform,
    )
    from repro.core import device as device_mod
    from repro.core.deployment import manager as manager_mod
    from repro.core.deployment.manager import DeploymentManager, PvnDataPath
    from repro.netproto.dhcp import DhcpClient
    from repro.netsim import fluid as fluid_mod
    from repro.netsim.events import Event
    from repro.netsim.fluid import HybridPopulationEngine, PolicyLedger
    from repro.netsim.link import Link
    from repro.netsim.simulator import Simulator
    from repro.netsim.soa import SoaTable
    from repro.netsim.topology import PhysicalTopology
    from repro.nfv.hypervisor import NfvHost
    from repro.nfv.middlebox import Middlebox
    from repro.nfv.pipeline import Pipeline
    from repro.sdn.switch import SdnSwitch
    from repro.workloads.population import PopulationWorkload

    return [
        ("sdn.routing.shortest_path", PhysicalTopology, "shortest_path"),
        ("core.pvnc.compile", device_mod, "compile_pvnc"),
        ("core.pvnc.compile", manager_mod, "compile_pvnc"),
        ("core.discovery.negotiate", device_mod, "negotiate"),
        ("core.deployment.embed", manager_mod, "embed_pvn"),
        ("core.deployment.deploy", DeploymentManager, "deploy"),
        ("core.deployment.teardown", DeploymentManager, "teardown"),
        ("nfv.hypervisor.launch", NfvHost, "launch"),
        ("core.auditor.attest", TrustedPlatform, "attest"),
        ("core.auditor.verify", AttestationVerifier, "verify"),
        ("netproto.dhcp.exchange", DhcpClient, "run_exchange"),
        # The heap's own work: popping in step, pushing in schedule_at.
        # Wrapping Event.fire keeps handler time out of step's self time.
        ("netsim.simulator.step", Simulator, "step"),
        ("netsim.simulator.schedule", Simulator, "schedule_at"),
        ("netsim.simulator.handler", Event, "fire"),
        ("netsim.link.transmit", Link, "transmit"),
        ("sdn.switch.process", SdnSwitch, "process"),
        ("nfv.pipeline.run", Pipeline, "run"),
        (_middlebox_layer, Middlebox, "process"),
        ("core.auditor.stamp", manager_mod, "stamp"),
        ("core.deployment.datapath", PvnDataPath, "process"),
        ("netsim.fluid.waterfill", fluid_mod, "waterfill"),
        ("netsim.fluid.ledger", PolicyLedger, "record"),
        ("netsim.fluid.ledger", PolicyLedger, "bump"),
        ("netsim.soa.allocate", SoaTable, "allocate"),
        ("netsim.soa.release", SoaTable, "release"),
        ("netsim.fluid.open_flow", HybridPopulationEngine, "open_flow"),
        ("workloads.population.churn", PopulationWorkload, "tick_events"),
    ]


class Instrumentation:
    """Installs the wrappers; :meth:`remove` restores the originals."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            return
        for name, owner, attr in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.recorder.wrap(name, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
