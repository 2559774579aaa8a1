"""The SDN switch: a node that forwards according to its flow table.

Chain actions hand the packet to a registered chain executor (the NFV
layer registers these); the executor returns the packet to continue —
possibly modified — or ``None`` if the chain consumed or dropped it.
Tunnel actions hand the packet to a registered tunnel encapsulator the
same way.

The data plane is a three-tier fast path: an exact-match
:class:`~repro.sdn.flowcache.FlowCache` memoizes the winning rule *and*
its pre-compiled action closure per microflow, and a wildcard
:class:`~repro.sdn.flowcache.MegaflowCache` behind it memoizes the
minimal match superset per classification decision, so even the first
packet of a *new* flow usually skips the linear table scan (lookup
order: microflow -> megaflow -> full classification).  Entries in both
tiers are fenced on the table's generation counter (every
install/remove invalidates) and on the migration epoch token
(:meth:`SdnSwitch.fence`) so cached winners can never go stale.

Packet accounting is conservative by construction::

    packets_received == packets_forwarded + packets_dropped
                        + packets_punted + packets_consumed

where *punted* counts table misses handed to the controller and
*consumed* counts packets that left the local pipeline through a chain
or tunnel handoff.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError
from repro.netsim.node import Node
from repro.obs import runtime as obs_runtime
from repro.netsim.packet import Packet
from repro.sdn.actions import Drop, Mirror, Output, SetField, ToChain, Tunnel
from repro.sdn.flowcache import CacheEntry, FlowCache, MegaflowCache
from repro.sdn.flowtable import FlowTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.link import Link
    from repro.netsim.simulator import Simulator
    from repro.netsim.trace import Tracer

ChainExecutor = Callable[[Packet, str], Packet | None]
TunnelEncap = Callable[[Packet, str], None]
PacketInHandler = Callable[["SdnSwitch", Packet], None]

#: A compiled action list: call with a packet, fully applied.
CompiledActions = Callable[[Packet], None]


class SdnSwitch(Node):
    """A match/action forwarding element."""

    def __init__(self, sim: "Simulator", name: str,
                 tracer: "Tracer | None" = None) -> None:
        super().__init__(sim, name)
        self.table = FlowTable(name=f"{name}.table0")
        self.flow_cache = FlowCache(name=f"{name}.cache", tracer=tracer)
        self.megaflow_cache = MegaflowCache(name=f"{name}.megaflow",
                                            tracer=tracer)
        self.tracer = tracer
        self._chain_executors: dict[str, ChainExecutor] = {}
        self._tunnel_encaps: dict[str, TunnelEncap] = {}
        self._packet_in: PacketInHandler | None = None
        self.packets_received = 0
        self.packets_forwarded = 0
        self.packets_dropped = 0
        self.packets_punted = 0     # table misses handed to the controller
        self.packets_consumed = 0   # left the pipeline via chain/tunnel
        # Classifications that fell through both cache tiers to the
        # linear rule scan (E21's headline metric).
        self.full_classifications = 0

    # -- control-plane wiring ----------------------------------------------

    def bind_chain(self, chain_id: str, executor: ChainExecutor) -> None:
        """Register the executor invoked by ``ToChain(chain_id)``."""
        self._chain_executors[chain_id] = executor

    def bind_tunnel(self, endpoint: str, encap: TunnelEncap) -> None:
        """Register the encapsulator invoked by ``Tunnel(endpoint)``."""
        self._tunnel_encaps[endpoint] = encap

    def set_packet_in_handler(self, handler: PacketInHandler | None) -> None:
        """Table-miss handler (the controller registers itself here)."""
        self._packet_in = handler

    def invalidate_cache(self, reason: str = "control-plane") -> int:
        """Eagerly flush both cache tiers (rule pushes, cutovers)."""
        dropped = self.flow_cache.flush(reason, now=self.sim.now)
        dropped += self.megaflow_cache.flush(reason, now=self.sim.now)
        return dropped

    def fence(self, token: object, now: float | None = None) -> None:
        """Adopt an epoch-fence token on both cache tiers.

        Migration cutovers call this so closures compiled against a
        superseded deployment can never serve post-cutover traffic
        from either the microflow or the megaflow tier.
        """
        at = self.sim.now if now is None else now
        self.flow_cache.fence(token, now=at)
        self.megaflow_cache.fence(token, now=at)

    # -- data plane ----------------------------------------------------------

    def receive(self, packet: Packet, link: "Link") -> None:
        super().receive(packet, link)
        self.process(packet)

    def _classify(self, packet: Packet) -> CacheEntry | None:
        """The cached entry for ``packet``, filling tiers on demand.

        Lookup order is microflow -> megaflow -> full classification;
        a megaflow hit is promoted into the microflow tier so the
        flow's later packets take the exact-match path.  Returns None
        only when *both* tiers are disabled (the uncached baseline).
        """
        table = self.table
        micro = self.flow_cache
        mega = self.megaflow_cache
        now = self.sim.now
        if micro.enabled:
            entry = micro.get(packet, table.generation, now=now)
            if entry is not None:
                return entry
        elif not mega.enabled:
            return None
        if mega.enabled:
            entry = mega.get(packet, table.generation, now=now)
            if entry is None:
                rule, mask = table.classify(packet)
                self.full_classifications += 1
                closure = (self._punt if rule is None
                           else self._compile_actions(rule.actions))
                entry = mega.put(packet, mask, rule, closure,
                                 table.generation)
        else:
            rule = table.lookup(packet, record=False)
            self.full_classifications += 1
            closure = (self._punt if rule is None
                       else self._compile_actions(rule.actions))
            entry = CacheEntry(rule=rule, closure=closure,
                               generation=table.generation)
        if micro.enabled:
            micro.put(packet, entry.rule, entry.closure, table.generation)
        return entry

    def process(self, packet: Packet) -> None:
        """Run ``packet`` through the table and apply the winning rule.

        With the caches enabled (the default) the table scan and
        action compilation happen once per megaflow; every packet —
        cached or not — is charged against the winning rule's match
        statistics exactly once.
        """
        self.packets_received += 1
        entry = self._classify(packet)
        if entry is None:
            rule = self.table.lookup(packet)
            self.full_classifications += 1
            if rule is None:
                self._punt(packet)
                return
            self.apply_actions(packet, rule.actions)
            return
        if entry.rule is None:
            self.table.record_miss()
        else:
            self.table.record_match(entry.rule, packet)
        entry.closure(packet)

    def apply_actions(self, packet: Packet, actions: tuple) -> None:
        """Apply an action list directly (uncached slow path)."""
        self._compile_actions(actions)(packet)

    # -- action compilation --------------------------------------------------

    def _compile_actions(self, actions: tuple) -> CompiledActions:
        """Pre-resolve an action list into one closure.

        Type dispatch happens here, once per cached flow, instead of
        per packet.  Compilation stops at the first terminal action
        (anything after it was unreachable in the interpreted loop
        too); a list with no terminal compiles to a loud failure, not a
        silent blackhole.
        """
        steps: list[Callable[[Packet], bool]] = []
        terminated = False
        for action in actions:
            if isinstance(action, Drop):
                steps.append(self._compile_drop(action))
                terminated = True
            elif isinstance(action, SetField):
                steps.append(self._compile_setfield(action))
            elif isinstance(action, Mirror):
                steps.append(self._compile_mirror(action))
            elif isinstance(action, ToChain):
                steps.append(self._compile_chain(action))
                terminated = True
            elif isinstance(action, Tunnel):
                steps.append(self._compile_tunnel(action))
                terminated = True
            elif isinstance(action, Output):
                steps.append(self._compile_output(action))
                terminated = True
            else:
                raise ConfigurationError(f"unknown action {action!r}")
            if terminated:
                break
        if not terminated:
            steps.append(self._non_terminating)
        if len(steps) == 1:
            only = steps[0]

            def run_one(packet: Packet) -> None:
                only(packet)

            return run_one

        def run(packet: Packet) -> None:
            for step in steps:
                if step(packet):
                    return

        return run

    def _compile_drop(self, action: Drop) -> Callable[[Packet], bool]:
        suffix = f"{action.reason} at {self.name}"

        def drop(packet: Packet) -> bool:
            self.packets_dropped += 1
            packet.mark_dropped(suffix)
            return True

        return drop

    def _compile_setfield(self, action: SetField) -> Callable[[Packet], bool]:
        def set_field(packet: Packet) -> bool:
            action.apply(packet)
            return False

        return set_field

    def _compile_mirror(self, action: Mirror) -> Callable[[Packet], bool]:
        neighbor = action.neighbor

        def mirror(packet: Packet) -> bool:
            clone = packet.copy()
            clone.metadata["mirrored_from"] = self.name
            self.send(clone, via=neighbor)
            return False

        return mirror

    def _compile_chain(self, action: ToChain) -> Callable[[Packet], bool]:
        def to_chain(packet: Packet) -> bool:
            self._run_chain(packet, action)
            return True

        return to_chain

    def _compile_tunnel(self, action: Tunnel) -> Callable[[Packet], bool]:
        def to_tunnel(packet: Packet) -> bool:
            self._run_tunnel(packet, action)
            return True

        return to_tunnel

    def _compile_output(self, action: Output) -> Callable[[Packet], bool]:
        neighbor = action.neighbor

        def output(packet: Packet) -> bool:
            self.packets_forwarded += 1
            self.send(packet, via=neighbor)
            return True

        return output

    def _non_terminating(self, packet: Packet) -> bool:
        # An action list that never forwarded nor dropped is a config
        # bug; fail loudly rather than silently blackholing.
        raise ConfigurationError(
            f"rule actions for packet {packet.packet_id} at {self.name} "
            "did not terminate (missing Output/Drop)"
        )

    # -- terminal handoffs ----------------------------------------------------

    def _punt(self, packet: Packet) -> None:
        """Table miss: hand to the controller, or default-drop."""
        if self._packet_in is not None:
            self.packets_punted += 1
            self._packet_in(self, packet)
        else:
            self.packets_dropped += 1
            packet.mark_dropped(f"table miss at {self.name}")

    def _run_chain(self, packet: Packet, action: ToChain) -> None:
        executor = self._chain_executors.get(action.chain_id)
        if executor is None:
            self.packets_dropped += 1
            packet.mark_dropped(
                f"chain {action.chain_id} not bound at {self.name}"
            )
            return
        result = executor(packet, action.chain_id)
        if result is None:
            # chain consumed (blocked/tunneled) the packet
            self.packets_consumed += 1
            return
        if action.resume_neighbor:
            self.packets_forwarded += 1
            # Executors report middlebox processing time out of band so
            # the data plane can charge it before resuming.
            delay = float(result.metadata.pop("chain_delay", 0.0))
            if delay > 0:
                self.sim.schedule(delay, self.send, result,
                                  action.resume_neighbor)
            else:
                self.send(result, via=action.resume_neighbor)
        else:
            # The executor keeps the packet (it decides what happens
            # next); the switch's pipeline is done with it.
            self.packets_consumed += 1

    def _run_tunnel(self, packet: Packet, action: Tunnel) -> None:
        encap = self._tunnel_encaps.get(action.endpoint)
        if encap is None:
            self.packets_dropped += 1
            packet.mark_dropped(
                f"tunnel to {action.endpoint} not bound at {self.name}"
            )
            return
        self.packets_consumed += 1
        encap(packet, action.endpoint)

    # -- observability --------------------------------------------------------

    @property
    def packets_total(self) -> int:
        """The monotone throughput tap the closed loop samples
        (:class:`~repro.core.deployment.telemetry.TelemetryFeed` takes
        deltas of this between ticks; same name on every layer)."""
        return self.packets_received

    def counters(self) -> dict[str, int]:
        return {
            "received": self.packets_received,
            "forwarded": self.packets_forwarded,
            "dropped": self.packets_dropped,
            "punted": self.packets_punted,
            "consumed": self.packets_consumed,
        }

    def publish_counters(self, now: float,
                         tracer: "Tracer | None" = None) -> None:
        """Emit switch throughput and flow-cache counter snapshots.

        Tracer records (category ``"switch"``) are unchanged from the
        datapath refactor; when observability is enabled the same
        totals also fold into the metrics registry
        (``repro_switch_packets_total{switch=...,result=...}``) so the
        Prometheus dump and the conservation property tests read one
        typed interface instead of snapshot dicts.
        """
        # Explicit None check: an empty Tracer is falsy (__len__ == 0).
        sink = tracer if tracer is not None else self.tracer
        if sink is not None:
            sink.emit(now, "switch", self.name, event="counters",
                      **self.counters())
        obs = obs_runtime.current()
        if obs is not None:
            obs.metrics.fold_totals(
                "repro_switch_packets",
                "Per-switch packet outcomes (conservation: received == "
                "forwarded + dropped + punted + consumed)",
                ("switch",), {"switch": self.name}, self.counters(),
            )
            obs.metrics.fold_totals(
                "repro_switch_classifications",
                "Classifications that fell through every cache tier to "
                "the linear rule scan",
                ("switch",), {"switch": self.name},
                {"full": self.full_classifications},
            )
        self.flow_cache.publish(now, tracer=sink)
        self.megaflow_cache.publish(now, tracer=sink)
