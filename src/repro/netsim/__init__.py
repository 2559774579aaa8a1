"""Discrete-event network simulation substrate.

Public surface:

* :class:`Simulator` — the event loop.
* :class:`Packet`, :class:`Link`, :class:`Node`, :class:`Host`,
  :class:`RoutingNode` — the data plane.
* :class:`PhysicalTopology` and builders — annotated topologies.
* :mod:`repro.netsim.tcp` — rounds-based TCP transfer models.
* :mod:`repro.netsim.flows` — page-load and ABR-video models.
* :mod:`repro.netsim.fluid` — hybrid fluid/packet population engine
  over :class:`SoaTable` vectorized flow state.
"""

from repro.netsim.events import Event, EventPriority
from repro.netsim.fluid import (
    MODE_FLUID,
    MODE_PACKET,
    HybridFlow,
    HybridPopulationEngine,
    PolicyLedger,
    max_min_fair_share,
    waterfill,
)
from repro.netsim.link import Link, link_rtt
from repro.netsim.node import Host, Node, RoutingNode
from repro.netsim.packet import Packet
from repro.netsim.queueing import DropTailQueue, RateMeter, TokenBucket
from repro.netsim.randomness import (
    RandomStreams,
    default_streams,
    derive_seed,
    seed_default_streams,
    shard_seed,
)
from repro.netsim.simulator import Simulator
from repro.netsim.soa import SoaTable
from repro.netsim.tcp import (
    PathCharacteristics,
    TcpParams,
    TransferResult,
    mathis_throughput_bps,
    simulate_split_transfer,
    simulate_transfer,
)
from repro.netsim.topology import (
    AccessNetworkSpec,
    PhysicalTopology,
    attach_device,
    build_access_network,
    build_multihomed_access,
    build_wide_area,
)
from repro.netsim.trace import LatencySummary, Tracer

__all__ = [
    "AccessNetworkSpec",
    "DropTailQueue",
    "Event",
    "EventPriority",
    "Host",
    "HybridFlow",
    "HybridPopulationEngine",
    "LatencySummary",
    "Link",
    "MODE_FLUID",
    "MODE_PACKET",
    "Node",
    "Packet",
    "PathCharacteristics",
    "PhysicalTopology",
    "PolicyLedger",
    "RandomStreams",
    "RateMeter",
    "RoutingNode",
    "Simulator",
    "SoaTable",
    "TcpParams",
    "TokenBucket",
    "Tracer",
    "TransferResult",
    "attach_device",
    "build_access_network",
    "build_multihomed_access",
    "build_wide_area",
    "default_streams",
    "derive_seed",
    "seed_default_streams",
    "shard_seed",
    "link_rtt",
    "mathis_throughput_bps",
    "max_min_fair_share",
    "simulate_split_transfer",
    "simulate_transfer",
    "waterfill",
]
