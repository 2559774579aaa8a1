"""The per-layer metrics of a traced run, declared once.

Span metrics come from :class:`~pvnbench.tracing.SpanRecorder`; count
metrics from the public counters each workload's rounds collect
(``RoundResult.counts``).  Every value is per round: a round replays
the workload's whole seeded input once, so counts repeat exactly from
round to round and times are comparable across runs of any length.
"""

from __future__ import annotations

from pvnbench.common import RoundResult
from pvnbench.tracing import SpanRecorder

#: The chain services whose ``Middlebox.process`` calls are attributed.
SERVICES = ("classifier", "tls_validator", "dns_validator", "pii_detector",
            "transcoder", "tcp_proxy", "tracker_blocker", "compressor")

# (metric, unit, source, key, field)
#   source "span": key is a layer name (or a tuple of them, summed),
#                  field one of calls/total/self
#   source "count": key is a RoundResult.counts entry
#   source "ratio": key is a (numerator, denominator) pair of counts
LAYER_METRICS: list[tuple[str, str, str, object, str]] = [
    ("sdn.routing.shortest_path_calls", "count", "span",
     "sdn.routing.shortest_path", "calls"),
    ("sdn.routing.shortest_path_ms", "ms", "span",
     "sdn.routing.shortest_path", "total"),
    ("core.pvnc.compile_ms", "ms", "span", "core.pvnc.compile", "total"),
    ("core.pvnc.compile_cache_hit_ratio", "ratio", "ratio",
     ("compile_cache_hits", "compile_cache_lookups"), ""),
    ("core.discovery.negotiate_ms", "ms", "span",
     "core.discovery.negotiate", "total"),
    ("core.deployment.embed_ms", "ms", "span", "core.deployment.embed",
     "total"),
    ("core.deployment.embed_memo_hit_ratio", "ratio", "ratio",
     ("embed_memo_hits", "embed_memo_lookups"), ""),
    ("core.deployment.deploy_self_ms", "ms", "span",
     "core.deployment.deploy", "self"),
    ("core.deployment.teardown_ms", "ms", "span",
     "core.deployment.teardown", "total"),
    ("nfv.hypervisor.launch_calls", "count", "span",
     "nfv.hypervisor.launch", "calls"),
    ("nfv.hypervisor.launch_ms", "ms", "span", "nfv.hypervisor.launch",
     "total"),
    ("nfv.hypervisor.leaked_containers", "count", "count",
     "leaked_containers", ""),
    ("core.auditor.attest_ms", "ms", "span", "core.auditor.attest", "total"),
    ("core.auditor.verify_ms", "ms", "span", "core.auditor.verify", "total"),
    ("netproto.dhcp.exchange_ms", "ms", "span", "netproto.dhcp.exchange",
     "total"),
    ("netsim.simulator.events", "count", "count", "events", ""),
    ("netsim.simulator.events_per_pkt", "ratio", "ratio",
     ("events", "packets"), ""),
    ("netsim.simulator.self_ms", "ms", "span",
     ("netsim.simulator.step", "netsim.simulator.schedule"), "self"),
    ("netsim.link.transmit_ms", "ms", "span", "netsim.link.transmit",
     "total"),
    ("netsim.link.drops", "count", "count", "link_drops", ""),
    ("sdn.switch.process_self_ms", "ms", "span", "sdn.switch.process",
     "self"),
    *[(f"sdn.switch.{field}", "count", "count", f"switch_{field}", "")
      for field in ("received", "forwarded", "dropped", "punted",
                    "consumed")],
    ("sdn.flowcache.micro_hit_ratio", "ratio", "ratio",
     ("micro_hits", "micro_lookups"), ""),
    ("sdn.flowcache.mega_hit_ratio", "ratio", "ratio",
     ("mega_hits", "mega_lookups"), ""),
    ("sdn.flowtable.full_scans", "count", "count", "full_scans", ""),
    ("sdn.flowcache.invalidations", "count", "count",
     "cache_invalidations", ""),
    ("nfv.pipeline.run_self_ms", "ms", "span", "nfv.pipeline.run", "self"),
    ("nfv.pipeline.compiles", "count", "count", "pipeline_compiles", ""),
    *[metric for service in SERVICES for metric in (
        (f"middleboxes.{service}.calls", "count", "span",
         f"middleboxes.{service}", "calls"),
        (f"middleboxes.{service}.ms", "ms", "span",
         f"middleboxes.{service}", "total"))],
    ("core.auditor.stamp_ms", "ms", "span", "core.auditor.stamp", "total"),
    ("core.deployment.datapath_self_ms", "ms", "span",
     "core.deployment.datapath", "self"),
    ("netsim.fluid.waterfill_calls", "count", "span",
     "netsim.fluid.waterfill", "calls"),
    ("netsim.fluid.waterfill_ms", "ms", "span", "netsim.fluid.waterfill",
     "total"),
    ("netsim.fluid.cells_recomputed", "count", "count", "cells_recomputed",
     ""),
    ("netsim.fluid.ledger_calls", "count", "span", "netsim.fluid.ledger",
     "calls"),
    # record() calls bump(), so the ledger's own time is its self time.
    ("netsim.fluid.ledger_ms", "ms", "span", "netsim.fluid.ledger", "self"),
    ("netsim.fluid.open_flow_ms", "ms", "span", "netsim.fluid.open_flow",
     "total"),
    ("netsim.soa.allocate_ms", "ms", "span", "netsim.soa.allocate", "total"),
    ("netsim.soa.release_ms", "ms", "span", "netsim.soa.release", "total"),
    ("workloads.population.churn_ms", "ms", "span",
     "workloads.population.churn", "total"),
    ("netsim.fluid.policy_packets", "count", "count", "policy_packets", ""),
]

#: Traced over untraced host time of the same replayed work.
OVERHEAD_METRIC = ("bench.trace_overhead_ratio", "ratio")


def layer_values(recorder: SpanRecorder, traced: list[RoundResult]
                 ) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, averaged over the traced rounds."""
    n = max(1, len(traced))

    def count(key: str) -> float:
        return sum(r.counts.get(key, 0.0) for r in traced) / n

    out: dict[str, tuple[float, str]] = {}
    for metric, unit, source, key, field in LAYER_METRICS:
        if source == "span":
            layers = [recorder.layers[name]
                      for name in ((key,) if isinstance(key, str) else key)
                      if name in recorder.layers]
            if field == "calls":
                value = sum(stats.calls for stats in layers) / n
            elif field == "self":
                value = sum(stats.self_s for stats in layers) * 1e3 / n
            else:
                value = sum(stats.total for stats in layers) * 1e3 / n
        elif source == "count":
            value = count(key)
        else:
            numerator, denominator = key
            below = count(denominator)
            value = count(numerator) / below if below else 0.0
        out[metric] = (value, unit)
    return out
