"""``population``: E23's hybrid engine in fluid mode.

``build_population`` compiles the splitmix64 churn (attach, flows,
migrations, audits, detaches) for ``devices`` devices and binds it to a
``HybridPopulationEngine`` (set-up).  The timed region advances the
engine to ``horizon`` one engine tick at a time with ``Simulator.run``,
exactly as ``engine.run`` does in one call.  Ledger records are kept,
so the policy digest exists; the run is in-process (no shards).
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.exp23_population import BASE_SPEC, build_population
from repro.netsim.fluid import MODE_FLUID
from repro.workloads.population import PopulationSpec

from pvnbench.common import RoundResult, clock


class PopulationWorkload:
    """``devices`` devices on E23's churn for ``horizon`` simulated seconds."""

    def __init__(self, seed: int, root: Path, devices: int = 25_000,
                 horizon: float = 40.0) -> None:
        self.seed = seed
        self.spec = PopulationSpec(**dict(BASE_SPEC, devices=devices,
                                          horizon=horizon))

    def setup(self):
        return build_population(self.spec, self.seed, mode=MODE_FLUID,
                                keep_records=True)

    def play(self, engine) -> RoundResult:
        sim = engine.sim
        tick_s = engine.tick
        ticks: list[float] = []
        begin = clock()
        engine.start(self.spec.horizon)
        ticks.append(clock() - begin)
        end = engine.end_time()
        index = 0
        while sim.now < end:
            index += 1
            tick_start = clock()
            sim.run(until=min(index * tick_s, end))
            ticks.append(clock() - tick_start)

        ledger = engine.ledger
        record = {
            "counters": engine.counters(),
            "ledger": dict(ledger.counts),
            "scheduled": engine.workload.counts(),
            "ticks_total": engine.workload.ticks_total,
        }
        return RoundResult(
            attempted=engine.flows_opened,
            failed=0,
            work=self.spec.devices * self.spec.horizon,
            step_s=ticks,
            latency_s=ticks,
            digest=ledger.digest(),
            record=record,
            counts={"events": sim.processed_events,
                    "packets": engine.policy_packets,
                    "policy_packets": engine.policy_packets,
                    "cells_recomputed": engine.cells_recomputed},
        )


def check(record: dict) -> list[str]:
    """The engine's counts agree with each other, with the ledger, and
    with the compiled schedule."""
    c, ledger, scheduled = (record["counters"], record["ledger"],
                            record["scheduled"])
    problems = []

    def expect(name, got, want):
        if got != want:
            problems.append(f"{name}: {got} != {want}")

    expect("ticks run vs scheduled", c["ticks"], record["ticks_total"])
    expect("flows opened vs ledger flow_open", c["flows_opened"],
           ledger.get("flow_open", 0))
    expect("flows opened vs completed+aborted+active", c["flows_opened"],
           c["flows_completed"] + c["flows_aborted"] + c["active_flows"])
    expect("ledger flow_complete vs engine", ledger.get("flow_complete", 0),
           c["flows_completed"])
    expect("scheduled flows vs opened+refused", scheduled["flows"],
           ledger.get("flow_open", 0) + ledger.get("flow_refused", 0))
    expect("scheduled attaches vs ledger", scheduled["attaches"],
           ledger.get("attach", 0))
    if c["flows_opened"] == 0:
        problems.append("no flow was opened")
    return problems
