"""Tests for the compiled Pipeline abstraction and context pooling.

The pipeline layer replaced three per-packet interpreter loops (chain,
PVN datapath, tunnel encap); these tests pin the contract that made the
refactor safe: identical short-circuit semantics, delay charged only
for reached hops, prechecks aborting *before* the charge, label
overrides, and pooled contexts that never leak one packet's state into
the next.
"""

import pytest

from repro.netsim import Packet, Tracer
from repro.nfv import (
    ChainHop,
    Container,
    Middlebox,
    Pipeline,
    PipelineStep,
    ProcessingContext,
    ServiceChain,
    Verdict,
)
from repro.nfv.middlebox import VerdictKind
from repro.nfv.pipeline import labeled_verdict


class Recorder(Middlebox):
    """Records the context identity and contents seen per packet."""

    service = "recorder"

    def __init__(self, name=""):
        super().__init__(name)
        self.seen = []

    def inspect(self, packet, context):
        self.seen.append(
            (id(context), context.owner, dict(context.extras))
        )
        context.extras["touched_by"] = self.name
        return Verdict.passed()


class Blocker(Middlebox):
    service = "blocker"

    def inspect(self, packet, context):
        return Verdict.dropped("blocked by test")


def running(middlebox, owner="alice"):
    container = Container(middlebox, owner=owner)
    container.start_immediately(now=0.0)
    return container


def pkt(owner="alice", **kwargs):
    return Packet(src="10.0.0.1", dst="1.1.1.1", owner=owner, **kwargs)


def ctx(owner="alice", tracer=None):
    return ProcessingContext(now=0.0, owner=owner, tracer=tracer)


def passing_step(name, delay=0.0, precheck=None):
    return PipelineStep(name=name, delay=delay, precheck=precheck,
                        runner=lambda packet, context: Verdict.passed())


# -- pipeline semantics -------------------------------------------------------


class TestPipelineRun:
    def test_delay_charged_only_for_reached_steps(self):
        pipeline = Pipeline("p", (
            passing_step("a", delay=1.0),
            PipelineStep(name="b", delay=2.0,
                         runner=lambda p, c: Verdict.dropped("stop")),
            passing_step("never", delay=100.0),
        ))
        result = pipeline.run(pkt(), ctx())
        assert result.terminal_kind is VerdictKind.DROP
        assert result.added_delay == pytest.approx(3.0)
        assert result.labels == ("a:pass", "b:drop")
        assert pipeline.total_delay == pytest.approx(103.0)

    def test_precheck_abort_skips_the_steps_own_delay(self):
        aborted = Verdict.dropped("middlebox x crashed")
        pipeline = Pipeline("p", (
            passing_step("a", delay=1.0),
            passing_step("x", delay=50.0,
                         precheck=lambda p, c: aborted),
        ))
        result = pipeline.run(pkt(), ctx())
        assert result.terminal_kind is VerdictKind.DROP
        # The crashed hop's delay is never charged, matching the
        # pre-refactor loop: a packet lost at hop i paid for 0..i-1.
        assert result.added_delay == pytest.approx(1.0)

    def test_label_annotation_overrides_verdict_kind(self):
        crashed = labeled_verdict(
            Verdict.dropped("middlebox svc crashed"), "crashed",
        )
        pipeline = Pipeline("p", (
            PipelineStep(name="svc", runner=lambda p, c: crashed),
        ))
        result = pipeline.run(pkt(), ctx())
        assert result.labels == ("svc:crashed",)

    def test_drop_suffix_lands_in_drop_reason(self):
        pipeline = Pipeline("p", (
            PipelineStep(name="b",
                         runner=lambda p, c: Verdict.dropped("bad")),
        ), drop_suffix=" (pvn alice/d)")
        packet = pkt()
        pipeline.run(packet, ctx())
        assert packet.dropped
        assert packet.drop_reason == "bad (pvn alice/d)"

    def test_tunnel_pipeline_is_terminal_with_exact_label(self):
        pipeline = Pipeline.tunnel("p", "cloud", "degraded:tunnel")
        result = pipeline.run(pkt(), ctx())
        assert result.terminal_kind is VerdictKind.TUNNEL
        assert result.tunnel_endpoint == "cloud"
        assert result.labels == ("degraded:tunnel",)
        assert result.packet is None
        assert pipeline.packets_tunneled == 1

    def test_empty_step_list_forwards(self):
        pipeline = Pipeline("p", ())
        result = pipeline.run(pkt(), ctx())
        assert result.terminal_kind is VerdictKind.PASS
        assert result.added_delay == 0.0
        assert pipeline.packets_forwarded == 1

    def test_extras_persist_across_steps_of_one_packet(self):
        seen = []

        def tag(p, c):
            c.extras["tag"] = p.src_port
            return Verdict.passed()

        def check(p, c):
            seen.append((p.src_port, c.extras.get("tag")))
            return Verdict.passed()

        pipeline = Pipeline("p", (
            PipelineStep(name="check", runner=check),
            PipelineStep(name="tag", runner=tag),
            PipelineStep(name="check", runner=check),
        ))
        for port in (1001, 1002):
            pipeline.run(pkt(src_port=port), pipeline.context(0.0, "alice"))
        # A step sees what earlier steps of the same packet left in
        # extras, never what the previous packet left.
        assert seen == [(1001, None), (1001, 1001),
                        (1002, None), (1002, 1002)]

    def test_counters_publish_through_tracer(self):
        tracer = Tracer()
        pipeline = Pipeline("p", (passing_step("a"),))
        pipeline.run(pkt(), ctx())
        pipeline.publish(1.5, tracer=tracer)
        record = tracer.latest("pipeline", "p")
        assert record is not None
        assert record.get("packets_in") == 1
        assert record.get("forwarded") == 1


# -- chain compilation --------------------------------------------------------


class TestChainCompilation:
    def test_compiled_pipeline_is_cached_until_hops_change(self):
        chain = ServiceChain("c", [ChainHop(running(Middlebox("a")))])
        first = chain.compile()
        assert chain.compile() is first
        chain.hops.append(ChainHop(running(Middlebox("b"))))
        recompiled = chain.compile()
        assert recompiled is not first
        assert len(recompiled) == 2

    def test_invalidate_forces_recompile(self):
        chain = ServiceChain("c", [ChainHop(running(Middlebox("a")))])
        first = chain.compile()
        chain.invalidate()
        assert chain.compile() is not first

    def test_chain_drop_keeps_chain_suffix(self):
        chain = ServiceChain("c1", [ChainHop(running(Blocker()))])
        packet = pkt()
        result = chain.process(packet, ctx())
        assert result.packet is None
        assert packet.drop_reason.endswith(" (chain c1)")
        assert chain.packets_in == 1
        assert chain.packets_dropped == 1


# -- pooled contexts ----------------------------------------------------------


class TestPooledContexts:
    def test_executor_reuses_one_context_with_clean_extras(self):
        recorder = Recorder("r")
        chain = ServiceChain("c", [ChainHop(running(recorder))])
        executor = chain.as_executor()
        executor(pkt(owner="alice"), "c")
        executor(pkt(owner="alice"), "c")
        (id_a, owner_a, extras_a), (id_b, owner_b, extras_b) = recorder.seen
        assert id_a == id_b                  # one pooled allocation
        assert extras_a == {} and extras_b == {}   # no leak across packets
        assert owner_a == owner_b == "alice"

    def test_executor_resets_owner_per_packet(self):
        # Owner binding must track the packet even with a pooled
        # context, or sandbox isolation checks would misfire.
        recorder = Recorder("r")
        chain = ServiceChain("c", [ChainHop(running(recorder, owner=""))])
        executor = chain.as_executor()
        executor(pkt(owner="alice"), "c")
        executor(pkt(owner="bob"), "c")
        owners = [owner for _, owner, _ in recorder.seen]
        assert owners == ["alice", "bob"]

    def test_context_factory_consulted_once_and_settings_persist(self):
        tracer = Tracer()
        calls = []

        def factory(packet):
            calls.append(packet.owner)
            return ProcessingContext(now=0.0, owner=packet.owner,
                                     tracer=tracer)

        recorder = Recorder("r")
        chain = ServiceChain("c", [ChainHop(running(recorder))])
        executor = chain.as_executor(context_factory=factory)
        executor(pkt(), "c")
        executor(pkt(), "c")
        assert calls == ["alice"]
        # The factory's tracer persisted across the pooled resets:
        # every middlebox verdict was emitted through it.
        assert tracer.count("middlebox", "r") == 2

    def test_separate_chains_do_not_share_pooled_context(self):
        rec1, rec2 = Recorder("r1"), Recorder("r2")
        chain1 = ServiceChain("c1", [ChainHop(running(rec1))])
        chain2 = ServiceChain("c2", [ChainHop(running(rec2))])
        ex1, ex2 = chain1.as_executor(), chain2.as_executor()
        ex1(pkt(), "c1")
        ex2(pkt(), "c2")
        assert rec1.seen[0][0] != rec2.seen[0][0]

    def test_pipeline_context_pools_and_wipes(self):
        pipeline = Pipeline("p", (passing_step("a"),))
        first = pipeline.context(1.0, "alice")
        first.extras["leftover"] = True
        second = pipeline.context(2.0, "bob")
        assert second is first
        assert second.now == 2.0
        assert second.owner == "bob"
        assert second.extras == {}

    def test_middlebox_state_isolation_survives_pooling(self):
        # Per-middlebox stats stay per-instance even though the
        # context is shared across packets.
        rec = Recorder("r")
        chain = ServiceChain("c", [ChainHop(running(rec))])
        executor = chain.as_executor()
        for _ in range(3):
            executor(pkt(), "c")
        assert rec.stats["processed"] == 3
        assert rec.stats["passed"] == 3
