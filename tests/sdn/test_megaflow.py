"""Tests for the megaflow wildcard tier of the switch datapath.

The load-bearing property (hypothesis-tested below): for *any*
interleaving of rule installs, PVN removals, epoch fences, and packets,
a switch running the full three-tier fast path — and one running the
megaflow tier alone — is observably equivalent to the plain linear
table scan: same drop decisions, same per-rule match statistics, same
table misses, same conservation counters.  The cache tiers may only be
faster, never different.

Also pinned here: the mask-derivation invariants of
:meth:`FlowTable.classify` (winner pins its tested fields, every
rejected rule pins its first failing field), the fences on the
megaflow tier, and LRU eviction across masks.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.netsim import Packet, Simulator
from repro.sdn import Controller, Drop, Match, SdnSwitch
from repro.sdn.flowcache import MegaflowCache
from repro.sdn.flowtable import FlowRule
from repro.sdn.match import EMPTY_MASK, MatchMask


def make_switch(micro: bool, mega: bool) -> SdnSwitch:
    switch = SdnSwitch(Simulator(), "sw")
    switch.flow_cache.enabled = micro
    switch.megaflow_cache.enabled = mega
    # Re-sort the mask list on every lookup so the equivalence
    # property exercises hit-frequency reordering mid-sequence: probe
    # order must never change observable behavior.
    switch.megaflow_cache.resort_interval = 1
    return switch


def flow_pkt(owner="alice", src_port=40000, dst_port=443, src="10.0.0.1",
             **kwargs):
    defaults = dict(src=src, dst="10.0.1.1", protocol="tcp",
                    src_port=src_port, dst_port=dst_port, owner=owner,
                    size=100)
    defaults.update(kwargs)
    return Packet(**defaults)


# -- the three-way equivalence property ---------------------------------------

# An op is one of:
#   ("install", owner_idx, dst_port|None, src_cidr|None, priority)
#   ("remove_pvn", owner_idx)
#   ("fence",)          -- migration epoch advances on every switch
#   ("packet", owner_idx, dst_port, src_octet)
_ops = st.one_of(
    st.tuples(st.just("install"), st.integers(0, 3),
              st.sampled_from([None, 80, 443]),
              st.sampled_from([None, "10.0.0.0/8", "10.1.0.0/16"]),
              st.integers(90, 110)),
    st.tuples(st.just("remove_pvn"), st.integers(0, 3)),
    st.tuples(st.just("fence")),
    st.tuples(st.just("packet"), st.integers(0, 3),
              st.sampled_from([80, 443]), st.integers(0, 2)),
)


class TestMegaflowEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_ops, max_size=40))
    def test_cache_tiers_equal_linear_scan(self, ops):
        linear = make_switch(micro=False, mega=False)
        mega = make_switch(micro=True, mega=True)
        mega_only = make_switch(micro=False, mega=True)
        switches = (linear, mega, mega_only)
        rule_ids = itertools.count(20_000_000)  # same ids in all tables
        epochs = itertools.count(1)

        for op in ops:
            if op[0] == "install":
                _, owner_idx, dst_port, src_cidr, priority = op
                rule_id = next(rule_ids)
                for switch in switches:
                    switch.table.install(FlowRule(
                        match=Match(owner=f"u{owner_idx}", dst_port=dst_port,
                                    src_cidr=src_cidr),
                        actions=(Drop(reason=f"r{rule_id}"),),
                        priority=priority,
                        pvn_id=f"u{owner_idx}/d",
                        rule_id=rule_id,
                    ))
            elif op[0] == "remove_pvn":
                for switch in switches:
                    switch.table.remove_pvn(f"u{op[1]}/d")
            elif op[0] == "fence":
                token = ("migration", next(epochs))
                for switch in switches:
                    switch.fence(token, now=0.0)
            else:
                _, owner_idx, dst_port, src_octet = op
                trio = [flow_pkt(owner=f"u{owner_idx}", dst_port=dst_port,
                                 src=f"10.{src_octet}.0.9")
                        for _ in switches]
                for switch, packet in zip(switches, trio):
                    switch.process(packet)
                for packet in trio[1:]:
                    assert packet.dropped == trio[0].dropped
                    assert packet.drop_reason == trio[0].drop_reason

        base = linear.counters()
        stats = {
            r.rule_id: (r.packets_matched, r.bytes_matched)
            for r in linear.table.rules
        }
        for switch in (mega, mega_only):
            assert switch.counters() == base
            assert switch.table.misses == linear.table.misses
            assert {r.rule_id: (r.packets_matched, r.bytes_matched)
                    for r in switch.table.rules} == stats


# -- mask derivation ----------------------------------------------------------


class TestClassifyMask:
    def test_winner_pins_its_tested_fields_only(self):
        switch = make_switch(micro=False, mega=False)
        switch.table.install(FlowRule(match=Match(owner="alice"),
                                      actions=(Drop(),)))
        rule, mask = switch.table.classify(flow_pkt())
        assert rule is not None
        assert mask.owner and not mask.protocol
        assert not mask.src_port and not mask.dst_port
        assert mask.src_plen == 0 and mask.dst_plen == 0

    def test_rejected_rule_pins_first_failing_field(self):
        switch = make_switch(micro=False, mega=False)
        # Higher priority, rejects on dst_port (its first tested field
        # that fails); the winner tests only owner.
        switch.table.install(FlowRule(match=Match(dst_port=80),
                                      actions=(Drop(),), priority=200))
        switch.table.install(FlowRule(match=Match(owner="alice"),
                                      actions=(Drop(),), priority=100))
        rule, mask = switch.table.classify(flow_pkt(dst_port=443))
        assert rule is not None and rule.match.owner == "alice"
        assert mask.dst_port and mask.owner

    def test_cidr_rejection_pins_prefix_length(self):
        switch = make_switch(micro=False, mega=False)
        switch.table.install(FlowRule(
            match=Match(src_cidr="192.168.0.0/16"),
            actions=(Drop(),), priority=200,
        ))
        switch.table.install(FlowRule(match=Match(owner="alice"),
                                      actions=(Drop(),), priority=100))
        _, mask = switch.table.classify(flow_pkt(src="10.0.0.1"))
        assert mask.src_plen == 16

    def test_full_miss_mask_covers_every_rejecting_rule(self):
        switch = make_switch(micro=False, mega=False)
        switch.table.install(FlowRule(match=Match(owner="bob"),
                                      actions=(Drop(),)))
        rule, mask = switch.table.classify(flow_pkt(owner="alice"))
        assert rule is None
        assert mask.owner

    def test_empty_table_yields_empty_mask(self):
        switch = make_switch(micro=False, mega=False)
        rule, mask = switch.table.classify(flow_pkt())
        assert rule is None
        assert mask == EMPTY_MASK

    def test_classify_matches_lookup_winner(self):
        switch = make_switch(micro=False, mega=False)
        for i, port in enumerate((80, 443, None)):
            switch.table.install(FlowRule(
                match=Match(owner="alice", dst_port=port),
                actions=(Drop(reason=f"r{i}"),), priority=100 + i,
            ))
        for port in (80, 443, 8080):
            packet = flow_pkt(dst_port=port)
            winner = switch.table.lookup(packet, record=False)
            classified, _ = switch.table.classify(packet)
            assert classified is winner

    def test_classify_records_no_stats(self):
        switch = make_switch(micro=False, mega=False)
        rule = FlowRule(match=Match(owner="alice"), actions=(Drop(),))
        switch.table.install(rule)
        switch.table.classify(flow_pkt())
        assert rule.packets_matched == 0
        assert switch.table.misses == 0


# -- churn collapse (the tier's reason to exist) ------------------------------


class TestChurnCollapse:
    def test_churning_flows_scan_once_per_subscriber(self):
        switch = make_switch(micro=True, mega=True)
        for i in range(10):
            switch.table.install(FlowRule(
                match=Match(owner=f"user{i}"), actions=(Drop(),),
                pvn_id=f"user{i}/d",
            ))
        # 50 packets, every one a fresh five-tuple, one subscriber.
        for port in range(50):
            switch.process(flow_pkt(owner="user3", src_port=30000 + port))
        assert switch.full_classifications == 1
        assert switch.megaflow_cache.hits == 49
        assert switch.flow_cache.hits == 0      # no repeated five-tuple
        assert switch.megaflow_cache.mask_count == 1

    def test_repeated_flow_promotes_to_microflow_tier(self):
        switch = make_switch(micro=True, mega=True)
        switch.table.install(FlowRule(match=Match(owner="alice"),
                                      actions=(Drop(),)))
        switch.process(flow_pkt())      # scan, fills both tiers
        switch.process(flow_pkt())      # exact-match hit
        assert switch.flow_cache.hits == 1
        assert switch.megaflow_cache.hits == 0
        assert switch.full_classifications == 1

    def test_negative_megaflow_entry_caches_misses(self):
        switch = make_switch(micro=True, mega=True)
        switch.table.install(FlowRule(match=Match(owner="bob"),
                                      actions=(Drop(),)))
        for port in range(5):
            switch.process(flow_pkt(owner="alice", src_port=30000 + port))
        assert switch.full_classifications == 1
        assert switch.table.misses == 5          # still counted per packet
        assert switch.packets_dropped == 5       # default-drop, no controller


# -- fences -------------------------------------------------------------------


class TestMegaflowFences:
    def test_install_invalidates_via_generation_fence(self):
        switch = make_switch(micro=True, mega=True)
        switch.table.install(FlowRule(
            match=Match(owner="alice"), actions=(Drop(reason="old"),),
            priority=100,
        ))
        first = flow_pkt()
        switch.process(first)
        assert "old" in first.drop_reason
        switch.table.install(FlowRule(
            match=Match(owner="alice"), actions=(Drop(reason="new"),),
            priority=200,
        ))
        # New five-tuple: would hit the stale megaflow were it unfenced.
        second = flow_pkt(src_port=40001)
        switch.process(second)
        assert "new" in second.drop_reason

    def test_epoch_fence_flushes_once_per_token_change(self):
        switch = make_switch(micro=True, mega=True)
        switch.table.install(FlowRule(match=Match(owner="alice"),
                                      actions=(Drop(),)))
        switch.process(flow_pkt())
        assert len(switch.megaflow_cache) == 1
        switch.fence(("lineage", 1))
        assert len(switch.megaflow_cache) == 0
        assert len(switch.flow_cache) == 0
        flushes = switch.megaflow_cache.flushes
        switch.fence(("lineage", 1))        # same token: no flush
        assert switch.megaflow_cache.flushes == flushes

    def test_controller_rule_push_flushes_eagerly(self):
        switch = make_switch(micro=True, mega=True)
        ctrl = Controller()
        ctrl.adopt(switch)
        ctrl.install("sw", Match(owner="alice"), (Drop(),),
                     pvn_id="alice/d")
        switch.process(flow_pkt())
        assert len(switch.megaflow_cache) == 1
        ctrl.remove_pvn("alice/d")
        assert len(switch.megaflow_cache) == 0
        assert switch.megaflow_cache.invalidations >= 1


# -- LRU eviction across masks ------------------------------------------------


class TestMegaflowLru:
    def test_eviction_is_lru_across_masks_and_counted(self):
        cache = MegaflowCache(capacity=2)
        masks = []
        for owner in ("a", "b"):
            packet = flow_pkt(owner=owner)
            _, mask = _table_for(owner).classify(packet)
            masks.append(mask)
            cache.put(packet, mask, None, lambda p: None, generation=0)
        # Touch the first entry: under LRU it survives the next insert.
        assert cache.get(flow_pkt(owner="a"), generation=0) is not None
        third = flow_pkt(owner="c", dst_port=80)
        _, mask = _table_for("c").classify(third)
        cache.put(third, mask, None, lambda p: None, generation=0)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get(flow_pkt(owner="a"), generation=0) is not None
        assert cache.get(flow_pkt(owner="b"), generation=0) is None

    def test_empty_mask_store_removed_after_eviction(self):
        cache = MegaflowCache(capacity=1)
        for owner in ("a", "b"):
            packet = flow_pkt(owner=owner)
            _, mask = _table_for(owner).classify(packet)
            cache.put(packet, mask, None, lambda p: None, generation=0)
        assert cache.mask_count == 1


# -- mask-list hit-frequency ordering -----------------------------------------


M_OWNER = MatchMask(owner=True)
M_PORT = MatchMask(dst_port=True)


def _seed_two_masks(cache):
    """One entry under each of two distinct masks (owner first)."""
    cache.put(flow_pkt(owner="a"), M_OWNER, None, lambda p: None,
              generation=0)
    cache.put(flow_pkt(owner="b", dst_port=80), M_PORT, None,
              lambda p: None, generation=0)


class TestMaskOrdering:
    def test_new_masks_append_in_insertion_order(self):
        cache = MegaflowCache(resort_interval=1000)
        _seed_two_masks(cache)
        assert cache.mask_order == (M_OWNER, M_PORT)
        assert cache.resorts == 0

    def test_hot_mask_promotes_to_front(self):
        cache = MegaflowCache(resort_interval=4)
        _seed_two_masks(cache)
        # Hammer the tail mask: its hit count dominates, so the next
        # re-sort must move it to the head of the probe order.
        for _ in range(8):
            hit = cache.get(flow_pkt(owner="zzz", dst_port=80),
                            generation=0)
            assert hit is not None
        assert cache.mask_order == (M_PORT, M_OWNER)
        assert cache.resorts >= 1
        assert cache.counters()["mask_resorts"] == cache.resorts

    def test_resort_is_stable_under_ties(self):
        cache = MegaflowCache(resort_interval=2)
        _seed_two_masks(cache)
        # Equal hit counts: insertion order is the tiebreak, so the
        # order never changes and no resort is counted.
        for _ in range(4):
            assert cache.get(flow_pkt(owner="a"),
                             generation=0) is not None
            assert cache.get(flow_pkt(owner="q", dst_port=80),
                             generation=0) is not None
        assert cache.mask_order == (M_OWNER, M_PORT)
        assert cache.resorts == 0

    def test_reordering_never_changes_the_served_entry(self):
        # Entries under distinct masks with disjoint masked keys: the
        # same packets must map to the same entries before and after a
        # promotion (the derivation invariant makes order-dependence a
        # correctness bug, not a tuning knob).
        cache = MegaflowCache(resort_interval=3)
        _seed_two_masks(cache)
        before = {
            "owner": cache.get(flow_pkt(owner="a"), generation=0),
            "port": cache.get(flow_pkt(owner="x", dst_port=80),
                              generation=0),
        }
        for _ in range(9):
            cache.get(flow_pkt(owner="y", dst_port=80), generation=0)
        assert cache.mask_order[0] == M_PORT
        assert cache.get(flow_pkt(owner="a"),
                         generation=0) is before["owner"]
        assert cache.get(flow_pkt(owner="x", dst_port=80),
                         generation=0) is before["port"]

    def test_eviction_of_last_entry_drops_mask_from_order(self):
        cache = MegaflowCache(capacity=1, resort_interval=1000)
        _seed_two_masks(cache)          # capacity 1: first put evicted
        assert cache.mask_order == (M_PORT,)
        assert cache.mask_count == 1

    def test_flush_clears_order_and_hit_state(self):
        cache = MegaflowCache(resort_interval=4)
        _seed_two_masks(cache)
        for _ in range(4):
            cache.get(flow_pkt(owner="z", dst_port=80), generation=0)
        cache.flush("test")
        assert cache.mask_order == ()
        assert cache.mask_count == 0
        # Re-populated masks start cold, in fresh insertion order.
        _seed_two_masks(cache)
        assert cache.mask_order == (M_OWNER, M_PORT)


def _table_for(owner):
    from repro.sdn.flowtable import FlowTable
    table = FlowTable()
    table.install(FlowRule(match=Match(owner=owner), actions=(Drop(),)))
    return table
