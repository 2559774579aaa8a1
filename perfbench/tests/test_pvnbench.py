"""The benchmark's own tests: metric coverage, determinism, output
checks against tampered results, and E23's fluid == packet parity.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json

import pytest

from conftest import BENCH, ROOT
from pvnbench import attach, population, traffic
from pvnbench.driver import run_workload

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Small enough for a unit test, large enough that every traffic case
#: (forged TLS, PII, guests) occurs for the seeds used here.
TINY = {
    "attach": dict(arrivals=30, live_target=10),
    "traffic": dict(pvns=4, window_s=0.1, flows_per_s=800.0),
    "population": dict(devices=2000, horizon=2.0),
}
MODULES = {"attach": attach, "traffic": traffic, "population": population}
CLASSES = {
    "attach": attach.AttachWorkload,
    "traffic": traffic.TrafficWorkload,
    "population": population.PopulationWorkload,
}


def one_round(name: str, seed: int):
    workload = CLASSES[name](seed, ROOT, **TINY[name])
    return workload.play(workload.setup())


def test_spec_names_this_directory():
    assert SPEC["paths"] == [BENCH.name]
    assert {w["name"] for w in SPEC["workloads"]} == set(TINY)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_run_emits_every_metric_with_its_unit(name, traced, capsys):
    result = run_workload(name, seed=3, seconds=0.01, traced=traced,
                          root=ROOT, **TINY[name])
    capsys.readouterr()
    assert result["correct"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} == {
        m["name"]: m["unit"] for m in wanted}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float)


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_same_digest_other_seed_other_digest(name):
    first, again, other = (one_round(name, 5), one_round(name, 5),
                           one_round(name, 6))
    assert first.digest == again.digest
    assert first.digest != other.digest


def test_attach_check_rejects_tampering():
    record = one_round("attach", 1).record
    assert attach.check(record) == []
    unverified = copy.deepcopy(record)
    verified, ip, subnet = unverified["successes"][0]
    unverified["successes"][0] = (False, ip, subnet)
    assert attach.check(unverified)
    outside = copy.deepcopy(record)
    outside["successes"][0] = (verified, "10.10.0.9", subnet)
    assert attach.check(outside)


@pytest.mark.parametrize("tamper", [
    lambda r: r["switches"]["agg"].__setitem__(
        "forwarded", r["switches"]["agg"]["forwarded"] + 1),
    lambda r: r["checks"].__setitem__("pii_raw", 1),
    lambda r: r["checks"].__setitem__("forged_delivered", 1),
    lambda r: r["checks"].__setitem__("guest_modified", 1),
    lambda r: r["checks"].pop("forged_dropped"),
])
def test_traffic_check_rejects_tampering(tamper):
    record = one_round("traffic", 1).record
    assert traffic.check(record) == []
    tamper(record)
    assert traffic.check(record)


@pytest.mark.parametrize("tamper", [
    lambda r: r["counters"].__setitem__("flows_completed",
                                        r["counters"]["flows_completed"] + 1),
    lambda r: r["ledger"].__setitem__("flow_open",
                                      r["ledger"]["flow_open"] - 1),
    lambda r: r["scheduled"].__setitem__("attaches",
                                         r["scheduled"]["attaches"] + 1),
    lambda r: r.__setitem__("ticks_total", r["ticks_total"] + 1),
])
def test_population_check_rejects_tampering(tamper):
    record = one_round("population", 1).record
    assert population.check(record) == []
    tamper(record)
    assert population.check(record)


def test_attach_shows_the_subnet_defect_at_full_size():
    """One DeploymentManager mints 10.200.{n}.0/24 from a counter that
    teardown never releases, so deploy 256 onward NACKs, and each NACK
    raised in the install leaks the containers it had launched."""
    result = one_round_full_attach()
    assert result.failed > 0
    assert any("invalid IPv4 address '10.200.256.0'" in reason
               for reason in result.record["reasons"])
    assert result.counts["leaked_containers"] > 0


def one_round_full_attach():
    workload = attach.AttachWorkload(1, ROOT)
    return workload.play(workload.setup())


def test_fluid_and_packet_ledgers_agree_at_small_size():
    from repro.experiments.exp23_population import TICK, parity_check

    parity = parity_check(devices=300, horizon=4.0, seed=2)
    assert parity["digests_match"]
    assert parity["completions_compared"] > 0
    assert parity["max_completion_dt"] <= TICK
