"""Benchmarks of the megaflow tier under flow churn (E21).

Runs the E21 scenario once — churning open-loop flows through the
linear, microflow-only, microflow+megaflow, and megaflow-only
datapaths — and asserts the acceptance bars from the fast-path
refactor:

* the megaflow tier cuts full classifications >= 10x vs the
  microflow-only datapath at 1000 installed PVNs (under churn the
  exact-match tier cannot help, the wildcard tier collapses each
  subscriber onto one entry),
* every configuration's equivalence digest — winner match statistics,
  table misses, conservation counters — is byte-identical to the
  uncached linear scan.

Wall-clock throughput rows vary run to run; only the shape is
asserted, per the conftest convention.

``BENCH_datapath.json`` in the repo root records one dev-box run of
the same sweep (alongside ``BENCH_control_plane.json``) so the perf
trajectory is tracked in-repo: deterministic counters (scan counts,
classification cut, digests) must reproduce the recorded values
exactly; wall-clock pkts/s rows are only sanity-checked against the
recorded order of magnitude.
"""

import json
import pathlib

from repro.experiments.exp21_megaflow import run as run_e21

RULE_COUNTS = (100, 1000)

BASELINE_PATH = (pathlib.Path(__file__).resolve().parent.parent
                 / "BENCH_datapath.json")


def test_bench_megaflow_fast_path(run_once):
    result = run_once(run_e21, rule_counts=RULE_COUNTS, repeats=3)
    m = result.metrics

    for n_rules in RULE_COUNTS:
        assert m[f"digest_match_at_{n_rules}"] == 1.0, (
            f"cached datapaths diverged from the linear scan "
            f"at {n_rules} rules"
        )

    cut = m["classification_cut_at_1000"]
    assert cut >= 10.0, (
        f"megaflow classification cut {cut:.1f}x below the 10x bar"
    )

    # The point of the wildcard tier: churning flows must not pay the
    # linear scan, so megaflow throughput at 1000 PVNs should beat the
    # microflow-only path decisively (it is ~6x in practice; assert a
    # noise-tolerant 2x).
    assert m["micro_mega_pps_at_1000"] >= 2.0 * m["micro_pps_at_1000"], (
        "megaflow tier did not outperform microflow-only under churn: "
        f"{m['micro_mega_pps_at_1000']:,.0f} vs "
        f"{m['micro_pps_at_1000']:,.0f} pkts/s"
    )


def test_bench_megaflow_matches_recorded_baseline():
    """The BENCH_datapath.json perf-trajectory comparison.

    Runs the recorded sweep's parameters and holds the run to the
    recorded file: deterministic counters exactly, wall-clock loosely.
    """
    recorded = json.loads(BASELINE_PATH.read_text())
    params = recorded["params"]
    result = run_e21(seed=params["seed"],
                     rule_counts=tuple(params["rule_counts"]),
                     repeats=params["repeats"])
    m = result.metrics

    for n_rules, row in recorded["classification"].items():
        for config in ("linear", "micro", "micro_mega", "mega"):
            assert m[f"{config}_scans_at_{n_rules}"] == row[f"{config}_scans"], (
                f"{config} full-classification count at {n_rules} rules "
                f"drifted from BENCH_datapath.json"
            )
        assert m[f"classification_cut_at_{n_rules}"] == row["classification_cut"]
        assert m[f"digest_match_at_{n_rules}"] == row["digest_match"]

    # Wall-clock rows: regression fence only — no slower than a third
    # of the recorded dev-box run (CI hosts are slower, never 3x).
    for n_rules, row in recorded["throughput_pps"].items():
        for config, pps in row.items():
            measured = m[f"{config}_pps_at_{n_rules}"]
            assert measured >= pps / 3.0, (
                f"{config} throughput at {n_rules} rules collapsed: "
                f"{measured:,.0f} pkts/s vs recorded {pps:,.0f}"
            )
