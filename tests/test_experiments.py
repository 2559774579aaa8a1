"""Smoke and shape tests for every experiment module.

The benchmark suite (benchmarks/) asserts the full claim shapes; these
tests check that every experiment runs, renders, is deterministic under
a fixed seed, and preserves its headline direction at reduced scale.
"""

import hashlib
import json

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    exp3_split_tcp,
    exp5_pii,
    exp9_auditing,
    fig1a,
    fig1c,
)

FAST_PARAMS = {
    "F1A": dict(packets_per_class=5),
    "E1": dict(subscriber_counts=(1, 10, 50)),
    "E2": dict(n_pages=3),
    "E3": dict(loss_rates=(0.001, 0.02), trials=4),
    "E5": dict(n_requests=80),
    "E6": dict(n_connections=120),
    "E7": dict(n_queries=100),
    "E8": dict(n_clicks=40),
    "F1C": dict(n_flows=100, fractions=(0.0, 0.5, 1.0)),
    "E19": dict(sweep=((40, 6.0), (80, 8.0)), flash_crowd_users=12,
                autoscale_ticks=6),
    "E21": dict(rule_counts=(50,), repeats=1),
    "E22": dict(parity_users=32, parity_flash=8, parity_ticks=4,
                incident_users=48, surge_tick=5, surge_factor=8.0,
                incident_horizon=16),
}

# sha256 of each experiment's ``metrics`` + ``rows`` at FAST_PARAMS,
# seed 1.  A refactor that claims "same behaviour" keeps these; a change
# that moves one must say why and re-pin it.
GOLDEN_DIGESTS = {
    "ABL": "fb07b8bea396858223a2e0fe559bde5cda6162124cbba5bcb0369a3dda46274d",
    "E1": "96539fa573ce4d2639da1067e7a71b4250dd454220378164c7adc3c48c55e89a",
    "E10": "998fd9bb2f5d0ddb017c67735d98bd2f2ac6e75607f69e2cb478cd95d6df4ec9",
    "E11": "d22f8b82fe09a320456c2eab90ba6b235812e16b674dc59f3a173299409c6ba6",
    "E12": "85554b3f753cc9bcaddf0aa5f29cc91904a8c23eec953427b493fb1e607e6cd9",
    "E13": "40c61b877522b8e2cd9817d2f69ed5cdaada19812f5927f62b4c7f4540f39a00",
    "E14": "7f6f1ef7e4df258240f77d1119b47360df3cba266897059654c0421ca910a257",
    "E15": "de04fd6d7268df1d848f5fb3ff5555770c68da23884cd05b987a383303b92789",
    "E19": "50c97a1bd875cfb27093fe4ffe0e39b88a384e0ad3518b311110e7ef684d3906",
    "E2": "6a5337157fd24ebae5f566d9b7cffa9e7e57cbf21b159e34428b48db20f4b70d",
    "E20": "62ef50841e0b74241d9ad59c687022056b64c552c07a1ca33fc72b36d2f981d4",
    "E22": "28bc3b56d09b2dd38d82b252d654bd2523bff3c5aa96eb2542b93790de8bb225",
    "E3": "ccdf056d33e2aac0834b2f6819268d02c2cac8f523f8238b8a628147fe5c3f18",
    "E4": "0ff80869dce902648b5c142de458de76317055eb80caa97353876226842aa61e",
    "E5": "4865d8ec199fcc8d0cbd55b44a764894f6e572a6abcb648236b6c3b0bd5945d5",
    "E6": "b26ddcbefd05430a3e55da681668e32996f0470b1b90cf518349795fab982411",
    "E7": "4b21b03bcc7b4c9eb073e20b7f0acc93d5ee426c7cdcab29d2fb8e610f4e5d62",
    "E8": "2abced9f44b4ef0ee9d9804bb74dc9b0aa15b342f1136e59d4af24042680f605",
    "E9": "36bfe9b58c092370c5c1d1e7f21326748e520e4dc70e805d96e074a7891f47b6",
    "F1A": "afe96dd417c61aedf7b8bf64434d2bf8139012eee05e9f5461c1731e0095b4c2",
    "F1B": "1cddd6aa5b72cc024af813b338c6491d71951fdb41729d8b8c5baf369f2e9930",
    "F1C": "254a68b22c526de4da071971959a7d891bc10dd666838416314b6f0b9fca9cac",
}

# Experiments whose metrics or rows carry wall-clock measurements, so
# their digest differs run to run.
UNPINNED = {
    "E16": "wall-clock microflow vs linear-scan pps",
    "E17": "wall-clock obs-on/obs-off overhead",
    "E18": "wall-clock attach throughput",
    "E21": "wall-clock classification pps per datapath",
    "E23": "wall-clock fluid vs packet engine speedup",
}


def behaviour_digest(result) -> str:
    blob = json.dumps({"metrics": result.metrics, "rows": result.rows},
                      sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("experiment_id", sorted(ALL_EXPERIMENTS))
def test_experiment_runs_and_renders(experiment_id):
    run = ALL_EXPERIMENTS[experiment_id]
    result = run(seed=1, **FAST_PARAMS.get(experiment_id, {}))
    assert result.experiment_id in (experiment_id, "ABL")
    assert result.rows, "experiment produced no rows"
    assert result.metrics, "experiment produced no metrics"
    rendered = result.render()
    assert result.title.split(":")[0] in rendered
    # Every row has one cell per column.
    for row in result.rows:
        assert len(row) == len(result.columns)


@pytest.mark.parametrize("experiment_id", ["F1A", "E3", "E5", "E10"])
def test_experiments_deterministic(experiment_id):
    run = ALL_EXPERIMENTS[experiment_id]
    params = FAST_PARAMS.get(experiment_id, {})
    first = run(seed=7, **params)
    second = run(seed=7, **params)
    assert first.metrics == second.metrics
    assert first.rows == second.rows


def test_every_experiment_pinned_or_excused():
    assert set(GOLDEN_DIGESTS) | set(UNPINNED) == set(ALL_EXPERIMENTS)
    assert not set(GOLDEN_DIGESTS) & set(UNPINNED)


@pytest.mark.parametrize("experiment_id", sorted(GOLDEN_DIGESTS))
def test_golden_behaviour_digest(experiment_id):
    run = ALL_EXPERIMENTS[experiment_id]
    result = run(seed=1, **FAST_PARAMS.get(experiment_id, {}))
    assert behaviour_digest(result) == GOLDEN_DIGESTS[experiment_id]


def test_unknown_metric_lookup_raises():
    result = fig1c.run(seed=0, n_flows=20, fractions=(0.5,))
    with pytest.raises(KeyError, match="available"):
        result.metric("nonexistent")


class TestShapesAtReducedScale:
    def test_fig1a_always_fully_correct(self):
        result = fig1a.run(seed=3, packets_per_class=10)
        assert result.metric("correct_fraction") == 1.0

    def test_e3_bulk_speedup_grows_with_loss(self):
        result = exp3_split_tcp.run(seed=2, loss_rates=(0.001, 0.05),
                                    trials=6)
        assert (result.metric("speedup_bulk_loss_0.05")
                > result.metric("speedup_bulk_loss_0.001"))

    def test_e5_pvn_detects_everything(self):
        result = exp5_pii.run(seed=2, n_requests=100)
        assert result.metric("detection_pvn") == 1.0
        assert result.metric("leaked_values_pvn") == 0.0

    def test_e9_no_false_positives_other_seeds(self):
        for seed in (3, 4):
            result = exp9_auditing.run(seed=seed)
            assert result.metric("false_positive_rate_honest") == 0.0
            assert result.metric("all_cheaters_caught") == 1.0
