"""Runs one workload, checks its outputs, and assembles the metrics."""

from __future__ import annotations

import json
import re
from pathlib import Path

from pvnbench import attach, population, traffic
from pvnbench.common import (
    RunSummary,
    host_facts,
    log,
    median,
    peak_rss_mb,
    percentile,
    replay_median,
    run_rounds,
    tail_percentile,
)
from pvnbench.layers import OVERHEAD_METRIC, layer_values
from pvnbench.tracing import Instrumentation, SpanRecorder

#: name -> (workload class, output check, what one "op" is)
WORKLOADS = {
    "attach": (attach.AttachWorkload, attach.check,
               "one Device.attach -> verified PvnConnection"),
    "traffic": (traffic.TrafficWorkload, traffic.check,
                "one block of 32 simulator events"),
    "population": (population.PopulationWorkload, population.check,
                   "one 100 ms engine tick"),
}

#: Untraced warm-up rounds a traced run plays first.  After them,
#: rounds alternate untraced and traced, so the tracing overhead
#: compares the same work under the same host conditions.
_UNTRACED_LEAD = 2


def _is_traced(index: int) -> bool:
    return index >= _UNTRACED_LEAD and (index - _UNTRACED_LEAD) % 2 == 1


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 root: Path, **params) -> dict:
    """One benchmark run; returns the final JSON object."""
    cls, check, op = WORKLOADS[name]
    log(f"pvnbench workload={name} seed={seed} seconds={seconds} "
        f"trace={int(traced)}")
    log("host " + json.dumps(host_facts(root), sort_keys=True))
    workload = cls(seed, root, **params)

    recorder = SpanRecorder()
    instrumentation = Instrumentation(recorder)

    def before_play(index: int) -> None:
        if traced and _is_traced(index):
            instrumentation.install()
        else:
            instrumentation.remove()

    try:
        summary = run_rounds(
            workload.setup, workload.play, seconds,
            min_rounds=_UNTRACED_LEAD + 4 if traced else 3,
            before_play=before_play)
    finally:
        instrumentation.remove()

    problems = _check(summary, check)
    for problem in problems:
        log(f"CHECK FAILED {name}: {problem}")
    log(f"checks {name}: {'ok' if not problems else 'FAILED'} "
        f"over {len(summary.rounds)} rounds")
    log(f"digest {name} {summary.rounds[0].digest}")
    _log_workload_notes(name, summary)

    if traced:
        metrics = _layer_metrics(summary, recorder)
    else:
        metrics = _end_to_end(summary, op)
    for metric, entry in metrics.items():
        log(f"metric {metric} {entry['value']:.6g} {entry['unit']}")
    return {
        "correct": not problems,
        "attempted": summary.attempted,
        "failed": summary.failed,
        "metrics": metrics,
    }


def _check(summary: RunSummary, check) -> list[str]:
    problems = []
    for index, result in enumerate(summary.rounds):
        problems += [f"round {index}: {p}" for p in check(result.record)]
    digests = {result.digest for result in summary.rounds}
    if len(digests) != 1:
        problems.append(f"replays of one seed gave {len(digests)} digests")
    return problems


def _end_to_end(summary: RunSummary, op: str) -> dict:
    rounds, scales = summary.rounds, summary.scales
    steps = replay_median([r.step_s for r in rounds], scales)
    latencies = replay_median([r.latency_s for r in rounds], scales)
    tail = tail_percentile(len(latencies))
    log(f"samples op={op!r} n={len(latencies)} per round, median over "
        f"{len(rounds)} replays, tail=p{tail:g}")
    unscaled = replay_median([r.step_s for r in rounds], [1.0] * len(rounds))
    log(f"host scale median {median(scales):.4f} (min {min(scales):.4f}, "
        f"max {max(scales):.4f}); unscaled work/s "
        f"{rounds[0].work / sum(unscaled):.6g}")
    attempted, failed = summary.attempted, summary.failed
    log(f"fail_frac {failed / attempted:.6g} ({failed}/{attempted})")
    return {
        "setup_s": _m(median([t * scale for t, scale
                              in zip(summary.setup_s, scales)]), "s"),
        "ops_per_s": _m(rounds[0].work / sum(steps), "1/s"),
        "op_p50_ms": _m(percentile(latencies, 50) * 1e3, "ms"),
        "op_tail_ms": _m(percentile(latencies, tail) * 1e3, "ms"),
        "peak_rss_mb": _m(peak_rss_mb(), "MB"),
        "ok_frac": _m(1.0 - failed / attempted, "ratio"),
    }


def _layer_metrics(summary: RunSummary, recorder: SpanRecorder) -> dict:
    rounds = list(zip(summary.rounds, summary.scales))
    traced = [rs for i, rs in enumerate(rounds) if _is_traced(i)]
    untraced = [rs for i, rs in enumerate(rounds)
                if i >= _UNTRACED_LEAD and not _is_traced(i)]
    metrics = {name: _m(value, unit) for name, (value, unit)
               in layer_values(recorder, [r for r, _ in traced]).items()}
    overhead = _replayed_seconds(traced) / _replayed_seconds(untraced)
    metrics[OVERHEAD_METRIC[0]] = _m(overhead, OVERHEAD_METRIC[1])
    log(f"traced {len(traced)} of {len(summary.rounds)} rounds; tracing "
        f"overhead {overhead:.4g}x host time of the same work")
    return metrics


def _replayed_seconds(rounds) -> float:
    return sum(replay_median([r.step_s for r, _ in rounds],
                             [scale for _, scale in rounds]))


def _log_workload_notes(name: str, summary: RunSummary) -> None:
    first = summary.rounds[0]
    if name == "attach":
        grouped: dict[str, int] = {}
        for reason, n in first.record["reasons"].items():
            reason = re.sub(r"10\.200\.\d+\.0", "10.200.<n>.0", reason)
            grouped[reason] = grouped.get(reason, 0) + n
        for reason, n in sorted(grouped.items()):
            log(f"nack x{n} per round: {reason}")
        log(f"leaked containers per round: "
            f"{first.counts['leaked_containers']:g}")
    elif name == "traffic":
        log("outcomes per round: " + json.dumps(first.record["checks"],
                                                sort_keys=True))
    elif name == "population":
        log(f"ledger digest {first.digest}")


def _m(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}
