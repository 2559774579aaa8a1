"""Pieces every workload shares: clocks, percentiles, digests, the
round loop, and the host facts recorded with each run."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

from pvnbench.reference import REFERENCE_S, reference_work

#: Host time.  Process CPU time rather than wall time: the benchmark is
#: one single-threaded process on a shared host, and CPU time does not
#: count the time it spends descheduled.  (It still counts a contended
#: core's slowness; reference scaling and replay medians handle that.)
clock = time.process_time


@dataclasses.dataclass
class RoundResult:
    """One replay of a workload's seeded input on a freshly built world."""

    attempted: int
    failed: int
    work: float                 # the rate's numerator for this round
    step_s: list[float]         # the timed region, split into steps
    latency_s: list[float]      # per-operation latencies
    digest: str                 # over the simulated outcomes only
    record: dict                # what the output checks read
    counts: dict[str, float] = dataclasses.field(default_factory=dict)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail_percentile(n_samples: int) -> float:
    """The highest of p99, p95 and p90 with at least ten samples beyond
    it; p50 when even p90 has fewer."""
    for q in (99.0, 95.0, 90.0):
        if n_samples * (100.0 - q) / 100.0 >= 10:
            return q
    return 50.0


def digest_of(obj) -> str:
    """sha256 of a JSON-serialisable outcome summary."""
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_facts(root: Path) -> dict:
    """CPU count, interpreter and library versions, and the source
    revision (a git rev when the tree is a checkout, else a hash of
    the sources under ``src/``)."""
    import networkx
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "machine": platform.machine(),
        "clock": "process_time",
        "rev": _revision(root),
    }


def _revision(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
            # Never look for a repository above the benchmark's tree.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        out = None
    if out is not None and out.returncode == 0 and out.stdout.strip():
        return out.stdout.strip()
    sha = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        sha.update(str(path.relative_to(root)).encode())
        sha.update(path.read_bytes())
    return "src-sha256:" + sha.hexdigest()[:16]


@dataclasses.dataclass
class RunSummary:
    """Every round of one run, with the set-up time and host scale of each."""

    rounds: list[RoundResult]
    setup_s: list[float]
    scales: list[float]         # per round: REFERENCE_S / reference time

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.rounds)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.rounds)


def run_rounds(setup: Callable[[], object],
               play: Callable[[object], RoundResult],
               seconds: float,
               min_rounds: int = 3,
               before_play: Callable[[int], None] | None = None
               ) -> RunSummary:
    """Build a fresh world and replay the workload on it until the timed
    regions add up to ``seconds`` and at least ``min_rounds`` ran.

    The reference computation is timed just before each set-up and just
    after each timed region; their mean gives the round's host scale.
    ``before_play(index)`` runs between a round's set-up and its timed
    region, outside both; traced runs use it to switch the tracing
    wrappers on and off, so spans cover timed regions only.
    """
    rounds: list[RoundResult] = []
    setups: list[float] = []
    scales: list[float] = []
    timed = 0.0
    while timed < seconds or len(rounds) < min_rounds:
        # Free the previous world before timing the next: left to the
        # collector, its cycles would be traversed during the next
        # round's timed region, a cost a single-world process never pays.
        gc.collect()
        before = time_reference()
        start = clock()
        world = setup()
        setups.append(clock() - start)
        if before_play is not None:
            before_play(len(rounds))
        result = play(world)
        del world
        scales.append(2 * REFERENCE_S / (before + time_reference()))
        rounds.append(result)
        timed += sum(result.step_s)
    return RunSummary(rounds=rounds, setup_s=setups, scales=scales)


def time_reference() -> float:
    """Host time of one run of the reference computation."""
    start = clock()
    reference_work()
    return clock() - start


def replay_median(series: list[list[float]], scales: list[float]
                  ) -> list[float]:
    """Per step, the median over rounds of its scaled host time.

    Every round replays the same input on a fresh world, so step ``j``
    does identical work in every round and differs only in what the
    host did to it.  On a shared host that difference is large: other
    tenants slow the core by up to 1.8x, in bursts shorter than a round
    and in stretches of minutes.  Scaling each round by its own
    reference timing cancels the stretches; the median over replays
    drops the rounds a burst caught between the reference timings.
    Slow steps the program itself takes (garbage collection, cache
    refills) recur at the same step of every replay, so they stay.
    """
    lengths = {len(values) for values in series}
    if len(lengths) != 1:
        raise ValueError(f"replays took different step counts: {lengths}")
    scaled = [[t * scale for t in values]
              for values, scale in zip(series, scales)]
    return [statistics.median(column) for column in zip(*scaled)]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def log(line: str) -> None:
    """Human-readable progress, kept off the last stdout line."""
    print(line, file=sys.stdout, flush=True)


def control_plane_counts(manager) -> dict[str, float]:
    """Public control-plane counters of one provider's manager: the
    process compile cache (reset by each set-up), the placement memo,
    and pipeline compiles over every deployment it ever made."""
    from repro.core.pvnc.compiler import default_compile_cache

    cache = default_compile_cache()
    index = manager.embedding_index
    return {
        "compile_cache_hits": cache.hits,
        "compile_cache_lookups": cache.hits + cache.misses,
        "embed_memo_hits": index.hits if index is not None else 0,
        "embed_memo_lookups": (index.hits + index.misses
                               if index is not None else 0),
        "pipeline_compiles": sum(d.datapath.pipeline_compiles
                                 for d in manager.deployments.values()),
    }


def policy_texts(root: Path) -> dict[str, str]:
    """The repo's two PVNC texts as ``str.format`` templates over
    ``{user}``: the session default and the playground's commuter."""
    import importlib.util

    from repro.core.session import DEFAULT_PVNC_TEXT

    spec = importlib.util.spec_from_file_location(
        "pvnbench_playground", root / "examples" / "pvnc_playground.py")
    playground = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(playground)
    commuter = playground.MY_PVNC
    if '" for bob' not in commuter:
        raise RuntimeError("the playground's commuter PVNC changed shape")
    return {
        "secure-roaming": DEFAULT_PVNC_TEXT,
        "commuter": commuter.replace('" for bob', '" for {user}'),
    }
