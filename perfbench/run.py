#!/usr/bin/env python3
"""Run one PVN benchmark workload and print its metrics.

    python3 perfbench/run.py --workload attach --seed 1 --seconds 20 --trace 0

Workloads: ``attach``, ``traffic``, ``population`` (see README.md).
With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it wraps each layer's entry points and reports the
per-layer metrics and the tracing overhead instead.  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (``{name: {"value": v, "unit": u}}``).  The exit code is
non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no library to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    from pvnbench.driver import WORKLOADS, run_workload

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds,
                          traced=bool(args.trace), root=ROOT)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
