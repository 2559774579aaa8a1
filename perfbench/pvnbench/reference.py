"""A fixed reference computation that measures how fast the host is.

Host time on a shared machine swings by up to 1.8x as other tenants
load the core, for stretches of minutes.  The round loop times this
computation before and after every round.  Each round's host times are
then scaled by ``REFERENCE_S`` over the mean of the two timings, so a
round run while the core was contended reads close to one run on an
idle core.

The work mixes what the workloads do: interpreter-bound object, dict
and keyed-hash churn (which slows most under contention) and numpy
reductions over a few arrays (which slow least).  It uses only the
standard library and numpy, never this repository's code, so a change
to the program cannot move it.
"""

from __future__ import annotations

import hashlib
import hmac

import numpy as np

#: One run of the reference on an uncontended core of the host the
#: benchmark was calibrated on (2-vCPU x86_64 VM, Python 3.11,
#: numpy 2.x).  Scaled times read as host times on that core.
REFERENCE_S = 0.0040

_KEY = b"pvnbench-reference-key-000000000"
_VALUES = np.random.default_rng(20161109).random(40_000)
_CELLS = (np.arange(40_000) * 7919 % 64).astype(np.int64)


class _Record:
    __slots__ = ("src", "meta", "trail")

    def __init__(self, src: str) -> None:
        self.src = src
        self.meta: dict[str, object] = {}
        self.trail: list[str] = []


def reference_work() -> float:
    """The fixed computation; returns a checksum so nothing is skipped."""
    total = 0.0
    table: dict[int, _Record] = {}
    for i in range(700):
        record = _Record("10.0.%d.%d" % (i >> 8, i & 255))
        record.meta["class"] = "web" if i & 1 else "video"
        record.trail.append("agg")
        table[i & 127] = record
        total += hmac.new(_KEY, record.src.encode(), hashlib.sha256).digest()[0]
    for _ in range(3):
        rates = np.minimum(_VALUES, 0.5)
        used = np.bincount(_CELLS, weights=rates, minlength=64)
        order = np.argsort(_VALUES[:8000], kind="stable")
        total += float(used.sum()) + float(order[0])
    return total + len(table)
