"""The operation record and the seeded input helpers the workloads share."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field


@dataclass
class Op:
    """One closed-loop operation: ``fn(call, *args)`` is timed as a whole.

    ``kind`` groups latencies; ``info`` carries what the check needs;
    ``refusals`` are exception types that are documented answers rather
    than failures.
    """

    kind: str
    fn: object
    args: tuple
    info: dict = field(default_factory=dict)
    refusals: tuple = ()


def rng_for(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{stream}")


def stratified_log_lengths(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` lengths, log-uniform over [lo, hi], one per equal stratum,
    shuffled; stratifying keeps a run's total work steady across seeds."""
    span = math.log(hi / lo)
    out = [round(lo * math.exp(span * (k + rng.random()) / count)) for k in range(count)]
    rng.shuffle(out)
    return out
