"""Order statistics and failure accounting shared by the workloads."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

# Candidate tail percentiles, highest first.  A percentile is only
# reported when at least TAIL_MIN_BEYOND samples rank beyond it, so the
# tail figure never rests on a handful of values.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

ANSWERED = "answered"
TIMED_OUT = "timed-out"


def smoothed(xs: list[float], rank: int) -> float:
    """Order statistic ``rank`` (1-based) of sorted ``xs``, averaged with
    its neighbours: N/10 ranks on each side, but at most half the samples
    ranked beyond it.  One family's timing noise then cannot decide a
    percentile on its own."""
    width = max(1, min(len(xs) // 10, (len(xs) - rank) // 2))
    return statistics.fmean(xs[max(0, rank - 1 - width):rank + width])


def median(values) -> float:
    xs = sorted(values)
    return smoothed(xs, math.ceil(len(xs) / 2))


def tail(values) -> tuple[float, float]:
    """``(percentile, value)`` for the highest listed percentile that has
    at least TAIL_MIN_BEYOND samples ranked beyond it (nearest rank),
    its value smoothed over neighbouring ranks."""
    xs = sorted(values)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(round(p / 100 * len(xs), 9))  # no float spill: 99.9 % of 10 000 is 9990
        if rank >= 1 and len(xs) - rank >= TAIL_MIN_BEYOND:
            return p, smoothed(xs, rank)
    raise ValueError(
        f"{len(xs)} samples leave fewer than {TAIL_MIN_BEYOND} beyond every listed percentile"
    )


@dataclass(frozen=True)
class Item:
    """One timed call on one input: a pack, a phi_enumerate or a canonical_rep.

    ``answers`` is the number of verified labelings the call produced;
    ``output`` fingerprints the answer so two runs can be compared.
    Only ``per_family`` calls enter the latency percentiles.
    """

    key: str
    status: str
    nodes: int
    ms: float
    answers: int = 0
    output: str = ""
    per_family: bool = True
    start: float = 0.0  # clock reading when the call began


@dataclass(frozen=True)
class Pass:
    """One pass over a workload's whole input set."""

    timed_s: float  # the timed calls, checks excluded, at the reference speed
    raw_s: float  # the same calls on the clock
    items: tuple[Item, ...]
    nodes: int  # engine nodes of the answered calls


def family_summary(passes: list[Pass]) -> dict:
    """Latency and failure figures over every pass.

    Each input's latency is its fastest pass, and the throughput is that
    of the fastest pass: on a shared machine, contention from other work
    only ever adds time.  A timed-out call counts at its elapsed time and
    as a failure.
    """
    per_key: dict[str, float] = {}
    attempted = answered = timed_out = 0
    for p in passes:
        for it in p.items:
            attempted += 1
            answered += it.status == ANSWERED
            timed_out += it.status == TIMED_OUT
            if it.per_family:
                per_key[it.key] = min(it.ms, per_key.get(it.key, it.ms))
    best = min(passes, key=lambda p: p.timed_s)
    best_answered = [it for it in best.items if it.status == ANSWERED]
    latencies = list(per_key.values())
    pct, tail_ms = tail(latencies)
    return {
        "attempted": attempted,
        "timed_out": timed_out,
        "fail_share": (attempted - answered) / attempted,
        "ok_share": answered / attempted,
        "families_per_s": len(best_answered) / best.timed_s,
        "p50_ms": median(latencies),
        "tail_ms": tail_ms,
        "tail_pct": pct,
        "samples": len(latencies),
        "best": best,
    }
