"""Packing solver: find one complete labeling per family, or sweep them all.

pack() drives the bitmask backtracking engine and never trusts it: every
labeling it reports as packed is re-verified edge by edge through the
packing module first.  sweep() runs a whole enumeration of families,
optionally across a process pool; reports are merged by family index so
the parallel output is identical to the serial one.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from ._search import ChunkTables, search
from .errors import BadSizeError, BoundExceededError, TreePackError, ValidationError
from .functree import SWEEP_MAX_N, AugTreeFamily, family_count, family_enumerate, is_int
from .packing import Labeling, _labeling_from_injections, is_complete

PACKED = "packed"
EXHAUSTED = "exhausted"
TIMED_OUT = "timed-out"


@dataclass(frozen=True)
class SolveConfig:
    """Search options; identical configs give identical SolveResults."""

    time_limit_ms: int | None = None
    classical_mode: bool = False

    def __post_init__(self) -> None:
        t = self.time_limit_ms  # a NaN deadline never fires, True would be 1 ms
        if t is not None and not (
            (is_int(t) or isinstance(t, float)) and 0 < t <= sys.float_info.max
        ):
            raise ValueError(f"time limit must be a finite positive number of ms, got {t!r}")
        if type(self.classical_mode) is not bool:  # "no" is truthy
            raise ValueError(f"classical_mode must be a bool, got {self.classical_mode!r}")


class SolveResult(NamedTuple):
    """Outcome of one pack() call: the first labeling found, or none.

    Packed results always carry a verified labeling.
    """

    status: str
    labeling: Labeling | None
    nodes_expanded: int
    elapsed_ms: float


class FamilyOutcome(NamedTuple):
    index: int
    status: str
    nodes: int
    millis: float


@dataclass(frozen=True)
class SweepReport:
    n: int
    total: int
    packed: int
    exhausted: int
    timed_out: int
    nodes_total: int
    elapsed_ms: float
    rows: tuple[FamilyOutcome, ...] = field(repr=False)


def pack(
    family: AugTreeFamily,
    config: SolveConfig | None = None,
    *,
    _blocked_pairs=(),
    _tables=None,
) -> SolveResult:
    """First complete labeling of one family, or an exhaustion/timeout claim.

    ``_blocked_pairs`` pre-consumes edges and exists purely so tests can
    reach the exhausted branch; valid families always pack.  ``_tables``
    carries a sweep chunk's shared `_search.ChunkTables`, which the search
    and the verification of its labeling both read; they change no
    result.
    """
    cfg = config or SolveConfig()
    t0 = time.perf_counter()
    outcome = search(
        family,
        classical=cfg.classical_mode,
        first_only=True,
        time_limit_s=None if cfg.time_limit_ms is None else cfg.time_limit_ms / 1000.0,
        blocked_pairs=_blocked_pairs,
        tables=_tables,
    )
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    if outcome.solutions:
        labeling = _labeling_from_injections(family, outcome.solutions[0])
        if not is_complete(family, labeling, classical=cfg.classical_mode, _tables=_tables):
            raise TreePackError("engine produced a non-complete labeling")
        return SolveResult(
            status=PACKED,
            labeling=labeling,
            nodes_expanded=outcome.nodes,
            elapsed_ms=elapsed_ms,
        )
    status = TIMED_OUT if outcome.timed_out else EXHAUSTED
    return SolveResult(
        status=status,
        labeling=None,
        nodes_expanded=outcome.nodes,
        elapsed_ms=elapsed_ms,
    )


def star_identity_labeling(n: int) -> Labeling:
    """The identity labeling, complete for the all-star family on any n."""
    return Labeling(n=n, sigmas=(tuple(range(n)),) * n)


# =====================================================================
# Sweeps over every family of a given size
# =====================================================================

def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def _sweep_chunk(args) -> list[FamilyOutcome]:
    n, start, stop, cfg = args
    rows = []
    # shared by this chunk's searches (one n, one config), dropped with it
    tables = ChunkTables()
    for index, family in enumerate(family_enumerate(n, start, stop), start=start):
        res = pack(family, cfg, _tables=tables)
        rows.append(FamilyOutcome(index, res.status, res.nodes_expanded, res.elapsed_ms))
    return rows


def sweep(
    n: int,
    config: SolveConfig | None = None,
    *,
    workers: int = 1,
) -> SweepReport:
    """pack() every family on Z_n and tally the outcomes.

    Refuses n beyond ``SWEEP_MAX_N`` (the enumeration is a product of
    factorials; n = 8 already means 1.25e11 families).  ``workers`` > 1
    splits the index range into at most ``4 * min(workers, usable CPUs)``
    chunks over a process pool; each chunk builds only its own families,
    and pool.map keeps the chunks in order.  The pool starts no more
    processes than there are chunks or usable CPUs, however large
    ``workers`` is, and the jobs built before any work stay as few.  The
    report does not depend on the chunking.  A non-int n is a
    BadSizeError, and ``workers`` that is no int of at least 1 a
    ValidationError, both before any family is built.
    """
    if not is_int(n):
        raise BadSizeError(f"a sweep size must be an int, not {type(n).__name__}")
    if n > SWEEP_MAX_N:
        raise BoundExceededError(f"sweep at n={n} exceeds the cap n <= {SWEEP_MAX_N}")
    if not is_int(workers) or workers < 1:
        raise ValidationError(f"workers must be an int of at least 1, got {workers!r}")
    cfg = config or SolveConfig()
    total = family_count(n)
    t0 = time.perf_counter()
    if workers == 1:
        rows = _sweep_chunk((n, 0, total, cfg))
    else:
        # every chunk starts with cold search tables, and every job is
        # built up front: no more chunks than the CPUs can use
        cpus = _usable_cpus()
        chunk = max(1, -(-total // (4 * min(workers, cpus))))
        jobs = [
            (n, start, min(start + chunk, total), cfg)
            for start in range(0, total, chunk)
        ]
        # imported here: multiprocessing is not loaded for serial work
        from concurrent.futures import ProcessPoolExecutor

        # the pool starts every worker at once: never more than the jobs
        # or the CPUs this process may run on
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs), cpus)) as pool:
            parts = list(pool.map(_sweep_chunk, jobs))
        rows = [row for part in parts for row in part]
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    by_status = {PACKED: 0, EXHAUSTED: 0, TIMED_OUT: 0}
    for row in rows:
        by_status[row.status] += 1
    return SweepReport(
        n=n,
        total=total,
        packed=by_status[PACKED],
        exhausted=by_status[EXHAUSTED],
        timed_out=by_status[TIMED_OUT],
        nodes_total=sum(r.nodes for r in rows),
        elapsed_ms=elapsed_ms,
        rows=tuple(rows),
    )
