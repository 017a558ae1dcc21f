"""The three workloads: their inputs, one timed pass, and the output checks.

Every workload calls treepack through module attributes
(``solver.pack``, ``packing.phi_enumerate``, ...) so that the tracer in
``layers.py`` can wrap exactly those names.  Output checks run between
the timed calls, outside the timers, inside ``self.untraced()`` so that
a traced run does not count their calls.  Check failures raise
CheckFailed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import random
import time
from pathlib import Path

from treepack import _search, certificate, functree, packing, solver

from .speed import slowdown_now
from .stats import ANSWERED, TIMED_OUT, Item, Pass

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())

# frontier: the ROADMAP's frontier families, generate_family(n,
# "random-uniform", 7919 * n + j) for j < count.  The set is fixed: on a
# seeded random set the heavy-tailed search cost moves the pass time by
# about 20 % from one seed to the next, more than any useful bound.
FRONTIER_SIZES = ((12, 40), (16, 40), (20, 20), (24, 8))
# The limit is at the reference speed: before each call it is stretched
# by the machine's current slowdown, so a family times out when its work
# exceeds the limit, whatever the load.  The nearest families took
# 0.51-0.56 s (24:5) and 1.34-1.48 s (20:10) at the reference speed,
# about 1.6x below and 1.5x above the limit, so the same four families
# time out on every run.
FRONTIER_LIMIT_MS = 900

# exhaustive: the shapes of generate_family(5, "mixed", s) for s < count,
# each tree relabeled by a seeded random increasing labeling.  Member
# counts and full-enumeration node counts do not depend on the labeling,
# so every seed does the same work on different labeled inputs.
EXHAUSTIVE_N = 5
EXHAUSTIVE_SHAPES = 40
CANONICAL_N = 3


class CheckFailed(Exception):
    """A treepack output failed one of the benchmark's checks."""


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def relabel(tree, rng: random.Random):
    """Isomorphic copy of a semigroup-form tree under a random increasing
    labeling (every parent labeled below its children)."""
    m = tree.m
    kids: list[list[int]] = [[] for _ in range(m)]
    for v in range(1, m):
        kids[tree.map[v]].append(v)
    label = [0] * m
    fresh = 1
    ready = list(kids[0])
    while ready:
        v = ready.pop(rng.randrange(len(ready)))
        label[v] = fresh
        fresh += 1
        ready.extend(kids[v])
    parents = [0] * m
    for v in range(1, m):
        parents[label[v]] = label[tree.map[v]]
    return functree.build_tree(parents, tree.n)


class Workload:
    name = ""
    # clock seconds a pass is counted at when a run's passes are planned:
    # about one pass's time when written, on a loaded machine; fixed, so
    # that a faster treepack makes the same number of passes
    pass_budget_s = 15.0

    def __init__(self, seed: int, tracer=None, speed=None):
        self.seed = seed
        self.tracer = tracer
        self.untraced = tracer.suspended if tracer else contextlib.nullcontext
        self.speed = speed  # a SpeedMeter scales timings to the reference speed
        # output fingerprint per input, recorded once fully verified; a
        # later pass that reproduces it needs no second verification
        self.verified: dict[str, str] = {}

    def build(self) -> None:
        """Make the inputs from the seed (this is what setup_s times)."""

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def families(self) -> int:
        """Families one pass hands to treepack."""
        raise NotImplementedError

    def timed(self, call, *args, **kwargs):
        """``(result, start, seconds)`` of one call."""
        t0 = time.perf_counter()
        result = call(*args, **kwargs)
        return result, t0, time.perf_counter() - t0

    def finish(self, items: list[Item]) -> Pass:
        """A pass of separately timed calls, scaled to the reference speed."""
        if self.speed:
            items = [_net(it, self.speed) for it in items]
            raw_s = sum(it.ms for it in items) / 1e3
            items = [_scaled(it, self.speed) for it in items]
        else:
            raw_s = sum(it.ms for it in items) / 1e3
        return Pass(
            timed_s=sum(it.ms for it in items) / 1e3,
            raw_s=raw_s,
            items=tuple(items),
            nodes=sum(it.nodes for it in items if it.status == ANSWERED),
        )


def _net(it: Item, speed) -> Item:
    """The call's clock time less the probes that interrupted it."""
    end = it.start + it.ms / 1e3
    return dataclasses.replace(it, ms=it.ms - speed.probe_seconds(it.start, end) * 1e3)


def _scaled(it: Item, speed) -> Item:
    if it.status == TIMED_OUT:
        # it ran until its limit, which was stretched to the reference speed
        return dataclasses.replace(it, ms=float(FRONTIER_LIMIT_MS))
    return dataclasses.replace(it, ms=it.ms * speed.scale(it.start, it.start + it.ms / 1e3))


class Sweep6(Workload):
    """sweep(6): all 34 560 families, serial.  The seed has nothing to
    choose; the input is the whole enumeration."""

    name = "sweep6"
    n = 6

    def build(self) -> None:
        self.total = functree.family_count(self.n)

    def families(self) -> int:
        return self.total

    def run_pass(self) -> Pass:
        # sweep is one call: note when each pack starts and ends, so that
        # each row is the whole pack call, verification and labeling
        # included, and is scaled by the speed around it
        spans: list[tuple[float, float]] = []
        original = solver.pack

        def pack(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                spans.append((t0, time.perf_counter()))

        solver.pack = pack
        try:
            report, t0, wall = self.timed(solver.sweep, self.n, workers=1)
        finally:
            solver.pack = original
        with self.untraced():
            if report.total != self.total or report.packed != self.total:
                raise CheckFailed(
                    f"sweep({self.n}) packed {report.packed} of {report.total} "
                    f"families, expected {self.total}"
                )
            items = [
                Item(key=str(r.index), status=ANSWERED, nodes=r.nodes,
                     ms=(spans[r.index][1] - spans[r.index][0]) * 1e3,
                     answers=1, output=str(r.nodes), start=spans[r.index][0])
                for r in report.rows
            ]
        if not self.speed:
            return Pass(timed_s=wall, raw_s=wall, items=tuple(items), nodes=report.nodes_total)
        end = t0 + wall
        raw_s = wall - self.speed.probe_seconds(t0, end)
        # the sweep's time, cut at each pack call and scaled piece by piece
        cuts = [t0, *(a for a, _ in spans), end]
        timed_s = sum(
            (b - a - self.speed.probe_seconds(a, b)) * self.speed.scale(a, b)
            for a, b in zip(cuts, cuts[1:])
        )
        items = [_scaled(_net(it, self.speed), self.speed) for it in items]
        return Pass(timed_s=timed_s, raw_s=raw_s, items=tuple(items), nodes=report.nodes_total)


class Frontier(Workload):
    """First-solution search on the ROADMAP frontier set under a time
    limit at the reference speed; the seed only chooses the order the
    families are packed in."""

    name = "frontier"

    def build(self) -> None:
        self.inputs = [
            (f"{n}:{j}", functree.generate_family(n, "random-uniform", 7919 * n + j))
            for n, count in FRONTIER_SIZES
            for j in range(count)
        ]
        random.Random(self.seed).shuffle(self.inputs)
        self.config = solver.SolveConfig(time_limit_ms=FRONTIER_LIMIT_MS)

    def families(self) -> int:
        return len(self.inputs)

    def run_pass(self) -> Pass:
        items = []
        for key, family in self.inputs:
            slowdown = self.speed.slowdown() if self.speed else slowdown_now()
            config = dataclasses.replace(
                self.config, time_limit_ms=round(FRONTIER_LIMIT_MS * slowdown))
            res, t0, dt = self.timed(solver.pack, family, config)
            with self.untraced():
                items.append(self._check(key, family, res, t0, dt))
        return self.finish(items)

    def _check(self, key, family, res, t0, dt) -> Item:
        if res.status == solver.TIMED_OUT:
            return Item(key=key, status=TIMED_OUT, nodes=res.nodes_expanded, ms=dt * 1e3,
                        start=t0)
        if res.status != solver.PACKED:
            raise CheckFailed(f"frontier family {key}: {res.status} on a valid family")
        lab = res.labeling
        output = digest(lab.sigmas)
        if self.verified.get(key) != output:
            if not packing.is_complete(family, lab):
                raise CheckFailed(f"frontier family {key}: labeling is not complete")
            arcs = packing.orientation(family, lab).arcs
            if len(arcs) != family.n * (family.n + 1) // 2:
                raise CheckFailed(f"frontier family {key}: orientation has {len(arcs)} arcs")
            self.verified[key] = output
        return Item(
            key=key,
            status=ANSWERED,
            nodes=res.nodes_expanded,
            ms=dt * 1e3,
            answers=1,
            output=output,
            start=t0,
        )


class Exhaustive(Workload):
    """Every essential member of Phi for seeded n=5 families, then the
    phi-sum canonical representative of both n=3 families."""

    name = "exhaustive"
    pass_budget_s = 30.0

    def build(self) -> None:
        rng = random.Random(self.seed)
        self.inputs = []
        for s in range(EXHAUSTIVE_SHAPES):
            base = functree.generate_family(EXHAUSTIVE_N, "mixed", s)
            trees = tuple(relabel(t, rng) for t in base.trees)
            self.inputs.append((f"{EXHAUSTIVE_N}:{s}", functree.AugTreeFamily(n=base.n, trees=trees)))
        self.cert_inputs = list(functree.family_enumerate(CANONICAL_N))

    def families(self) -> int:
        return len(self.inputs) + len(self.cert_inputs)

    def run_pass(self) -> Pass:
        meter = self.tracer.counts  # phi_enumerate does not report nodes
        items = []
        for key, family in self.inputs:
            before = meter["search.nodes"]
            (members, count), t0, dt = self.timed(packing.phi_enumerate, family, mode="essential")
            nodes = meter["search.nodes"] - before
            with self.untraced():
                output = self._check_members(key, family, members, count)
            items.append(Item(key=key, status=ANSWERED, nodes=nodes, ms=dt * 1e3,
                              answers=count, output=output, start=t0))
        for i, family in enumerate(self.cert_inputs):
            key = f"{CANONICAL_N}:{i}"
            before = meter["search.nodes"]
            rep, t0, dt = self.timed(certificate.canonical_rep, family, mode="phi-sum")
            nodes = meter["search.nodes"] - before
            with self.untraced():
                output = self._check_rep(key, i, family, rep)
            items.append(Item(key=key, status=ANSWERED, nodes=nodes, ms=dt * 1e3,
                              output=output, start=t0, per_family=False))
        return self.finish(items)

    def _check_members(self, key, family, members, count) -> str:
        want = GOLDEN["exhaustive_members"][key]
        if count != len(members) or count != want:
            raise CheckFailed(
                f"exhaustive family {key}: {count} members listed as {len(members)}, golden {want}"
            )
        output = digest([m.sigmas for m in members])
        if self.verified.get(key) == output:
            return output
        if len({m.sigmas for m in members}) != count:
            raise CheckFailed(f"exhaustive family {key}: repeated members")
        for m in members:
            if not packing.is_complete(family, m):
                raise CheckFailed(f"exhaustive family {key}: member {m.sigmas} is not complete")
        # reconcile with the symmetry-pruned enumeration: the pruned count
        # times the exact multiplier the pruning removes is the full count
        pruned = _search.search(family, symmetry_pruning=True, first_only=False)
        if len(pruned.solutions) * pruned.symmetry_factor != count:
            raise CheckFailed(
                f"exhaustive family {key}: pruned count {len(pruned.solutions)} x "
                f"{pruned.symmetry_factor} != {count}"
            )
        self.verified[key] = output
        return output

    def _check_rep(self, key, i, family, rep) -> str:
        output = digest(rep.to_text())
        if output != GOLDEN["canonical_rep_digests"][i]:
            raise CheckFailed(f"canonical_rep of family {key}: digest {output}")
        # the library's own cross-check recomputes the representative, so
        # it runs once per input; later passes match the digest
        if key not in self.verified:
            if not certificate.nonvanishing_equivalence_check(family):
                raise CheckFailed(f"family {key}: nonvanishing equivalence fails")
            self.verified[key] = output
        return output


WORKLOADS = {w.name: w for w in (Sweep6, Frontier, Exhaustive)}
