"""Backtracking engine: soundness, exhaustiveness, determinism, restarts."""

import concurrent.futures
import functools
import hashlib
import itertools
import math
import operator
import random
import re
import sys
import time
import types

import pytest

from treepack import (
    EXHAUSTED,
    AugTreeFamily,
    PACKED,
    TIMED_OUT,
    BadSizeError,
    BoundExceededError,
    Labeling,
    SolveConfig,
    TreePackError,
    ValidationError,
    family_count,
    family_enumerate,
    generate,
    generate_family,
    is_complete,
    pack,
    star_family,
    sweep,
)
from treepack import _search, packing, solver
from treepack._search import RESTART_BASE_BUDGET, SearchOutcome, luby, search
from treepack.packing import phi_enumerate


def brute_force_phi(fam):
    """Ground truth by sheer enumeration of all (n!)^n labelings."""
    n = fam.n
    found = set()
    perms = list(itertools.permutations(range(n)))
    for combo in itertools.product(perms, repeat=n):
        lab = Labeling(n=n, sigmas=combo)
        if is_complete(fam, lab):
            found.add(tuple(lab.sigmas[k][: k + 1] for k in range(n)))
    return found


def test_pack_result_is_verified(monkeypatch):
    for seed in range(30):
        fam = generate_family(8, "mixed", seed=seed)
        res = pack(fam)
        assert res.status == PACKED
        assert is_complete(fam, res.labeling)
        assert res.nodes_expanded > 0
        assert res.elapsed_ms >= 0
    # pack never trusts the engine: a solution whose two loops both sit
    # on vertex 0 (slot 0's root at position 0, slot 1's at position 1)
    # is refused, not reported as packed
    colliding = SearchOutcome(
        solutions=[((0, 1), (1, 0))], nodes=3, timed_out=False, symmetry_factor=1
    )
    monkeypatch.setattr(solver, "search", lambda *args, **kwargs: colliding)
    with pytest.raises(TreePackError, match="non-complete"):
        pack(star_family(2))


def test_every_family_packs_n4_and_n5():
    for n in (4, 5):
        for fam in family_enumerate(n):
            assert pack(fam).status == PACKED


def test_determinism():
    fam = generate_family(10, "random-uniform", seed=123)
    first = pack(fam, SolveConfig())
    second = pack(fam, SolveConfig())
    assert first.nodes_expanded == second.nodes_expanded
    assert first.labeling == second.labeling
    assert first.status == second.status


def test_exhaustive_enumeration_equals_brute_force():
    """The engine must lose no essential member at n = 3: unpruned
    enumeration (through phi_enumerate) equals sheer brute force, and the
    symmetry cuts account for exactly the members they drop."""
    for fam in family_enumerate(3):
        truth = brute_force_phi(fam)
        members, _ = phi_enumerate(fam, mode="essential")
        assert {
            tuple(m.sigmas[k][: k + 1] for k in range(3)) for m in members
        } == truth
        pruned = search(fam, symmetry_pruning=True, first_only=False)
        assert bool(pruned.solutions) == bool(truth)
        assert len(pruned.solutions) * pruned.symmetry_factor == len(truth)


def test_pruned_feasibility_matches_phi_at_n4():
    for fam in family_enumerate(4):
        members, _ = phi_enumerate(fam, mode="essential")
        assert pack(fam).status == PACKED
        assert members  # every n=4 family has a nonempty Phi


def test_blocked_pairs_force_exhausted():
    fam = star_family(3)
    # consuming the {0,1} edge up front leaves too few pairs to tile, and
    # with a pair blocked the exact cover at step 0 says so in 0 nodes
    res = pack(fam, _blocked_pairs=((0, 1),))
    assert res.status == EXHAUSTED
    assert res.nodes_expanded == 0
    assert res.labeling is None


def test_blocked_pairs_stay_exhausted_across_restarts(monkeypatch):
    """With a one-node unit nearly every attempt runs out of budget; the
    schedule must still end in an exhaustion proof, not a timeout or an
    endless loop."""
    monkeypatch.setattr(_search, "RESTART_BASE_BUDGET", 1)
    res = pack(star_family(3), _blocked_pairs=((0, 1),))
    assert res.status == EXHAUSTED
    assert res.labeling is None
    # the exact cover refutes that at the root, in 0 nodes; without it the
    # refutation takes 4 nodes, so the attempts of 1, 1, 2, 1, 1 and 2
    # units run out of budget before the one of 4 units completes
    monkeypatch.setattr(_search, "_boundary_feasible", lambda *args: True)
    res = pack(star_family(4), _blocked_pairs=((0, 1),))
    assert res.status == EXHAUSTED
    assert res.nodes_expanded > 4


def cover_oracle(j, pairfree, loops_used, classical):
    """Ground truth for the boundary exact cover, by trying every target
    for every remaining tree.

    The targets are the components of the free-pair graph and, with
    loops, each vertex that keeps a free loop but no free pair.  Tree m
    takes m - 1 pairs and (with loops) one loop from a target that has at
    least m vertices; in classical mode the one-vertex tree takes nothing
    and is left out.  An assignment is accepted when it uses every
    target's pairs and loops exactly.
    """
    n = len(pairfree)
    targets = []  # [vertices, pairs, free loops]
    seen = set()
    for v in range(n):
        if v in seen:
            continue
        if not pairfree[v]:
            if not classical and not loops_used >> v & 1:
                targets.append([1, 0, 1])
            continue
        comp, stack = {v}, [v]
        while stack:
            u = stack.pop()
            for w in range(n):
                if pairfree[u] >> w & 1 and w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        pairs = sum(1 for u in comp for w in comp if u < w and pairfree[u] >> w & 1)
        loops = 0 if classical else sum(1 for u in comp if not loops_used >> u & 1)
        targets.append([len(comp), pairs, loops])
    sizes = [m for m in range(j, 0, -1) if not (classical and m == 1)]
    loop = 0 if classical else 1

    def assign(k):
        if k == len(sizes):
            return all(t[1] == 0 and t[2] == 0 for t in targets)
        m = sizes[k]
        for t in targets:
            if t[0] >= m and t[1] >= m - 1 and t[2] >= loop:
                t[1] -= m - 1
                t[2] -= loop
                ok = assign(k + 1)
                t[1] += m - 1
                t[2] += loop
                if ok:
                    return True
        return False

    return assign(0)


def _random_state(rng):
    """Random free pairs on 1-9 vertices, a random loop mask and j."""
    n = rng.randint(1, 9)
    density = rng.choice((0.2, 0.5, 0.8))
    pairfree = [0] * n
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < density:
            pairfree[a] |= 1 << b
            pairfree[b] |= 1 << a
    return rng.randint(0, n), pairfree, rng.getrandbits(n)


def _matched_state(rng, classical):
    """A state whose pair and loop totals suit sizes j..1: the sizes are
    grouped at random, and each group gets a connected component with
    exactly its pairs and (with loops) one free loop per tree, on as few
    vertices as hold the pairs, on one per pair plus one, or in between.
    A group given fewer vertices than its largest tree is no cover as
    built, and only the vertex-count test tells that apart (random states
    rarely reach it)."""
    j = rng.randint(1, 7)
    sizes = list(range(j, 0, -1))
    rng.shuffle(sizes)
    groups = []
    while sizes:
        cut = rng.randint(1, len(sizes))
        groups.append(sizes[:cut])
        sizes = sizes[cut:]
    edges, free_loops, n = [], [], 0
    for group in groups:
        pairs = sum(group) - len(group)
        if not pairs:  # the one-vertex tree alone
            if not classical:
                free_loops.append(n)
                n += 1
            continue
        fewest = next(v for v in itertools.count(2) if v * (v - 1) // 2 >= pairs)
        v = rng.choice((fewest, rng.randint(fewest, pairs + 1), pairs + 1))
        verts = list(range(n, n + v))
        chosen = {(verts[rng.randrange(k)], verts[k]) for k in range(1, v)}  # spanning tree
        rest = [e for e in itertools.combinations(verts, 2) if e not in chosen]
        chosen |= set(rng.sample(rest, pairs - len(chosen)))
        edges += chosen
        free_loops += rng.sample(verts, len(group))
        n += v
    n += rng.randint(0, 2)  # vertices with nothing left
    relabel = list(range(n))
    rng.shuffle(relabel)
    pairfree = [0] * n
    for a, b in edges:
        pairfree[relabel[a]] |= 1 << relabel[b]
        pairfree[relabel[b]] |= 1 << relabel[a]
    loops_used = (1 << n) - 1
    for v in free_loops:
        loops_used &= ~(1 << relabel[v])
    return j, pairfree, loops_used


def test_boundary_exact_cover_matches_brute_force():
    """`_boundary_feasible` decides the exact cover exactly, in both
    modes: on random states, on states whose totals already match, and
    on one-pair near misses of those."""
    rng = random.Random(20240611)
    agreed = feasible = 0
    for classical in (False, True):
        for _ in range(700):
            states = [_random_state(rng), _matched_state(rng, classical)]
            j, pairfree, loops_used = states[1]
            if len(pairfree) >= 2:
                a, b = rng.sample(range(len(pairfree)), 2)
                near = list(pairfree)
                near[a] ^= 1 << b
                near[b] ^= 1 << a
                states.append((j, near, loops_used))
            for j, pairfree, loops_used in states:
                want = cover_oracle(j, pairfree, loops_used, classical)
                got = _search._boundary_feasible(j, list(pairfree), loops_used, classical)
                assert got == want, (j, pairfree, loops_used, classical)
                agreed += 1
                feasible += want
    # both answers occur often, so neither a constant True nor False passes
    assert agreed > 3000
    assert 300 < feasible < agreed - 300


def test_boundary_verdicts_on_engine_states(monkeypatch):
    """`_boundary_feasible` agrees with the oracle on every state the
    engine asks it about while packing the n = 12 frontier families,
    `sweep(5)` and the classical `sweep(4)`: real states, where the
    early refutations (orphan loops, a loopless component) do most of
    the work.  A lone `pack` asks at every boundary but the first two
    (steps 0 and n, where with no pair blocked it cannot fail), and a
    sweep chunk only where its memo misses past them: 2 997 calls here,
    on 2 171 distinct states."""
    states = []
    decide = _search._boundary_feasible

    def record(j, pairfree, loops_used, classical):
        states.append((j, tuple(pairfree), loops_used, classical))
        return decide(j, pairfree, loops_used, classical)

    monkeypatch.setattr(_search, "_boundary_feasible", record)
    for j in range(40):
        assert pack(generate_family(12, "random-uniform", 7919 * 12 + j)).status == PACKED
    sweep(5)
    sweep(4, SolveConfig(classical_mode=True))
    feasible = orphaned = 0
    for j, pairfree, loops_used, classical in states:
        want = cover_oracle(j, pairfree, loops_used, classical)
        assert decide(j, list(pairfree), loops_used, classical) == want, (
            j, pairfree, loops_used, classical
        )
        feasible += want
        if not classical:  # vertices that keep a free loop but no free pair
            live = functools.reduce(operator.or_, pairfree)
            orphans = ((1 << len(pairfree)) - 1 & ~live & ~loops_used).bit_count()
            orphaned += orphans > 1 or (orphans == 1 and not j)
    assert len(set(states)) == 2171
    assert (len(states), feasible, orphaned) == (2997, 1219, 1519)


def test_boundary_early_refutations():
    """The refutations that come before the size list: an orphan loop
    with no tree left, and a component with pairs but no free loop."""
    # one vertex, its loop free, and no tree left to take it
    assert cover_oracle(0, [0], 0, False) is False
    assert _search._boundary_feasible(0, [0], 0, False) is False
    # path 0-1-2 with free loops fits each of the sizes 3, 2 and 1; the
    # pair 3-4 has used loops, so no tree can be rooted there
    pairfree = [0b10, 0b101, 0b10, 0b10000, 0b1000]
    loops_used = 0b11000
    assert cover_oracle(3, pairfree, loops_used, False) is False
    assert _search._boundary_feasible(3, list(pairfree), loops_used, False) is False
    # classical mode ignores loops: trees 3 and 2 take the path and the pair
    assert cover_oracle(3, pairfree, 0, True) is True
    assert _search._boundary_feasible(3, list(pairfree), 0, True) is True


def _spanning_state(tree, relabel):
    """K_n less the spanning ``tree``'s pairs, its vertices renamed by
    ``relabel``, with the root's loop used: the state at step n."""
    n = tree.n
    pairfree = [((1 << n) - 1) & ~(1 << v) for v in range(n)]
    for v in tree.component():
        if v != tree.root:
            a, b = relabel[v], relabel[tree.map[v]]
            pairfree[a] &= ~(1 << b)
            pairfree[b] &= ~(1 << a)
    return pairfree, 1 << relabel[tree.root]


def test_exact_cover_passes_at_steps_0_and_n():
    """With no pair blocked the engine skips the exact cover at steps 0
    and n; the proof sits in `search`.  Every rooted shape of size n <= 8
    is in `family_enumerate`'s size-n pool, which the first (n-1)!
    families of size n run through in their largest slot.  For each of
    them, and for stars, paths and uniform random trees of size 12 to
    64 under random relabelings (frontier searches are lone), the test
    accepts K_n with no loop used and K_n less the tree with its root's
    loop used, in both modes."""
    rng = random.Random(26)
    trees = []
    for n in range(1, 9):
        pool = itertools.islice(family_enumerate(n), math.factorial(n - 1))
        trees += [(fam.trees[-1], list(range(n))) for fam in pool]
    assert len(trees) == sum(math.factorial(m - 1) for m in range(1, 9))
    for n in (12, 16, 24, 32, 48, 64):
        for kind, seeds in (("star", 1), ("path", 1), ("random-uniform", 4)):
            for seed in range(seeds):
                relabel = list(range(n))
                rng.shuffle(relabel)
                trees.append((generate(kind, n, seed=seed), relabel))
    for tree, relabel in trees:
        n = tree.n
        start = [((1 << n) - 1) & ~(1 << v) for v in range(n)]
        pairfree, loops_used = _spanning_state(tree, relabel)
        for classical in (False, True):
            assert _search._boundary_feasible(n, list(start), 0, classical)
            assert _search._boundary_feasible(n - 1, list(pairfree), loops_used, classical), (
                tree, relabel, classical
            )


def test_time_limit_reports_timed_out():
    # 5050 steps and no backtracking: the deadline check at node 4096
    # fires whatever the restart schedule does
    res = pack(star_family(100), SolveConfig(time_limit_ms=1))
    assert res.status == TIMED_OUT
    assert res.labeling is None
    assert res.nodes_expanded == 4096
    # full enumeration: a boundary memo hit carries the count from below
    # 4096 to 4103 in one add, and the deadline check fires there
    full = search(
        generate_family(5, "mixed", 2), symmetry_pruning=False, first_only=False, time_limit_s=0
    )
    assert full.timed_out
    assert full.nodes == 4103


def test_luby_sequence():
    assert [luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def test_restart_schedule_recovers_heavy_tail():
    """Two seeds whose ascending-order search wanders for millions of
    nodes; the perturbed restarts must still pack them quickly and
    deterministically."""
    for n, kind, seed, nodes in (
        (11, "mixed", 1083213135, 2123),
        (13, "random-uniform", 260134706000, 2147),
    ):
        fam = generate_family(n, kind, seed=seed)
        res = pack(fam)
        assert res.status == PACKED
        assert is_complete(fam, res.labeling)
        # attempt 0's budget was exhausted before the solution came
        assert res.nodes_expanded > RESTART_BASE_BUDGET
        assert res.nodes_expanded == pack(fam).nodes_expanded == nodes


def test_node_counts_are_frozen():
    """Node counts are a pure function of (family, options), so they pin
    down what the prunes cut: a prune that cuts more or less changes them.
    Every frontier family here outlasts attempt 0, so these also pin
    down the restart schedule's offsets."""
    assert sweep(5, SolveConfig(classical_mode=True)).nodes_total == 5701
    for n, j, nodes in (
        (16, 20, 3323), (12, 25, 3611), (20, 10, 4438), (24, 0, 2760), (24, 2, 8724)
    ):
        fam = generate_family(n, "random-uniform", 7919 * n + j)
        assert pack(fam).nodes_expanded == nodes
    # full enumeration, which memoizes tree boundaries: node count, member
    # count and a digest of the solutions in order.  The digests predate
    # permutation rows: they hash each slot's head mapped back through the
    # (0 k) swap, the images of stored vertices 0..k.  With pruning the
    # largest tree is pinned to the identity, so those counts start at
    # step n
    for s, pruning, frozen in (
        (0, False, (36685, 4080, "e7a978b49e430f2e")),
        (0, True, (303, 34, "70093dada65367ab")),
        (1, False, (39565, 5760, "0b7c6b6fc26a78a2")),
        (1, True, (70, 8, "d78e1050e87c1477")),
    ):
        full = search(generate_family(5, "mixed", s), symmetry_pruning=pruning, first_only=False)
        injections = [
            tuple(
                tuple(sig[k if v == 0 else 0 if v == k else v] for v in range(k + 1))
                for k, sig in enumerate(sol)
            )
            for sol in full.solutions
        ]
        digest = hashlib.sha256(repr(injections).encode()).hexdigest()[:16]
        assert (full.nodes, len(full.solutions), digest) == frozen


def test_pruned_count_n7_is_frozen():
    """|Phi| at n = 7, where no listing reaches: the pruned search lists
    51 840 identity-pinned rows of generate_family(7, "mixed", 1) in
    1 213 716 nodes, and times its symmetry factor, 7! relabelings times
    the tail's 12 leaf orders, they count 3 135 283 200 essential members,
    the count the search gave when it pinned only the largest root."""
    pruned = search(generate_family(7, "mixed", 1), first_only=False)
    assert (len(pruned.solutions), pruned.nodes) == (51840, 1213716)
    assert pruned.symmetry_factor == 5040 * 12
    assert len(pruned.solutions) * pruned.symmetry_factor == 3_135_283_200


def test_frontier_node_counts_are_frozen():
    """The benchmark's frontier set, packed with no limit: the node total
    and a digest of every family's count."""
    counts = []
    for n, count in ((12, 40), (16, 40), (20, 20), (24, 8)):
        for j in range(count):
            res = pack(generate_family(n, "random-uniform", 7919 * n + j))
            assert res.status == PACKED
            counts.append((f"{n}:{j}", res.nodes_expanded))
    digest = hashlib.sha256(repr(sorted(counts)).encode()).hexdigest()[:16]
    assert (sum(c for _, c in counts), digest) == (276559, "c5ddf1ad313786d0")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_restart_seed_packs_the_frontier_reproducibly(monkeypatch, seed):
    """Frontier families 24:0 and 24:2 run for seconds in ascending order;
    under any of these schedule seeds they pack after a restart, verify,
    and repeat their labeling and node count exactly."""
    monkeypatch.setattr(_search, "RESTART_SEED", seed)
    for j in (0, 2):
        fam = generate_family(24, "random-uniform", 7919 * 24 + j)
        first = pack(fam)
        again = pack(fam)
        assert first.status == PACKED
        assert is_complete(fam, first.labeling)
        assert first.nodes_expanded > RESTART_BASE_BUDGET
        assert (first.labeling, first.nodes_expanded) == (
            again.labeling, again.nodes_expanded
        )


def test_deep_family_leaves_the_recursion_limit_alone(monkeypatch):
    """1275 steps is deeper than the default recursion limit; the engine
    must neither recurse that deep nor change the limit to cope."""

    def refuse(limit):
        raise AssertionError(f"search changed the recursion limit to {limit}")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    res = pack(star_family(50))
    assert res.status == PACKED
    assert res.nodes_expanded == 1275


def test_enumeration_deterministic_and_counts_match():
    fam = next(family_enumerate(3))
    full = search(fam, symmetry_pruning=False, first_only=False)
    again = search(fam, symmetry_pruning=False, first_only=False)
    assert full.nodes == again.nodes
    assert full.solutions == again.solutions
    _, essential = phi_enumerate(fam, mode="essential")
    assert len(full.solutions) == essential


def assert_edge_disjoint(fam, solutions, blocked):
    """Replay each solution's arcs through the compiled trees: no edge,
    loop or pair, is used twice, and none is a pre-consumed pair."""
    n = fam.n
    for row in solutions:
        edges = [
            (min(sig[a], sig[b]), max(sig[a], sig[b]))
            for tree, sig in zip(fam.trees, row)
            for a, b in tree.compiled().arcs
        ]
        assert len(edges) == n * (n + 1) // 2
        assert len(set(edges) | set(blocked)) == len(edges) + len(blocked)


def test_solutions_are_edge_disjoint():
    """Every solution tiles without a repeated edge, with and without
    pre-consumed pairs, and the outcome is that of a search through a
    sweep chunk's tables (first-only) or of a second search (full
    enumeration)."""
    for fam, blocked, first_only in (
        (generate_family(6, "mixed", seed=9), (), True),
        (generate_family(12, "random-uniform", 7919 * 12 + 25), (), True),
        (generate_family(7, "mixed", seed=2), ((0, 1), (2, 5)), True),
        (star_family(3), ((0, 1),), True),
        # restarts with nonzero scan offsets: rotated scans
        (generate_family(24, "random-uniform", 7919 * 24), (), True),
        # full enumeration, boundary memo hits included
        (generate_family(5, "mixed", seed=1), (), False),
    ):
        plain = search(fam, blocked_pairs=blocked, first_only=first_only)
        assert_edge_disjoint(fam, plain.solutions, blocked)
        tables = _search.ChunkTables() if first_only else None
        other = search(fam, blocked_pairs=blocked, first_only=first_only, tables=tables)
        assert other.solutions == plain.solutions
        assert other.nodes == plain.nodes


def test_classical_mode_packs_and_verifies():
    for seed in range(10):
        fam = generate_family(7, "mixed", seed=seed)
        res = pack(fam, SolveConfig(classical_mode=True))
        assert res.status == PACKED
        assert is_complete(fam, res.labeling, classical=True)


def test_solve_config_validation():
    for bad in (
        {"time_limit_ms": 0},
        {"time_limit_ms": -1.5},
        {"time_limit_ms": float("nan")},  # a NaN deadline never fires
        {"time_limit_ms": float("inf")},
        {"time_limit_ms": 10**400},  # no float holds it: pack would overflow
        {"time_limit_ms": True},  # would read as a 1 ms limit
        {"time_limit_ms": "5"},
        {"classical_mode": "no"},  # truthy: would switch classical mode on
        {"classical_mode": 1},
        {"classical_mode": None},
    ):
        with pytest.raises(ValueError):
            SolveConfig(**bad)
    for limit in (None, 1, 0.5, 900.0, 10**30):
        assert SolveConfig(time_limit_ms=limit).time_limit_ms == limit
    for mode in (False, True):
        assert SolveConfig(classical_mode=mode).classical_mode is mode


# --- sweeps -------------------------------------------------------------


def test_sweep_n4_all_pack():
    report = sweep(4)
    assert report.total == 12
    assert report.packed == 12
    assert report.exhausted == 0 and report.timed_out == 0
    assert report.nodes_total == sum(r.nodes for r in report.rows)
    assert [r.index for r in report.rows] == list(range(12))


@pytest.mark.parametrize("workers", ["2", 2.5, True, 0, -3])
def test_sweep_refuses_workers_that_are_no_int_of_at_least_one(monkeypatch, workers):
    """"2" raised a bare TypeError, 2.5 and True ran, and 0 and -3 ran
    serially; each is refused, naming the value, before any family is
    built."""
    monkeypatch.setattr(solver, "family_enumerate", lambda *a: pytest.fail("built a family"))
    with pytest.raises(ValidationError, match=re.escape(f"got {workers!r}")):
        sweep(4, workers=workers)


def test_sweep_parallel_matches_serial():
    """A sweep's rows do not depend on how it is cut.  The chunk size
    follows the usable CPUs, so explicit 15-family slices, whose cuts
    fall inside `sweep(5)`'s tails of 24 families and start each chunk
    with a cold shape cache mid-tail, give the serial rows on any
    machine, and so does a sweep across two worker processes."""
    serial = sweep(5)
    assert serial.nodes_total == 5616

    def cut(rows):
        return [(r.index, r.status, r.nodes) for r in rows]

    cfg = SolveConfig()
    sliced = [
        row
        for start in range(0, 288, 15)
        for row in solver._sweep_chunk((5, start, min(start + 15, 288), cfg))
    ]
    assert cut(sliced) == cut(serial.rows)
    assert cut(sweep(5, workers=2).rows) == cut(serial.rows)


@pytest.mark.parametrize("n", [0, -3])
def test_sweep_refuses_sizes_below_one_before_any_process(monkeypatch, n):
    """`sweep(0, workers=2)` started a worker process that raised "a
    family needs at least one vertex" in `family_enumerate`.  A size
    below one is refused in the caller, serial or pooled, before any
    chunk is cut or pool built."""

    def refuse(*args, **kwargs):
        raise AssertionError("sweep started a pool or built a family")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(solver, "family_enumerate", refuse)
    for workers in (1, 2):
        with pytest.raises(BadSizeError, match="a sweep needs at least one vertex"):
            sweep(n, workers=workers)


def test_sweep_tables_change_no_answer(monkeypatch):
    """A sweep chunk's shared tables change no answer: each family's
    status, node count and labeling are those of a lone `pack`, in both
    modes, serial and across two worker processes.  The n = 6 slice of
    two tails (240 families, 42 largest-tree shapes each) answers most
    of its families from memo level n - 1, one entry per shape."""
    seen = []
    real = solver.pack

    def recording(family, config=None, **kwargs):
        res = real(family, config, **kwargs)
        seen.append((family, config, kwargs, res))
        return res

    monkeypatch.setattr(solver, "pack", recording)
    for classical in (False, True):
        cfg = SolveConfig(classical_mode=classical)
        for n in range(1, 6):
            sweep(n, cfg)
        solver._sweep_chunk((6, 0, 240, cfg))
    assert len(seen) == 2 * (1 + 1 + 2 + 12 + 288 + 240)
    for family, config, kwargs, res in seen:
        assert "_tables" in kwargs
        lone = real(family, config)
        assert (res.status, res.nodes_expanded) == (lone.status, lone.nodes_expanded)
        assert res.labeling == lone.labeling
    lone = [real(family) for family in family_enumerate(5)]
    for workers in (1, 2):
        rows = sweep(5, workers=workers).rows
        assert [(r.status, r.nodes) for r in rows] == [
            (res.status, res.nodes_expanded) for res in lone
        ]


def test_shared_tables_hold_for_any_blocked_pairs():
    """The memo key, with the level's tail, is the whole state a subtree
    reads, and with a pair blocked every boundary past the memo asks the
    exact cover, steps 0 and n included.  With blocked pairs two
    boundaries can share free pairs and used loops: in classical
    `star_family(2)`, the root boundary with pair 0-1 blocked and the
    last boundary once 0-1 is used.  One set of tables shared by every
    search of one n and mode, over every single blocked pair, still
    gives each search its table-less answer."""
    for classical in (False, True):
        cfg = SolveConfig(classical_mode=classical)
        for n in (2, 3, 4):
            tables = _search.ChunkTables()
            blocks = [()] + [(p,) for p in itertools.combinations(range(n), 2)]
            for family in family_enumerate(n):
                for blocked in blocks:
                    want = pack(family, cfg, _blocked_pairs=blocked)
                    got = pack(family, cfg, _blocked_pairs=blocked, _tables=tables)
                    assert (got.status, got.nodes_expanded, got.labeling) == (
                        want.status, want.nodes_expanded, want.labeling
                    ), (n, classical, blocked)


def test_one_set_of_tables_serves_every_n():
    """A head table holds one n's slot permutations, and the tables make a
    fresh one whenever n changes.  Packed through one set of tables, every
    family of `family_enumerate(5, 0, 50)`, then 30 mixed n = 6 families,
    then an n = 5 family again keep a lone `pack`'s status, labeling and
    node count, and every slot of every labeling has length n.  A table
    kept across sizes handed Z_5 slots to most of the n = 6 labelings."""
    fams = list(family_enumerate(5, 0, 50))
    fams += [generate_family(6, "mixed", s) for s in range(30)]
    fams.append(generate_family(5, "mixed", 0))
    tables = _search.ChunkTables()
    for family in fams:
        want = pack(family)
        got = pack(family, _tables=tables)
        assert (got.status, got.labeling, got.nodes_expanded) == (
            want.status, want.labeling, want.nodes_expanded
        )
        assert {len(sig) for sig in got.labeling.sigmas} == {family.n}


def frontier_like_12():
    """The benchmark's 40 n = 12 frontier families, then eight seeds each
    of three more generator kinds: 64 families, 9 of which restart."""
    fams = [generate_family(12, "random-uniform", 7919 * 12 + j) for j in range(40)]
    kinds = ("mixed", "caterpillar", "random-recursive")
    return fams + [generate_family(12, kind, s) for kind in kinds for s in range(8)]


def test_subtree_memo_changes_no_answer_across_families():
    """The subtree memo belongs to each level's tail of unstarted trees:
    families that share no tail may share boundary states, and a family
    packed again finds its own subtrees stored.  Packed twice through one
    set of tables, every family keeps the status, node count and labeling
    of a lone `pack`, restarted ones included (the memo serves attempt 0
    only)."""
    fams = frontier_like_12()
    lone = [pack(fam) for fam in fams]
    tables = _search.ChunkTables()
    restarted = 0
    for _ in range(2):
        for fam, want in zip(fams, lone):
            got = pack(fam, _tables=tables)
            assert (got.status, got.nodes_expanded, got.labeling) == (
                want.status, want.nodes_expanded, want.labeling
            )
            restarted += got.nodes_expanded > RESTART_BASE_BUDGET
    assert restarted == 2 * 9


def test_subtree_memo_hit_past_the_budget_trips_it():
    """A stored subtree can take more nodes than a later family has left
    in attempt 0.  Frontier family 12:0 with the largest tree swapped for
    that of 12:6 shares every other tree with 12:0, reaches a boundary
    12:0 stored, and the stored count carries it past the budget: the hit
    must trip the budget on the node past it, as the search it stands for
    would, and restart from there."""
    fams = frontier_like_12()
    a = fams[0]
    b = AugTreeFamily(12, a.trees[:-1] + fams[6].trees[-1:])
    want = pack(b)
    assert want.nodes_expanded == 2180  # attempt 0 ran out of budget
    tables = _search.ChunkTables()
    assert pack(a, _tables=tables).nodes_expanded == pack(a).nodes_expanded
    got = pack(b, _tables=tables)
    assert (got.status, got.nodes_expanded, got.labeling) == (
        want.status, want.nodes_expanded, want.labeling
    )


def test_subtree_memo_holds_packed_rows_by_reference():
    """A first-only memo entry holds the row found below its boundary as
    the very tuple its search returned, not a copy of the unstarted
    slots.  Packed through one set of tables, every family of
    `family_enumerate(5)` keeps a lone `pack`'s node count; after each
    pack every row on levels 1..3 and every row on level 4, one per entry
    or none, is, by identity, the slot tuple of a labeling packed so far,
    no entry holds more than one, and a level-4 entry holds the images of
    slot 3's steps exactly when it holds a row."""
    tables = _search.ChunkTables()
    packed = {}  # id to slot tuple: every tuple is kept, so no id is reused
    held = 0
    for family in family_enumerate(5):
        got = pack(family, _tables=tables)
        assert got.nodes_expanded == pack(family).nodes_expanded
        sigmas = got.labeling.sigmas
        packed[id(sigmas)] = sigmas
        for memo in tables.levels[1:4]:
            for rows, _ in memo.values():
                assert len(rows) <= 1
                assert all(packed.get(id(row)) is row for row in rows)
                held += len(rows)
        for row, _, second, _ in tables.levels[4].values():
            assert row is None or packed.get(id(row)) is row
            assert (second is None) == (row is None)
            held += row is not None
    assert held  # the memo stored solutions, not only exhausted subtrees


def test_subtree_memo_keeps_one_tail_per_level(monkeypatch):
    """Through `sweep(6)` each level j < 5 of the chunk's subtree memo
    holds the stored subtrees of one tail, the trees of slots 0..j-1: a
    level is replaced exactly when those trees change, and kept while they
    stay, and mask dict j - 1 is kept exactly when those trees stay: one
    carry rule, mask dict 4 included.  Level 5, keyed by the two largest
    shapes, and the largest slot's mask dict serve the whole sweep, one
    object each, and the tables' prefix of slots 0..3 is kept exactly
    while those trees stay.  After the sweep the tables hold the last
    family's tail, each level below 5 holds only boundary states of its
    own step, j unstarted slots with j(j - 1)/2 free pairs and 6 - j used
    loops, and level 5 only shapes, at most 14 · 42 of them: the memo is
    replaced or overwritten, not grown, as the sweep moves on."""
    seen = []
    real = solver.pack

    def recording(family, config=None, **kwargs):
        res = real(family, config, **kwargs)
        t = kwargs["_tables"]
        seen.append((family, t, list(t.levels), list(t.masks), t.largest_masks, t.prefix))
        return res

    monkeypatch.setattr(solver, "pack", recording)
    sweep(6)
    assert len({id(tables) for _, tables, *_ in seen}) == 1  # one serial chunk
    for (f, _, before, masks_before, top_before, prefix_before), (
        g, _, after, masks_after, top_after, prefix_after
    ) in zip(seen, seen[1:]):
        for j in range(1, 6):
            same = f.trees[:j] == g.trees[:j]
            assert (masks_before[j - 1] is masks_after[j - 1]) == same
            if j < 5:
                assert (before[j] is after[j]) == same
        assert before[5] is after[5] and top_before is top_after
        assert (prefix_before is prefix_after) == (f.trees[:4] == g.trees[:4])
    last, tables, levels, *_ = seen[-1]
    assert tables.tail == last.trees[:-1] and tables.prefix == last.trees[:4]
    assert len(levels) == 6 and levels[0] == {}
    for j in range(1, 5):
        assert levels[j]
        for pairfree, loops_used in levels[j]:
            assert sum(m.bit_count() for m in pairfree) == j * (j - 1)
            assert loops_used.bit_count() == 6 - j
    assert 0 < len(levels[5]) <= 14 * 42
    for second, parent_step, classical in levels[5]:  # shapes: no boundary state
        assert len(second) == 5 and second[0] == -1
        assert len(parent_step) == 6 and parent_step[0] == -1 and classical is False
    assert sum(len(memo) for memo in levels[1:]) < 2000


def test_sweep_retargets_once_per_tail(monkeypatch):
    """`sweep(5)` retargets its tables once per tail of slots 0..3,
    288 / 4! = 12 times, and each family's engine outcome equals that of
    a lone `search`, which makes tables of its own."""
    tails = []
    real_retarget = _search._retarget

    def counting(tables, n, tail):
        tails.append(tail)
        real_retarget(tables, n, tail)

    seen = []
    real_search = solver.search

    def recording(family, **kwargs):
        out = real_search(family, **kwargs)
        seen.append((family, kwargs, out))
        return out

    monkeypatch.setattr(_search, "_retarget", counting)
    monkeypatch.setattr(solver, "search", recording)
    sweep(5)
    assert len(seen) == 288
    assert len(tails) == len(set(tails)) == 288 // math.factorial(4)
    monkeypatch.undo()
    for family, kwargs, out in seen:
        assert kwargs.pop("tables") is not None
        assert out == search(family, **kwargs)


def shapes_key(family, config):
    """A family's key on memo level n - 1: the shapes of its two largest
    trees and the mode."""
    second, last = (tree.compiled().parent_step for tree in family.trees[-2:])
    return (second, last, config.classical_mode)


def test_finished_searches_hold_one_entry_per_shape(monkeypatch):
    """Level n - 1 of a sweep chunk's memo holds the searches that
    attempt 0 settled, one per key (the shapes of slots n - 2 and n - 1,
    and the mode), each for the prefix of slots 0..n-3 it was built for.
    Through `sweep(6)` in each mode the level is one dict, never dropped
    in bulk, with at most 14 · 42 entries per mode.  After every pack the
    family's key holds an entry for its own prefix: a family is answered
    from an entry of its own prefix, and an entry built for another
    prefix is never hit, but searched over and overwritten, 11 · 14 · 42
    times.  So 12 prefixes · 14 · 42 = 7 056 of the 34 560 families
    search.  One set of tables shared by both modes keys them apart: 42
    entries per mode over one tail."""
    real = solver.pack
    counts = {}
    levels = set()  # the ids of the level-5 dicts one sweep used

    def recording(family, config=None, **kwargs):
        tables = kwargs["_tables"]
        key = shapes_key(family, config)
        before = tables.levels[5].get(key) if tables.levels else None
        res = real(family, config, **kwargs)
        level = tables.levels[5]
        after = level[key]
        prefix = family.trees[:4]
        assert after[3] == prefix
        if before is not None:
            outcome = "hit" if after is before else "overwritten"
            assert (outcome == "hit") == (before[3] == prefix)
            counts[outcome] += 1
        levels.add(id(level))
        counts["most"] = max(counts["most"], len(level))
        return res

    monkeypatch.setattr(solver, "pack", recording)
    for classical in (False, True):
        counts.update(hit=0, overwritten=0, most=0)
        levels.clear()
        sweep(6, SolveConfig(classical_mode=classical))
        assert len(levels) == 1
        assert counts == {"hit": 34560 - 7056, "overwritten": 11 * 14 * 42, "most": 14 * 42}
    monkeypatch.undo()
    tables = _search.ChunkTables()
    for classical in (False, True):
        for family in family_enumerate(6, 0, 120):
            pack(family, SolveConfig(classical_mode=classical), _tables=tables)
    modes = [key[-1] for key in tables.levels[5]]
    assert modes.count(False) == modes.count(True) == 42


def test_finished_search_hits_are_verified(monkeypatch):
    """A family answered from level n - 1 of the memo is still verified:
    with the stored row of its key corrupted, tail slots 0 and 1 swapped,
    `pack` raises rather than report it.  Intact, the entry gives the lone
    answer, with slots n - 2 and n - 1 rebuilt for this family's own
    trees, which differ from those the entry was built for but have their
    shapes.  An entry built for another prefix of slots 0..n-3 is no
    hit: a family with the same key and another prefix gets its lone
    answer and stores its own entry."""
    cfg = SolveConfig()
    fams = list(family_enumerate(6, 0, 2880))  # one prefix: slots 0..3 stay

    def key(fam):
        return shapes_key(fam, cfg)

    a, b = next(
        (f, g)
        for f, g in itertools.combinations(fams, 2)
        if key(f) == key(g) and f.trees[-2] != g.trees[-2] and f.trees[-1] != g.trees[-1]
    )
    c = next(g for g in family_enumerate(6, 2880, 5760) if key(g) == key(a))
    assert c.trees[:4] != a.trees[:4]
    tables = _search.ChunkTables()
    pack(a, cfg, _tables=tables)
    level = tables.levels[5]
    entry = level[key(a)]
    for fam in (b, c):
        got = pack(fam, cfg, _tables=tables)
        want = pack(fam, cfg)
        assert (got.status, got.nodes_expanded, got.labeling) == (
            want.status, want.nodes_expanded, want.labeling
        )
        assert (level[key(a)] is entry) == (fam is b)  # b hit, c searched
    assert level[key(a)][3] == c.trees[:4]
    pack(a, cfg, _tables=tables)  # back on a's prefix: a's entry again
    row, nodes, second, prefix = level[key(a)]
    level[key(a)] = ((row[1], row[0]) + row[2:], nodes, second, prefix)
    with pytest.raises(TreePackError, match="non-complete"):
        pack(b, cfg, _tables=tables)


def test_attempt_zero_packs_hold_the_largest_tree_at_its_steps():
    """Level n - 1's placement argument: attempt 0 first takes step s of
    the largest tree to vertex s, and leaves that placement only once
    the tail below it is exhausted, when no placement packs.  So in both
    modes every lone `pack` that ends within ``RESTART_BASE_BUDGET``
    nodes, over every family with n <= 6 and the n = 12 frontier
    families, has the tree's own steps as its largest slot."""
    fams = [fam for n in range(1, 7) for fam in family_enumerate(n)] + frontier_like_12()
    for classical in (False, True):
        cfg = SolveConfig(classical_mode=classical)
        settled = 0
        for fam in fams:
            res = pack(fam, cfg)
            if res.nodes_expanded <= RESTART_BASE_BUDGET:
                settled += 1
                assert res.labeling.sigmas[-1] == fam.trees[-1].compiled().steps
        assert settled > len(fams) - 20


def test_restarted_shapes_are_not_stored(monkeypatch):
    """Level n - 1 is written from attempt 0 only, like every level.
    With the budget cut to 16 nodes some `sweep(5)` families restart, in
    both modes: a family's key holds an entry for its own prefix of slots
    0..2 exactly when its search ended within attempt 0 (stored then, or
    hit), so a restarted family's never does, and every answer is that of
    a lone `pack` under the same budget."""
    monkeypatch.setattr(_search, "RESTART_BASE_BUDGET", 16)
    seen = []
    real = solver.pack

    def recording(family, config=None, **kwargs):
        res = real(family, config, **kwargs)
        entry = kwargs["_tables"].levels[4].get(shapes_key(family, config))
        stored = entry is not None and entry[3] == family.trees[:3]
        seen.append((family, config, res, stored))
        return res

    monkeypatch.setattr(solver, "pack", recording)
    for classical in (False, True):
        sweep(5, SolveConfig(classical_mode=classical))
    restarted = [res.nodes_expanded > 16 for _, _, res, _ in seen]
    assert len(seen) == 2 * 288 and 0 < sum(restarted) < len(seen)
    for (family, config, res, stored), late in zip(seen, restarted):
        assert stored != late
        lone = real(family, config)
        assert (res.status, res.nodes_expanded, res.labeling) == (
            lone.status, lone.nodes_expanded, lone.labeling
        )


def test_level_n_minus_1_is_shared_across_tails(monkeypatch):
    """Level n - 1 outlives every tail of one n.  The n = 6 chunk from
    index 2 760 to 5 880 covers the end of one run of fixed slots 0..3
    (2 880 families each), a whole run and the next run boundary.  In
    both modes every family gets a lone `pack`'s status, node count and
    labeling, and level 5 never holds more than 14 · 42 entries."""
    seen = []
    real = solver.pack

    def recording(family, config=None, **kwargs):
        res = real(family, config, **kwargs)
        seen.append((family, config, res, len(kwargs["_tables"].levels[5])))
        return res

    monkeypatch.setattr(solver, "pack", recording)
    for classical in (False, True):
        seen.clear()
        cfg = SolveConfig(classical_mode=classical)
        rows = solver._sweep_chunk((6, 2760, 5880, cfg))
        assert len(rows) == len(seen) == 3120
        assert len({fam.trees[:4] for fam, *_ in seen}) == 3  # three prefixes
        assert max(size for *_, size in seen) <= 14 * 42
        for family, config, res, _ in seen:
            lone = real(family, config)
            assert (res.status, res.nodes_expanded, res.labeling) == (
                lone.status, lone.nodes_expanded, lone.labeling
            )


def sweep_slice_n7(monkeypatch, cfg):
    """The 7 200-family n = 7 sweep chunk from index 3 000 000: its rows,
    and a sha256 of each family's status, node count and labeling."""
    digest = hashlib.sha256()
    real = solver.pack

    def recording(family, config=None, **kwargs):
        res = real(family, config, **kwargs)
        sigmas = res.labeling.sigmas if res.labeling else None
        digest.update(repr((res.status, res.nodes_expanded, sigmas)).encode())
        return res

    monkeypatch.setattr(solver, "pack", recording)
    rows = solver._sweep_chunk((7, 3_000_000, 3_007_200, cfg))
    assert len(rows) == 7200
    return rows, digest.hexdigest()


def test_sweep_slice_n7_is_frozen(monkeypatch):
    """A 7 200-family n = 7 sweep chunk from index 3 000 000 (parts of
    11 tails of 720 largest trees, 132 shapes among them, most families
    answered from memo level n - 1) keeps its node total and, per family,
    its status, node count and labeling, frozen as a sha256 of their
    reprs."""
    rows, digest = sweep_slice_n7(monkeypatch, SolveConfig())
    assert sum(r.nodes for r in rows) == 315466
    assert digest == "d79c89f667dbae7875d16023dc0ff313966abf5c05fac3774f6073658dc3fc63"


def test_sweep_slice_n7_classical_is_frozen(monkeypatch):
    """The same chunk in classical mode, whose memo keys carry the mode,
    frozen the same way."""
    rows, digest = sweep_slice_n7(monkeypatch, SolveConfig(classical_mode=True))
    assert sum(r.nodes for r in rows) == 317851
    assert digest == "07ed21eed625fa282b437d2011bf7901bf674553d1d0e14ccda4c1b1462bb3b3"


def fresh_mask(arcs, sig, n):
    """A slot's edge mask rebuilt from its tree's compiled arcs, root loop
    included, as `is_complete` numbers edges: bit a * n + b for the edge
    {a, b} with a <= b."""
    edges = {tuple(sorted((sig[a], sig[b]))) for a, b in arcs}
    return sum(1 << a * n + b for a, b in edges)


def stub_search(monkeypatch, row):
    """Make `pack`'s search report ``row`` as its solution; the tables
    keep the tail of the last real search."""
    outcome = SearchOutcome(solutions=[row], nodes=1, timed_out=False, symmetry_factor=1)
    monkeypatch.setattr(solver, "search", lambda *args, **kwargs: outcome)


def test_slot_masks_never_hide_a_clash(monkeypatch):
    """Once a chunk's slot masks are warm, the largest slot's included,
    `pack` still refuses every non-complete row: two tail slots'
    permutations swapped, the largest slot's composed with a
    transposition, and (loop mode) one slot's root moved onto another's
    root vertex.  A stored clash sentinel always fails, in a tail slot's
    dict and in the largest slot's.  On every labeling of every family
    with n <= 3, `is_complete` with the tables gives its verdict without
    them.  Both modes."""
    for classical in (False, True):
        cfg = SolveConfig(classical_mode=classical)
        tables = _search.ChunkTables()
        fams = list(family_enumerate(5, 0, 72))  # three tails of 24 families
        for fam in fams:
            pack(fam, cfg, _tables=tables)
        fam = fams[-1]
        row = pack(fam, cfg).labeling.sigmas
        masks = tables.masks
        top_key = (fam.trees[-1].compiled().arcs, row[-1])
        assert tables.tail == fam.trees[:-1]
        assert all(sig in slot for slot, sig in zip(masks, row))  # warm
        assert top_key in tables.largest_masks
        kinds = {"swapped": [], "transposed": [], "root": []}
        for j, k in itertools.combinations(range(4), 2):
            r = list(row)
            r[j], r[k] = r[k], r[j]
            kinds["swapped"].append(tuple(r))
        for u, v in itertools.combinations(range(5), 2):
            s = list(row[-1])
            s[u], s[v] = s[v], s[u]
            kinds["transposed"].append(row[:-1] + (tuple(s),))
        for j, k in [] if classical else itertools.permutations(range(5), 2):
            # slot j's root sits at position j, so move sigma_k(k) there
            s = list(row[j])
            i = s.index(row[k][k])
            s[j], s[i] = s[i], s[j]
            r = list(row)
            r[j] = tuple(s)
            kinds["root"].append(tuple(r))
        for kind, rows in kinds.items():
            assert rows or (kind == "root" and classical)
            for r in rows:
                assert not is_complete(fam, Labeling(n=5, sigmas=r), classical), kind
                stub_search(monkeypatch, r)
                with pytest.raises(TreePackError, match="non-complete"):
                    pack(fam, cfg, _tables=tables)
                monkeypatch.undo()
            assert tables.tail == fam.trees[:-1]
        lab = Labeling(n=5, sigmas=row)
        assert is_complete(fam, lab, classical, _tables=tables)
        masks[0][row[0]] = -1  # the sentinel of a clash inside one slot
        assert not is_complete(fam, lab, classical, _tables=tables)
        masks[0][row[0]] = fresh_mask(fam.trees[0].compiled().arcs, row[0], 5)
        assert is_complete(fam, lab, classical, _tables=tables)
        tables.largest_masks[top_key] = -1
        assert not is_complete(fam, lab, classical, _tables=tables)
        # no tree repeats an edge, so only a stand-in stores the sentinel
        repeated = types.SimpleNamespace(
            compiled=lambda: types.SimpleNamespace(arcs=((1, 1), (0, 1), (2, 1), (1, 0)))
        )
        assert packing._slot_mask(repeated, (2, 0, 1), 3) == -1
        verdicts = set()
        for n in (1, 2, 3):
            tables = _search.ChunkTables()
            perms = list(itertools.permutations(range(n)))
            for fam in family_enumerate(n):
                lab = pack(fam, cfg, _tables=tables).labeling
                for combo in itertools.product(perms, repeat=n):
                    other = Labeling(n=n, sigmas=combo)
                    want = is_complete(fam, other, classical)
                    assert is_complete(fam, other, classical, _tables=tables) == want
                    verdicts.add(want)
                # every slot's mask is stored, the largest's too: with its
                # sentinel there, a clash in the largest slot fails even
                # where the tail covers no edge (n = 1, and n = 2 in
                # classical mode)
                with monkeypatch.context() as patch:
                    patch.setattr(packing, "_slot_mask", lambda *args: -1)
                    top_key = (fam.trees[-1].compiled().arcs, lab.sigmas[-1])
                    assert top_key in tables.largest_masks  # warm
                    tables.largest_masks[top_key] = -1
                    assert not is_complete(fam, lab, classical, _tables=tables)
        assert verdicts == {True, False}


def test_slot_masks_serve_both_modes_and_one_tail(monkeypatch):
    """One mask dict serves both modes: a mask holds its slot's root
    loop, which classical mode ignores, so a row whose slots 0 and 1 root
    on the same vertex is complete classically and not with loops,
    whichever mode filled the masks first.  And masks are read only for
    the tables' own tail: with the tables of one family, another family
    with another tail gets the table-less verdict on every labeling of
    either family's Phi."""
    n = 4
    fam = next(family_enumerate(n))
    row = list(pack(fam).labeling.sigmas)
    s = list(row[0])
    i = s.index(row[1][1])
    s[0], s[i] = s[i], s[0]
    row[0] = tuple(s)
    row = tuple(row)
    lab = Labeling(n=n, sigmas=row)
    assert is_complete(fam, lab, True) and not is_complete(fam, lab)
    loop, classical = SolveConfig(), SolveConfig(classical_mode=True)
    for first, second in ((classical, loop), (loop, classical)):
        tables = _search.ChunkTables()
        for cfg in (first, second):
            pack(fam, cfg, _tables=tables)
            stub_search(monkeypatch, row)
            if cfg.classical_mode:
                assert pack(fam, cfg, _tables=tables).labeling == lab
            else:
                with pytest.raises(TreePackError, match="non-complete"):
                    pack(fam, cfg, _tables=tables)
            monkeypatch.undo()
    fams = list(family_enumerate(n))
    a, b = fams[0], fams[6]
    assert a.trees[:-1] != b.trees[:-1]
    labs = phi_enumerate(a)[0] + phi_enumerate(b)[0]
    for c in (False, True):
        tables = _search.ChunkTables()
        pack(a, SolveConfig(classical_mode=c), _tables=tables)
        for fam in (a, b):
            for lab in labs:
                assert is_complete(fam, lab, c, _tables=tables) == is_complete(fam, lab, c)
        assert tables.tail == a.trees[:-1]


def test_slot_masks_keep_one_tree_per_slot(monkeypatch):
    """Through `sweep(5)`, in each mode, the mask dict of tail slot k
    belongs to the tree of slot k: it is replaced exactly when that tree
    changes, and kept while it stays.  The largest slot's dict, keyed by
    compiled arcs and permutation, serves the whole sweep.  Every stored
    mask is the slot's edges under its permutation, root loop included,
    rebuilt from the arcs."""
    seen = []
    real = solver.pack

    def recording(family, config=None, **kwargs):
        res = real(family, config, **kwargs)
        tables = kwargs["_tables"]
        seen.append((family, config.classical_mode, list(tables.masks), tables.largest_masks))
        return res

    monkeypatch.setattr(solver, "pack", recording)
    for classical in (False, True):
        sweep(5, SolveConfig(classical_mode=classical))
    assert len(seen) == 2 * 288
    for (f, cf, before, top_f), (g, cg, after, top_g) in zip(seen, seen[1:]):
        if cf != cg:
            continue
        for k in range(4):
            assert (before[k] is after[k]) == (f.trees[k] == g.trees[k])
        assert top_f is top_g
    checked = {}
    for family, _, masks, top in seen:
        for k, slot in enumerate(masks):
            checked[id(slot)] = (family.trees[k].compiled().arcs, slot)
        for (arcs, sig), mask in top.items():
            assert mask == fresh_mask(arcs, sig, 5)
    for arcs, slot in checked.values():
        assert slot  # its family's verification read it
        for sig, mask in slot.items():
            assert mask == fresh_mask(arcs, sig, 5)
    assert {len(top) for _, _, _, top in seen} == {24}  # one per largest tree, 4!
    # product order changes every later slot with an earlier one, so the
    # carry rule is by prefix: a tail that changes slot 2 alone keeps the
    # dicts of slots 0 and 1 and memo levels 1 and 2, and nothing after
    # but what serves one n: level 4, keyed by the two largest shapes, the
    # head table and the largest slot's mask dict.  The prefix of slots
    # 0..2 is a new tuple, so level 4's entries for the old one are
    # misses.  Level 0 is never read and starts empty.  Another n
    # replaces everything.
    fams = list(family_enumerate(5))
    a, b = fams[0].trees[:-1], fams[0].trees[:2] + fams[-1].trees[2:3] + fams[0].trees[3:4]
    assert a[2] != b[2]
    tables = _search.ChunkTables()
    _search._retarget(tables, 5, a)

    def held():
        return [tables.known, tables.largest_masks, tables.prefix, *tables.levels, *tables.masks]

    old = held()
    _search._retarget(tables, 5, b)
    assert [x is y for x, y in zip(old, held())] == [
        True, True, False,  # known, largest_masks, prefix
        False, True, True, False, True,  # levels 0..4
        True, True, False, False,  # masks of slots 0..3
    ]
    assert len(tables.levels) == 5 and tables.levels[0] == {}
    old = held()
    _search._retarget(tables, 4, next(family_enumerate(4)).trees[:-1])
    assert not any(x is y for x, y in zip(old, held()))


def test_sweep_pool_is_capped(monkeypatch):
    """The pool starts every worker at once, so its size is capped at the
    chunks and the usable CPUs; the report is the serial one.  A serial
    stand-in records the size: no process is started."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    assert solver._usable_cpus() >= 1
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    serial = {n: sweep(n).rows for n in (3, 5)}
    # (n, workers, usable CPUs): 2 families make 2 chunks; 288 make 12
    cases = [(3, 100_000, 64), (3, 100_000, 1), (5, 3, 64), (5, 3, 2), (5, 100_000, 8)]
    for n, workers, cpus in cases:
        monkeypatch.setattr(solver, "_usable_cpus", lambda: cpus)
        rows = sweep(n, workers=workers).rows
        assert [(r.index, r.status, r.nodes) for r in rows] == [
            (r.index, r.status, r.nodes) for r in serial[n]
        ]
    assert sizes == [2, 1, 3, 2, 8]


def test_sweep_jobs_are_capped_at_the_usable_cpus(monkeypatch):
    """Every job is built before any work, so a sweep makes at most four
    chunks per usable CPU however many workers it is asked for: n = 7
    with 10**5 workers once built 394 972 jobs.  A stand-in pool records
    the jobs, checks that they tile the index range in order, and runs
    none of them."""
    built = []

    class RecordingPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            built.append(list(jobs))
            return [[] for _ in built[-1]]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    total = family_count(7)
    for workers, cpus, chunks in ((10**5, 4, 16), (10**5, 1, 4), (3, 64, 12), (2, 2, 8)):
        monkeypatch.setattr(solver, "_usable_cpus", lambda: cpus)
        sweep(7, workers=workers)
        jobs = built.pop()
        assert len(jobs) == chunks
        assert [job[1] for job in jobs[1:]] == [job[2] for job in jobs[:-1]]
        assert (jobs[0][1], jobs[-1][2]) == (0, total)


def test_sweep_bound():
    """Past the cap the refusal comes at once and names the cap, however
    large n is: no family count is built or formatted."""
    for n in (9, 200, 3000):
        t0 = time.perf_counter()
        with pytest.raises(BoundExceededError, match="exceeds the cap n <= 8"):
            sweep(n)
        assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("n", [True, 2.5])
def test_sweep_sizes_must_be_ints(monkeypatch, n):
    """`sweep` and `family_enumerate` refuse a size that is not an int,
    bool included, before they build a single tree: `sweep(True)` used
    to report on n=True, and `sweep(2.5)` to raise a bare TypeError."""
    from treepack import functree

    def refuse(*args, **kwargs):
        raise AssertionError("a tree was built for a size that is no int")

    monkeypatch.setattr(functree, "build_tree", refuse)
    with pytest.raises(BadSizeError, match="must be an int"):
        sweep(n)
    with pytest.raises(BadSizeError, match="must be an int"):
        next(family_enumerate(n))
