"""Backtracking engine: soundness, exhaustiveness, determinism, restarts."""

import hashlib
import itertools
import random
import sys

import pytest

from treepack import (
    EXHAUSTED,
    PACKED,
    TIMED_OUT,
    BoundExceededError,
    Labeling,
    SolveConfig,
    TreePackError,
    family_enumerate,
    generate_family,
    is_complete,
    pack,
    star_family,
    sweep,
)
from treepack import _search, solver
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
    # consuming the {0,1} edge up front leaves too few pairs to tile
    res = pack(fam, _blocked_pairs=((0, 1),))
    assert res.status == EXHAUSTED
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
    # (0 k) swap, the images of stored vertices 0..k
    for s, pruning, frozen in (
        (0, False, (36685, 4080, "e7a978b49e430f2e")),
        (0, True, (7337, 816, "230089b34f8d77c4")),
        (1, False, (39565, 5760, "0b7c6b6fc26a78a2")),
        (1, True, (893, 96, "e311e5ada192a9e5")),
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


def test_debug_mode_runs_the_bitset_audit():
    """The debug edge-mask audit passes at every node and changes nothing,
    with and without pre-consumed pairs."""
    for fam, blocked, first_only in (
        (generate_family(6, "mixed", seed=9), (), True),
        (generate_family(12, "random-uniform", 7919 * 12 + 25), (), True),
        (generate_family(7, "mixed", seed=2), ((0, 1), (2, 5)), True),
        (star_family(3), ((0, 1),), True),
        # restarts with nonzero scan offsets: the audit under rotated scans
        (generate_family(24, "random-uniform", 7919 * 24), (), True),
        # full enumeration, boundary memo hits included
        (generate_family(5, "mixed", seed=1), (), False),
    ):
        checked = search(fam, debug=True, blocked_pairs=blocked, first_only=first_only)
        plain = search(fam, blocked_pairs=blocked, first_only=first_only)
        assert checked.solutions == plain.solutions
        assert checked.nodes == plain.nodes


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


def test_sweep_parallel_matches_serial():
    serial = sweep(5)
    assert serial.nodes_total == 5616
    # 5 workers cut the 288 families into chunks of 15 and a last one of 3
    for workers in (2, 5):
        parallel = sweep(5, workers=workers)
        assert [(r.index, r.status, r.nodes) for r in serial.rows] == [
            (r.index, r.status, r.nodes) for r in parallel.rows
        ]


def test_sweep_bound():
    with pytest.raises(BoundExceededError):
        sweep(9)
