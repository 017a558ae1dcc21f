"""Backtracking engine shared by the Phi enumerator and the packing solver.

The search space is the set of "essential" labelings: one injection per
slot from the stored component Z_(k+1) into Z_n.  Values outside the
component never touch an edge, so feasibility and enumeration both live
entirely in this space.  State is held in integer bitmasks — one free-
partner mask per vertex, one mask of consumed loop vertices, one
used-vertex mask per tree — which makes candidate generation a couple of
machine-word operations per node.

Placement order is fixed: trees largest first, vertices of each tree
breadth-first from the root with children ascending (the tree's compiled
``order``).  Candidates are tried in ascending vertex order.  Together
these make node counts a pure function of (family, options).

Three structural prunes cut branches with no completion; none of them can
cut a branch that completes, so enumeration results are unaffected:

* roots of the not-yet-started trees must land on distinct vertices whose
  loop is still free, and each needs as many free pairs there as the root
  has children — a sorted pointwise comparison (Hall condition for unit
  assignments);
* every not-yet-started tree has some vertex of its maximum degree, and a
  vertex can host several such hubs only within its free-pair budget, so
  descending partial sums of free degrees must dominate those of the
  future maximum degrees;
* a complete labeling uses every pair and every loop exactly once, so at
  each tree boundary the components of the free-pair graph must admit an
  exact cover: each remaining tree inside a single component, every
  component's pair supply consumed exactly, and one free loop per root.
  A tiny assignment search (`_cover_fits`) decides this; it is what stops
  the engine from re-proving, thousands of times, that the small trees
  cannot tile whatever pairs the large ones left behind.

Backtracking runtimes are heavy-tailed: the rare family whose first few
embeddings are "nearly right" can cost millions of nodes under any fixed
scan order, while almost any other order dispatches it in hundreds.  When
only one solution is wanted the engine therefore runs a restart ladder:
attempt 0 uses the documented ascending order with a node budget, and
each later attempt rotates the candidate scan origin by one vertex and
quadruples the budget (the final rung is unbounded, so exhaustion proofs
still complete).  The ladder is a pure function of the inputs, so node
counts stay reproducible.  Full enumeration never restarts.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass

from .functree import AugTreeFamily, leaf_sibling_groups

RESTART_BASE_BUDGET = 1 << 16  # nodes granted to the first attempt
RESTART_MAX_ATTEMPTS = 10
UNBOUNDED = 1 << 62


@dataclass
class SearchOutcome:
    """Raw engine result: per-slot component injections, not yet labelings."""

    solutions: list[tuple[tuple[int, ...], ...]]
    nodes: int
    timed_out: bool
    symmetry_factor: int


def _cover_fits(rem: list[int], comps: list[list[int]], loops: bool) -> bool:
    """Can the remaining tree sizes exactly tile the free-pair components?

    ``comps`` holds ``[vertices, pairs, free_loops]`` rows.  A tree of size
    m claims m - 1 pairs and (with ``loops``) one root loop from a single
    component that has at least m vertices; success requires every row to
    end at zero pairs and zero loops.  Sizes arrive sorted descending so
    the most constrained trees are matched first.
    """
    seen: set[tuple] = set()

    def place(i: int) -> bool:
        if i == len(rem):
            return all(c[1] == 0 and (not loops or c[2] == 0) for c in comps)
        key = (i, tuple(sorted((c[1], c[2]) for c in comps)))
        if key in seen:
            return False
        m = rem[i]
        need = m - 1
        tried = set()
        for c in comps:
            sig = (c[0] >= m, c[1], c[2])
            if sig in tried:
                continue
            tried.add(sig)
            if c[0] >= m and c[1] >= need and (not loops or c[2] >= 1):
                c[1] -= need
                c[2] -= 1
                if place(i + 1):
                    return True
                c[1] += need
                c[2] += 1
        seen.add(key)
        return False

    return place(0)


def search(
    family: AugTreeFamily,
    *,
    symmetry_pruning: bool = True,
    classical: bool = False,
    first_only: bool = True,
    time_limit_s: float | None = None,
    blocked_pairs=(),
    debug: bool = False,
) -> SearchOutcome:
    """Run the embedding search over one family.

    With ``symmetry_pruning`` the largest tree's root image is pinned to
    vertex 0 and images within each leaf-sibling group must ascend; both
    cuts preserve feasibility (diagonal relabeling, leaf exchange), and
    the outcome reports the exact count multiplier they remove.
    ``blocked_pairs`` pre-consumes edges; it exists so tests can force the
    exhausted branch, which no valid family reaches on its own.
    ``debug`` maintains a global used-edge mask and asserts its popcount
    matches the number of embedded edges at every node.

    With ``first_only`` the deterministic restart ladder described in the
    module docstring is active and ``nodes`` accumulates over attempts;
    full enumeration always runs a single unbounded pass in ascending
    order.
    """
    n = family.n
    full = (1 << n) - 1
    slot_seq = range(n - 1, -1, -1)

    step_slot: list[int] = []
    step_parent: list[int] = []  # global image position of the parent, -1 at roots
    step_prev: list[int] = []  # global position of the previous leaf sibling, -1
    slot_base = [0] * n
    slot_vertex_order: list[tuple[int, ...]] = [()] * n
    block_root_deg: list[int] = []  # per tree in placement order
    block_max_deg: list[int] = []
    factor = n if symmetry_pruning else 1
    for slot in slot_seq:
        base = len(step_slot)
        tree = family.trees[slot]
        lay = tree.compiled()
        slot_base[slot] = base
        slot_vertex_order[slot] = lay.order
        step_slot += [slot] * tree.m
        step_parent += [p if p < 0 else base + p for p in lay.parent_pos]
        if symmetry_pruning:
            step_prev += [p if p < 0 else base + p for p in lay.prev_leaf_pos]
            for g in leaf_sibling_groups(tree):
                factor *= math.factorial(len(g))
        else:
            step_prev += [-1] * tree.m
        block_root_deg.append(lay.root_degree)
        block_max_deg.append(lay.max_degree)
    total = len(step_slot)

    # future-tree requirement tables: entry j describes the last j trees
    # of the placement order (exactly those whose root is not yet placed)
    blocks = len(block_root_deg)
    fut_root_degs: list[tuple[int, ...]] = [()] * (blocks + 1)
    fut_max_prefix: list[tuple[int, ...]] = [()] * (blocks + 1)
    for j in range(1, blocks + 1):
        tail_roots = sorted(block_root_deg[blocks - j:], reverse=True)
        fut_root_degs[j] = tuple(tail_roots)
        tail_max = sorted(block_max_deg[blocks - j:], reverse=True)
        acc = 0
        fut_max_prefix[j] = tuple(acc := acc + d for d in tail_max)
    block_sizes = [family.trees[slot].m for slot in slot_seq]
    rem_sizes: list[tuple[int, ...]] = [
        tuple(sorted(block_sizes[blocks - j:], reverse=True))
        for j in range(blocks + 1)
    ]
    root_steps = sorted(
        (i for i, p in enumerate(step_parent) if p < 0), reverse=True
    )
    fut_count = [0] * (total + 1)
    for i in range(total + 1):
        fut_count[i] = sum(1 for r in root_steps if r >= i)

    base_pairfree = [full & ~(1 << a) for a in range(n)]
    for a, b in blocked_pairs:
        base_pairfree[a] &= ~(1 << b)
        base_pairfree[b] &= ~(1 << a)
    pairfree = list(base_pairfree)
    free_deg = [pf.bit_count() for pf in pairfree]
    loops_used = 0
    tree_used = [0] * n
    images = [0] * total
    nodes = 0
    timed_out = False
    solutions: list[tuple[tuple[int, ...], ...]] = []
    root_fix_slot = n - 1 if symmetry_pruning else -1
    monotonic = time.monotonic
    deadline = None if time_limit_s is None else monotonic() + time_limit_s
    pairs_mask = 0
    edges_placed = 0
    rot = 0  # current scan origin; attempt-local, see the restart ladder
    nrot = n
    budget_abs = UNBOUNDED
    budget_tripped = False

    def snapshot() -> tuple[tuple[int, ...], ...]:
        out = []
        for k in range(n):
            phi = [0] * (k + 1)
            base = slot_base[k]
            for j, vert in enumerate(slot_vertex_order[k]):
                phi[vert] = images[base + j]
            out.append(tuple(phi))
        return tuple(out)

    def boundary_feasible(j: int) -> bool:
        """Exact-cover test for the last ``j`` trees at a tree boundary."""
        rem = list(rem_sizes[j])
        if not classical:
            # a vertex with no free pairs but a free loop can only take the
            # family's single one-vertex tree
            iso = 0
            for v in range(n):
                if not free_deg[v] and not loops_used >> v & 1:
                    iso += 1
            if iso:
                if iso > rem.count(1):
                    return False
                del rem[len(rem) - iso:]
        elif rem and rem[-1] == 1:
            rem.pop()  # no loops to claim: a one-vertex tree fits anywhere
        live = 0
        for v in range(n):
            if free_deg[v]:
                live |= 1 << v
        comps: list[list[int]] = []
        while live:
            comp = live & -live
            frontier = comp
            while frontier:
                nxt = 0
                m = frontier
                while m:
                    b = m & -m
                    m ^= b
                    nxt |= pairfree[b.bit_length() - 1]
                frontier = nxt & ~comp
                comp |= frontier
            live &= ~comp
            pairs = 0
            m = comp
            while m:
                b = m & -m
                m ^= b
                pairs += free_deg[b.bit_length() - 1]
            comps.append([
                comp.bit_count(),
                pairs // 2,
                0 if classical else (comp & ~loops_used).bit_count(),
            ])
        if not rem:
            return not comps
        if (
            len(comps) == 1
            and comps[0][0] >= rem[0]
            and comps[0][1] == sum(rem) - len(rem)
            and (classical or comps[0][2] == len(rem))
        ):
            return True
        return _cover_fits(rem, comps, not classical)

    def go(i: int) -> bool:
        nonlocal nodes, timed_out, loops_used, pairs_mask, edges_placed
        nonlocal budget_tripped
        if i == total:
            solutions.append(snapshot())
            return first_only
        j = fut_count[i]
        if j:
            if not classical:
                caps = sorted(
                    (free_deg[a] for a in range(n) if not loops_used >> a & 1),
                    reverse=True,
                )
                for c, r in zip(caps, fut_root_degs[j]):
                    if c < r:
                        return False
            caps = sorted(free_deg, reverse=True)
            s = 0
            for idx, need in enumerate(fut_max_prefix[j]):
                s += caps[idx]
                if s < need:
                    return False
        slot = step_slot[i]
        ppos = step_parent[i]
        if ppos < 0:
            if not boundary_feasible(j):
                return False
            cand = full if classical else full & ~loops_used
            if slot == root_fix_slot:
                cand &= 1
            work = ((cand >> rot) | (cand << nrot)) & full
            while work:
                w = work & -work
                work ^= w
                v = w.bit_length() - 1 + rot
                if v >= n:
                    v -= n
                b = 1 << v
                nodes += 1
                if nodes > budget_abs:
                    budget_tripped = True
                    return True
                if deadline is not None and not nodes & 4095 and monotonic() > deadline:
                    timed_out = True
                    return True
                images[i] = v
                saved = tree_used[slot]
                tree_used[slot] = b
                if not classical:
                    loops_used |= b
                if go(i + 1):
                    return True
                tree_used[slot] = saved
                if not classical:
                    loops_used ^= b
            return False
        p = images[ppos]
        cand = pairfree[p] & ~tree_used[slot]
        sp = step_prev[i]
        if sp >= 0:
            cand &= -2 << images[sp]
        work = ((cand >> rot) | (cand << nrot)) & full
        while work:
            w = work & -work
            work ^= w
            v = w.bit_length() - 1 + rot
            if v >= n:
                v -= n
            b = 1 << v
            nodes += 1
            if nodes > budget_abs:
                budget_tripped = True
                return True
            if deadline is not None and not nodes & 4095 and monotonic() > deadline:
                timed_out = True
                return True
            images[i] = v
            old_p = pairfree[p]
            old_v = pairfree[v]
            pairfree[p] = old_p & ~b
            pairfree[v] = old_v & ~(1 << p)
            free_deg[p] -= 1
            free_deg[v] -= 1
            tree_used[slot] |= b
            if debug:
                lo, hi = (p, v) if p < v else (v, p)
                pairs_mask |= 1 << (lo * n + hi)
                edges_placed += 1
                assert pairs_mask.bit_count() == edges_placed, "edge mask drift"
            done = go(i + 1)
            if debug:
                lo, hi = (p, v) if p < v else (v, p)
                pairs_mask &= ~(1 << (lo * n + hi))
                edges_placed -= 1
            pairfree[p] = old_p
            pairfree[v] = old_v
            free_deg[p] += 1
            free_deg[v] += 1
            tree_used[slot] ^= b
            if done:
                return True
        return False

    if first_only:
        attempts = []
        grant = RESTART_BASE_BUDGET
        for idx in range(min(n, RESTART_MAX_ATTEMPTS)):
            attempts.append((idx % n, grant))
            grant *= 4
        attempts[-1] = (attempts[-1][0], UNBOUNDED)
    else:
        attempts = [(0, UNBOUNDED)]

    limit = sys.getrecursionlimit()
    if total + 64 > limit:
        sys.setrecursionlimit(total + 64)
    try:
        for rot, grant in attempts:
            nrot = n - rot
            pairfree[:] = base_pairfree
            for a in range(n):
                free_deg[a] = pairfree[a].bit_count()
            loops_used = 0
            tree_used[:] = [0] * n
            pairs_mask = 0
            edges_placed = 0
            budget_abs = nodes + grant
            budget_tripped = False
            go(0)
            if timed_out or solutions or not budget_tripped:
                break
    finally:
        if sys.getrecursionlimit() != limit:
            sys.setrecursionlimit(limit)
    return SearchOutcome(
        solutions=solutions,
        nodes=nodes,
        timed_out=timed_out,
        symmetry_factor=factor,
    )
