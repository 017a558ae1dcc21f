"""Backtracking engine shared by the Phi enumerator and the packing solver.

The search space is the set of "essential" labelings: one injection per
slot from the stored component Z_(k+1) into Z_n.  Values outside the
component never touch an edge, so feasibility and enumeration both live
entirely in this space; a solution is reported as the labeling that
fills them ascending, one checked permutation per slot
(`_slot_permutations`).  State is held in integer bitmasks — one free-
partner mask per vertex, one mask of consumed loop vertices, one
used-vertex mask per tree — which makes candidate generation a couple of
machine-word operations per node.

Placement order is fixed: trees largest first, vertices of each tree
breadth-first from the root with children ascending (the tree's compiled
``order``).  Each placement is one step, so a family has ``total`` =
n(n+1)/2 steps.  Candidates are tried in ascending vertex order.  Together
these make node counts a pure function of (family, options).  A tree of
size m takes the same steps in every family on Z_n, so its step rows and
leaf-swap factor are compiled once per tree (``CompiledTree.steps`` to
``leaf_swaps``), and a search only concatenates them, largest tree first.
Because ``steps`` lists a slot's steps by slot position, the (0 k) swap
that moves the root to slot k stays inside `functree._compile`.

The backtracking is one explicit loop over per-step arrays, not a
recursion, so its depth is not bounded by the interpreter's stack and no
process-wide setting is touched.  ``work[i]`` holds step i's untried
candidates and ``images[i]`` its current image.  Entering a step computes
its candidates (none when a prune fires); the loop then backs out of
every exhausted step, undoing each image it leaves, and places the next
candidate of the deepest step that has one.  Step ``total`` is the
solution leaf: entering it records a solution, and it has no candidates,
so enumeration backs out of it through the same undo path.

One structural prune cuts branches with no completion.  It cannot cut a
branch that completes, so enumeration results are unaffected (its
soundness argument sits next to its code).  A complete labeling uses
every pair and every loop exactly once, so at each tree boundary the
components of the free-pair graph must admit an exact cover: each
remaining tree inside a single component, every component's pair supply
consumed exactly, and one free loop per root.  A tiny assignment search
(`_cover_fits`) decides this; it is what stops the engine from
re-proving, thousands of times, that the small trees cannot tile
whatever pairs the large ones left behind.

Full enumeration also memoizes tree boundaries.  Below the root step of
a tree, the search reads nothing but the step, the free pairs and the
used loops (the soundness note sits at the lookup), and in enumeration
most boundary states recur: 97 % of those reached over forty n = 5
families had been reached before.  So the engine keys each boundary it
leaves by ``(step, free-pair masks, used loops)`` and stores the unstarted
slots' permutations for every completion found below it, in DFS order,
with the nodes the subtree took.  A later visit with the same key appends
those completions to the placed slots, built once, adds the node count and
treats the step as exhausted, so solutions, their order and node counts
are those of the plain search.  First-only search keeps no memo: a
boundary state there rarely recurs, and skipping a failed subtree would
change node counts and with them the restart schedule.

Backtracking runtimes are heavy-tailed: the rare family whose first few
embeddings are "nearly right" can cost millions of nodes under any fixed
scan order, while a slightly different order dispatches it in thousands.
When only one solution is wanted the engine therefore restarts on the
schedule of Luby, Sinclair and Zuckerman (1993).  Attempt 0 scans every
step in ascending order with a budget of ``RESTART_BASE_BUDGET`` nodes,
the schedule's unit.  Attempt a >= 1 gets ``luby(a + 1)`` units, and in
it about one step in ``RESTART_SHIFT_ODDS`` starts its candidate scan at
a random vertex instead of 0.  The perturbation stays light on purpose:
at large n the ascending order is the better heuristic, and fully random
scans time out where it packs (the "heuristic equivalence" randomization
of Gomes, Selman, Crato and Kautz, 2000).  The offsets come from one
``random.Random(RESTART_SEED)`` per search, so node counts stay a pure
function of the inputs.  Every attempt is a complete search and the
budgets grow without bound, so attempts run until one ends within its
budget: a solution, the deadline, or a proof that none exists.  Full
enumeration never restarts.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import reduce
from operator import or_

# leaf_sibling_groups stays a module attribute: perfbench/layers.py counts it here
from .functree import AugTreeFamily, Mapping, check_permutation, leaf_sibling_groups

RESTART_BASE_BUDGET = 1 << 11  # the Luby unit: attempt 0's node budget
RESTART_SEED = 1  # seeds the scan offsets of attempts 1, 2, ...
RESTART_SHIFT_ODDS = 16  # a restarted step gets a random offset with odds 1 in 16
UNBOUNDED = 1 << 62


def luby(i: int) -> int:
    """The i-th term (from 1) of the Luby sequence 1, 1, 2, 1, 1, 2, 4, 1, ...

    Term ``2**k - 1`` is ``2**(k-1)``; the terms after it repeat the
    sequence from its start, so for ``2**(k-1) <= i < 2**k - 1`` the term
    is that of ``i - (2**(k-1) - 1)``.
    """
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


def _slot_permutations(images: list[int], slot_steps, n: int) -> tuple[Mapping, ...]:
    """The permutation of each slot in ``slot_steps``, read off ``images``.

    A slot's steps list its vertices by slot position, so their images
    head its permutation; the values it leaves free fill the positions
    above its component, ascending.  Every tuple is checked here, where
    it is built, and nowhere again."""
    out = []
    for steps in slot_steps:
        sig = [images[s] for s in steps]
        sig += [x for x in range(n) if x not in sig]
        out.append(check_permutation(sig, n))
    return tuple(out)


@dataclass
class SearchOutcome:
    """Raw engine result.  Each solution is a labeling's slot permutations,
    slot 0 first, every one checked by `_slot_permutations`."""

    solutions: list[tuple[Mapping, ...]]
    nodes: int
    timed_out: bool
    symmetry_factor: int


def _boundary_feasible(
    j: int,
    pairfree: list[int],
    loops_used: int,
    classical: bool,
) -> bool:
    """Exact-cover test for the last ``j`` trees at a tree boundary.

    At a boundary every placed tree is complete, and a complete labeling
    uses each remaining pair and (unless ``classical``) each remaining
    loop exactly once.  A tree is connected and only takes free pairs, so
    all of it lies in one component of the free-pair graph; the trees in
    a component must therefore use exactly its pairs, and their roots
    exactly its free loops.  False means no completion exists.
    """
    n = len(pairfree)
    rem = list(range(j, 0, -1))  # slot k holds size k + 1: sizes descend
    # vertices with a free pair: the masks are symmetric, so their union
    live = reduce(or_, pairfree, 0)
    if not classical:
        # a vertex with no free pairs but a free loop can only take the
        # family's single one-vertex tree
        iso = (((1 << n) - 1) & ~live & ~loops_used).bit_count()
        if iso:
            if iso > rem.count(1):
                return False
            del rem[len(rem) - iso:]
    elif rem and rem[-1] == 1:
        rem.pop()  # no loops to claim: a one-vertex tree fits anywhere
    comps: list[list[int]] = []
    while live:
        comp = frontier = live & -live
        pairs = 0  # each vertex joins one frontier: every pair counts twice
        while frontier:
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                m ^= b
                pf = pairfree[b.bit_length() - 1]
                nxt |= pf
                pairs += pf.bit_count()
            frontier = nxt & ~comp
            comp |= frontier
        live &= ~comp
        comps.append([
            comp.bit_count(),
            pairs // 2,
            0 if classical else (comp & ~loops_used).bit_count(),
        ])
    if not rem:
        return not comps
    # rem[0] * (rem[0] - 1) / 2 pairs need at least rem[0] vertices, so a
    # component that passes the pair test fits the largest tree
    if (
        len(comps) == 1
        and comps[0][1] == sum(rem) - len(rem)
        and (classical or comps[0][2] == len(rem))
    ):
        return True
    return _cover_fits(rem, comps, not classical)


def _cover_fits(rem: list[int], comps: list[list[int]], loops: bool) -> bool:
    """Can the remaining tree sizes exactly tile the free-pair components?

    ``comps`` holds ``[vertices, pairs, free_loops]`` rows.  A tree of size
    m claims m - 1 pairs and (with ``loops``) one root loop from a single
    component that has at least m vertices; success requires every row to
    end at zero pairs and zero loops.  Sizes arrive sorted descending so
    the most constrained trees are matched first.  Tree i tries one
    component of each distinct (fits, pairs, loops) signature: components
    that agree on it are interchangeable for every later tree.
    """
    path: list[list[int]] = []  # the row each placed tree occupies
    work: list[list[list[int]]] = []  # per level: the rows left to try
    while True:
        # enter level i: the rows tree i may take, last-tried first
        i = len(path)
        todo: list[list[int]] = []
        if i == len(rem):
            if all(c[1] == 0 and (not loops or c[2] == 0) for c in comps):
                return True
        else:
            m = rem[i]
            tried = set()
            for c in comps:
                sig = (c[0] >= m, c[1], c[2])
                if sig not in tried:
                    tried.add(sig)
                    if c[0] >= m and c[1] >= m - 1 and (not loops or c[2] >= 1):
                        todo.append(c)
            todo.reverse()
        work.append(todo)
        while not work[-1]:  # back out of exhausted levels, returning rows
            work.pop()
            if not path:
                return False
            c = path.pop()
            c[1] += rem[len(path)] - 1
            c[2] += 1
        c = work[-1].pop()
        c[1] -= rem[len(path)] - 1
        c[2] -= 1
        path.append(c)


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

    With ``first_only`` the Luby restart schedule described in the module
    docstring is active and ``nodes`` accumulates over attempts.  Each
    attempt reads a per-step list of scan offsets: all zero in attempt 0,
    drawn from ``random.Random(RESTART_SEED)`` afterwards.  The generator
    is built only once attempt 0 has run out of budget, so a family that
    packs within it pays nothing for the schedule.  Full enumeration always
    runs a single unbounded pass in ascending order, with the boundary
    memo of the module docstring.
    """
    n = family.n
    full = (1 << n) - 1

    compiled = [t.compiled() for t in family.trees]
    slot_steps = [c.steps for c in compiled]  # per slot: its steps by slot position
    step_slot: list[int] = []
    step_parent: list[int] = []  # step of the parent, -1 at roots
    step_prev: list[int] = []  # step of the previous leaf sibling, -1
    factor = n
    for slot in range(n - 1, -1, -1):  # largest tree first
        c = compiled[slot]
        step_slot += [slot] * (slot + 1)
        step_parent += c.parent_step
        step_prev += c.prev_leaf_step
        factor *= c.leaf_swaps
    total = len(step_slot)
    if not symmetry_pruning:
        step_prev = [-1] * total
        factor = 1

    base_pairfree = [full & ~(1 << a) for a in range(n)]
    for a, b in blocked_pairs:
        base_pairfree[a] &= ~(1 << b)
        base_pairfree[b] &= ~(1 << a)
    images = [0] * total
    work = [0] * (total + 1)  # untried candidates per step, rotated by shift
    nodes = 0
    timed_out = False
    solutions: list[tuple[Mapping, ...]] = []
    monotonic = time.monotonic
    deadline = None if time_limit_s is None else monotonic() + time_limit_s

    # full enumeration: per tree-boundary state, the unstarted slots'
    # permutations of each completion below it and the nodes it took
    # (first-only search keeps none, and close_at stays -1)
    memo: dict[tuple, tuple[tuple, int]] | None = None if first_only else {}
    frames: list[tuple] = []  # open boundaries: (outer close_at, key, solutions, nodes)
    close_at = -1  # step of the innermost open boundary

    shift = [0] * (total + 1)  # scan offset per step of work: all 0 in attempt 0
    grant = RESTART_BASE_BUDGET if first_only else UNBOUNDED
    attempt = 0
    rng = None
    while True:
        pairfree = list(base_pairfree)
        loops_used = 0
        tree_used = [0] * n
        pairs_mask = 0
        edges_placed = 0
        budget_abs = nodes + grant
        budget_tripped = False
        i = 0
        enter = True
        while True:
            if enter:  # step i's candidates, or none where a prune fires
                cand = 0
                if i == total:
                    solutions.append(_slot_permutations(images, slot_steps, n))
                    if first_only:
                        break
                else:
                    ppos = step_parent[i]
                    if ppos >= 0:
                        cand = pairfree[images[ppos]] & ~tree_used[step_slot[i]]
                        sp = step_prev[i]
                        if sp >= 0:
                            cand &= -2 << images[sp]
                    else:
                        hit = None
                        if memo is not None and i:
                            # Everything the subtree below this boundary
                            # reads is a function of the key: the free
                            # pairs, the used loops, the unstarted trees'
                            # empty tree_used, all-zero scan offsets, and
                            # no root pin past step 0.  Its permutations
                            # of the unstarted slots, their DFS order and
                            # its node count are therefore the same at
                            # every visit; only the placed slots differ.
                            key = (i, tuple(pairfree), loops_used)
                            hit = memo.get(key)
                            if hit is None:  # closed when step i is exhausted
                                frames.append((close_at, key, len(solutions), nodes))
                                close_at = i
                        if hit is not None:
                            done, took = hit
                            if done:
                                placed = _slot_permutations(
                                    images, slot_steps[step_slot[i] + 1:], n
                                )
                                solutions += [d + placed for d in done]
                            before = nodes
                            nodes += took
                            # a bulk add may pass a multiple of 4096
                            # that the placement check never sees
                            if (
                                deadline is not None
                                and nodes >> 12 != before >> 12
                                and monotonic() > deadline
                            ):
                                timed_out = True
                                break
                        elif _boundary_feasible(
                            step_slot[i] + 1, pairfree, loops_used, classical
                        ):
                            cand = full & ~loops_used  # classical: loops_used stays 0
                            if symmetry_pruning and not i:
                                cand &= 1  # pin the largest tree's root
                r = shift[i]
                if r:  # scan from vertex r: rotate bit r down to bit 0
                    cand = ((cand >> r) | (cand << n - r)) & full
                work[i] = cand
            w = work[i]
            if w:  # place the next candidate, in rotated ascending order
                low = w & -w
                work[i] = w ^ low
                v = low.bit_length() - 1 + shift[i]
                if v >= n:
                    v -= n
                nodes += 1
                if nodes > budget_abs:
                    budget_tripped = True
                    break
                if deadline is not None and not nodes & 4095 and monotonic() > deadline:
                    timed_out = True
                    break
                images[i] = v
                enter = True
            elif i:  # step i is exhausted: undo the image of step i - 1
                if i == close_at:  # store the completions below its boundary
                    close_at, key, start, before = frames.pop()
                    j = step_slot[i] + 1  # the unstarted slots
                    memo[key] = (tuple([sol[:j] for sol in solutions[start:]]), nodes - before)
                i -= 1
                v = images[i]
                enter = False
            else:
                break  # step 0 is exhausted: the attempt saw every branch
            # placing and undoing both flip the same bits: every bit a
            # placement clears was set, and the undo sets it back
            b = 1 << v
            tree_used[step_slot[i]] ^= b
            ppos = step_parent[i]
            if ppos < 0:
                if not classical:
                    loops_used ^= b
            else:
                p = images[ppos]
                pairfree[p] ^= b
                pairfree[v] ^= 1 << p
                if debug:
                    lo, hi = (p, v) if p < v else (v, p)
                    pairs_mask ^= 1 << (lo * n + hi)
                    edges_placed += 1 if enter else -1
                    assert pairs_mask.bit_count() == edges_placed, "edge mask drift"
            if enter:
                i += 1
        if timed_out or solutions or not budget_tripped:
            break
        attempt += 1
        grant = luby(attempt + 1) * RESTART_BASE_BUDGET
        if rng is None:
            rng = random.Random(RESTART_SEED)
        draw = rng.randrange
        shift = [draw(n) if not draw(RESTART_SHIFT_ODDS) else 0 for _ in work]
    return SearchOutcome(
        solutions=solutions,
        nodes=nodes,
        timed_out=timed_out,
        symmetry_factor=factor,
    )
