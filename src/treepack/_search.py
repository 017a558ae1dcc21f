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
``leaf_swaps``).  A search reads those of slots n - 2..0, the tail, from
a plan (`_TailPlan`) built by concatenating them, and adds the rows of
its largest tree in front.  Because ``steps`` lists a slot's steps by
slot position, the (0 k) swap that moves the root to slot k stays inside
`functree._compile`.

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
whatever pairs the large ones left behind.  Most boundaries fail, and
most failures are cheap to see, so `_boundary_feasible` tries the cheap
refutations first: more orphan loops (a free loop on a vertex with no
free pair) than one-vertex trees left, before any list is built, then a
component with no free loop as soon as the walk closes it.  On the
frontier set's 36 147 boundary calls per pass (78 % of them False) that
cut the test's CPU time from 0.27 s to 0.09 s, with the same verdict on
every call.

Full enumeration also memoizes tree boundaries.  Below the root step of
a tree, the search reads nothing but the step, the free pairs and the
used loops (the soundness note sits at the lookup), and in enumeration
most boundary states recur: 97 % of those reached over forty n = 5
families had been reached before.  So the engine keys each boundary it
leaves by ``(step, free-pair masks, used loops)`` and stores the unstarted
slots' permutations for every completion found below it, in DFS order,
with the nodes the subtree took.  A later visit with the same key appends
those completions to the placed slots, adds the node count and treats the
step as exhausted, so solutions, their order and node counts are those of
the plain search.  Beside the memo, and for exactly as long, full
enumeration keeps one table from a slot's head (its step images by slot
position) to its checked permutation, read at the solution leaf and at
memo hits; a permutation is built and checked only on a miss, so each
distinct one is checked once per search and rows share their slot tuples.
On the cap family ``generate_family(6, "mixed", 3)`` (1 215 360 rows) that
took the search from 577 716 `check_permutation` calls, 7.0 s of CPU time
and a 332 MB peak to 1 956 calls, 3.3 s and 279 MB.  A lone first-only
search keeps neither: within one family a boundary state rarely recurs,
and it builds one row, so either table would be pure cost.

A sweep is different: its families are small, share n and come in
product order, the largest tree changing fastest, so runs of (n - 1)!
consecutive families (120 at n = 6, 5 040 at n = 8) share their tail,
every tree the search places after its first boundary.  So every search
of one sweep chunk shares the chunk's `ChunkTables`: the plan of the
current tail and two tables.  A search whose tail equals the plan's,
compared by value, reuses it; otherwise it builds the plan of its own
tail and leaves it there.  The step rows, slot steps and leaf-swap
factor of the tail are thus built once per tail, not once per family; a
lone search builds its own plan on the same path.  The plan also holds
the boundary memo above in first-solution mode, used only in attempt 0,
where every scan offset is zero.  It keeps one dict per count j of
unstarted slots, and that dict belongs to the trees of slots 0..j-1: a
new plan keeps the old plan's dict where those trees are the same and
starts an empty one where they differ.  Product order never brings an
old tail back, so the memo stays bounded and hits as often as an
unbounded table would.  A miss opens a frame as in enumeration;
exhaustion stores no completion, a solution stores its unstarted slots'
permutations in every open frame, each with the nodes its subtree took
up to it, and a budget trip or the deadline stores nothing.  A hit adds
the stored count, trips the budget on the node past it where that count
passes the budget, as the search it stands for would, and otherwise
emits the stored completion after the placed slots or treats the step as
exhausted.  So statuses, labelings, node counts and restarts are those
of a lone search (the soundness note sits at the lookup).  Last, the
plan holds what `packing.is_complete` reads when `pack` verifies a
chunk's labeling: per mode and per tail slot k, a dict from slot k's
permutation to the edge mask its tree covers under it.  A new plan keeps
slot k's dict where the tree of slot k is the same, per slot and not
per prefix, so a dict only ever holds one tree's masks, and only the
largest tree is walked arc by arc per family (the soundness note sits in
`is_complete`).  That took verification per family in traced
benchmark passes of `sweep(6)` from 14.9–16.2 µs to 7.4–9.4 µs (four
alternating pairs, clock time), and the benchmark's sweep6 from a median
of 46 707 to 53 374 families/s (ten alternating pairs of 30 s runs).
Beside the plan, the chunk keeps two tables: boundary verdicts keyed by
``(step, free-pair masks, used loops)``, which hold across tails and are
asked only on memo misses, and the head table above.  A verdict hit is
the verdict itself, not a skipped subtree.  With the memo, `sweep(6)`
took a median of 1.3 s of CPU time against 2.1 s with those two tables
alone (five alternating runs), and ended with 1 333 stored subtrees,
1 488 verdicts and 433 permutations in its tables; without the
verdicts it asked the exact cover 52 635 times instead of 1 488 and
took 1.85 s instead of 1.55 s (medians of five alternating in-process
runs).  Building the tail's rows
once per tail instead of once per family, with the enumeration's slot
checks made once per tree, took the benchmark's `sweep(6)` from a median
of 37 794 to 47 369 families/s (ten alternating pairs of 30 s runs,
Python 3.11.7 on a 2-core shared machine).

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
from dataclasses import dataclass, field
from functools import reduce
from operator import or_

# leaf_sibling_groups stays a module attribute: perfbench/layers.py counts it here
from .functree import AugFuncTree, AugTreeFamily, Mapping, check_permutation, leaf_sibling_groups

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


def _slot_permutations(
    images: list[int], slot_steps, n: int, known: dict | None
) -> tuple[Mapping, ...]:
    """The permutation of each slot in ``slot_steps``, read off ``images``.

    A slot's steps list its vertices by slot position, so their images
    head its permutation; the values it leaves free fill the positions
    above its component, ascending.  Every tuple is checked here, where
    it is built, and nowhere again.

    ``known`` maps a head to its checked permutation.  Full enumeration
    keeps one per search, a sweep chunk shares one across all its
    searches, and a lone first-only search passes None: it builds one
    row, so a table would be pure cost.  It is sound to share one table
    across all slots of every search on one n: a slot's permutation is a
    pure function of its head and n; slot k's head has k + 1 entries, so
    a head also names its slot; and every tuple in the table was checked
    once, where it was built, on the miss that stored it.  A hit hands
    back that same tuple, so rows, and a chunk's labelings, share their
    slots."""
    out = []
    for steps in slot_steps:
        head = tuple([images[s] for s in steps])
        sig = None if known is None else known.get(head)
        if sig is None:
            sig = check_permutation(head + tuple([x for x in range(n) if x not in head]), n)
            if known is not None:
                known[head] = sig
        out.append(sig)
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
    # vertices with a free pair: the masks are symmetric, so their union
    live = reduce(or_, pairfree, 0)
    free_loops = orphans = 0
    if not classical:
        free_loops = ((1 << len(pairfree)) - 1) & ~loops_used
        # a vertex with no free pairs but a free loop can only take the
        # family's single one-vertex tree (present only when j >= 1)
        orphans = (free_loops & ~live).bit_count()
        if orphans > 1 or (orphans and not j):
            return False
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
        roots = (comp & free_loops).bit_count()
        # A live component has pairs, and only a tree of two or more
        # vertices can use them; that tree lies wholly inside the
        # component, root included, and its root takes a free loop.  With
        # no free loop here no remaining tree can be rooted in it, so its
        # pairs can never all be used.
        if not classical and not roots:
            return False
        comps.append([comp.bit_count(), pairs // 2, roots])
    # slot k holds size k + 1, so sizes descend; the one-vertex tree takes
    # the orphan loop, or in classical mode fits anywhere: drop it
    rem = list(range(j, 1 if orphans or classical else 0, -1))
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


@dataclass(eq=False)
class _TailPlan:
    """What a search reads of a family's tail: the trees of slots 0..n-2.

    The largest tree takes steps 0..n-1, so the tail's steps follow them
    in every family on Z_n, and their rows (``step_parent``,
    ``step_prev``), the tail's ``slot_steps`` and its leaf-swap ``factor``
    hold for every family with this tail; a search adds its largest
    tree's rows in front.  ``step_slot`` depends on n alone and covers
    every step.  ``levels[j]`` is the subtree memo of the boundaries with
    j unstarted slots, whose trees are ``tail[:j]`` (``levels[0]`` is
    None: no boundary leaves every slot placed).  ``masks`` holds, for
    loop mode and then classical mode, one dict per tail slot k from a
    slot permutation to the edge mask of ``tail[k]`` under it, which
    `packing.is_complete` fills and reads; a dict belongs to the tree of
    its slot alone.
    """

    tail: tuple[AugFuncTree, ...]
    step_slot: tuple[int, ...]
    step_parent: tuple[int, ...]
    step_prev: tuple[int, ...]
    slot_steps: tuple[tuple[int, ...], ...]
    factor: int
    levels: list[dict | None]
    masks: tuple[list[dict], list[dict]]


def _tail_plan(n: int, tail: tuple[AugFuncTree, ...], old: _TailPlan | None) -> _TailPlan:
    """The plan of ``tail`` on Z_n.  A memo level of ``old`` whose trees
    ``tail`` shares (compared by value) is kept, and so is the mask dict
    of each slot whose tree it shares; every other level and dict starts
    empty, so a level only ever holds the subtrees of its own trees and a
    dict the masks of its own tree."""
    compiled = [t.compiled() for t in tail]
    step_slot = [n - 1] * n
    step_parent: list[int] = []  # step of the parent, -1 at roots
    step_prev: list[int] = []  # step of the previous leaf sibling, -1
    factor = 1
    for slot in range(n - 2, -1, -1):  # larger trees first
        c = compiled[slot]
        step_slot += [slot] * (slot + 1)
        step_parent += c.parent_step
        step_prev += c.prev_leaf_step
        factor *= c.leaf_swaps
    # per tail slot: does old hold the same tree there?  (trees on
    # another n never compare equal)
    old_tail = () if old is None else old.tail
    same = [k < len(old_tail) and old_tail[k] == t for k, t in enumerate(tail)]
    shared = (same + [False]).index(False)  # levels 1..shared keep their trees
    return _TailPlan(
        tail=tail,
        step_slot=tuple(step_slot),
        step_parent=tuple(step_parent),
        step_prev=tuple(step_prev),
        slot_steps=tuple([c.steps for c in compiled]),
        factor=factor,
        levels=[None] + [
            old.levels[j] if j <= shared else {} for j in range(1, n)
        ],
        masks=tuple(
            [old.masks[mode][k] if same[k] else {} for k in range(len(tail))]
            for mode in (0, 1)
        ),
    )


@dataclass(eq=False)
class ChunkTables:
    """What every search of one sweep chunk shares (module docstring):
    one n, one ``classical``, first-only with symmetry pruning.

    ``verdicts`` maps a boundary state to the exact cover's verdict,
    ``known`` a slot head to its checked permutation
    (`_slot_permutations`), and ``plan`` is the plan of the last tail
    searched, with its subtree memo and its tail slots' edge masks; a
    family with another tail replaces it."""

    verdicts: dict = field(default_factory=dict)
    known: dict = field(default_factory=dict)
    plan: _TailPlan | None = None


def search(
    family: AugTreeFamily,
    *,
    symmetry_pruning: bool = True,
    classical: bool = False,
    first_only: bool = True,
    time_limit_s: float | None = None,
    blocked_pairs=(),
    tables: ChunkTables | None = None,
) -> SearchOutcome:
    """Run the embedding search over one family.

    With ``symmetry_pruning`` the largest tree's root image is pinned to
    vertex 0 and images within each leaf-sibling group must ascend; both
    cuts preserve feasibility (diagonal relabeling, leaf exchange), and
    the outcome reports the exact count multiplier they remove.
    ``blocked_pairs`` pre-consumes edges; it exists so tests can force the
    exhausted branch, which no valid family reaches on its own.

    With ``first_only`` the Luby restart schedule described in the module
    docstring is active and ``nodes`` accumulates over attempts.  Each
    attempt reads a per-step list of scan offsets: all zero in attempt 0,
    drawn from ``random.Random(RESTART_SEED)`` afterwards.  The generator
    is built only once attempt 0 has run out of budget, so a family that
    packs within it pays nothing for the schedule.  Full enumeration always
    runs a single unbounded pass in ascending order, with the boundary
    memo of the module docstring.

    ``tables`` are a sweep chunk's `ChunkTables`.  The search reuses
    their plan when the family's tail equals its tail, and otherwise
    builds the plan and stores it there; without tables it builds one
    for itself.  A table hit returns what the call or subtree it stands
    for would, so results and node counts are those without tables.
    """
    n = family.n
    full = (1 << n) - 1

    tail = family.trees[:-1]
    plan = None if tables is None else tables.plan
    if plan is None or plan.tail != tail:
        plan = _tail_plan(n, tail, plan)
        if tables is not None:
            tables.plan = plan
    last = family.trees[-1].compiled()  # the largest tree: steps 0..n-1
    step_slot = plan.step_slot
    step_parent = last.parent_step + plan.step_parent
    slot_steps = plan.slot_steps + (last.steps,)  # per slot: its steps by slot position
    total = len(step_slot)
    if symmetry_pruning:
        step_prev = last.prev_leaf_step + plan.step_prev
        factor = n * last.leaf_swaps * plan.factor
    else:
        step_prev = (-1,) * total
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

    # boundary verdicts, kept only by a sweep chunk, and per slot head its
    # checked permutation (`_slot_permutations`): full enumeration keeps
    # one for as long as its memo, a lone first-only search has none
    if tables is None:
        verdicts, known = None, None if first_only else {}
    else:
        verdicts, known = tables.verdicts, tables.known
    # the tree-boundary memo by count j of unstarted slots: full
    # enumeration and a sweep chunk's attempt 0 read the plan's levels
    # (fresh for each enumeration), a lone first-only search none
    # (close_at then stays -1)
    memos = plan.levels if tables is not None or not first_only else None
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
        budget_abs = nodes + grant
        budget_tripped = False
        i = 0
        enter = True
        while True:
            if enter:  # step i's candidates, or none where a prune fires
                cand = 0
                if i == total:
                    solutions.append(_slot_permutations(images, slot_steps, n, known))
                    if first_only:
                        break  # the open boundaries store it after the loop
                else:
                    ppos = step_parent[i]
                    if ppos >= 0:
                        cand = pairfree[images[ppos]] & ~tree_used[step_slot[i]]
                        sp = step_prev[i]
                        if sp >= 0:
                            cand &= -2 << images[sp]
                    else:
                        hit = None
                        if memos is not None and i:
                            # Everything the subtree below this boundary
                            # reads is a function of the key and the level's
                            # tail: the free pairs (blocked pairs included),
                            # the used loops, the unstarted trees' compiled
                            # rows and empty tree_used, all-zero scan
                            # offsets (attempt 0), no root pin past step 0,
                            # and n, classical and symmetry pruning, which
                            # one search or one sweep chunk fixes.  Its
                            # completions of the unstarted slots, their DFS
                            # order and its node count (up to the first
                            # completion, first-only) are therefore the same
                            # at every visit; only the placed slots differ.
                            memo = memos[step_slot[i] + 1]
                            key = (i, tuple(pairfree), loops_used)
                            hit = memo.get(key)
                            if hit is None:  # closed when step i is exhausted
                                frames.append((close_at, key, len(solutions), nodes))
                                close_at = i
                        if hit is not None:
                            done, took = hit
                            before = nodes
                            nodes += took
                            if nodes > budget_abs:
                                # the subtree it stands for tripped the
                                # budget inside, on the node past it
                                nodes = budget_abs + 1
                                budget_tripped = True
                                break
                            if done:
                                placed = _slot_permutations(
                                    images, slot_steps[step_slot[i] + 1:], n, known
                                )
                                solutions += [d + placed for d in done]
                            # a bulk add may pass a multiple of 4096
                            # that the placement check never sees
                            if (
                                deadline is not None
                                and nodes >> 12 != before >> 12
                                and monotonic() > deadline
                            ):
                                timed_out = True
                                break
                            if first_only and done:
                                break
                        else:
                            if verdicts is None:
                                ok = _boundary_feasible(
                                    step_slot[i] + 1, pairfree, loops_used, classical
                                )
                            else:
                                # The verdict is a pure function of (j,
                                # pairfree, loops_used, classical).  Every
                                # search sharing the table has the same n and
                                # classical, and j = step_slot[i] + 1 depends
                                # on n and i alone, so the key fixes every
                                # argument, blocked pairs included (they are
                                # in pairfree).  A hit is the verdict the
                                # call would return, and skips no node.
                                vkey = (i, tuple(pairfree), loops_used)
                                ok = verdicts.get(vkey)
                                if ok is None:
                                    ok = verdicts[vkey] = _boundary_feasible(
                                        step_slot[i] + 1, pairfree, loops_used, classical
                                    )
                            if ok:
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
                    memos[j][key] = (
                        tuple([sol[:j] for sol in solutions[start:]]), nodes - before
                    )
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
            if enter:
                i += 1
        if first_only and solutions:  # every open boundary led to it
            row = solutions[0]
            for _, key, _, before in frames:
                j = step_slot[key[0]] + 1
                memos[j][key] = ((row[:j],), nodes - before)
        if timed_out or solutions or not budget_tripped:
            break
        # later attempts scan from random offsets: the memo holds only for
        # attempt 0, and the boundaries the budget cut store nothing
        memos = None
        frames.clear()
        close_at = -1
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
