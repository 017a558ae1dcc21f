"""Backtracking engine shared by the Phi enumerator and the packing solver.

The search space is the set of "essential" labelings: one injection per
slot from the stored component Z_(k+1) into Z_n.  Values outside the
component never touch an edge, so feasibility and enumeration both live
entirely in this space; a solution is reported as the labeling that
fills them ascending, one checked permutation per slot, built through
the head table `_HeadTable`.  State is held in integer bitmasks — one free-
partner mask per vertex, one mask of consumed loop vertices, one
used-vertex mask per tree — which makes candidate generation a couple of
machine-word operations per node.

Placement order is fixed: trees largest first, vertices of each tree
breadth-first from the root with children ascending (the tree's compiled
``order``).  Each placement is one step, so a family has ``total`` =
n(n+1)/2 steps.  Candidates are tried in ascending vertex order.
Together these make node counts a pure function of (family, options).

Symmetry pruning drops labelings that a relabeling or a leaf exchange
gives from one the search keeps.  Images within each leaf-sibling group
ascend, and the largest tree is pinned.  A first-only search (`pack`,
`sweep`) pins only its root, to vertex 0.  Full enumeration pins the whole
largest tree at the identity, slot position p at vertex p, and starts at
step n, so it lists one row per class of labelings under relabeling.
``symmetry_factor`` is the exact count each pruned row stands for: n times
every slot's leaf orders with the root pin, n! times the tail's leaf orders
with the identity pin.

A tree of size m takes the same steps in every family on Z_n, so its step
rows and leaf-swap factor are compiled once per tree
(``CompiledTree.steps`` to ``leaf_swaps``).  A search reads those of
slots n - 2..0, the tail, concatenated in its `ChunkTables`, and adds
the rows of its largest tree in front.  Because ``steps`` lists a slot's
steps by slot position, the (0 k) swap that moves the root to slot k
stays inside `functree._compile`.

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
component with no free loop as soon as the walk closes it.

Both modes memoize the tree boundaries past step n.  Below the root step
of a tree, the search reads nothing but the free pairs and the used
loops (the soundness note sits at the lookup), and in enumeration most
boundary states recur.  So the engine keys each boundary it leaves by
``(free-pair masks, used loops)`` on level j, the count of unstarted
slots, which fixes the step, and stores one entry ``(rows, nodes)``: the
solution rows first found below it, in DFS order, and the nodes the
subtree took.  The rows are the very tuples of the search's solutions,
held by reference, so the memo holds no copy of a completion.  A later
visit with the same key re-emits ``row[:j] + placed`` for each stored
row, adds the node count and treats the step as exhausted, so solutions,
their order and node counts are those of the plain search.  Rows are
written at the solution leaf and at memo hits through a `_HeadTable`,
which checks each distinct slot permutation once, on the table's n, and
which the Phi expansion reads too.  Step n is no memo boundary: pinned
full enumeration enters it once, and in a sweep level n - 1 below
answers first.  A lone first-only search keeps no memo for its cost: on
the benchmark's frontier set 2 145 of 10 927 attempt-0 boundary lookups
would hit, but the bookkeeping made the median pack about 9 % slower.

A sweep is different: its families are small, share n and come in
product order, the largest tree changing fastest, so runs of (n - 1)!
consecutive families (120 at n = 6, 5 040 at n = 8) share their tail,
every tree the search places after its first boundary.  So every search
of one sweep chunk shares one `ChunkTables`; a lone search makes its own
and reads only its tail rows and head table.  The tables hold the
current tail's step rows, slot steps and leaf-swap factor, which
`_retarget` rebuilds only when a family's tail differs, compared by
value, so they are built once per tail, not once per family.  Per tail
they also hold the boundary memo above in first-solution mode, one dict
per count j of unstarted slots, and what `packing.is_complete` reads
when `pack` verifies a chunk's labeling: per tail slot k, a dict from
slot k's permutation to the edge mask its tree covers under it, root
loop included, so one dict serves both modes and only the largest slot's
mask is built per family (the soundness note sits in `is_complete`). One
carry rule serves both: when the tail changes, memo level k + 1 and mask
dict k are kept while the trees of slots 0..k stay, and start empty
otherwise.  Product order changes a suffix of the tail slots, so a mask
dict is kept exactly while its own tree stays, and it never brings an
old tail back, so the memo stays bounded per tail and hits as often as
an unbounded table would.  A tail may last most of a run: in class order
at n = 8, levels 3 and 4 do (ROADMAP item 3).  Only the head table
outlives a tail: `_retarget` replaces it when n changes.  The memo is
used only in attempt 0, where every scan offset is zero.  Its entries
are enumeration's, with at most one row: exhaustion stores none, a
solution is stored in every open frame, each with the nodes its subtree
took up to it, and a budget trip or the deadline stores nothing.  A hit
adds the stored count, trips the budget on the node past it where that
count passes the budget, as the search it stands for would, and
otherwise re-emits its row, which ends the search, or treats the step as
exhausted.  So statuses, labelings, node counts and restarts are those
of a lone search (the soundness note sits at the lookup).  Within a tail
the memo is the chunk's one boundary cache, which stores a refuted
boundary as an exhausted subtree.  With no pair blocked the exact cover
is not asked at steps 0 and n, where it cannot fail (the proof sits in
`search`).

Level n - 1, the boundary at step n, is keyed by the largest tree's
``(parent_step, classical)``; that shape takes Catalan(n - 1) values
among the (n - 1)! largest trees of a tail: 42 among 120 at n = 6, 132
among 720 at n = 7.  What attempt 0 settles is a function of the key and
the tail (the argument sits at the lookup), so the level stores it in
the entry form of every other level, the packed row, by reference, or
none, and the search's nodes, and reads it at the search's entry, before
any per-search array is built.  A hit rebuilds the largest slot as
``known[steps]``.  Like every level it is written from attempt 0 only,
and a search with a pair blocked neither reads nor writes it.  `pack`
still verifies every row a hit builds.

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

import math
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


class _HeadTable(dict):
    """Slot head to checked permutation on Z_n, the one builder of the
    slot format: a head (a slot's images by slot position) not yet in the
    table is followed by the values it leaves free, ascending, checked
    once and stored, and every later lookup hands back that same tuple.
    One table serves every slot on its n: a permutation is a function of
    its head and n, and slot k's head has k + 1 entries, so it also names
    its slot.  `_retarget` makes a fresh table whenever n changes."""

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n

    def __missing__(self, head: tuple[int, ...]) -> Mapping:
        n = self.n
        fill = tuple([x for x in range(n) if x not in head])
        sig = self[head] = check_permutation(head + fill, n)
        return sig


def _slot_permutations(images: list[int], slot_steps, known: _HeadTable) -> tuple[Mapping, ...]:
    """The permutation of each slot in ``slot_steps`` through ``known``:
    a slot's steps list its vertices by slot position, so their images in
    ``images`` are its head."""
    return tuple([known[tuple([images[s] for s in steps])] for steps in slot_steps])


@dataclass
class SearchOutcome:
    """Raw engine result.  Each solution is a labeling's slot permutations,
    slot 0 first, every one checked by the search's `_HeadTable`."""

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
class ChunkTables:
    """What every search of one sweep chunk shares (module docstring):
    one ``classical``, first-only with symmetry pruning; a lone search
    makes its own.  ``known``, the `_HeadTable` of the tables' n, holds
    across tails, and `_retarget` makes a fresh one when n changes, so
    one set of tables may serve families of any sizes.  The rest belongs
    to ``tail``, the trees of slots 0..n-2, and `_retarget` rebinds it: the
    tail's step rows, ``slot_steps`` and leaf-swap ``factor``, which a
    search prefixes with its largest tree's (steps 0..n-1); ``step_slot``,
    which depends on n alone; ``levels[j]``, j < n, the first-solution
    memo of the boundaries with j unstarted slots, each entry the packed
    row found below, by reference, or none, and the nodes it took, keyed
    by free pairs and used loops, but on ``levels[n - 1]`` by largest-tree
    shape and mode, at most Catalan(n - 1) per mode (``levels[0]`` is
    read only at n = 1); and
    ``masks[k]``, from slot k's permutation to the edge mask of
    ``tail[k]`` under it, root loop included, which `packing.is_complete`
    fills and reads in both modes."""

    known: _HeadTable | None = None
    tail: tuple[AugFuncTree, ...] | None = None
    step_slot: tuple[int, ...] = ()
    step_parent: tuple[int, ...] = ()
    step_prev: tuple[int, ...] = ()
    slot_steps: tuple[tuple[int, ...], ...] = ()
    factor: int = 1
    levels: list[dict] = field(default_factory=list)
    masks: list[dict] = field(default_factory=list)


def _retarget(tables: ChunkTables, n: int, tail: tuple[AugFuncTree, ...]) -> None:
    """Rebind the per-tail fields of ``tables`` to ``tail`` on Z_n, with a
    fresh head table if n changed.  The one carry rule: while the trees of
    slots 0..k stay, compared by value, memo level k + 1 and mask dict k
    are kept; every other level and dict starts empty, so each only ever
    holds what its own trees give."""
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
    kept = 0  # slots 0..kept-1 hold the same trees (trees on another n never do)
    for old, new in zip(tables.tail or (), tail):
        if old != new:
            break
        kept += 1
    if tables.known is None or tables.known.n != n:  # a head table serves one n
        tables.known = _HeadTable(n)
    tables.tail = tail
    tables.step_slot = tuple(step_slot)
    tables.step_parent = tuple(step_parent)
    tables.step_prev = tuple(step_prev)
    tables.slot_steps = tuple([c.steps for c in compiled])
    tables.factor = factor
    # level 0 is read only at n = 1, where a retarget always means a new n
    tables.levels = [tables.levels[j] if 0 < j <= kept else {} for j in range(n)]
    tables.masks = [tables.masks[k] if k < kept else {} for k in range(n - 1)]


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

    With ``symmetry_pruning`` images within each leaf-sibling group must
    ascend, and the largest tree is pinned: its root to vertex 0 in
    first-only search, the whole tree to the identity in full
    enumeration (the argument sits at the pin).  Both cuts preserve
    feasibility (diagonal relabeling, leaf exchange), and the outcome
    reports the exact count multiplier they remove.  ``blocked_pairs``
    pre-consumes edges; it exists so tests can force the exhausted
    branch, which no valid family reaches on its own.  With a pair
    blocked, full enumeration pins the root as first-only search does.

    With ``first_only`` the Luby restart schedule described in the module
    docstring is active and ``nodes`` accumulates over attempts.  Each
    attempt reads a per-step list of scan offsets: all zero in attempt 0,
    drawn from ``random.Random(RESTART_SEED)`` afterwards.  The generator
    is built only once attempt 0 has run out of budget, so a family that
    packs within it pays nothing for the schedule.  Full enumeration always
    runs a single unbounded pass in ascending order, with the boundary
    memo of the module docstring.

    ``tables`` are a sweep chunk's `ChunkTables`; the search retargets
    them when the family's tail is not theirs.  Without tables it makes
    its own, and first-only keeps no memo.  A memo entry holds the rows
    found below its boundary, by reference, and the nodes it took, so a
    hit returns what its subtree would, and results and node counts are
    those without tables; a hit on level n - 1 returns at entry what an
    earlier search of the same tail and largest-tree shape found.
    """
    n = family.n
    full = (1 << n) - 1

    lone = tables is None
    if lone:
        tables = ChunkTables()
    tail = family.trees[:-1]
    if tables.tail != tail:
        _retarget(tables, n, tail)
    last = family.trees[-1].compiled()  # the largest tree: steps 0..n-1
    # Full enumeration with symmetry pruning pins the whole largest tree:
    # slot position p at vertex p, and the loop starts at step n.  Why this
    # loses no member: complete
    # labelings are closed under diagonal relabeling, left-composing every
    # slot with one permutation of Z_n.  The largest tree spans Z_n, so a
    # member M's largest slot is a permutation gamma of all of Z_n, and
    # P = gamma^-1 o M is complete with the identity there.  M = gamma o P,
    # and in no other way: gamma must be M's largest slot, which fixes P.
    # So the members are the n! relabelings of those with the identity
    # there, each once.  The largest tree's leaf orders are among those
    # relabelings, so only the tail keeps the leaf-ascending cut.
    # Relabeling moves a blocked pair too, so the pin needs no pair
    # blocked, as the root pin does; with one blocked, full enumeration
    # pins the root as first-only search does.
    pin_all = symmetry_pruning and not first_only and not blocked_pairs
    if pin_all:
        factor = math.factorial(n) * tables.factor
    elif symmetry_pruning:
        factor = n * last.leaf_swaps * tables.factor
    else:
        factor = 1
    known = tables.known  # per slot head its checked permutation
    monotonic = time.monotonic
    deadline = None if time_limit_s is None else monotonic() + time_limit_s
    # level n - 1 of a sweep chunk's memo: this tail's attempt-0 outcomes,
    # one per largest-tree shape, kept only with no pair blocked
    shapes = None
    if first_only and not lone and not blocked_pairs:
        shapes = tables.levels[n - 1]
        shape = (last.parent_step, classical)
        hit = shapes.get(shape)
        if hit is not None:
            # Attempt 0 tries each step's least allowed vertex first, so
            # the largest tree first takes step s to vertex s, and leaves
            # that placement only once the tail below is exhausted, when
            # no placement packs: a packing's largest slot spans Z_n, so
            # relabeling it to this placement would pack the tail.  The
            # loop reads the tree only through parent_step and
            # prev_leaf_step, a function of it (leaves and sibling order
            # are), and the tail only through the tables, whose hits each
            # reproduce a lone search.  So what attempt 0 settles is a
            # function of this key and the tail, and a packed row holds
            # this placement, whose head is the tree's own steps.
            rows, nodes = hit
            # the memo's deadline rule: a bulk add past a multiple of 4096
            timed_out = deadline is not None and nodes >> 12 > 0 and monotonic() > deadline
            solutions = [] if timed_out else [row[:-1] + (known[last.steps],) for row in rows]
            return SearchOutcome(
                solutions=solutions, nodes=nodes, timed_out=timed_out, symmetry_factor=factor
            )
    step_slot = tables.step_slot
    step_parent = last.parent_step + tables.step_parent
    slot_steps = tables.slot_steps + (last.steps,)  # per slot: its steps by slot position
    total = len(step_slot)
    if symmetry_pruning:
        step_prev = last.prev_leaf_step + tables.step_prev
    else:
        step_prev = (-1,) * total

    base_pairfree = [full & ~(1 << a) for a in range(n)]
    for a, b in blocked_pairs:
        base_pairfree[a] &= ~(1 << b)
        base_pairfree[b] &= ~(1 << a)
    images = [0] * total
    work = [0] * (total + 1)  # untried candidates per step, rotated by shift
    nodes = 0
    timed_out = False
    solutions: list[tuple[Mapping, ...]] = []

    # With no pair blocked the exact cover cannot fail at steps 0 and n,
    # so neither asks it.  At step 0 the free-pair graph is K_n with every
    # loop free, which the one-component fast path accepts (n = 1: the one
    # loop is the orphan the one-vertex tree takes).  At step n it is K_n
    # less the largest tree T, with T's root loop used.  If T is no star,
    # its complement is connected and every vertex is live, so the fast
    # path accepts.  If T is a star, its center is isolated: either it is
    # the root, whose loop is used, or its loop is the one orphan, which
    # takes the one-vertex tree.  Either way the other n - 1 vertices form
    # K_(n-1), which passes the pair and loop counts, in both modes.
    skip = () if blocked_pairs else (0, n)
    # the memo of the boundaries past step n, by count j of unstarted
    # slots: a sweep chunk's attempt 0 reads the tables', a lone first-only
    # search has none (close_at then stays -1), and full enumeration keeps
    # its own.  An entry is (rows, nodes): the rows found below, the very
    # tuples in solutions (none where the subtree ran out, at most one in
    # first-only search), and the nodes the subtree took.
    frames: list[tuple] = []  # open boundaries: (outer close_at, j, key, first row index, nodes)
    close_at = -1  # step of the innermost open boundary
    if first_only:
        memos = None if lone else tables.levels
    else:
        memos = [{} for _ in range(n - 1)]

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
        if pin_all:  # the identity pin above: the largest tree's pairs and root loop
            for p, s in enumerate(last.steps):
                images[s] = p
            for s in range(1, n):
                a, b = images[step_parent[s]], images[s]
                pairfree[a] ^= 1 << b
                pairfree[b] ^= 1 << a
            tree_used[n - 1] = full
            if not classical:
                loops_used = 1 << images[0]
            # steps 0..n-1 are never entered, so they hold no candidates:
            # once step n is exhausted the loop backs out through them,
            # undoing the pin, and ends at step 0
            i = n
        enter = True
        while True:
            if enter:  # step i's candidates, or none where a prune fires
                cand = 0
                if i == total:
                    solutions.append(_slot_permutations(images, slot_steps, known))
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
                        if memos is not None and i > n:
                            # Everything the subtree below this boundary
                            # reads is a function of the key and the level's
                            # tail: the free pairs (blocked pairs included),
                            # the used loops, the unstarted trees' compiled
                            # rows and empty tree_used, all-zero scan
                            # offsets (attempt 0), no pin past the largest tree,
                            # n, classical and symmetry pruning, which one
                            # search or one sweep chunk fixes, and the step,
                            # which j fixes.  Its completions of the
                            # unstarted slots, their DFS order and its node
                            # count (up to the first completion, first-only)
                            # are therefore the same at every visit; only the
                            # placed slots differ.
                            j = step_slot[i] + 1
                            key = (tuple(pairfree), loops_used)
                            hit = memos[j].get(key)
                            if hit is None:  # closed when step i is exhausted
                                frames.append((close_at, j, key, len(solutions), nodes))
                                close_at = i
                        if hit is not None:
                            rows, took = hit
                            before = nodes
                            nodes += took
                            if nodes > budget_abs:
                                # the subtree it stands for tripped the
                                # budget inside, on the node past it
                                nodes = budget_abs + 1
                                budget_tripped = True
                                break
                            if rows:
                                placed = _slot_permutations(images, slot_steps[j:], known)
                                solutions += [row[:j] + placed for row in rows]
                            # a bulk add may pass a multiple of 4096
                            # that the placement check never sees
                            if (
                                deadline is not None
                                and nodes >> 12 != before >> 12
                                and monotonic() > deadline
                            ):
                                timed_out = True
                                break
                            if first_only and rows:
                                break
                        elif i in skip or _boundary_feasible(
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
                if i == close_at:  # store the rows found below its boundary
                    close_at, j, key, start, before = frames.pop()
                    memos[j][key] = (tuple(solutions[start:]), nodes - before)
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
            for _, j, key, start, before in frames:
                memos[j][key] = (tuple(solutions[start:]), nodes - before)
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
    if shapes is not None and not attempt and not timed_out:  # settled in attempt 0
        shapes[shape] = (tuple(solutions), nodes)
    return SearchOutcome(
        solutions=solutions, nodes=nodes, timed_out=timed_out, symmetry_factor=factor
    )
