"""Labelings that pack a tree family edge-disjointly into looped K_n.

A labeling assigns one permutation of Z_n to each slot of a family.  Slot
k contributes the arcs (sigma_k(v), sigma_k(g_k(v))) of its root-at-k
tree, one per component vertex, the root's arc being a loop.  The
labeling is *complete* when the underlying unordered edges — n loops plus
binomial(n, 2) pairs — are pairwise distinct, i.e. they tile the complete
graph with a loop at every vertex.  Phi(family) is the set of complete
labelings; its members restricted to the components ("essential"
injections) determine membership, the remaining values being free fills.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, permutations, product, repeat
from operator import itemgetter
from typing import NamedTuple

from ._search import ChunkTables, _HeadTable, search
from .errors import (
    BoundExceededError,
    DimensionMismatchError,
    NotAutomorphismError,
    NotCompleteError,
)
from .functree import (
    AugFuncTree,
    AugTreeFamily,
    Mapping,
    _root_at_slot,
    check_permutation,
    check_size,
    is_int,
)

# Full enumeration of essential injections is exponential in n.  At the
# essential cap one call takes over a second: the mixed family
# generate_family(6, "mixed", 3) has 1 215 360 members, 202 560 orbits
# of 6 rotations (no slot has a leaf group).  The pruned search lists one
# row per class under relabeling, 1 688 rows, in 0.013-0.015 s of CPU
# time at a 17 MB peak (16 839 nodes, 244 distinct slot permutations
# checked).  phi_enumerate, which relabels each row into the 120
# root-pinned rows of its class, expands those orbits (1 956 distinct
# slot permutations checked in all) and holds each member as a Labeling,
# takes 1.53-1.57 s and peaks at 226 MB (Python 3.11.7 on a shared
# 2-core machine, three runs).  At n = 7 the pruned search alone counts
# |Phi| in under a second, 0.36-3.1 billion members for
# generate_family(7, "mixed", s), s < 4, far past the member cap below.
PHI_ESSENTIAL_MAX_N = 6
# phi_enumerate knows its member count once the pruned search returns and
# refuses a larger one before it builds any member.  A listing holds
# about 180 bytes per member at its peak (RSS growth over the call, 177
# to 180 bytes at 0.28, 0.62, 0.72 and 1.22 M members), so the cap keeps
# an admitted listing under about 0.4 GB of RSS; `treepack enumerate`
# sorts it in place and writes it in batches, for a few MB more.  It
# admits the mixed family above and refuses star_family(6), whose 120
# orbits hold 24 883 200 members, after a search of about 0.001 s.
PHI_MEMBER_CAP = 2_000_000


class _LabelingFields(NamedTuple):
    n: int
    sigmas: tuple[Mapping, ...]


class Labeling(_LabelingFields):
    """One permutation of Z_n per slot, slot k relabeling tree k.

    A NamedTuple: it unpacks as (n, sigmas) and equals that plain tuple.
    Every way to build one from outside data checks it: the constructor,
    and `_make` and `_replace`, which go through the constructor."""

    __slots__ = ()

    def __new__(cls, n: int, sigmas) -> "Labeling":
        check_size(n, "a labeling")
        return cls._checked(n, tuple([check_permutation(s, n) for s in sigmas]))

    @classmethod
    def _make(cls, iterable) -> "Labeling":
        return cls(*iterable)

    @classmethod
    def _checked(cls, n: int, sigmas: tuple[Mapping, ...]) -> "Labeling":
        """A labeling whose slots need no second check.

        Precondition: every slot in ``sigmas`` is a tuple that
        ``check_permutation(·, n)`` would return unchanged.  Only the slot
        count is checked here.  The callers are `pack` (through
        `_labeling_from_injections`), whose row holds the engine's slots
        (`phi_enumerate` builds its members the same way, with
        `tuple.__new__`), and `diagonal_relabel`, whose new slots are
        compositions of checked permutations and so permutations too.
        Every engine and Phi slot comes out of a `_search._HeadTable` on
        this n, which checked it once as it built it.
        """
        if len(sigmas) != n:
            raise DimensionMismatchError(
                f"labeling on Z_{n} needs {n} permutations, got {len(sigmas)}"
            )
        return tuple.__new__(cls, (n, sigmas))


@dataclass(frozen=True)
class EdgeOrientation:
    """An orientation of looped K_n: all n loops plus one direction per pair."""

    n: int
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        n = self.n
        check_size(n, "an orientation")
        arcs = set()
        edges = set()
        for a, b in self.arcs:
            # int() would truncate (0.7, 0) to the loop (0, 0); the exact
            # type test spares is_int for the engine's own arcs
            exact = type(a) is int and type(b) is int
            if not (exact or (is_int(a) and is_int(b))) or not (0 <= a < n and 0 <= b < n):
                raise NotCompleteError(f"arc ({a!r},{b!r}) outside Z_{n}")
            arcs.add((a, b))
            edges.add((a, b) if a <= b else (b, a))
        object.__setattr__(self, "arcs", frozenset(arcs))
        # a set cannot hold one arc twice, so a repeated edge is a pair
        # oriented both ways
        if len(edges) != len(arcs):
            edge = min((a, b) for a, b in arcs if a < b and (b, a) in arcs)
            raise NotCompleteError(f"edge {edge} oriented both ways")
        want = n * (n + 1) // 2
        if len(edges) != want:
            raise NotCompleteError(
                f"{len(edges)} distinct edges, an orientation of looped K_{n} has {want}"
            )

    def sorted_arcs(self) -> list[tuple[int, int]]:
        return sorted(self.arcs)


# =====================================================================
# Completeness
# =====================================================================

def is_complete(
    family: AugTreeFamily, labeling: Labeling, classical: bool = False, *, _tables=None
) -> bool:
    """True iff the labeling's arcs tile looped K_n edge-disjointly.

    The arcs of slot k are the compiled root-at-k arcs of the stored tree,
    so no tree is rebuilt: this is the hot verification path.
    ``classical`` drops the n loops and only asks the binomial(n, 2)
    proper edges to be distinct.

    Each slot's edges are one `_slot_mask`, root loop included, and the
    labeling is complete iff no mask is negative (a clash inside one
    slot) and no two masks share a bit that ``keep`` keeps: every bit in
    loop mode, every bit off the diagonal, which holds the loops, in
    classical mode.

    ``_tables`` are a sweep chunk's `_search.ChunkTables`, passed by
    `solver.pack`.  When their tail is the family's, every slot's mask is
    read from the tables, computed on the first labeling that needs it
    there.  A mask is a pure function of (tree, sigma, n): the tables'
    dict for tail slot k belongs to one tree (`_search._retarget` keeps it
    only while the trees of slots 0..k stay, compared by value, and a tree
    fixes n) and is keyed by sigma; the largest slot's dict serves every
    largest tree on the tables' n (`_retarget` replaces it when n changes)
    and is keyed by the tree's compiled arcs and sigma, which with n fix
    the mask.  Both hold the loop bit in both modes, so the verdict is
    the one without tables whichever mode filled the dicts.
    """
    if labeling.n != family.n:
        raise DimensionMismatchError(
            f"labeling on Z_{labeling.n} against family on Z_{family.n}"
        )
    if type(classical) is not bool:  # "no" is truthy
        raise ValueError(f"classical must be a bool, got {classical!r}")
    n = family.n
    trees = family.trees
    sigmas = labeling.sigmas
    # the diagonal bits a * n + a, one per loop: sum of 2**(a * (n + 1))
    keep = ~(((1 << n * (n + 1)) - 1) // ((1 << n + 1) - 1)) if classical else -1
    seen = 0
    cached = None
    if _tables is not None and _tables.tail == trees[:-1]:
        # the largest slot first, keyed by (arcs, sigma): one dict serves
        # every tree of its size
        key = (trees[-1].compiled().arcs, sigmas[-1])
        seen = _tables.largest_masks.get(key)
        if seen is None:
            seen = _tables.largest_masks[key] = _slot_mask(trees[-1], sigmas[-1], n)
        if seen < 0:
            return False
        cached = _tables.masks
        sigmas = sigmas[:-1]
    for k, sig in enumerate(sigmas):
        if cached is None:
            m = _slot_mask(trees[k], sig, n)
        else:
            m = cached[k].get(sig)
            if m is None:
                m = cached[k][sig] = _slot_mask(trees[k], sig, n)
        if m < 0 or seen & m & keep:
            return False
        seen |= m
    return True


def _slot_mask(tree: AugFuncTree, sig: Mapping, n: int) -> int:
    """The edges one slot's arcs cover under ``sig``, root loop included,
    one bit per edge: a * n + b for {a, b} with a <= b, so a loop is a
    diagonal bit.  -1 if two of the arcs cover the same edge.  The arcs
    are the tuple the tree compiled once."""
    mask = 0
    for a, b in tree.compiled().arcs:
        a, b = sig[a], sig[b]
        bit = 1 << (a * n + b if a <= b else b * n + a)
        if mask & bit:
            return -1
        mask |= bit
    return mask


def orientation(family: AugTreeFamily, labeling: Labeling) -> EdgeOrientation:
    """The arc set of a complete labeling; EdgeOrientation raises
    NotCompleteError on any clash."""
    if labeling.n != family.n:
        raise DimensionMismatchError(
            f"labeling on Z_{labeling.n} against family on Z_{family.n}"
        )
    arcs = frozenset(
        (sig[u], sig[w])
        for tree, sig in zip(family.trees, labeling.sigmas)
        for u, w in tree.compiled().arcs
    )
    return EdgeOrientation(n=family.n, arcs=arcs)


# =====================================================================
# Phi enumeration
# =====================================================================

def _labeling_from_injections(family: AugTreeFamily, row: tuple[Mapping, ...]) -> Labeling:
    """One engine solution, whose slot permutations the engine checked as
    it built them, as a Labeling.  The name predates those rows; it stays
    because the benchmark's tracer (``perfbench/layers.py``) wraps it."""
    return Labeling._checked(family.n, row)


def full_count_multiplier(n: int) -> int:
    """Members of Phi per essential member: slot k has n - k - 1 values
    outside its component, free in any order, so prod_k (n-k-1)!."""
    return math.prod(math.factorial(n - k - 1) for k in range(n))


def _leaf_positions(tree: AugFuncTree) -> list[list[int]]:
    """The slot positions of each leaf group of ``tree``, in the order
    whose images the pruned search makes ascend (arc v's vertex is vertex
    v's slot position)."""
    c = tree.compiled()
    return [[c.arcs[v][0] for v in grp] for grp in c.leaf_groups]


def _leaf_variants(tree: AugFuncTree, column, known: _HeadTable) -> dict:
    """Per distinct permutation in ``column``, the slot of ``tree``, the
    permutations its leaf swaps give: every order of the images of each
    leaf group, the pruned order included.  The images of a group are a
    set within the head, so the fill after the head stays."""
    k = tree.m - 1
    groups = _leaf_positions(tree)
    table = {}
    for sig in dict.fromkeys(column):
        head = list(sig[: k + 1])
        variants = []
        for choice in product(*[permutations([sig[p] for p in grp]) for grp in groups]):
            for grp, values in zip(groups, choice):
                for p, x in zip(grp, values):
                    head[p] = x
            variants.append(known[tuple(head)])
        table[sig] = variants
    return table


def _composed(heads: list, perms, groups: list[list[int]], known: _HeadTable) -> list[list]:
    """Per permutation g in ``perms``, the left-composition with g of each
    slot head in ``heads``, with the images of each leaf group in
    ``groups`` re-sorted ascending.  A permutation is its head followed
    by the ascending fill, so only the head turns, and the engine's head
    table ``known`` gives each turned head's permutation."""
    out = []
    for g in perms:
        turned = [list(map(g.__getitem__, head)) for head in heads]
        for head in turned:
            for grp in groups:
                for p, x in zip(grp, sorted([head[p] for p in grp])):
                    head[p] = x
        turned = [tuple(head) for head in turned]
        out.append([known[h] for h in turned])
    return out


def _root_pinned_columns(family: AugTreeFamily, rows: list, known: _HeadTable) -> list[list]:
    """The pruned search's rows, which hold the identity in the largest
    slot, rebuilt as the rows the root pin lists, column by column.

    Delta is the set of permutations delta of Z_n that map the largest
    root's slot position to 0 and make each leaf group of the largest
    tree ascend: (n - 1)! / leaf_swaps of them, in lexicographic order.
    Row i of block d is ``delta_d o rows[i]`` with each tail leaf group's
    images re-sorted.  The map (delta, row) -> rebuilt row is a bijection
    onto the root-pinned rows: complete labelings with the largest root
    at vertex 0 and every leaf group ascending.  Left composition keeps a
    labeling complete, and re-sorting a group's images is a leaf swap, so
    each rebuilt row is one; delta is the rebuilt row's largest slot, and
    delta^-1 composed with the rebuilt row, its tail groups re-sorted, is
    the row again.  Onto: a root-pinned row R has some such largest slot
    delta, and delta^-1 o R with its tail groups sorted is a pruned row.
    Each distinct slot head goes through ``known`` once per delta."""
    n = family.n
    last = family.trees[-1].compiled()
    root = last.steps.index(0)  # step 0 places the root
    groups = _leaf_positions(family.trees[-1])
    deltas = []
    for values in permutations(range(1, n)):
        d = list(values)
        d.insert(root, 0)
        if all(d[a] < d[b] for grp in groups for a, b in zip(grp, grp[1:])):
            deltas.append(tuple(d))
    columns = []
    for tree, column in zip(family.trees, zip(*rows)):
        k = tree.m - 1
        index = {sig: i for i, sig in enumerate(dict.fromkeys(column))}
        heads = [sig[: k + 1] for sig in index]
        at = list(map(index.__getitem__, column))
        images = _composed(heads, deltas, _leaf_positions(tree), known)
        columns.append(list(chain.from_iterable(map(block.__getitem__, at) for block in images)))
    return columns


def phi_enumerate(family: AugTreeFamily, mode: str = "essential") -> tuple[list[Labeling], int]:
    """All essential members of Phi, one rotation at a time, plus their count.

    ``essential``, the only mode, lists labelings up to the free values
    outside each component (each member extends its injections by the
    ascending fill).  Phi itself has count * `full_count_multiplier(n)`
    members.  Bound: n <= PHI_ESSENTIAL_MAX_N (BoundExceededError).

    The search with symmetry pruning lists one row per relabeling class:
    the identity in the largest slot and the images of each tail leaf
    group ascending.  `_root_pinned_columns` rebuilds from them the
    root-pinned rows: the largest tree's root at vertex 0 and every leaf
    group ascending, one per symmetry orbit.  Each of those is then
    expanded by every order of every leaf group (right-composing a slot
    with a swap of sibling leaves) and every rotation x -> x + r of Z_n
    (left-composing every slot with it).  Both keep a labeling complete,
    and both act on the essential injections alone; a member is its slot
    heads followed by the ascending fill, rebuilt after each move.

    The map (r, leaf orders, root-pinned row) -> member is a bijection
    onto the essential members.  Onto: a member's largest root has some
    image r; rotating by -r moves it to 0, and sorting each leaf group
    then gives a root-pinned row, which the rebuild lists.  One-to-one:
    leaf swaps never move the largest root, so r is the root's image in
    the member; rotating by -r recovers the swapped row, and within each
    group the images are distinct, so sorting them recovers the
    root-pinned row and the order they stood in.  So every member appears
    exactly once and the count is the pruned count times the search's
    ``symmetry_factor``, n! times the tail's leaf-swap orders.  The count
    is known before any member is built: above PHI_MEMBER_CAP members
    the call is refused (BoundExceededError).

    The members come in the order of that map, and unsorted: rotation
    by rotation, r = 0 first; within a rotation, the root-pinned rows
    block by block of `_root_pinned_columns`, each block the pruned rows
    in the search's order, and each row followed by its leaf orders.
    ``sorted(members)`` is the unpruned search's rows sorted as tuples,
    the order `treepack enumerate` prints.
    """
    n = family.n
    if mode != "essential":
        raise ValueError(f"unknown phi_enumerate mode {mode!r}")
    if n > PHI_ESSENTIAL_MAX_N:
        raise BoundExceededError(
            f"phi_enumerate is exhaustive; n={n} exceeds the cap "
            f"{PHI_ESSENTIAL_MAX_N}"
        )
    # the search's head table serves the expansion too, so each distinct
    # slot permutation is built and checked once
    tables = ChunkTables()
    out = search(family, first_only=False, tables=tables)
    count = len(out.solutions) * out.symmetry_factor
    if count > PHI_MEMBER_CAP:
        raise BoundExceededError(
            f"phi_enumerate would list {count} members; the cap is {PHI_MEMBER_CAP}"
        )
    known = tables.known
    orders = math.prod([tree.compiled().leaf_swaps for tree in family.trees])
    columns = _root_pinned_columns(family, out.solutions, known)
    del out
    variants = [
        _leaf_variants(tree, column, known) for tree, column in zip(family.trees, columns)
    ]
    # per slot and rotation x -> x + r, each distinct variant left-composed with it
    turns = [tuple([(x + r) % n for x in range(n)]) for r in range(n)]
    rotations = [
        _composed(
            [sig[: k + 1] for sig in dict.fromkeys(chain.from_iterable(table.values()))],
            turns,
            (),
            known,
        )
        for k, table in enumerate(variants)
    ]
    # Leaf orders, column by column: per slot, the index into its rotation
    # lists of each pinned member's permutation.  Each root-pinned row
    # stands for `orders` pinned members, one per choice of a leaf order in
    # every slot, in mixed radix with slot 0 the top digit: in a row's block of
    # `orders`, slot k repeats each of its variants `after` times (the
    # orders of slots k + 1..n - 1) and the run `before` times (those of
    # slots 0..k - 1).
    before = 1
    expanded = []
    for tree, column, table, turned in zip(family.trees, columns, variants, rotations):
        index = {sig: i for i, sig in enumerate(turned[0])}
        swaps = tree.compiled().leaf_swaps
        after = orders // (before * swaps)
        block = {
            sig: tuple([index[v] for v in vs for _ in range(after)]) * before
            for sig, vs in table.items()
        }
        expanded.append(list(chain.from_iterable(map(block.__getitem__, column))))
        before *= swaps
    del columns, variants
    members: list[Labeling] = []
    for r in range(n):
        slots = [turned[r].__getitem__ for turned in rotations]
        rows = zip(*map(map, slots, expanded))
        # Labeling._checked inlined: each row holds n slots checked through known
        members += map(tuple.__new__, repeat(Labeling), zip(repeat(n), rows))
    return members, len(members)


# =====================================================================
# Closure checks
# =====================================================================

def closure_check(family: AugTreeFamily, labeling: Labeling, tau, slot: int) -> bool:
    """Does right-composing one slot with a tree symmetry keep completeness?

    ``tau`` must commute with the slot's root-at-k map and fix its
    component setwise (NotAutomorphismError otherwise: a symmetry that
    moved the component would drag the slot's loop off its vertex).  The
    input labeling itself must be complete.
    """
    n = family.n
    tau = check_permutation(tau, n)
    g = _root_at_slot(family, slot)
    c = family.trees[slot].compiled()
    if any(g[tau[v]] != tau[g[v]] for v in range(n)):
        raise NotAutomorphismError(
            f"permutation does not commute with the slot-{slot} map"
        )
    comp = {v for v, _ in c.arcs}
    if {tau[v] for v in comp} != comp:
        raise NotAutomorphismError(
            f"permutation does not preserve the slot-{slot} component"
        )
    if not is_complete(family, labeling):
        raise NotCompleteError("closure_check needs a complete labeling")
    # Only the slot changes, so the composed labeling is complete iff its
    # new mask is non-negative and disjoint from the other slots' masks.
    # The input is complete, so those masks cover every edge outside the
    # old mask; a non-negative mask holds one edge per arc, as the old one
    # does, so it is disjoint from them iff it is the old mask.
    tree, sig = family.trees[slot], labeling.sigmas[slot]
    return _slot_mask(tree, tuple([sig[t] for t in tau]), n) == _slot_mask(tree, sig, n)


def diagonal_relabel(labeling: Labeling, gamma) -> Labeling:
    """Left-compose every slot with one permutation of the vertex labels."""
    n = labeling.n
    gamma = check_permutation(gamma, n)
    if n == 1:  # the one relabeling is the identity; itemgetter(0) is no tuple
        return labeling
    # itemgetter(*sig)(gamma) is the tuple of gamma[x] for x in sig
    return Labeling._checked(n, tuple([itemgetter(*sig)(gamma) for sig in labeling.sigmas]))
