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
from itertools import chain, permutations, product
from operator import itemgetter

from ._search import ChunkTables, _slot_permutations, search
from .errors import (
    BadSizeError,
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
    is_int,
)

# Full enumeration of essential injections is exponential in n.  At the
# essential cap one call takes several seconds: the mixed family
# generate_family(6, "mixed", 3) has 1 215 360 members, 202 560 orbits
# of 6 rotations (no slot has a leaf group).  The pruned search lists one
# row per orbit in 0.57-0.83 s of CPU time at a 40 MB peak (2.0 M nodes,
# 1 150 distinct slot permutations checked).  phi_enumerate, which
# expands the orbits (1 956 distinct slot permutations checked in all),
# sorts the members by their integer keys and holds each as a Labeling,
# takes 6.5-8.0 s and peaks at 267 MB (Python 3.11.7 on a shared 2-core
# machine, three runs of the search and six of phi_enumerate).
PHI_ESSENTIAL_MAX_N = 6
# phi_enumerate knows its member count once the pruned search returns and
# refuses a larger one before it builds any member.  A listing holds
# about 210 bytes per member at its peak (RSS growth over the call, the
# same at 0.94, 1.22 and 1.66 M members), so the cap keeps an admitted
# listing under about 0.45 GB of RSS.  It admits the mixed family above
# and refuses star_family(6), whose 120 orbits hold 24 883 200 members.
PHI_MEMBER_CAP = 2_000_000
# Leaf orders per pinned row (symmetry_factor // n) from which the sorted
# listing merges orbit blocks instead of sorting every member by key.
# On the 40 relabeled n = 5 mixed families of the exhaustive benchmark
# (seeds 1 and 7, each family's best of 5 calls per path), the merge took
# 0.54-0.86 of the key sort's time at 24 to 288 orders, 0.76-0.99 at 12,
# and 1.1-2.1 times as long at 1 to 6, where a block holds at most 6
# members and blocks often share their first slots.
_MERGE_MIN_ORDERS = 12


def _check_slot_count(n: int, sigmas: tuple) -> None:
    if len(sigmas) != n:
        raise DimensionMismatchError(
            f"labeling on Z_{n} needs {n} permutations, got {len(sigmas)}"
        )


@dataclass(frozen=True)
class Labeling:
    """One permutation of Z_n per slot, slot k relabeling tree k."""

    n: int
    sigmas: tuple[Mapping, ...]

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise BadSizeError("a labeling needs at least one vertex")
        sigmas = tuple([check_permutation(s, n) for s in self.sigmas])
        _check_slot_count(n, sigmas)
        object.__setattr__(self, "sigmas", sigmas)

    @classmethod
    def _checked(cls, n: int, sigmas: tuple[Mapping, ...]) -> "Labeling":
        """A labeling whose slots need no second check.

        Precondition: every slot in ``sigmas`` is a tuple that
        ``check_permutation(·, n)`` would return unchanged.  Only the slot
        count is checked here.  The callers are `pack` (through
        `_labeling_from_injections`), whose row the engine checked slot by
        slot as it built it (`phi_enumerate` builds its members the same
        way, inline, from slots checked through the engine's head table),
        and `diagonal_relabel`, whose new slots are compositions of
        checked permutations and so permutations too.
        """
        _check_slot_count(n, sigmas)
        lab = object.__new__(cls)
        object.__setattr__(lab, "n", n)
        object.__setattr__(lab, "sigmas", sigmas)
        return lab


@dataclass(frozen=True)
class EdgeOrientation:
    """An orientation of looped K_n: all n loops plus one direction per pair."""

    n: int
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        n = self.n
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
    `solver.pack`.  When their tail is the family's, each tail slot's
    mask is read from the tables, computed on the first labeling that
    uses that permutation there, and only the largest slot's is built.
    A mask is a pure function of (tree, sigma, n): the tables' dict for
    slot k belongs to one tree (`_search._retarget` keeps it only while
    the trees of slots 0..k stay, compared by value, and a tree fixes n)
    and is keyed by sigma.  It holds the loop bit in both modes, so the
    verdict is the one without tables whichever mode filled the dict.
    """
    if labeling.n != family.n:
        raise DimensionMismatchError(
            f"labeling on Z_{labeling.n} against family on Z_{family.n}"
        )
    n = family.n
    trees = family.trees
    cached = _tables.masks if _tables is not None and _tables.tail == trees[:-1] else ()
    tail = len(cached)  # slots 0..tail-1 read their masks from the tables
    # the diagonal bits a * n + a, one per loop: sum of 2**(a * (n + 1))
    keep = ~(((1 << n * (n + 1)) - 1) // ((1 << n + 1) - 1)) if classical else -1
    seen = 0
    for k, sig in enumerate(labeling.sigmas):
        if k < tail:
            m = cached[k].get(sig)
            if m is None:
                m = cached[k][sig] = _slot_mask(trees[k], sig, n)
        else:
            m = _slot_mask(trees[k], sig, n)
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


def _checked_slot(head: tuple[int, ...], n: int, known: dict) -> Mapping:
    """The checked permutation of one slot head, through the engine's
    head table ``known``: built and checked only on a miss."""
    return _slot_permutations(head, (range(len(head)),), n, known)[0]


def _head_value(sig: Mapping, k: int, n: int) -> int:
    """Slot k's head, its first k + 1 entries, read as a base-n number."""
    value = 0
    for x in sig[: k + 1]:
        value = value * n + x
    return value


def _leaf_variants(tree: AugFuncTree, column, n: int, known: dict) -> dict:
    """Per distinct permutation in ``column``, the slot of ``tree``, the
    permutations its leaf swaps give: every order of the images of each
    leaf group, the pruned order included.  The images of a group are a
    set within the head, so the fill after the head stays."""
    k = tree.m - 1
    c = tree.compiled()
    # arc v's vertex is vertex v's slot position
    groups = [[c.arcs[v][0] for v in grp] for grp in c.leaf_groups]
    table = {}
    for sig in dict.fromkeys(column):
        head = list(sig[: k + 1])
        variants = []
        for choice in product(*[permutations([sig[p] for p in grp]) for grp in groups]):
            for grp, values in zip(groups, choice):
                for p, x in zip(grp, values):
                    head[p] = x
            variants.append(_checked_slot(tuple(head), n, known))
        table[sig] = variants
    return table


def _turned_slot(sig: Mapping, r: int, k: int, n: int, known: dict) -> Mapping:
    """Slot k's permutation left-composed with the rotation x -> x + r,
    checked through the engine's head table ``known``."""
    return _checked_slot(tuple([(x + r) % n for x in sig[: k + 1]]), n, known)


def _key_sorted_rows(family: AugTreeFamily, columns, variants, orders: int, known: dict) -> list:
    """Every member's slots, expanded column by column and sorted once by
    an integer key per member."""
    n = family.n
    # Leaf swaps, column by column.  Each pruned row stands for `orders`
    # pinned rows, one per choice of a leaf order in every slot, in mixed
    # radix with slot 0 the top digit: in a row's block of `orders`, slot
    # k repeats each of its variants `after` times (the orders of slots
    # k + 1..n - 1) and the run `before` times (those of slots 0..k - 1).
    # A pinned column holds indices into its slot's permutations.
    before = 1
    perms, expanded = [], []
    for tree, column, table in zip(family.trees, columns, variants):
        sigs = list(dict.fromkeys(chain.from_iterable(table.values())))
        index = {sig: i for i, sig in enumerate(sigs)}
        swaps = tree.compiled().leaf_swaps
        after = orders // (before * swaps)
        block = {
            sig: tuple([index[v] for v in vs for _ in range(after)]) * before
            for sig, vs in table.items()
        }
        perms.append(sigs)
        expanded.append(list(chain.from_iterable(map(block.__getitem__, column))))
        before *= swaps
    # the heads of slots k + 1..n - 1 are the digits below slot k's head
    low = [n ** sum(range(k + 2, n + 1)) for k in range(n)]
    rows: list[tuple[Mapping, ...]] = []
    keys: list[int] = []
    for r in range(n):  # rotations, column by column
        turns, digits = [], []
        for k, sigs in enumerate(perms):
            turned = [_turned_slot(sig, r, k, n, known) for sig in sigs]
            turns.append(turned.__getitem__)
            digits.append([_head_value(sig, k, n) * low[k] for sig in turned].__getitem__)
        rows += zip(*map(map, turns, expanded))
        keys += map(sum, zip(*map(map, digits, expanded)))
    del expanded, perms
    # a permutation is its head followed by the ascending fill, so the keys
    # sort the rows as tuples would, with int comparisons; they and the
    # order are freed before the rows are reordered
    order = sorted(range(len(rows)), key=keys.__getitem__)
    del keys
    return [rows[i] for i in order]


def _merged_rows(family: AugTreeFamily, columns, variants, known: dict) -> list:
    """Every member's slots, listed in order one orbit block at a time.

    A block is one (pinned row, rotation) pair.  Its members are the
    product, slot by slot, of that slot's rotated leaf orders, so with
    each slot's list sorted `itertools.product` yields them in order.
    The blocks are merged walking the slots in order: a group of blocks
    shares the slots before k, and is split by its blocks' one
    permutation over each run of slots without a leaf group, or by each
    variant at a slot with one, the parts taken in order.  Blocks share
    no member (the bijection in `phi_enumerate`), so every group is down
    to one block before the slots run out, and that block's product
    under the group's prefix, one 1-tuple per slot, is its listing."""
    n = family.n
    # per slot and rotation, per pinned permutation its sorted rotated variants
    turned = [
        [
            {sig: sorted([_turned_slot(v, r, k, n, known) for v in vs]) for sig, vs in table.items()}
            for r in range(n)
        ]
        for k, table in enumerate(variants)
    ]
    blocks = [
        [turned[k][r][sig] for k, sig in enumerate(row)]
        for row in zip(*columns)
        for r in range(n)
    ]
    # a grouping step from slot k covers k alone if its tree has a leaf
    # group, else the run of slots up to the next tree that has one
    leafy = [tree.compiled().leaf_swaps > 1 for tree in family.trees]
    stop = [k + 1 if leafy[k] else (leafy + [True]).index(True, k) for k in range(n)]
    rows: list[tuple[Mapping, ...]] = []

    def merge(group: list, k: int, prefix: list) -> None:
        if len(group) == 1:
            rows.extend(product(*prefix, *group[0][k:]))
            return
        end = stop[k]
        parts: dict = {}
        for b in group:  # over a run, the product is the block's one key
            for key in product(*b[k:end]):
                parts.setdefault(key, []).append(b)
        for key in sorted(parts):
            merge(parts[key], end, prefix + [(sig,) for sig in key])

    merge(blocks, 0, [])
    return rows


def phi_enumerate(family: AugTreeFamily, mode: str = "essential") -> tuple[list[Labeling], int]:
    """All essential members of Phi, sorted, plus their count.

    ``essential``, the only mode, lists labelings up to the free values
    outside each component (each member extends its injections by the
    ascending fill).  Phi itself has count * `full_count_multiplier(n)`
    members.  Bound: n <= PHI_ESSENTIAL_MAX_N (BoundExceededError).

    The members are listed one symmetry orbit at a time.  The search with
    symmetry pruning lists the pinned rows: the largest tree's root at
    vertex 0 and the images of each leaf group ascending.  Each is then
    expanded by every order of every leaf group (right-composing a slot
    with a swap of sibling leaves) and every rotation x -> x + r of Z_n
    (left-composing every slot with it).  Both keep a labeling complete,
    and both act on the essential injections alone; a member is its slot
    heads followed by the ascending fill, rebuilt after each move.

    The map (r, leaf orders, pinned row) -> member is a bijection onto
    the essential members.  Onto: a member's largest root has some image
    r; rotating by -r moves it to 0, and sorting each leaf group then
    gives a pinned row, which the pruned search lists, since its pruning
    cuts no complete labeling with the pinned form.  One-to-one: leaf
    swaps never move the largest root, so r is the root's image in the
    member; rotating by -r recovers the swapped row, and within each
    group the images are distinct, so sorting them recovers the pinned
    row and the order they stood in.  So every member appears exactly
    once and the count is the pruned count times the search's
    ``symmetry_factor``, n times the leaf-swap orders.  The count is
    known before any member is built: above PHI_MEMBER_CAP members the
    call is refused (BoundExceededError).

    The members are in the order of the unpruned search's rows sorted as
    tuples; only the pruned search's nodes are spent.  A permutation is
    its head followed by the ascending fill, so slot heads decide that
    order.  Where each pinned row has at least _MERGE_MIN_ORDERS leaf
    orders, the (pinned row, rotation) blocks are merged in order, each
    block's members coming from `itertools.product` already sorted
    (`_merged_rows`).  Below it, where blocks are small, every member
    gets an integer key, its slot heads read in base n, and one sort
    orders them (`_key_sorted_rows`).
    """
    n = family.n
    if mode != "essential":
        raise ValueError(f"unknown phi_enumerate mode {mode!r}")
    if n > PHI_ESSENTIAL_MAX_N:
        raise BoundExceededError(
            f"phi_enumerate is exhaustive; n={n} exceeds the cap "
            f"{PHI_ESSENTIAL_MAX_N}"
        )
    # one table from slot head to checked permutation for the search and
    # the expansion, so each distinct slot permutation is checked once
    tables = ChunkTables()
    out = search(family, first_only=False, tables=tables)
    count = len(out.solutions) * out.symmetry_factor
    if count > PHI_MEMBER_CAP:
        raise BoundExceededError(
            f"phi_enumerate would list {count} members; the cap is {PHI_MEMBER_CAP}"
        )
    known = tables.known
    orders = out.symmetry_factor // n
    columns = list(zip(*out.solutions))
    del out
    variants = [
        _leaf_variants(tree, column, n, known) for tree, column in zip(family.trees, columns)
    ]
    if orders >= _MERGE_MIN_ORDERS:
        rows = _merged_rows(family, columns, variants, known)
    else:
        rows = _key_sorted_rows(family, columns, variants, orders, known)
    del columns, variants
    # Labeling._checked inlined: each row holds n slots checked through known
    new, put = object.__new__, object.__setattr__
    members = []
    append = members.append
    for row in rows:
        lab = new(Labeling)
        put(lab, "n", n)
        put(lab, "sigmas", row)
        append(lab)
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
