"""Functional trees: self-maps of Z_n that collapse to a single root.

A self-map g of Z_n = {0, ..., n-1} is stored as a tuple of images, so
``g[v]`` is where v points.  Such a map describes a rooted spanning tree
exactly when the (n-1)-fold iterate sends every vertex to one point, the
root, which is then the unique fixed point.  An *augmented* tree relaxes
this: a component of m vertices carries the tree structure while every
vertex outside it sits on its own loop.  Sequences of augmented trees with
component sizes 1, 2, ..., n (one tree per size, in a canonical
parent-decreasing form) are the families the rest of the package packs
into the looped complete graph and certifies algebraically.

A tree is validated by compiling it (:func:`_compile`), so every
constructed tree carries the :class:`CompiledTree` the other layers read.

Conventions used throughout:

* stored families keep every root at vertex 0 with ``map[u] < u`` inside
  the component ("semigroup form"); the packing semantics for slot k wants
  the root at vertex k, obtained by conjugating with the transposition
  (0 k) — see :class:`CompiledTree`, the one place that applies it;
* a one-vertex component is a bare loop, so edge-oriented operations
  (sibling leaves, local composition) refuse it with SingletonTreeError.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from itertools import chain, islice, product
from typing import NamedTuple

from .errors import (
    BadSizeError,
    BoundExceededError,
    InvalidFamilyError,
    NotAPermutationError,
    NotATreeError,
    OutOfRangeError,
    SingletonTreeError,
)

Mapping = tuple[int, ...]

GENERATOR_KINDS = ("star", "path", "caterpillar", "random-recursive", "random-uniform")

# family_enumerate builds (m-1)! trees of each size m <= n before its
# first family, and family_count(8) is already 1.25e11 families
SWEEP_MAX_N = 8


# =====================================================================
# Plain self-map operations
# =====================================================================

def is_int(x) -> bool:
    """True for a genuine int: the shared check on input vertices,
    coordinates and counts.  bool is an int subclass but never one of them."""
    return isinstance(x, int) and not isinstance(x, bool)


def check_size(n, what: str) -> None:
    """BadSizeError unless ``n`` is an `is_int` of at least 1: a bool
    passes for a size and a float fails later with a bare TypeError."""
    if not is_int(n):
        raise BadSizeError(f"{what} size must be an int, not {type(n).__name__}")
    if n < 1:
        raise BadSizeError(f"{what} needs at least one vertex")


_all_exact_int = frozenset({int}).issuperset


def _bad_entry(values: tuple, bound: int) -> int | None:
    """Index of the first entry of the non-empty ``values`` that is not an
    `is_int` in 0..bound-1, or None.  Exact types and min/max settle the
    all-int case; the per-entry loop runs only to name a bad entry."""
    if _all_exact_int(map(type, values)) and 0 <= min(values) and max(values) < bound:
        return None
    for v, w in enumerate(values):
        if not is_int(w) or not 0 <= w < bound:
            return v
    return None


def _check_self_map(g) -> Mapping:
    g = tuple(g)
    if not g:
        raise BadSizeError("a self-map needs at least one vertex")
    n = len(g)
    v = _bad_entry(g, n)
    if v is not None:
        raise OutOfRangeError(f"map value {g[v]!r} at vertex {v} is outside Z_{n}")
    return g


def check_permutation(p, n: int) -> Mapping:
    """``p`` as a tuple, if it lists each of 0..n-1 once as an `is_int`
    value: bools and floats compare equal to labels but are none.

    Every labeling checks each of its slots here, so the type test first
    looks up each element's exact type, which is int in every permutation
    the engine builds, and asks `is_int` only when one is not.
    """
    p = tuple(p)
    if (
        len(p) != n
        or sorted(p) != list(range(n))
        or (not _all_exact_int(map(type, p)) and not all(map(is_int, p)))
    ):
        raise NotAPermutationError(f"{p!r} is not a permutation of Z_{n}")
    return p


# =====================================================================
# Augmented functional trees
# =====================================================================

class CompiledTree(NamedTuple):
    """The structure every layer reads off one tree, computed once.

    ``component`` is ascending.  ``order`` is the breadth-first placement
    order (root first, children ascending), so a parent precedes its
    children and each vertex's children are listed together.
    ``leaf_groups`` are the maximal groups of >= 2 leaves sharing a
    parent, ascending.

    ``arcs`` gives, per component vertex in ascending order, the pair
    (vertex, parent) in the tree conjugated by the transposition (0 m-1).
    A semigroup-form tree of size m sits at slot m-1 of its family, and
    this moves its root from 0 to the slot: these are the arcs a labeling
    relabels, built once for every completeness check.  For such a tree
    the vertex of arc v is vertex v's slot position, and arc 0 is the
    root's loop.

    The last five fields place the tree at slot m-1 of a family on Z_n,
    the only slot a family accepts it in; nothing reads them for other
    trees.  ``steps`` holds the engine step of each component vertex by
    slot position (the arcs' vertices, ascending), so its images head the
    slot's permutation; ``parent_step`` and ``prev_leaf_step``, along
    ``order``, are the steps of the parent and of the previous member of
    the leaf-sibling group, -1 where there is none.  A step is a position
    in ``order`` shifted by the n(n+1)/2 - m(m+1)/2 steps of the larger
    slots.  ``leaf_swaps`` is the product of |group|! over
    ``leaf_groups``; ``semigroup_break`` is the first vertex u >= 1 with
    ``map[u] >= u``, 0 in semigroup form.
    """

    component: tuple[int, ...]
    order: tuple[int, ...]
    leaf_groups: tuple[tuple[int, ...], ...]
    arcs: tuple[tuple[int, int], ...]
    steps: tuple[int, ...]
    parent_step: tuple[int, ...]
    prev_leaf_step: tuple[int, ...]
    leaf_swaps: int
    semigroup_break: int


def _compile(g: Mapping, root: int, m: int) -> CompiledTree:
    """Compile a self-map with fixed root into its tree structure.

    This is the tree check: it raises NotATreeError unless the component
    (the non-fixed vertices and the root) has m vertices that all reach
    the root.  Every member has one parent, so the breadth-first order
    lists each member at most once and reaches exactly the members whose
    path ends at the root; a member on a cycle missing the root is never
    reached.
    """
    n = len(g)
    comp = [v for v in range(n) if g[v] != v or v == root]
    if len(comp) != m:
        raise NotATreeError(f"component has {len(comp)} vertices, expected {m}")
    kids: dict[int, list[int]] = {v: [] for v in comp}
    for v in comp:
        if v != root:
            if g[v] not in kids:  # a fixed point other than the root
                raise NotATreeError(f"vertex {v} does not reach the root {root}")
            kids[g[v]].append(v)  # ascending: comp is sorted
    order = [root]
    for v in order:  # breadth-first: the loop runs over what it appends
        order.extend(kids[v])
    if len(order) != m:
        missed = min(set(comp).difference(order))
        raise NotATreeError(f"vertex {missed} does not reach the root {root}")
    base = (n * (n + 1) - m * (m + 1)) // 2  # the steps of the larger slots
    step = dict(zip(order, range(base, base + m)))
    prev_leaf_step = [-1] * m
    groups = []
    for ks in kids.values():  # ascending by parent, as comp is
        if len(ks) >= 2:
            leaves = [u for u in ks if not kids[u]]
            if len(leaves) >= 2:
                groups.append(tuple(leaves))
                for a, b in zip(leaves, leaves[1:]):
                    prev_leaf_step[step[b] - base] = step[a]
    swap = {0: m - 1, m - 1: 0}
    slot_vertex = [swap.get(v, v) for v in comp]
    return CompiledTree(
        component=tuple(comp),
        order=tuple(order),
        leaf_groups=tuple(groups),
        arcs=tuple(zip(slot_vertex, [swap.get(g[v], g[v]) for v in comp])),
        # the swap is its own inverse: slot position p holds vertex swap(p)
        steps=tuple([step[swap.get(p, p)] for p in sorted(slot_vertex)]),
        parent_step=(-1, *[step[g[v]] for v in order[1:]]),
        prev_leaf_step=tuple(prev_leaf_step),
        leaf_swaps=math.prod([math.factorial(len(grp)) for grp in groups]),
        semigroup_break=next((u for u in range(1, m) if g[u] >= u), 0),
    )


@dataclass(frozen=True)
class AugFuncTree:
    """An m-vertex functional tree inside Z_n, every other vertex a loop.

    ``m == n`` is the plain spanning functional tree.  The component is
    the set of non-fixed vertices together with the root; validation
    compiles the tree, which checks that the component has exactly m
    vertices all of which reach the root.  Instances are immutable and
    safe to share between families.
    """

    n: int
    m: int
    map: Mapping
    root: int

    def __post_init__(self) -> None:
        check_size(self.n, "a tree")
        if not is_int(self.m) or not 1 <= self.m <= self.n:
            raise BadSizeError(f"component size {self.m} not within 1..{self.n}")
        g = _check_self_map(self.map)
        if len(g) != self.n:
            raise BadSizeError(f"map has {len(g)} entries, expected {self.n}")
        object.__setattr__(self, "map", g)
        if not is_int(self.root) or not 0 <= self.root < self.n:
            raise OutOfRangeError(f"root {self.root!r} outside Z_{self.n}")
        if g[self.root] != self.root:
            raise NotATreeError(f"root {self.root} is not a fixed point")
        # not a dataclass field, so equality, hashing and repr ignore it
        object.__setattr__(self, "_compiled", _compile(g, self.root, self.m))

    # -- structure -----------------------------------------------------

    def compiled(self) -> CompiledTree:
        """The tree's structure, built once when the tree is validated."""
        return self._compiled

    def component(self) -> tuple[int, ...]:
        return self.compiled().component

    def children(self, v: int) -> tuple[int, ...]:
        """Component vertices pointing at v, the root's self-edge excluded."""
        order, g = self.compiled().order, self.map
        # breadth-first order lists each vertex's children together, ascending
        return tuple(u for u in order[1:] if g[u] == v)


def build_tree(parents, n: int | None = None) -> AugFuncTree:
    """Tree from a parent array on Z_m, augmented with loops up to Z_n.

    ``parents[v]`` is the vertex v points to; the unique fixed entry is
    the root.  Raises OutOfRangeError for entries outside Z_m,
    NotATreeError when the array carries a cycle or falls apart, and
    BadSizeError when m is empty or exceeds n.
    """
    parents = tuple(parents)
    m = len(parents)
    if n is None:
        n = m
    if not is_int(n) or m < 1 or m > n:
        raise BadSizeError(f"parent array of length {m} does not fit in Z_{n!r}")
    v = _bad_entry(parents, m)
    if v is not None:
        raise OutOfRangeError(f"parent {parents[v]!r} of vertex {v} is outside Z_{m}")
    roots = [v for v, p in enumerate(parents) if p == v]
    if len(roots) != 1:
        raise NotATreeError(
            f"parent array has {len(roots)} fixed points, a tree needs exactly one"
        )
    full = parents + tuple(range(m, n))
    return AugFuncTree(n=n, m=m, map=full, root=roots[0])


def sibling_leaf_set(tree: AugFuncTree) -> frozenset[int]:
    """Leaves sharing a parent with a deepest vertex.

    The deepest vertex with the largest label is taken as the reference
    leaf; the set collects every non-root preimage of its parent.  All
    members sit at maximum depth, hence are leaves (asserted).
    """
    if tree.m == 1:
        raise SingletonTreeError("a one-vertex tree has no sibling leaves")
    order, g = tree.compiled().order, tree.map
    depth = {order[0]: 0}
    for u in order[1:]:  # a parent precedes its children
        depth[u] = depth[g[u]] + 1
    # breadth-first, so the last vertex in order is a deepest one
    target = g[max(v for v in order if depth[v] == depth[order[-1]])]
    leaves = frozenset(v for v in order[1:] if g[v] == target)
    assert not any(g[u] in leaves for u in order[1:]), "non-leaf sibling"
    return leaves


def local_compose(tree: AugFuncTree) -> AugFuncTree:
    """One composition step: sibling leaves of the deepest vertex hop to
    their grandparent; everything else keeps its image."""
    leaves = sibling_leaf_set(tree)  # SingletonTreeError for m == 1
    g = tree.map
    new = tuple(g[g[v]] if v in leaves else g[v] for v in range(tree.n))
    return AugFuncTree(n=tree.n, m=tree.m, map=new, root=tree.root)


# =====================================================================
# Generators
# =====================================================================

def generate(kind: str, m: int, n: int | None = None, seed: int = 0) -> AugFuncTree:
    """Seeded tree generator; identical arguments give identical trees.

    Kinds: ``star``, ``path``, ``caterpillar`` (seeded spine length,
    leaves on seeded spine vertices), ``random-recursive`` (vertex u picks
    a uniform parent below it, uniform over semigroup-form trees) and
    ``random-uniform`` (uniform labeled rooted tree, decoded from a
    Pruefer sequence and relabeled breadth-first from its root,
    neighbours ascending).  Every kind yields a semigroup-form parent
    array, so each tree is built once, by `build_tree`.
    """
    if n is None:
        n = m
    if not (is_int(m) and is_int(n)) or m < 1 or m > n:
        raise BadSizeError(f"component size {m!r} not within 1..{n!r}")
    rng = random.Random(seed)
    if kind == "star":
        parents = [0] * m
    elif kind == "path":
        parents = [0] + [v - 1 for v in range(1, m)]
    elif kind == "caterpillar":
        spine = rng.randint(1, m)
        parents = [0] + [v - 1 for v in range(1, spine)]
        parents += [rng.randrange(spine) for _ in range(m - spine)]
    elif kind == "random-recursive":
        parents = [0] + [rng.randrange(v) for v in range(1, m)]
    elif kind == "random-uniform":
        parents = _uniform_rooted_tree(m, rng)
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    return build_tree(parents, n)


def _uniform_rooted_tree(m: int, rng: random.Random) -> list[int]:
    """Uniform rooted labeled tree on Z_m, as a semigroup-form parent array.

    Pruefer decoding gives the uniform unrooted tree (m^(m-2) of them);
    an independent uniform root choice lifts that to all m^(m-1) rooted
    trees.  The walk from the root labels the vertices breadth-first,
    neighbours ascending: the root becomes 0 and every parent gets a
    smaller label than its children.
    """
    if m == 1:
        return [0]
    seq = [rng.randrange(m) for _ in range(m - 2)]
    degree = [1] * m
    for v in seq:
        degree[v] += 1
    adj: list[list[int]] = [[] for _ in range(m)]
    leaves = [v for v in range(m) if degree[v] == 1]  # ascending: a heap
    for v in seq:
        leaf = heapq.heappop(leaves)
        adj[leaf].append(v)
        adj[v].append(leaf)
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    adj[leaves[0]].append(leaves[1])  # the last edge joins the last two
    adj[leaves[1]].append(leaves[0])
    root = rng.randrange(m)
    label = {root: 0}
    parents = [0]
    order = [root]
    for v in order:  # breadth-first: the loop runs over what it appends
        for u in sorted(adj[v]):
            if u not in label:
                label[u] = len(order)
                parents.append(label[v])
                order.append(u)
    return parents


def star_family(n: int) -> AugTreeFamily:
    """The family whose size-(k+1) slot is a star: identity labels pack it."""
    check_size(n, "a family")
    return AugTreeFamily(
        n=n, trees=tuple(generate("star", k + 1, n) for k in range(n))
    )


def generate_family(n: int, kind: str = "random-uniform", seed: int = 0) -> AugTreeFamily:
    """Seeded family: one generated tree per component size 1..n.

    ``kind`` may be any single generator kind or ``mixed``, which picks a
    kind per slot.  Per-slot sub-seeds are drawn from one stream, so the
    family is a pure function of (n, kind, seed).
    """
    check_size(n, "a family")
    rng = random.Random(seed)
    trees = []
    for k in range(n):
        slot_kind = rng.choice(GENERATOR_KINDS) if kind == "mixed" else kind
        trees.append(generate(slot_kind, k + 1, n, seed=rng.randrange(2**62)))
    return AugTreeFamily(n=n, trees=tuple(trees))


# =====================================================================
# Families
# =====================================================================

def _check_slot(k: int, t, n: int) -> None:
    """Does ``t`` fit slot k of a family on Z_n?  Size k + 1, root 0,
    semigroup form and ambient n; InvalidFamilyError if not."""
    if not isinstance(t, AugFuncTree):
        raise InvalidFamilyError(f"slot {k} is not an AugFuncTree")
    if t.n != n:
        raise InvalidFamilyError(f"slot {k} lives in Z_{t.n}, family in Z_{n}")
    if t.m != k + 1 or t.root != 0:
        raise InvalidFamilyError(f"slot {k} must have component size {k + 1} rooted at 0")
    if u := t.compiled().semigroup_break:
        raise InvalidFamilyError(f"slot {k} is not in semigroup form at vertex {u}")


def _check_slot_index(family: AugTreeFamily, k) -> None:
    if not is_int(k) or not 0 <= k < family.n:
        raise OutOfRangeError(f"slot {k!r} outside Z_{family.n}")


def _root_at_slot(family: AugTreeFamily, k) -> Mapping:
    """The map of slot k conjugated by (0 k), its root moved to k."""
    _check_slot_index(family, k)
    g = list(range(family.n))
    for v, p in family.trees[k].compiled().arcs:
        g[v] = p
    return tuple(g)


@dataclass(frozen=True)
class AugTreeFamily:
    """One augmented tree per component size 1..n, all in semigroup form.

    Slot k holds the tree with component Z_(k+1): root 0, every other
    component vertex pointing strictly downward, identity outside.  The
    family therefore fixes exactly the data the packing solver and the
    certificate consume.  Each tree was checked when it was built, so
    the family checks only what it adds: the slot's size, root 0 and
    parent below child on 1..k.  Those k vertices are then non-fixed, so
    with a component of k+1 vertices every vertex above k is a loop.
    """

    n: int
    trees: tuple[AugFuncTree, ...]

    def __post_init__(self) -> None:
        trees = tuple(self.trees)
        object.__setattr__(self, "trees", trees)
        check_size(self.n, "a family")
        if len(trees) != self.n:
            raise InvalidFamilyError(
                f"family on Z_{self.n} needs {self.n} trees, got {len(trees)}"
            )
        for k, t in enumerate(trees):
            _check_slot(k, t, self.n)

    @classmethod
    def _checked(cls, n: int, trees: tuple[AugFuncTree, ...]) -> "AugTreeFamily":
        """A family whose slots need no second check.

        Precondition: ``trees`` is a tuple of n trees, and `_check_slot`
        passed each at its slot on Z_n.  `family_enumerate` checks each
        prebuilt tree once and then builds every family through here.
        """
        fam = object.__new__(cls)
        object.__setattr__(fam, "n", n)
        object.__setattr__(fam, "trees", trees)
        return fam

    def slot_form(self, k: int) -> AugFuncTree:
        """Slot k conjugated by the transposition (0 k): root moves to k.

        This is the form the packing semantics reads arcs from; the
        component is still Z_(k+1).
        """
        return AugFuncTree(n=self.n, m=k + 1, map=_root_at_slot(self, k), root=k)

    def with_tree(self, k: int, tree: AugFuncTree) -> AugTreeFamily:
        """Copy of the family with slot k replaced (revalidated)."""
        _check_slot_index(self, k)
        trees = list(self.trees)
        trees[k] = tree
        return AugTreeFamily(n=self.n, trees=tuple(trees))


def compose_square(family: AugTreeFamily) -> AugTreeFamily:
    """Square every slot's map: each vertex hops to its grandparent."""
    trees = tuple(
        AugFuncTree(
            n=t.n, m=t.m, map=tuple(t.map[t.map[v]] for v in range(t.n)), root=t.root
        )
        for t in family.trees
    )
    return AugTreeFamily(n=family.n, trees=trees)


def family_count(n: int) -> int:
    """Number of distinct families on Z_n: product of (m-1)! over sizes m."""
    return math.prod(math.factorial(m - 1) for m in range(1, n + 1))


def family_enumerate(n: int, start: int = 0, stop: int | None = None):
    """Yield every family on Z_n, ordered lexicographically by parent arrays.

    Trees are prebuilt once per size and shared between the yielded
    families (they are immutable).  Each is checked against its slot
    once, when it is built, so the families skip that check
    (`AugTreeFamily._checked`) and a full n = 6 sweep materializes 34560
    families cheaply.  ``start`` and ``stop`` slice the index range
    before any family is built, so a sweep chunk builds only its own, and
    the walk begins at ``start`` without stepping through the families
    before it (`_product_slice`).  Refuses n beyond ``SWEEP_MAX_N``
    (BoundExceededError) before building any tree: n = 9 alone would mean
    46 234 of them, a non-int n (BadSizeError), and a ``start`` or
    ``stop`` that is no int of at least 0 (ValueError).
    """
    check_size(n, "a family")
    if n > SWEEP_MAX_N:
        raise BoundExceededError(
            f"enumerating the families at n={n} exceeds the cap n <= {SWEEP_MAX_N}"
        )
    per_size: list[list[AugFuncTree]] = []
    for m in range(1, n + 1):
        choices = product(*(range(u) for u in range(1, m)))
        pool = [build_tree((0,) + tail, n) for tail in choices]
        for t in pool:  # each tree once, not once per family it joins
            _check_slot(m - 1, t, n)
        per_size.append(pool)
    checked = AugTreeFamily._checked
    for combo in _product_slice(per_size, start, stop):
        yield checked(n, combo)


def _product_slice(pools: list[list], start: int, stop: int | None):
    """``islice(product(*pools), start, stop)`` without the walk to ``start``.

    Index ``start`` is a mixed-radix number whose digits pick one item per
    pool, the last pool's digit the least significant.  From those digits
    the product runs on as an odometer: the last pool from its digit on,
    then each earlier pool k in turn from its next digit, with the pools
    before k held at their digits and those after k running in full.
    """
    if not all(is_int(i) and i >= 0 for i in (start, 0 if stop is None else stop)):
        raise ValueError(f"a family index range needs ints of at least 0, got {start!r}, {stop!r}")
    digits = []
    rest = start
    for pool in reversed(pools):
        rest, d = divmod(rest, len(pool))
        digits.append(d)
    if rest:  # start is past the last family
        return iter(())
    digits.reverse()
    last = len(pools) - 1
    held = [[pool[d]] for pool, d in zip(pools, digits)]
    runs = chain.from_iterable(
        product(*held[:k], pools[k][digits[k] + (k < last):], *pools[k + 1:])
        for k in range(last, -1, -1)
    )
    return runs if stop is None else islice(runs, max(0, stop - start))


def leaf_sibling_groups(tree: AugFuncTree) -> list[tuple[int, ...]]:
    """Maximal groups of >= 2 leaves sharing a parent, ascending.

    Used to enumerate the leaf-swap symmetries.  The search prunes with
    the same groups through the compiled ``prev_leaf_step`` (group images
    ascend) and ``leaf_swaps`` rows.
    """
    return list(tree.compiled().leaf_groups)
