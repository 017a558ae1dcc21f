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
from itertools import islice, product
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


def iterate(g, j: int) -> Mapping:
    """j-fold composition of g with itself; j = 0 gives the identity."""
    g = _check_self_map(g)
    if j < 0:
        raise ValueError("iteration count must be non-negative")
    cur = tuple(range(len(g)))
    for _ in range(j):
        cur = tuple(g[v] for v in cur)
    return cur


def is_functional_tree(g) -> bool:
    """True iff the (n-1)-fold iterate of g has a one-point image."""
    g = _check_self_map(g)
    return len(set(iterate(g, len(g) - 1))) == 1


def conjugate(g, gamma) -> Mapping:
    """Relabel a self-map by a permutation: vertex gamma(v) points to gamma(g(v))."""
    g = _check_self_map(g)
    gamma = check_permutation(gamma, len(g))
    out = [0] * len(g)
    for v, w in enumerate(g):
        out[gamma[v]] = gamma[w]
    return tuple(out)


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
    order (root first, children ascending); ``parent_pos[j]`` and
    ``prev_leaf_pos[j]`` are the positions in ``order`` of vertex j's
    parent and of the previous member of its leaf-sibling group, -1 where
    there is none.  ``leaf_groups`` are the maximal groups of >= 2 leaves
    sharing a parent, ascending.

    ``slot_vertex`` and ``slot_parent`` give, per component vertex in
    ascending order, the vertex and its parent in the tree conjugated by
    the transposition (0 m-1).  A semigroup-form tree of size m sits at
    slot m-1 of its family, and this moves its root from 0 to the slot:
    :meth:`slot_arcs` are the arcs a labeling relabels.  For such a tree
    ``slot_vertex[v]`` is vertex v's slot position, and arc 0 is the
    root's loop.

    The last five fields place the tree at slot m-1 of a family on Z_n,
    the only slot a family accepts it in; nothing reads them for other
    trees.  ``steps`` holds the engine step of each component vertex by
    slot position (as ``sorted(slot_vertex)``), so its images head the
    slot's permutation; ``parent_step`` and ``prev_leaf_step``, along
    ``order``, are the steps of the parent and previous leaf sibling (-1
    kept).  A step is a position in ``order`` shifted by the n(n+1)/2 -
    m(m+1)/2 steps of the larger slots.  ``leaf_swaps`` is the
    product of |group|! over ``leaf_groups``; ``semigroup_break`` is the
    first vertex u >= 1 with ``map[u] >= u``, 0 in semigroup form.
    """

    component: tuple[int, ...]
    order: tuple[int, ...]
    parent_pos: tuple[int, ...]
    prev_leaf_pos: tuple[int, ...]
    leaf_groups: tuple[tuple[int, ...], ...]
    slot_vertex: tuple[int, ...]
    slot_parent: tuple[int, ...]
    steps: tuple[int, ...]
    parent_step: tuple[int, ...]
    prev_leaf_step: tuple[int, ...]
    leaf_swaps: int
    semigroup_break: int

    def slot_arcs(self):
        """Iterator over the arcs (vertex, parent) read at the slot."""
        return zip(self.slot_vertex, self.slot_parent)


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
    pos = dict(zip(order, range(m)))
    prev_leaf_pos = [-1] * m
    groups = []
    for ks in kids.values():  # ascending by parent, as comp is
        if len(ks) >= 2:
            leaves = [u for u in ks if not kids[u]]
            if len(leaves) >= 2:
                groups.append(tuple(leaves))
                for a, b in zip(leaves, leaves[1:]):
                    prev_leaf_pos[pos[b]] = pos[a]
    parent_pos = [-1, *[pos[g[v]] for v in order[1:]]]
    base = (n * (n + 1) - m * (m + 1)) // 2  # the steps of the larger slots
    swap = {0: m - 1, m - 1: 0}
    return CompiledTree(
        component=tuple(comp),
        order=tuple(order),
        parent_pos=tuple(parent_pos),
        prev_leaf_pos=tuple(prev_leaf_pos),
        leaf_groups=tuple(groups),
        slot_vertex=tuple([swap.get(v, v) for v in comp]),
        slot_parent=tuple([swap.get(g[v], g[v]) for v in comp]),
        steps=tuple([base + pos[v] for v in sorted(comp, key=lambda v: swap.get(v, v))]),
        parent_step=tuple([p if p < 0 else base + p for p in parent_pos]),
        prev_leaf_step=tuple([p if p < 0 else base + p for p in prev_leaf_pos]),
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
        if self.n < 1:
            raise BadSizeError("ambient vertex count must be positive")
        if not 1 <= self.m <= self.n:
            raise BadSizeError(f"component size {self.m} not within 1..{self.n}")
        g = _check_self_map(self.map)
        if len(g) != self.n:
            raise BadSizeError(f"map has {len(g)} entries, expected {self.n}")
        object.__setattr__(self, "map", g)
        if not 0 <= self.root < self.n:
            raise OutOfRangeError(f"root {self.root} outside Z_{self.n}")
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

    def depth_map(self) -> dict[int, int]:
        """Component vertex -> distance to the root."""
        c = self.compiled()
        depth = [0] * self.m
        for j in range(1, self.m):  # a parent precedes its children
            depth[j] = depth[c.parent_pos[j]] + 1
        return dict(zip(c.order, depth))

    def children(self, v: int) -> tuple[int, ...]:
        """Component vertices pointing at v, the root's self-edge excluded."""
        c = self.compiled()
        # breadth-first order lists each vertex's children together, ascending
        return tuple(
            u for u, p in zip(c.order, c.parent_pos) if p >= 0 and c.order[p] == v
        )

    def is_spanning(self) -> bool:
        return self.m == self.n


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
    if m < 1 or m > n:
        raise BadSizeError(f"parent array of length {m} does not fit in Z_{n}")
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
    depths = tree.depth_map()
    maxd = max(depths.values())
    ref = max(v for v, d in depths.items() if d == maxd)
    target = tree.map[ref]
    leaves = frozenset(
        v for v in depths if tree.map[v] == target and v != tree.root
    )
    assert all(not tree.children(v) for v in leaves), "non-leaf sibling"
    return leaves


def local_compose(tree: AugFuncTree) -> AugFuncTree:
    """One composition step: sibling leaves of the deepest vertex hop to
    their grandparent; everything else keeps its image."""
    leaves = sibling_leaf_set(tree)  # SingletonTreeError for m == 1
    g = tree.map
    new = tuple(g[g[v]] if v in leaves else g[v] for v in range(tree.n))
    return AugFuncTree(n=tree.n, m=tree.m, map=new, root=tree.root)


def canonical_form(tree: AugFuncTree) -> tuple[AugFuncTree, Mapping]:
    """Relabel breadth-first so the component becomes Z_m in semigroup form.

    Returns ``(relabeled, gamma)`` where gamma is the witnessing
    permutation of Z_n: ``conjugate(tree.map, gamma) == relabeled.map``.
    The root gets label 0, children are visited in ascending original
    order, and vertices outside the component take the remaining labels
    in ascending original order.
    """
    new_label = {v: j for j, v in enumerate(tree.compiled().order)}
    for v in range(tree.n):
        if v not in new_label:
            new_label[v] = len(new_label)
    gamma = tuple(new_label[v] for v in range(tree.n))
    relabeled = AugFuncTree(
        n=tree.n, m=tree.m, map=conjugate(tree.map, gamma), root=0
    )
    return relabeled, gamma


# =====================================================================
# Generators
# =====================================================================

def generate(kind: str, m: int, n: int | None = None, seed: int = 0) -> AugFuncTree:
    """Seeded tree generator; identical arguments give identical trees.

    Kinds: ``star``, ``path``, ``caterpillar`` (seeded spine length,
    leaves on seeded spine vertices), ``random-recursive`` (vertex u picks
    a uniform parent below it, uniform over semigroup-form trees) and
    ``random-uniform`` (uniform labeled rooted tree, decoded from a
    Pruefer sequence, then canonicalized).  Output is always in
    semigroup form.
    """
    if n is None:
        n = m
    if m < 1 or m > n:
        raise BadSizeError(f"component size {m} not within 1..{n}")
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
        parent_map, root = _uniform_rooted_tree(m, rng)
        raw = AugFuncTree(
            n=n, m=m, map=tuple(parent_map) + tuple(range(m, n)), root=root
        )
        return canonical_form(raw)[0]
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    return build_tree(parents, n)


def _uniform_rooted_tree(m: int, rng: random.Random) -> tuple[list[int], int]:
    """Uniform rooted labeled tree on Z_m as (parent map, root).

    Pruefer decoding gives the uniform unrooted tree (m^(m-2) of them);
    an independent uniform root choice lifts that to all m^(m-1) rooted
    trees.
    """
    if m == 1:
        return [0], 0
    seq = [rng.randrange(m) for _ in range(m - 2)]
    degree = [1] * m
    for v in seq:
        degree[v] += 1
    edges: list[tuple[int, int]] = []
    leaves = [v for v in range(m) if degree[v] == 1]  # ascending: a heap
    for v in seq:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((leaves[0], leaves[1]))  # the last two: smaller first
    root = rng.randrange(m)
    adj: dict[int, list[int]] = {v: [] for v in range(m)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    parent = [0] * m
    parent[root] = root
    stack = [root]
    seen = {root}
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                parent[u] = v
                stack.append(u)
    return parent, root


def star_family(n: int) -> AugTreeFamily:
    """The family whose size-(k+1) slot is a star: identity labels pack it."""
    return AugTreeFamily(
        n=n, trees=tuple(generate("star", k + 1, n) for k in range(n))
    )


def generate_family(n: int, kind: str = "random-uniform", seed: int = 0) -> AugTreeFamily:
    """Seeded family: one generated tree per component size 1..n.

    ``kind`` may be any single generator kind or ``mixed``, which picks a
    kind per slot.  Per-slot sub-seeds are drawn from one stream, so the
    family is a pure function of (n, kind, seed).
    """
    if n < 1:
        raise BadSizeError("a family needs at least one vertex")
    rng = random.Random(seed)
    trees = []
    for k in range(n):
        slot_kind = rng.choice(GENERATOR_KINDS) if kind == "mixed" else kind
        trees.append(generate(slot_kind, k + 1, n, seed=rng.randrange(2**62)))
    return AugTreeFamily(n=n, trees=tuple(trees))


# =====================================================================
# Families
# =====================================================================

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
        if self.n < 1:
            raise BadSizeError("a family needs at least one vertex")
        if len(trees) != self.n:
            raise InvalidFamilyError(
                f"family on Z_{self.n} needs {self.n} trees, got {len(trees)}"
            )
        for k, t in enumerate(trees):
            if not isinstance(t, AugFuncTree):
                raise InvalidFamilyError(f"slot {k} is not an AugFuncTree")
            if t.n != self.n:
                raise InvalidFamilyError(
                    f"slot {k} lives in Z_{t.n}, family in Z_{self.n}"
                )
            if t.m != k + 1 or t.root != 0:
                raise InvalidFamilyError(
                    f"slot {k} must have component size {k + 1} rooted at 0"
                )
            if u := t.compiled().semigroup_break:
                raise InvalidFamilyError(
                    f"slot {k} is not in semigroup form at vertex {u}"
                )

    def slot_form(self, k: int) -> AugFuncTree:
        """Slot k conjugated by the transposition (0 k): root moves to k.

        This is the form the packing semantics reads arcs from; the
        component is still Z_(k+1).
        """
        if not 0 <= k < self.n:
            raise OutOfRangeError(f"slot {k} outside Z_{self.n}")
        g = list(range(self.n))
        for v, p in self.trees[k].compiled().slot_arcs():
            g[v] = p
        return AugFuncTree(n=self.n, m=k + 1, map=tuple(g), root=k)

    def with_tree(self, k: int, tree: AugFuncTree) -> AugTreeFamily:
        """Copy of the family with slot k replaced (revalidated)."""
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
    families (they are immutable), so a full n = 6 sweep materializes
    34560 families cheaply.  ``start`` and ``stop`` slice the index range
    before any family is built, so a sweep chunk builds only its own.
    Refuses n beyond ``SWEEP_MAX_N`` (BoundExceededError) before building
    any tree: n = 9 alone would mean 46 234 of them.
    """
    if n < 1:
        raise BadSizeError("a family needs at least one vertex")
    if n > SWEEP_MAX_N:
        raise BoundExceededError(
            f"enumerating the {family_count(n)} families at n={n} exceeds "
            f"the cap {SWEEP_MAX_N}"
        )
    per_size: list[list[AugFuncTree]] = []
    for m in range(1, n + 1):
        choices = product(*(range(u) for u in range(1, m)))
        per_size.append([build_tree((0,) + tail, n) for tail in choices])
    for combo in islice(product(*per_size), start, stop):
        yield AugTreeFamily(n=n, trees=tuple(combo))


def leaf_sibling_groups(tree: AugFuncTree) -> list[tuple[int, ...]]:
    """Maximal groups of >= 2 leaves sharing a parent, ascending.

    Used to enumerate the leaf-swap symmetries.  The search prunes with
    the same groups through the compiled ``prev_leaf_step`` (group images
    ascend) and ``leaf_swaps`` rows.
    """
    return list(tree.compiled().leaf_groups)
