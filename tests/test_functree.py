"""Tree representation, generators, enumeration, composition."""

import hashlib
import itertools
import math
import random
import time

import pytest

from treepack import (
    AugFuncTree,
    AugTreeFamily,
    BadSizeError,
    BoundExceededError,
    InvalidFamilyError,
    Labeling,
    NotAPermutationError,
    NotATreeError,
    OutOfRangeError,
    SingletonTreeError,
    build_tree,
    compose_square,
    family_count,
    family_enumerate,
    generate,
    generate_family,
    leaf_sibling_groups,
    local_compose,
    sibling_leaf_set,
    star_family,
)
from treepack.functree import GENERATOR_KINDS, SWEEP_MAX_N, _product_slice


def brute_is_tree(g):
    # the defining property, written as directly as possible: the
    # (n-1)-fold composition collapses everything to one vertex
    n = len(g)
    image = set(range(n))
    for _ in range(max(n - 1, 0)):
        image = {g[v] for v in image}
    return len(image) == 1


def depth_map(t):
    """Component vertex -> distance to the root, along the tree's
    breadth-first order, in which a parent precedes its children."""
    order = t.compiled().order
    depth = {order[0]: 0}
    for u in order[1:]:
        depth[u] = depth[t.map[u]] + 1
    return depth


def conjugate(g, gamma):
    """Relabel a self-map by a permutation: gamma(v) points to gamma(g(v))."""
    out = [0] * len(g)
    for v, w in enumerate(g):
        out[gamma[v]] = gamma[w]
    return tuple(out)


def build_tree_accepts(g):
    """Does the package accept the self-map g as a spanning tree?"""
    try:
        build_tree(g)
    except NotATreeError:
        return False
    return True


def test_is_functional_tree_agrees_with_brute_force_exhaustively():
    """Every self-map of Z_m for m <= 4: build_tree accepts it exactly
    when the brute-force predicate holds, and Cayley's count m^(m-1) of
    rooted labeled trees anchors both.

    The augmented constructor is held to the same oracle: AugFuncTree(n,
    m, g, r) builds iff r is fixed, the non-fixed vertices plus r number
    m, and each of them reaches r under iteration of g; the depths along
    its breadth-first order are the iterate counts, and children(v) lists
    the members u != r with g[u] == v, ascending.  The maps include
    cycles that miss the root, which build_tree never passes on."""
    for m in range(1, 5):
        trees = 0
        for g in itertools.product(range(m), repeat=m):
            mine = build_tree_accepts(g)
            assert mine == brute_is_tree(g), g
            trees += mine
        assert trees == m ** (m - 1)
    for n in range(1, 5):
        for g in itertools.product(range(n), repeat=n):
            powers = [tuple(range(n))]  # powers[j] is the j-fold iterate
            for _ in range(n - 1):
                powers.append(tuple(g[v] for v in powers[-1]))
            for r, size in itertools.product(range(n), range(1, n + 1)):
                members = {v for v in range(n) if g[v] != v} | {r}
                builds = (
                    g[r] == r
                    and len(members) == size
                    and all(powers[n - 1][v] == r for v in members)
                )
                if not builds:
                    with pytest.raises(NotATreeError):
                        AugFuncTree(n=n, m=size, map=g, root=r)
                    continue
                t = AugFuncTree(n=n, m=size, map=g, root=r)
                assert t.component() == tuple(sorted(members))
                assert depth_map(t) == {
                    v: min(j for j in range(n) if powers[j][v] == r)
                    for v in members
                }
                for v in range(n):
                    assert t.children(v) == tuple(
                        u for u in sorted(members) if u != r and g[u] == v
                    )


def test_conjugate_preserves_treeness():
    """A relabeled tree is still a tree, rooted at the root's image."""
    rng = random.Random(12)
    for _ in range(30):
        m = rng.randrange(1, 7)
        t = generate("random-uniform", m, seed=rng.randrange(10**6))
        gamma = list(range(m))
        rng.shuffle(gamma)
        g = conjugate(t.map, tuple(gamma))
        assert brute_is_tree(g)
        relabeled = AugFuncTree(n=m, m=m, map=g, root=gamma[0])
        assert relabeled.component() == tuple(range(m))


# --- construction -----------------------------------------------------


def test_build_tree_example():
    t = build_tree([0, 0, 1, 1], 6)
    assert t.m == 4 and t.n == 6 and t.root == 0
    assert t.map == (0, 0, 1, 1, 4, 5)
    assert t.component() == (0, 1, 2, 3)
    assert depth_map(t) == {0: 0, 1: 1, 2: 2, 3: 2}
    assert t.children(1) == (2, 3)
    assert build_tree([0]).map == (0,)


def test_build_tree_rejects_cycles_and_bad_roots():
    with pytest.raises(NotATreeError):
        build_tree([1, 0, 0])  # two-cycle
    with pytest.raises(NotATreeError):
        build_tree([0, 1, 1])  # two fixed points
    with pytest.raises(OutOfRangeError):
        build_tree([0, 3], 4)  # parent outside the component
    with pytest.raises(BadSizeError):
        build_tree([], 3)
    with pytest.raises(BadSizeError):
        build_tree([0, 0, 0], 2)


def test_non_int_entries_are_out_of_range():
    """bool and float entries compare equal to vertices but are none, in a
    parent array and in a self-map alike."""
    with pytest.raises(OutOfRangeError, match="parent True of vertex 1"):
        build_tree([0, True])
    with pytest.raises(OutOfRangeError, match="parent 0.0 of vertex 1"):
        build_tree([0, 0.0])
    with pytest.raises(OutOfRangeError, match="map value 0.0 at vertex 1"):
        AugFuncTree(n=2, m=2, map=(0, 0.0), root=0)


def test_augfunctree_rejects_moved_outside_vertices():
    with pytest.raises(NotATreeError):
        AugFuncTree(n=3, m=2, map=(0, 0, 0), root=0)


def test_augfunctree_refuses_a_bad_root_or_map_length():
    """A root must be an int in Z_n: True built a tree rooted at 1 and
    1.0 raised a bare TypeError.  A map must have n entries."""
    for root in (True, 1.0, 2, -1):
        with pytest.raises(OutOfRangeError):
            AugFuncTree(n=2, m=1, map=(0, 1), root=root)
    with pytest.raises(BadSizeError, match="map has 2 entries, expected 3"):
        AugFuncTree(n=3, m=1, map=(0, 1), root=0)
    with pytest.raises(BadSizeError, match="at least one vertex"):
        AugFuncTree(n=1, m=1, map=(), root=0)


# --- generators --------------------------------------------------------


def test_generators_deterministic_and_valid():
    rng = random.Random(99)
    for kind in GENERATOR_KINDS:
        for _ in range(10):
            m = rng.randrange(1, 9)
            n = m + rng.randrange(0, 4)
            seed = rng.randrange(10**9)
            a = generate(kind, m, n, seed=seed)
            b = generate(kind, m, n, seed=seed)
            assert a == b
            assert a.m == m and a.n == n and a.root == 0
            # treeness is a property of the component, the rest are loops
            assert brute_is_tree(a.map[:m])
            for u in range(1, m):
                assert a.map[u] < u  # semigroup form
            assert a.map[m:] == tuple(range(m, n))


def test_generate_star_and_path_shapes():
    star = generate("star", 5)
    assert star.map == (0, 0, 0, 0, 0)
    path = generate("path", 5)
    assert path.map == (0, 0, 1, 2, 3)
    assert max(depth_map(path).values()) == 4


def test_generate_unknown_kind():
    with pytest.raises(ValueError):
        generate("balanced", 3)


def test_uniform_generator_covers_the_breadth_first_forms():
    """Sanity, not statistics.  Canonicalization relabels level order, so
    parent labels are nondecreasing along the component; at m=4 exactly
    five semigroup forms are monotone like that, and 300 seeded draws
    should find every one of them."""
    seen = {generate("random-uniform", 4, seed=s).map for s in range(300)}
    assert seen == {
        (0, 0, 0, 0),
        (0, 0, 0, 1),
        (0, 0, 0, 2),
        (0, 0, 1, 1),
        (0, 0, 1, 2),
    }


def test_uniform_generator_output_is_frozen():
    """The frontier families and the benchmark's golden digests are drawn
    from this generator, so a change to its draws or to the Pruefer
    decoding must show up here first."""
    maps = [
        generate("random-uniform", m, seed=s).map for m in range(1, 13) for s in range(50)
    ]
    assert hashlib.sha256(repr(maps).encode()).hexdigest() == (
        "b853bd9235fb3a55024553c1336723eb531a802351617c86df77889a1d9ea9bd"
    )
    # larger trees, and every tree of the benchmark's 108 frontier families
    maps = [generate("random-uniform", m, seed=s).map for m in range(13, 65) for s in range(8)]
    maps += [
        t.map
        for n, count in ((12, 40), (16, 40), (20, 20), (24, 8))
        for j in range(count)
        for t in generate_family(n, "random-uniform", 7919 * n + j).trees
    ]
    assert hashlib.sha256(repr(maps).encode()).hexdigest() == (
        "32793ab3f559a0a626dc79c1acf7e2a4f831fa629a432eb573bb13d332c55d8b"
    )


# --- composition -------------------------------------------------------


def test_sibling_leaf_set_and_local_compose():
    # two leaves 2,3 under vertex 1; deepest reference picks them
    t = build_tree([0, 0, 1, 1])
    leaves = sibling_leaf_set(t)
    assert leaves == frozenset({2, 3})
    stepped = local_compose(t)
    assert stepped.map == (0, 0, 0, 0)  # both hop to the grandparent
    with pytest.raises(SingletonTreeError):
        sibling_leaf_set(build_tree([0], 3))


def test_sibling_leaf_set_matches_its_definition_on_every_tree():
    """Every labeled rooted tree on Z_m, m = 2..5, inside Z_(m+1): the set
    is the non-root preimages of the parent of the deepest vertex with
    the largest label, and each of them has no children."""
    checked = 0
    for m in range(2, 6):
        for g in itertools.product(range(m), repeat=m):
            if not build_tree_accepts(g):
                continue
            t = build_tree(g, m + 1)
            depth = depth_map(t)
            deepest = max(depth.values())
            target = t.map[max(v for v, d in depth.items() if d == deepest)]
            want = {v for v in depth if t.map[v] == target and v != t.root}
            assert all(t.children(v) == () for v in want)
            assert sibling_leaf_set(t) == want
            checked += 1
    assert checked == sum(m ** (m - 1) for m in range(2, 6))


def test_leaf_sibling_groups_partition_leaves():
    t = build_tree([0, 0, 1, 1, 0, 4, 4])
    groups = leaf_sibling_groups(t)
    flat = [v for grp in groups for v in grp]
    assert len(flat) == len(set(flat))
    for grp in groups:
        parents = {t.map[v] for v in grp}
        assert len(parents) == 1
        assert all(not t.children(v) for v in grp)


def test_compose_square_halves_depth_until_star():
    t = build_tree([0, 0, 1, 2, 3, 4, 5, 6])  # path of depth 7
    depths = []
    while True:
        depths.append(max(depth_map(t).values()))
        nxt = compose_square_tree(t)
        if nxt == t:
            break
        t = nxt
    assert depths == [7, 4, 2, 1]  # ceil-halving, star is the fixed point
    assert t.map == (0,) * 8


def compose_square_tree(t):
    # squaring a single tree via the family API on a one-size family is
    # clumsy; do it directly to keep the oracle honest
    g2 = tuple(t.map[t.map[v]] for v in range(t.n))
    return AugFuncTree(n=t.n, m=t.m, map=g2, root=t.root)


def test_compose_square_family_matches_per_tree():
    fam = generate_family(5, "mixed", seed=31)
    sq = compose_square(fam)
    for k in range(5):
        t = fam.trees[k]
        assert sq.trees[k].map == tuple(t.map[t.map[v]] for v in range(5))


# --- families ----------------------------------------------------------


def test_family_count_frozen_values():
    assert [family_count(n) for n in range(1, 7)] == [1, 1, 2, 12, 288, 34560]


def test_family_enumerate_complete_and_ordered():
    fams = list(family_enumerate(4))
    assert len(fams) == 12
    assert len(set(fams)) == 12
    keys = [tuple(t.map for t in f.trees) for f in fams]
    assert keys == sorted(keys)
    for f in fams:
        for k, t in enumerate(f.trees):
            assert t.m == k + 1 and t.root == 0


@pytest.mark.parametrize("n", range(1, 6))
def test_family_enumerate_range_is_a_slice(n, monkeypatch):
    """A range equals the same islice of the whole walk and builds only
    its own families."""
    total = family_count(n)
    last = (total - 1) // 5 * 5  # start of the last chunk of 5, often short
    ranges = [
        (total // 2, total // 2),  # empty
        (total // 2, None),
        (0, total),
        (last, total),
    ]
    real = AugTreeFamily._checked
    for a, b in ranges:
        want = list(itertools.islice(family_enumerate(n), a, b))
        built = 0

        def counting(n, trees):
            nonlocal built
            built += 1
            return real(n, trees)

        with monkeypatch.context() as m:
            m.setattr(AugTreeFamily, "_checked", counting)
            got = list(family_enumerate(n, a, b))
        assert got == want
        assert built == len(want) == (total if b is None else b) - a


def test_product_slice_is_every_islice():
    """Decoding ``start`` into digits and running on from there yields the
    same slice as walking the whole product: every (start, stop), ranges
    past the end included, over pools shaped like the families of each
    n <= 5 (sizes 1, 1, 2, 6, 24)."""
    for n in range(1, 6):
        pools = [list(range(math.factorial(m - 1))) for m in range(1, n + 1)]
        walk = list(itertools.product(*pools))  # islice over it is a list slice
        for a in range(len(walk) + 2):
            for b in [*range(a, len(walk) + 2), None]:
                assert list(_product_slice(pools, a, b)) == walk[a:b], (n, a, b)
    with pytest.raises(ValueError):
        _product_slice([[0]], -1, None)


@pytest.mark.parametrize(
    "start, stop", [(2.5, None), (0, "3"), (True, None), (0, 2.0), (1, False)]
)
def test_family_enumerate_refuses_an_index_that_is_no_int(start, stop):
    """A float or str start or stop raised a bare TypeError, and True
    started the walk at index 1; they are refused as negative ones are."""
    with pytest.raises(ValueError, match="ints of at least 0"):
        next(family_enumerate(4, start, stop))


def test_family_enumerate_starts_deep_in_the_range():
    """At n = 8 the walk to index 10**9 took seconds of CPU; a start there
    now decodes to its family.  Checked the other way round: each yielded
    tree's parent tail is ranked among the tails of its size (the product
    order, last entry fastest), and the ranks, largest tree fastest, must
    spell the index."""
    n, start = 8, 10**9

    def index(family):
        idx = 0
        for m, tree in enumerate(family.trees, start=1):
            rank = 0
            for u in range(1, m):  # parent of vertex u ranges over 0..u-1
                rank = rank * u + tree.map[u]
            idx = idx * math.factorial(m - 1) + rank
        return idx

    got = list(family_enumerate(n, start, start + 3))
    assert [index(f) for f in got] == [start, start + 1, start + 2]


def test_family_enumerate_refuses_past_the_sweep_cap(monkeypatch):
    """Past SWEEP_MAX_N the walk raises before it builds a single tree:
    at n = 9 it would build 46 234 of them before the first family."""
    from treepack import functree

    def refuse(*args, **kwargs):
        raise AssertionError("family_enumerate built a tree past the cap")

    monkeypatch.setattr(functree, "build_tree", refuse)
    for n in (SWEEP_MAX_N + 1, 300):  # no family count is formatted either
        t0 = time.perf_counter()
        with pytest.raises(BoundExceededError, match=f"exceeds the cap n <= {SWEEP_MAX_N}"):
            next(family_enumerate(n))
        assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize(
    "bad, match",
    [
        (lambda real, n: real((0, 2, 0), n), "semigroup form at vertex 1"),
        (lambda real, n: real((1, 1, 1), n), "rooted at 0"),
        (lambda real, n: real((0, 0), n), "component size 3"),
        (lambda real, n: real((0, 0, 1), n + 1), "lives in Z_4"),
    ],
)
def test_family_enumerate_checks_each_pool_tree(monkeypatch, bad, match):
    """The slot checks run once per prebuilt tree, so a tree that does
    not fit its slot stops the walk before any family is yielded or
    built.  ``build_tree`` is patched to hand back such a tree for the
    size-3 parent array (0, 0, 1)."""
    from treepack import functree

    real = functree.build_tree

    def swapped(parents, n=None):
        return bad(real, n) if tuple(parents) == (0, 0, 1) else real(parents, n)

    def never(n, trees):
        raise AssertionError("a family was built from an unchecked pool")

    monkeypatch.setattr(functree, "build_tree", swapped)
    monkeypatch.setattr(AugTreeFamily, "_checked", never)
    with pytest.raises(InvalidFamilyError, match=match):
        next(family_enumerate(3))


def test_star_family_and_generate_family():
    fam = star_family(6)
    assert all(t.map[: t.m] == (0,) * t.m for t in fam.trees)
    a = generate_family(7, "mixed", seed=4)
    b = generate_family(7, "mixed", seed=4)
    assert a == b
    assert a != generate_family(7, "mixed", seed=5)


@pytest.mark.parametrize("n", [True, 2.0])
def test_a_size_that_is_no_int_is_refused(n):
    """A bool size passed for an int and a float one raised a bare
    TypeError; every constructor, builder and generator refuses both, as
    `sweep` does."""
    cases = [
        lambda: Labeling(n=n, sigmas=((0,),) * int(n)),
        lambda: AugFuncTree(n=n, m=1, map=(0,) * int(n), root=0),
        lambda: AugFuncTree(n=2, m=n, map=(0, 1), root=0),
        lambda: AugTreeFamily(n=n, trees=(build_tree([0], 1),)),
        lambda: star_family(n),
        lambda: generate_family(n),
        lambda: generate("star", n),
        lambda: generate("star", 1, n),
        lambda: build_tree([0], n),
    ]
    for build in cases:
        with pytest.raises(BadSizeError):
            build()


def test_family_validation():
    t1 = build_tree([0], 3)
    t2 = build_tree([0, 0], 3)
    t3 = build_tree([0, 0, 1], 3)
    AugTreeFamily(n=3, trees=(t1, t2, t3))  # fine
    with pytest.raises(InvalidFamilyError):
        AugTreeFamily(n=3, trees=(t1, t2))  # missing a size
    with pytest.raises(InvalidFamilyError):
        AugTreeFamily(n=3, trees=(t1, t3, t2))  # sizes out of order
    with pytest.raises(InvalidFamilyError, match="semigroup form at vertex 1"):
        AugTreeFamily(n=3, trees=(t1, t2, build_tree([0, 2, 0], 3)))
    with pytest.raises(InvalidFamilyError, match="rooted at 0"):
        AugTreeFamily(n=3, trees=(t1, build_tree([1, 1], 3), t3))
    # the right size and root, but the component is {0, 2}, not Z_2
    off = AugFuncTree(n=3, m=2, map=(0, 1, 0), root=0)
    with pytest.raises(InvalidFamilyError, match="semigroup form at vertex 1"):
        AugTreeFamily(n=3, trees=(t1, off, t3))
    with pytest.raises(BadSizeError):
        AugTreeFamily(n=0, trees=())
    with pytest.raises(InvalidFamilyError, match="slot 1 is not an AugFuncTree"):
        AugTreeFamily(n=3, trees=(t1, t2.map, t3))


def test_slot_form_conjugates_root_to_k():
    fam = generate_family(6, "random-recursive", seed=8)
    for k in range(6):
        rooted = fam.slot_form(k)
        assert rooted.root == k
        assert rooted.map[k] == k
        assert sorted(rooted.component()) == list(range(k + 1))
        # conjugating back by the same swap recovers the stored tree
        swap = list(range(6))
        swap[0], swap[k] = k, 0
        assert conjugate(rooted.map, tuple(swap)) == fam.trees[k].map
    for k in (-1, 6, True, 1.0):
        with pytest.raises(OutOfRangeError):
            fam.slot_form(k)


def test_compiled_form_is_cached_and_invisible_to_equality():
    t = build_tree([0, 0, 1, 1, 0], 6)
    fresh = build_tree([0, 0, 1, 1, 0], 6)
    assert t.compiled() is t.compiled()
    assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)
    c = t.compiled()
    assert c.component == (0, 1, 2, 3, 4)
    assert c.order == (0, 1, 4, 2, 3)
    assert c.leaf_groups == ((2, 3),)
    # at slot 4 of Z_6 the larger slot's 6 steps come first
    assert c.parent_step == (-1, 6, 6, 7, 7)
    assert c.prev_leaf_step == (-1, -1, -1, -1, 9)
    # read at slot 4: the root moves to 4 and vertex 4 to 0
    assert c.arcs == ((4, 4), (1, 4), (2, 1), (3, 1), (0, 4))
    assert t.children(0) == (1, 4) and t.children(1) == (2, 3)
    assert t.children(2) == t.children(5) == ()


def _order_positions(c, g):
    """Along ``c.order``: the positions in ``order`` of each vertex's
    parent and of the previous member of its leaf-sibling group, -1 where
    there is none, derived from ``order``, the map ``g`` and
    ``leaf_groups``."""
    pos = {v: j for j, v in enumerate(c.order)}
    parent = [-1] + [pos[g[v]] for v in c.order[1:]]
    prev = [-1] * len(c.order)
    for group in c.leaf_groups:
        for a, b in zip(group, group[1:]):
            prev[pos[b]] = pos[a]
    return tuple(parent), tuple(prev)


def _search_rows(tree):
    """The engine rows of ``tree`` derived as the search once built them
    per family: the trees of sizes n, n-1, ..., m+1 are placed first, and
    this tree's steps follow in its breadth-first order.  ``steps`` lists
    them by slot position: vertex v sits at position (0 m-1)(v)."""
    c = tree.compiled()
    m = tree.m
    base = sum(range(m + 1, tree.n + 1))
    at = {v: base + j for j, v in enumerate(c.order)}
    position = {0: m - 1, m - 1: 0}
    steps = [at[v] for v in sorted(c.component, key=lambda v: position.get(v, v))]
    parent_pos, prev_leaf_pos = _order_positions(c, tree.map)
    parent = [p if p < 0 else base + p for p in parent_pos]
    prev = [p if p < 0 else base + p for p in prev_leaf_pos]
    return tuple(steps), tuple(parent), tuple(prev)


def test_compiled_engine_fields_match_the_per_family_derivation():
    """Every semigroup tree with m <= 6 in Z_6 and Z_9, every root-0 tree
    with m <= 5 in Z_6 (semigroup form or not), and seeded uniform trees
    at n = 24 and 40."""
    trees = []
    for n in (6, 9):
        for m in range(1, 7):
            for tail in itertools.product(*(range(u) for u in range(1, m))):
                trees.append(build_tree((0,) + tail, n))
    for m in range(2, 6):
        for tail in itertools.product(range(m), repeat=m - 1):
            try:
                trees.append(build_tree((0,) + tail, 6))
            except NotATreeError:
                pass
    for n in (24, 40):
        for seed in range(12):
            trees.append(generate("random-uniform", random.Random(seed).randint(1, n), n, seed))
    breaks = 0
    for t in trees:
        c = t.compiled()
        assert (c.steps, c.parent_step, c.prev_leaf_step) == _search_rows(t)
        groups = leaf_sibling_groups(t)
        assert c.leaf_swaps == math.prod(math.factorial(len(g)) for g in groups)
        upward = [u for u in range(1, t.m) if t.map[u] >= u]
        assert c.semigroup_break == (upward[0] if upward else 0)
        breaks += c.semigroup_break > 0
    assert len(trees) > 400 and breaks > 50
    # a family's rows number its steps 0..n(n+1)/2 - 1, each once
    fam = generate_family(9, "mixed", 4)
    steps = sorted(s for t in fam.trees for s in t.compiled().steps)
    assert steps == list(range(45))


def test_compile_matches_its_frozen_output_on_every_small_map():
    """Every AugFuncTree(n, m, g, r) with n <= 4: the digest covers each
    compiled field that predates the engine rows for the maps that build,
    and the exception type and message for those that are rejected.  The
    parent and previous-leaf positions, once fields of their own, are
    derived from ``order``, the map and ``leaf_groups`` where they stood,
    and the slot vertices and parents, once two fields, are unzipped from
    ``arcs``."""
    h = hashlib.sha256()
    built = 0
    for n in range(1, 5):
        for m in range(1, n + 1):
            for r in range(n):
                for g in itertools.product(range(n), repeat=n):
                    try:
                        c = AugFuncTree(n, m, g, r).compiled()
                    except Exception as e:
                        line = f"{n} {m} {r} {g} {type(e).__name__}: {e}"
                    else:
                        parent, prev = _order_positions(c, g)
                        row = (
                            c.component, c.order, parent, prev, c.leaf_groups,
                            tuple([v for v, _ in c.arcs]), tuple([p for _, p in c.arcs]),
                        )
                        line = f"{n} {m} {r} {g} {row!r}"
                        built += 1
                    h.update(line.encode() + b"\n")
    assert built == 139
    assert h.hexdigest() == "1b2cde41cd7e16b702b4f86989e8854e9eb9ae771395a76e85ad0c37b05d24bd"


def test_with_tree_replaces_one_slot():
    fam = star_family(4)
    path3 = build_tree([0, 0, 1], 4)
    out = fam.with_tree(2, path3)
    assert out.trees[2] == path3
    assert out.trees[3] == fam.trees[3]
    with pytest.raises(InvalidFamilyError):
        fam.with_tree(1, path3)  # wrong component size for the slot
    # a slot outside Z_4 or no int is refused, also with a tree that fits
    # the slot it would land in: -1 replaced the last slot, True slot 1
    path4 = build_tree([0, 0, 1, 2], 4)
    for k, t in ((-1, path4), (True, fam.trees[1]), (4, path4), (1.0, fam.trees[1])):
        with pytest.raises(OutOfRangeError):
            fam.with_tree(k, t)


def test_check_permutation_errors():
    from treepack.functree import check_permutation

    assert check_permutation([2, 0, 1], 3) == (2, 0, 1)
    with pytest.raises(NotAPermutationError):
        check_permutation([0, 0, 1], 3)
    with pytest.raises(NotAPermutationError):
        check_permutation([0, 1], 3)
