"""Completeness semantics, Phi enumeration, closure invariants."""

import itertools
import random
import time

import pytest

from treepack import (
    BadSizeError,
    DimensionMismatchError,
    EdgeOrientation,
    Labeling,
    NotAPermutationError,
    NotAutomorphismError,
    NotCompleteError,
    OutOfRangeError,
    build_tree,
    closure_check,
    diagonal_relabel,
    family_enumerate,
    generate_family,
    is_complete,
    orientation,
    phi_enumerate,
    star_family,
)
from treepack import _search, packing
from treepack._search import search
from treepack.functree import AugTreeFamily
from treepack.packing import full_count_multiplier
from treepack.solver import SolveConfig, pack, star_identity_labeling


def conjugate(g, gamma):
    """Relabel a self-map by a permutation: gamma(v) points to gamma(g(v))."""
    out = [0] * len(g)
    for v, w in enumerate(g):
        out[gamma[v]] = gamma[w]
    return tuple(out)


def root_at_k(family, k):
    """Slot k's map with its root moved to k, built here without the
    package's compiled slot arcs: conjugation by the transposition (0 k)."""
    swap = list(range(family.n))
    swap[0], swap[k] = swap[k], swap[0]
    return conjugate(family.trees[k].map, tuple(swap))


def oracle_arcs(family, labeling):
    """Every arc (sigma_k(v), sigma_k(g_k(v))) of the root-at-k trees."""
    arcs = set()
    for k in range(family.n):
        g = root_at_k(family, k)
        sig = labeling.sigmas[k]
        arcs.update((sig[v], sig[g[v]]) for v in range(k + 1))
    return arcs


def complete_oracle(family, labeling, classical=False):
    """Straight reimplementation of the tiling condition.

    Collect the unordered pair {sigma_k(v), sigma_k(g_k(v))} for every
    component vertex of every slot; complete means all pairs distinct and
    (in the looped reading) every one of the n(n+1)/2 pairs present.
    """
    n = family.n
    pairs = []
    for k in range(n):
        g = root_at_k(family, k)
        sig = labeling.sigmas[k]
        for v in range(k + 1):
            a, b = sig[v], sig[g[v]]
            pair = (min(a, b), max(a, b))
            if classical and a == b:
                continue
            pairs.append(pair)
    want = n * (n - 1) // 2 if classical else n * (n + 1) // 2
    return len(pairs) == want and len(set(pairs)) == want


def all_labelings(n):
    perms = list(itertools.permutations(range(n)))
    for combo in itertools.product(perms, repeat=n):
        yield Labeling(n=n, sigmas=combo)


# --- arcs and completeness ----------------------------------------------


def test_is_complete_matches_oracle_exhaustively_n3():
    for fam in family_enumerate(3):
        for lab in all_labelings(3):
            assert is_complete(fam, lab) == complete_oracle(fam, lab)
            assert is_complete(fam, lab, classical=True) == complete_oracle(
                fam, lab, classical=True
            )


def test_is_complete_matches_oracle_on_random_labelings():
    rng = random.Random(2024)
    for trial in range(200):
        n = rng.randrange(2, 9)
        fam = generate_family(n, "mixed", seed=trial)
        sig = []
        for _ in range(n):
            row = list(range(n))
            rng.shuffle(row)
            sig.append(tuple(row))
        lab = Labeling(n=n, sigmas=tuple(sig))
        assert is_complete(fam, lab) == complete_oracle(fam, lab)


def test_mask_cache_filled_in_one_mode_answers_the_other():
    """A chunk's slot masks hold each slot's root loop, so masks stored
    while verifying in one mode give the other mode's verdict, the
    oracle's.  Every labeling of every family with n <= 3, and the Phi
    members of two n = 4 families with different tails, checked against
    both families, filling in loop mode and then classical, and the
    other way round."""
    cases = [(fam, list(all_labelings(n))) for n in (1, 2, 3) for fam in family_enumerate(n)]
    fams = list(family_enumerate(4))
    a, b = fams[0], fams[6]
    assert a.trees[:-1] != b.trees[:-1]
    labs = phi_enumerate(a)[0] + phi_enumerate(b)[0]
    cases += [(a, labs), (b, labs)]
    verdicts = set()
    for fill in (False, True):
        for fam, labelings in cases:
            tables = _search.ChunkTables()
            pack(fam, SolveConfig(classical_mode=fill), _tables=tables)
            assert tables.tail == fam.trees[:-1]
            for classical in (fill, not fill):
                for lab in labelings:
                    want = complete_oracle(fam, lab, classical)
                    assert is_complete(fam, lab, classical, _tables=tables) == want
                    verdicts.add((classical, want))
            assert all(tables.masks)  # both modes read the stored masks
    assert len(verdicts) == 4


def test_a_clash_inside_one_slot_fails_in_both_modes(monkeypatch):
    """A slot whose own arcs cover one edge twice has mask -1, which no
    tree's arcs give, so a stand-in `_slot_mask` plants it.  `is_complete`
    refuses it at slot 0, whose one loop bit meets no other mask, at a
    middle tail slot and at the largest slot, in both modes: without
    tables, with cold tables, and, for a tail slot, with the -1 stored in
    warm tables.  At n <= 2 the largest slot may meet no kept bit at all,
    so only the sign test can refuse it there."""
    real = packing._slot_mask
    fams = [generate_family(5, "mixed", 11), *family_enumerate(2), *family_enumerate(1)]
    for fam, classical in itertools.product(fams, (False, True)):
        n = fam.n
        cfg = SolveConfig(classical_mode=classical)
        lab = pack(fam, cfg).labeling
        for k in sorted({0, n // 2, n - 1}):
            tree = fam.trees[k]
            with monkeypatch.context() as patch:
                patch.setattr(
                    packing, "_slot_mask", lambda t, sig, n: -1 if t is tree else real(t, sig, n)
                )
                assert not is_complete(fam, lab, classical)
                tables = _search.ChunkTables()
                _search._retarget(tables, n, fam.trees[:-1])
                assert not is_complete(fam, lab, classical, _tables=tables)
            tables = _search.ChunkTables()
            pack(fam, cfg, _tables=tables)
            assert is_complete(fam, lab, classical, _tables=tables)
            if k < n - 1:
                tables.masks[k][lab.sigmas[k]] = -1
                assert not is_complete(fam, lab, classical, _tables=tables)


def test_solver_output_passes_oracle():
    for seed in range(20):
        fam = generate_family(7, "random-uniform", seed=seed)
        res = pack(fam)
        assert res.status == "packed"
        assert complete_oracle(fam, res.labeling)


def test_star_identity_is_complete_up_to_30():
    for n in range(1, 31):
        assert is_complete(star_family(n), star_identity_labeling(n))


def test_classical_mode_ignores_loop_collisions():
    # slot 0 puts its loop on 0, slot 1 (sigma = swap) puts its loop on 0
    # too: dead in the looped reading, fine classically since the single
    # proper edge {0,1} is all that is asked for
    fam = star_family(2)
    lab = Labeling(n=2, sigmas=((0, 1), (1, 0)))
    assert not is_complete(fam, lab)
    assert is_complete(fam, lab, classical=True)
    assert complete_oracle(fam, lab, classical=True)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        is_complete(star_family(3), star_identity_labeling(4))


# --- orientation --------------------------------------------------------


def test_orientation_arcs_and_not_complete():
    fam = star_family(3)
    orient = orientation(fam, star_identity_labeling(3))
    assert len(orient.arcs) == 6
    assert orient.sorted_arcs() == sorted(orient.arcs)
    bad = Labeling(n=3, sigmas=((1, 0, 2), (0, 1, 2), (0, 1, 2)))
    if not is_complete(fam, bad):
        with pytest.raises(NotCompleteError):
            orientation(fam, bad)
    with pytest.raises(DimensionMismatchError):
        orientation(fam, star_identity_labeling(4))


@pytest.mark.parametrize("n", [5, 9, 12])
def test_orientation_arcs_match_independent_arcs(n):
    for seed in range(5):
        fam = generate_family(n, "mixed", seed=seed)
        lab = pack(fam).labeling
        assert orientation(fam, lab).arcs == oracle_arcs(fam, lab)


def test_edge_orientation_validation():
    EdgeOrientation(n=2, arcs=frozenset({(0, 0), (1, 0), (1, 1)}))
    with pytest.raises(NotCompleteError):
        EdgeOrientation(n=2, arcs=frozenset({(0, 0), (1, 1)}))  # missing pair
    with pytest.raises(NotCompleteError):
        EdgeOrientation(n=2, arcs=frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
    # int() would truncate these to the complete orientation {(0,0), (1,0), (1,1)}
    with pytest.raises(NotCompleteError):
        EdgeOrientation(n=2, arcs=frozenset({(0.7, 0), (1, 1), (True, 0.2)}))
    for bad in ((1.0, 0), (1, False), (True, 0)):
        with pytest.raises(NotCompleteError):
            EdgeOrientation(n=2, arcs=frozenset({(0, 0), bad, (1, 1)}))
    # the size is checked first, through the check every public type shares
    for n, arcs in (
        (True, {(0, 0)}),
        (0, set()),
        (2.0, {(0, 0), (1, 0), (1, 1)}),
        ("3", set()),
    ):
        with pytest.raises(BadSizeError):
            EdgeOrientation(n=n, arcs=frozenset(arcs))


# --- Phi ----------------------------------------------------------------


def test_is_complete_refuses_a_classical_that_is_no_bool():
    """"no" and 1 ran the classical check, 0 and None the loop one."""
    fam = star_family(3)
    lab = star_identity_labeling(3)
    for classical in ("no", 1, 0, None):
        with pytest.raises(ValueError, match="classical must be a bool"):
            is_complete(fam, lab, classical=classical)
    assert is_complete(fam, lab, classical=False) and is_complete(fam, lab, classical=True)


def test_phi_enumerate_against_brute_force():
    """Independent derivation: filter every labeling of Z_3 through the
    oracle, collapse to the essential injection prefixes, compare."""
    for fam in family_enumerate(3):
        members, count = phi_enumerate(fam, mode="essential")
        assert count == len(members)
        brute = set()
        for lab in all_labelings(3):
            if complete_oracle(fam, lab):
                brute.add(tuple(lab.sigmas[k][: k + 1] for k in range(3)))
        assert {
            tuple(m.sigmas[k][: k + 1] for k in range(3)) for m in members
        } == brute
        assert len(members) == len(brute)


def brute_essential_members(family):
    """Every essential complete labeling, found slot by slot: each
    injection of slot k's component Z_(k+1) into Z_n is kept unless one
    of its edges, loop or pair, repeats an edge of its own or of an
    earlier slot.  The n(n+1)/2 edges of a full row are then all of
    looped K_n.  Each slot is its head followed by the ascending fill."""
    n = family.n
    maps = [root_at_k(family, k) for k in range(n)]
    rows = []

    def extend(k, used, row):
        if k == n:
            rows.append(row)
            return
        for head in itertools.permutations(range(n), k + 1):
            edges = {tuple(sorted((head[v], head[maps[k][v]]))) for v in range(k + 1)}
            if len(edges) == k + 1 and not edges & used:
                fill = tuple(x for x in range(n) if x not in head)
                extend(k + 1, used | edges, row + (head + fill,))

    extend(0, frozenset(), ())
    return rows


def test_phi_enumerate_matches_slot_by_slot_brute_force_n4():
    """On every family of Z_4 the members, sorted, are the rows the
    slot-by-slot brute force keeps.  The pruned search that phi_enumerate
    expands re-emits rows at boundary memo hits on these families, and on
    no family of Z_3."""
    for fam in family_enumerate(4):
        members, count = phi_enumerate(fam)
        assert sorted(m.sigmas for m in members) == sorted(brute_essential_members(fam))
        assert count == len(members)


def test_phi_full_count_multiplier():
    fam = next(family_enumerate(3))
    _, essential = phi_enumerate(fam, mode="essential")
    assert full_count_multiplier(3) == 2  # prod (n-k-1)! = 2!*1!*0!
    full = sum(complete_oracle(fam, lab) for lab in all_labelings(3))
    assert full == essential * full_count_multiplier(3)


def test_phi_members_are_complete_and_sorted():
    """The members are complete, and distinct: sorted, each is below the next."""
    fam = next(family_enumerate(4))
    members, _ = phi_enumerate(fam, mode="essential")
    assert all(is_complete(fam, m) for m in members)
    keys = sorted(m.sigmas for m in members)
    assert all(a < b for a, b in zip(keys, keys[1:]))


def relabel_increasing(tree, rng):
    """Isomorphic copy of a semigroup-form tree under a random increasing
    labeling: every parent labeled below its children."""
    kids = [[] for _ in range(tree.m)]
    for v in range(1, tree.m):
        kids[tree.map[v]].append(v)
    label = [0] * tree.m
    ready = list(kids[0])
    for fresh in range(1, tree.m):
        v = ready.pop(rng.randrange(len(ready)))
        label[v] = fresh
        ready.extend(kids[v])
    parents = [0] * tree.m
    for v in range(1, tree.m):
        parents[label[v]] = label[tree.map[v]]
    return build_tree(parents, tree.n)


def test_phi_members_are_the_engine_rows_sorted():
    """phi_enumerate lists the pruned search's orbits, and its members,
    sorted, must be the unpruned search's rows sorted as tuples.  The
    inputs are every family with n <= 4 and n = 5 families with many and
    few leaf orders per root-pinned row: the star family (288), two
    caterpillar families (144 and 4), another (2) and a mixed one (1).
    Twelve n = 5 families relabeled by random increasing labelings
    follow, four of them with 12 to 48 leaf orders, so that the slot
    permutations are not only those of the semigroup labels.  On every
    family the count is the pruned search's count times its symmetry
    factor: 5! relabelings of the identity-pinned largest tree times the
    tail's leaf orders."""
    families = [fam for n in range(1, 5) for fam in family_enumerate(n)]
    named = [
        generate_family(5, "star", 0),
        generate_family(5, "caterpillar", 1),
        generate_family(5, "caterpillar", 0),
        generate_family(5, "caterpillar", 2),
        generate_family(5, "mixed", 0),
    ]
    rng = random.Random(2024)
    relabeled = []
    for s in itertools.count():
        base = generate_family(5, "mixed", s)
        fam = AugTreeFamily(n=5, trees=tuple(relabel_increasing(t, rng) for t in base.trees))
        if fam != base:  # some shapes have one increasing labeling only
            relabeled.append(fam)
            if len(relabeled) == 8:
                break
    # 48, 24, 12 and 24 leaf orders, and more than one increasing labeling
    for s in (7, 12, 14, 26):
        base = fam = generate_family(5, "mixed", s)
        while fam == base:
            fam = AugTreeFamily(n=5, trees=tuple(relabel_increasing(t, rng) for t in base.trees))
        relabeled.append(fam)
    factors = []
    for fam in families + named + relabeled:
        out = search(fam, symmetry_pruning=False, first_only=False)
        members, count = phi_enumerate(fam)
        assert sorted(m.sigmas for m in members) == sorted(out.solutions)
        assert count == len(set(out.solutions))
        pruned = search(fam, first_only=False)
        assert count == len(pruned.solutions) * pruned.symmetry_factor
        factors.append(pruned.symmetry_factor)
    # the named families, each times the 5! relabelings, then the
    # high-order copies, whose tails hold 2, 12, 6 and 12 leaf orders
    assert factors[len(families) : len(families) + 5] == [120 * 12, 120 * 6, 120 * 2, 120, 120]
    assert factors[-4:] == [120 * 2, 120 * 12, 120 * 6, 120 * 12]


def test_phi_members_come_one_rotation_at_a_time():
    """The listing is n blocks of equal length, block r being block 0
    with every slot head turned by x -> x + r and the fill re-sorted."""

    def turned(sigmas, r, n):
        out = []
        for k, sig in enumerate(sigmas):
            head = tuple((x + r) % n for x in sig[: k + 1])
            out.append(head + tuple(x for x in range(n) if x not in head))
        return tuple(out)

    families = [fam for n in (3, 4) for fam in family_enumerate(n)]
    families += [generate_family(5, "star", 0), generate_family(5, "mixed", 1)]
    for fam in families:
        n = fam.n
        members, count = phi_enumerate(fam)
        size = count // n
        assert size * n == count
        first = [m.sigmas for m in members[:size]]
        for r in range(n):
            block = [m.sigmas for m in members[r * size : (r + 1) * size]]
            assert block == [turned(sigmas, r, n) for sigmas in first]


def test_phi_members_equal_publicly_built_labelings():
    """Members skip the public constructor's per-slot check; each must
    still be the labeling that constructor builds from the same slots."""
    families = [fam for n in range(1, 5) for fam in family_enumerate(n)]
    families += [generate_family(5, "mixed", s) for s in (0, 1)]
    for fam in families:
        members, _ = phi_enumerate(fam, mode="essential")
        for m in members:
            assert m == Labeling(n=m.n, sigmas=m.sigmas)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda images: [images[0]] * len(images),
        lambda images: [True if x == 1 else x for x in images],
    ],
    ids=["repeated-value", "bool-label"],
)
def test_phi_enumerate_checks_each_slot_permutation(monkeypatch, corrupt):
    """The engine checks each slot permutation where it builds it, and
    pack and phi_enumerate trust only that: bad images fed to the build
    helper must fail there, not reach a labeling unchecked."""
    from treepack import _search

    real = _search._slot_permutations
    monkeypatch.setattr(
        _search,
        "_slot_permutations",
        lambda images, slot_steps, known: real(corrupt(images), slot_steps, known),
    )
    fam = next(family_enumerate(3))
    with pytest.raises(NotAPermutationError):
        pack(fam)
    with pytest.raises(NotAPermutationError):
        phi_enumerate(fam, mode="essential")


def test_phi_enumerate_checks_each_distinct_slot_permutation_once(monkeypatch):
    """phi_enumerate checks each distinct (slot, permutation) once per
    call, in the pruned search and in the expansion by leaf swaps and
    rotations together, and lists the same members: the counts and the
    digest of the sorted listing are those of the unpruned search that
    rebuilt every slot at every memo hit.  Every check_permutation call of either module counts.
    pack still checks each of its n slots."""
    import hashlib

    from treepack import functree

    calls = 0
    real = functree.check_permutation

    def counting(p, n):
        nonlocal calls
        calls += 1
        return real(p, n)

    for module in (_search, packing):
        monkeypatch.setattr(module, "check_permutation", counting)
    counts, rows, distinct = [], [], 0
    for s in range(8):
        members, count = phi_enumerate(generate_family(5, "mixed", s))
        counts.append(count)
        rows.append(sorted(m.sigmas for m in members))
        distinct += len({(k, sig) for m in members for k, sig in enumerate(m.sigmas)})
    assert counts == [4080, 5760, 9120, 1920, 7440, 4080, 17280, 17280]
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == "94cb66f00340eb1e"
    assert calls == distinct == 2600
    calls = 0
    pack(generate_family(5, "mixed", 0))
    assert calls == 5


@pytest.mark.parametrize("classical", [False, True])
@pytest.mark.parametrize("pruning", [False, True])
def test_engine_rows_are_checked_slot_permutations(pruning, classical):
    """On every family with n <= 4, each engine row is a labeling whose
    slot k is an exact-int permutation with positions k+1.. filled
    ascending, and which the oracle, reading the root-at-k trees without
    the compiled slot arcs, finds complete: each head holds the images by
    slot position.  Rows are distinct, the pruned ones account for the
    unpruned through the symmetry factor and hold the identity in the
    largest slot, and pack's labeling relabels to one of them: composed
    on the left with the inverse of its largest slot, each tail leaf
    group's images sorted, it is a pruned row."""
    from treepack._search import search

    def identity_pinned(fam, sigmas):
        n = fam.n
        inverse = [0] * n
        for p, x in enumerate(sigmas[-1]):
            inverse[x] = p
        out = []
        for k, (tree, sig) in enumerate(zip(fam.trees, sigmas)):
            head = [inverse[x] for x in sig[: k + 1]]
            c = tree.compiled()
            for grp in c.leaf_groups if k < n - 1 else ():  # the tail's groups
                at = [c.arcs[v][0] for v in grp]  # the leaves' slot positions
                for p, x in zip(at, sorted(head[p] for p in at)):
                    head[p] = x
            out.append(tuple(head) + tuple(x for x in range(n) if x not in head))
        return tuple(out)

    rows = 0
    for n in range(1, 5):
        for fam in family_enumerate(n):
            out = search(fam, symmetry_pruning=pruning, classical=classical, first_only=False)
            assert len(set(out.solutions)) == len(out.solutions) > 0
            for row in out.solutions:
                assert type(row) is tuple and len(row) == n
                for k, sig in enumerate(row):
                    assert type(sig) is tuple and {type(x) for x in sig} == {int}
                    assert sorted(sig) == list(range(n))
                    assert list(sig[k + 1:]) == sorted(sig[k + 1:])
                assert complete_oracle(fam, Labeling(n=n, sigmas=row), classical)
                rows += 1
            if pruning:
                full = search(fam, symmetry_pruning=False, classical=classical, first_only=False)
                assert len(out.solutions) * out.symmetry_factor == len(full.solutions)
                assert {row[-1] for row in out.solutions} == {tuple(range(n))}
                first = pack(fam, SolveConfig(classical_mode=classical))
                assert identity_pinned(fam, first.labeling.sigmas) in set(out.solutions)
    assert rows > 12


def test_phi_enumerate_bounds():
    """Past n = 6, and past PHI_MEMBER_CAP members, the listing is refused.
    The member count is known once the pruned search returns, so
    star_family(6), whose 120 orbits hold 24 883 200 members, is refused
    at once with its count; the cap still admits the mixed n = 6 family
    the docs measure, whose pruned search lists 1 688 rows, one per
    relabeling class, in 16 839 nodes."""
    from treepack import BoundExceededError

    with pytest.raises(BoundExceededError):
        phi_enumerate(star_family(7), mode="essential")
    t0 = time.process_time()
    with pytest.raises(BoundExceededError, match="would list 24883200 members"):
        phi_enumerate(star_family(6), mode="essential")
    assert time.process_time() - t0 < 1.0
    pruned = search(generate_family(6, "mixed", 3), first_only=False)
    assert (len(pruned.solutions), pruned.nodes) == (1688, 16839)
    assert len(pruned.solutions) * pruned.symmetry_factor == 1_215_360 <= packing.PHI_MEMBER_CAP
    with pytest.raises(ValueError, match="unknown phi_enumerate mode"):
        phi_enumerate(star_family(3), mode="full-count")
    with pytest.raises(ValueError, match="unknown phi_enumerate mode"):
        phi_enumerate(star_family(3), mode="full")


# --- closure ------------------------------------------------------------


def test_closure_under_leaf_transposition():
    """Swapping two sibling leaves of one slot keeps completeness."""
    fam = star_family(3)
    lab = star_identity_labeling(3)
    # slot 2's star rooted at 2 has leaves 0 and 1
    assert closure_check(fam, lab, (1, 0, 2), slot=2)


def test_closure_rejects_non_automorphism():
    fam = star_family(3)
    lab = star_identity_labeling(3)
    with pytest.raises(NotAutomorphismError):
        closure_check(fam, lab, (0, 2, 1), slot=2)  # moves the component
    # (1 0) commutes with slot 0's map, the identity on Z_2, but moves its
    # component {0}
    with pytest.raises(NotAutomorphismError, match="component"):
        closure_check(star_family(2), star_identity_labeling(2), (1, 0), slot=0)
    # a genuine symmetry, but the input labeling is not complete
    incomplete = Labeling(n=3, sigmas=((1, 0, 2), (0, 1, 2), (0, 1, 2)))
    assert not is_complete(fam, incomplete)
    with pytest.raises(NotCompleteError):
        closure_check(fam, incomplete, (1, 0, 2), slot=2)


def test_closure_check_refuses_slots_outside_the_family():
    fam = star_family(3)
    lab = star_identity_labeling(3)
    for slot in (-1, 3, True, 1.0):
        with pytest.raises(OutOfRangeError):
            closure_check(fam, lab, (0, 1, 2), slot=slot)


def test_closure_check_verdicts_follow_the_slot_form_definition():
    """Every family with n <= 4, every slot and every tau in S_n, against
    a complete member: closure_check refuses tau exactly when tau does
    not commute with the root-at-k tree or moves its component, read off
    ``slot_form``, and otherwise the composed labeling is complete."""
    refused = accepted = 0
    for n in range(1, 5):
        for fam in family_enumerate(n):
            lab = phi_enumerate(fam)[0][0]
            for k in range(n):
                rooted = fam.slot_form(k)
                comp = set(rooted.component())
                for tau in itertools.permutations(range(n)):
                    commutes = conjugate(rooted.map, tau) == rooted.map
                    keeps = {tau[v] for v in comp} == comp
                    if not (commutes and keeps):
                        with pytest.raises(NotAutomorphismError):
                            closure_check(fam, lab, tau, slot=k)
                        refused += 1
                        continue
                    assert closure_check(fam, lab, tau, slot=k)
                    sigmas = list(lab.sigmas)
                    sigmas[k] = tuple(lab.sigmas[k][t] for t in tau)
                    assert complete_oracle(fam, Labeling(n=n, sigmas=tuple(sigmas)))
                    accepted += 1
    assert (refused, accepted) == (1043, 150)


def test_closure_exhaustive_small():
    """Every Phi member of every n=3 family, every sibling-leaf swap."""
    from treepack.functree import leaf_sibling_groups

    for fam in family_enumerate(3):
        members, _ = phi_enumerate(fam, mode="essential")
        for lab in members:
            for k in range(3):
                rooted = fam.slot_form(k)
                for grp in leaf_sibling_groups(rooted):
                    for a, b in itertools.combinations(grp, 2):
                        tau = list(range(3))
                        tau[a], tau[b] = tau[b], tau[a]
                        assert closure_check(fam, lab, tuple(tau), slot=k)


def test_diagonal_relabel_preserves_completeness():
    rng = random.Random(77)
    for seed in range(15):
        fam = generate_family(6, "mixed", seed=seed)
        res = pack(fam)
        gamma = list(range(6))
        rng.shuffle(gamma)
        moved = diagonal_relabel(res.labeling, tuple(gamma))
        assert is_complete(fam, moved)
        # the composed slots skip the check, so they must equal what the
        # checked public constructor builds
        public = Labeling(
            n=6, sigmas=tuple(tuple(gamma[x] for x in sig) for sig in res.labeling.sigmas)
        )
        assert moved == public
    lab = star_identity_labeling(3)
    for bad in ((0, 0, 1), (True, 0), (True, False, 2)):
        with pytest.raises(NotAPermutationError):
            diagonal_relabel(lab, bad)


def test_labeling_validation():
    with pytest.raises(NotAPermutationError):
        Labeling(n=2, sigmas=((0, 0), (0, 1)))
    # bools and floats compare equal to labels but are not labels
    for bad in ((True, False), (1.0, 0)):
        with pytest.raises(NotAPermutationError):
            Labeling(n=2, sigmas=((0, 1), bad))
    with pytest.raises(DimensionMismatchError):
        Labeling(n=3, sigmas=((0, 1, 2),))
    # a labeling on Z_0 is refused, as a family on Z_0 is
    with pytest.raises(BadSizeError):
        Labeling(n=0, sigmas=())


def test_labeling_escape_hatches_still_check():
    """Labeling is a NamedTuple, so `_make` and `_replace` could build one
    without the constructor; both go through its checks.  Keyword
    construction, repr and equality are those of the frozen record it
    replaces, and it equals the plain tuple of its fields."""
    with pytest.raises(NotAPermutationError):
        Labeling._make((2, ((0, 0), (1, 0))))
    with pytest.raises(DimensionMismatchError):
        Labeling._make((3, ((0, 1, 2),)))
    lab = Labeling(n=2, sigmas=([0, 1], (1, 0)))
    with pytest.raises(NotAPermutationError):
        lab._replace(sigmas=((0, 1), (1, 1)))
    with pytest.raises(BadSizeError):
        lab._replace(n=True)
    assert lab._replace(sigmas=((1, 0), (0, 1))) == Labeling(2, ((1, 0), (0, 1)))
    assert repr(lab) == "Labeling(n=2, sigmas=((0, 1), (1, 0)))"
    assert lab == Labeling(n=2, sigmas=((0, 1), (1, 0))) == (2, ((0, 1), (1, 0)))
    assert lab != Labeling(n=2, sigmas=((1, 0), (0, 1)))
    assert hash(lab) == hash(Labeling(n=2, sigmas=((0, 1), (1, 0))))
    n, sigmas = lab
    assert (n, sigmas) == (lab.n, lab.sigmas)
    for fam in (generate_family(5, "mixed", 0), star_family(4)):  # key sort, merge
        members, _ = phi_enumerate(fam)
        assert all(type(m) is Labeling for m in members)
