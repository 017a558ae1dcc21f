"""Completeness semantics, Phi enumeration, closure invariants."""

import itertools
import random

import pytest

from treepack import (
    DimensionMismatchError,
    EdgeOrientation,
    Labeling,
    NotAPermutationError,
    NotAutomorphismError,
    NotCompleteError,
    closure_check,
    conjugate,
    diagonal_relabel,
    family_enumerate,
    generate_family,
    induced_edges,
    is_complete,
    orientation,
    phi_enumerate,
    star_family,
)
from treepack.packing import full_count_multiplier
from treepack.solver import SolveConfig, pack, star_identity_labeling


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


def test_induced_edges_star_slot():
    fam = star_family(4)
    arcs = induced_edges(fam.slot_form(2), (3, 1, 0, 2))
    # component 0,1,2 of the root-at-2 star: everything points at 2 -> 0
    assert arcs == [(3, 0), (1, 0), (0, 0)]


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
        is_complete(star_family(3), Labeling.identity(4))


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
        orientation(fam, Labeling.identity(4))


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


# --- Phi ----------------------------------------------------------------


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


def test_phi_full_count_multiplier():
    fam = next(family_enumerate(3))
    _, essential = phi_enumerate(fam, mode="essential")
    assert full_count_multiplier(3) == 2  # prod (n-k-1)! = 2!*1!*0!
    full = sum(complete_oracle(fam, lab) for lab in all_labelings(3))
    assert full == essential * full_count_multiplier(3)


def test_phi_members_are_complete_and_sorted():
    fam = next(family_enumerate(4))
    members, _ = phi_enumerate(fam, mode="essential")
    assert all(is_complete(fam, m) for m in members)
    keys = [m.sigmas for m in members]
    assert keys == sorted(keys)


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
        lambda images, slot_steps, n: real(corrupt(images), slot_steps, n),
    )
    fam = next(family_enumerate(3))
    with pytest.raises(NotAPermutationError):
        pack(fam)
    with pytest.raises(NotAPermutationError):
        phi_enumerate(fam, mode="essential")


@pytest.mark.parametrize("classical", [False, True])
@pytest.mark.parametrize("pruning", [False, True])
def test_engine_rows_are_checked_slot_permutations(pruning, classical):
    """On every family with n <= 4, each engine row is a labeling whose
    slot k is an exact-int permutation with positions k+1.. filled
    ascending, and which the oracle, reading the root-at-k trees without
    the compiled slot arcs, finds complete: each head holds the images by
    slot position.  Rows are distinct, the pruned ones account for the
    unpruned through the symmetry factor, and pack returns the first row."""
    from treepack._search import search

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
                first = pack(fam, SolveConfig(classical_mode=classical))
                assert first.labeling.sigmas == out.solutions[0]
    assert rows > 12


def test_phi_enumerate_bounds():
    from treepack import BoundExceededError

    with pytest.raises(BoundExceededError):
        phi_enumerate(star_family(7), mode="essential")
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
