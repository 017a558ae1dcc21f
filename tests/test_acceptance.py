"""Release gate: one test per numbered criterion, end to end.

Each criterion gets exactly one test function so a verbose run prints one
pass/fail line per criterion.  Time bounds are part of the contract and
are asserted with `time.perf_counter`; they are generous enough to ignore
scheduler jitter but tight enough to catch algorithmic regressions.
Everything is exact integer/rational arithmetic — no numeric tolerances
anywhere.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations, permutations, product

from treepack import (
    PACKED,
    Labeling,
    SparsePoly,
    canonical_rep,
    certificate_eval,
    closure_check,
    composition_implication_check,
    diagonal_relabel,
    family_enumerate,
    generate_family,
    is_complete,
    lagrange_basis,
    leaf_sibling_groups,
    monomial_support_check,
    orientation,
    pack,
    phi_enumerate,
    star_family,
    star_identity_labeling,
    sweep,
    variable_dependency_check,
    vertex_poly_eval,
)
from treepack.certificate import _phi_full
from treepack.packing import full_count_multiplier

# Loops at every vertex plus each pair oriented low-to-high: the n=4 star
# family under identity labels, one slot per loop.
STAR4_ARCS = {
    (0, 0), (0, 1), (0, 2), (0, 3),
    (1, 1), (1, 2), (1, 3),
    (2, 2), (2, 3),
    (3, 3),
}

FAMILY_COUNTS = {3: 2, 4: 12, 5: 288, 6: 34560}  # prod (m-1)! over sizes


def test_criterion_01_star_families_pack_under_identity():
    t0 = time.perf_counter()
    for n in range(1, 101):
        assert is_complete(star_family(n), star_identity_labeling(n))
    arcs = orientation(star_family(4), star_identity_labeling(4)).sorted_arcs()
    assert set(arcs) == STAR4_ARCS
    assert len(arcs) == 10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 01: stars n=1..100 complete, n=4 arcs frozen ({elapsed:.2f}s)")


def test_criterion_02_every_small_family_packs():
    t0 = time.perf_counter()
    for n, total in FAMILY_COUNTS.items():
        report = sweep(n)  # workers=1: the time bound is single-threaded
        assert report.total == total
        assert report.packed == total
        assert report.exhausted == 0
        assert report.timed_out == 0
        if n == 6:  # 0.8-1.9 s, -X dev or not: 1.6x over the slowest
            assert report.elapsed_ms < 3_000
    elapsed = time.perf_counter() - t0
    print(f"criterion 02: 34562 families packed, n<=6 exhaustive ({elapsed:.1f}s)")


def test_criterion_03_certificate_vanishes_off_phi_exactly():
    t0 = time.perf_counter()
    perms = list(permutations(range(3)))
    for fam in family_enumerate(3):
        nonzero = 0
        for triple in product(perms, repeat=3):
            value = certificate_eval(fam, triple)
            member = is_complete(fam, Labeling(n=3, sigmas=triple))
            assert (not value.is_zero()) == member
            nonzero += member
        _, essential = phi_enumerate(fam, mode="essential")
        # the nonvanishing count is the size of Phi
        assert nonzero == essential * full_count_multiplier(3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 03: 432 evaluations match membership exactly ({elapsed:.2f}s)")


def test_criterion_04_canonical_rep_matches_independent_expansion():
    # Oracle side: expand the closed form with a standalone dict-based
    # polynomial multiplier over exponent vectors (x00, x01, x10, x11, y);
    # nothing below touches SparsePoly arithmetic.
    def mul(a, b):
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                key = tuple(i + j for i, j in zip(ma, mb))
                out[key] = out.get(key, 0) + ca * cb
        return {m: c for m, c in out.items() if c}

    def add(a, b):
        out = dict(a)
        for m, c in b.items():
            out[m] = out.get(m, 0) + c
        return {m: c for m, c in out.items() if c}

    def unit(i):
        return tuple(1 if j == i else 0 for j in range(5))

    x = lambda i: {unit(i): 1}
    one_minus = lambda i: {(0,) * 5: 1, unit(i): -1}
    # interpolating through 0 and 1 only: the basis factors are x and 1-x
    basis_id = mul(mul(one_minus(0), x(1)), mul(one_minus(2), x(3)))
    basis_swap = mul(mul(x(0), one_minus(1)), mul(x(2), one_minus(3)))
    two_y2_minus_y = {(0, 0, 0, 0, 2): 2, (0, 0, 0, 0, 1): -1}
    two_y2_minus_3y_plus_1 = {(0, 0, 0, 0, 2): 2, (0, 0, 0, 0, 1): -3, (0,) * 5: 1}
    oracle = add(mul(two_y2_minus_y, basis_id), mul(two_y2_minus_3y_plus_1, basis_swap))

    fam = next(family_enumerate(2))
    rep = canonical_rep(fam, mode="phi-sum")
    assert rep == canonical_rep(fam, mode="lattice")  # term-for-term
    assert not rep.is_zero()

    got = {}
    for mono, coef in rep.terms.items():
        exps = [0] * 5
        for vid, e in mono:
            exps[vid] = e
        assert coef.denominator == 1
        got[tuple(exps)] = coef.numerator
    assert got == oracle
    print("criterion 04: n=2 canonical form == hand-expanded closed form")


def test_criterion_05_vandermonde_magnitude_is_constant_on_permutations():
    t0 = time.perf_counter()
    want3 = (math.factorial(1) * math.factorial(2)) ** 3
    for triple in product(permutations(range(3)), repeat=3):
        assert abs(vertex_poly_eval(triple)) == want3
    want5 = math.prod(math.factorial(j) for j in range(1, 5)) ** 5
    rng = random.Random(271828)
    checked = 0
    for _ in range(1000):
        point = []
        for _ in range(5):
            row = list(range(5))
            rng.shuffle(row)
            point.append(tuple(row))
        assert abs(vertex_poly_eval(tuple(point))) == want5
        checked += 1
    elapsed = time.perf_counter() - t0
    print(f"criterion 05: 216 exhaustive + {checked} sampled magnitudes ({elapsed:.2f}s)")


def test_criterion_06_basis_monomials_touch_almost_every_variable():
    for sig in permutations(range(3)):
        assert monomial_support_check(sig)
        expanded = lagrange_basis(sig, expand=True)
        skippable = sig.index(0)
        for mono in expanded.terms:
            seen = {vid for vid, _ in mono}
            assert len(seen) >= 2
            assert set(range(3)) - seen <= {skippable}
    print("criterion 06: all 6 expanded bases show the support pattern")


def test_criterion_07_reduced_powers_add_no_variables():
    rng = random.Random(424243)
    for trial in range(50):
        vids = rng.sample(range(9), rng.randrange(1, 9))  # proper subset
        p = SparsePoly.zero(3)
        for _ in range(rng.randrange(2, 6)):
            coef = Fraction(rng.choice([c for c in range(-5, 6) if c]), rng.randrange(1, 4))
            term = SparsePoly.const(3, coef)
            for vid in rng.sample(vids, rng.randrange(1, min(3, len(vids)) + 1)):
                term = term * SparsePoly.variable(3, vid) ** rng.randrange(1, 4)
            p = p + term
        assert variable_dependency_check(p, rng.choice((2, 3)))
    print("criterion 07: 50 random polynomials, powers 2 and 3, all closed")


def test_criterion_08_complete_labelings_closed_under_symmetries():
    t0 = time.perf_counter()
    taus_checked = relabels_checked = 0
    for n in (1, 2, 3, 4):
        gammas = list(permutations(range(n)))
        for fam in family_enumerate(n):
            taus = []
            for k in range(n):
                for group in leaf_sibling_groups(fam.slot_form(k)):
                    for u, v in combinations(group, 2):
                        t = list(range(n))
                        t[u], t[v] = t[v], t[u]
                        taus.append((k, tuple(t)))
            for row in _phi_full(fam):
                lab = Labeling(n=n, sigmas=row)
                for k, tau in taus:
                    assert closure_check(fam, lab, tau, k)
                    taus_checked += 1
                for gamma in gammas:
                    assert is_complete(fam, diagonal_relabel(lab, gamma))
                    relabels_checked += 1
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 08: {taus_checked} transpositions + {relabels_checked} "
        f"relabelings stay complete ({elapsed:.1f}s)"
    )


def test_criterion_09_squared_packable_implies_packable():
    t0 = time.perf_counter()
    steps = 0
    for n in range(1, 6):
        report = composition_implication_check(n)
        assert report.ok
        assert report.violations == ()
        assert report.families_checked == math.prod(
            math.factorial(m - 1) for m in range(1, n + 1)
        )
        steps += report.steps_checked
    assert steps > 0  # flattening steps actually happened
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.25
    print(f"criterion 09: {steps} local flattening steps, no violations ({elapsed:.1f}s)")


def test_criterion_10_solver_packs_500_seeded_families_deterministically():
    t0 = time.perf_counter()
    worst_ms = 0.0
    total = 0
    for n, count in ((8, 167), (10, 167), (12, 166)):
        for j in range(count):
            fam = generate_family(n, "random-uniform", 1_000_003 * n + j)
            first = pack(fam)
            again = pack(fam)
            assert first.status == PACKED
            assert is_complete(fam, first.labeling)
            assert first.nodes_expanded == again.nodes_expanded
            assert first.labeling == again.labeling
            worst_ms = max(worst_ms, first.elapsed_ms, again.elapsed_ms)
            total += 1
    assert total == 500
    assert worst_ms < 250.0
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 10: 500/500 packed and verified, worst family "
        f"{worst_ms:.0f} ms ({elapsed:.1f}s)"
    )
