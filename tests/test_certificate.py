"""Exact certificate arithmetic against hand and brute-force oracles."""

import dataclasses
import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from treepack import (
    EXHAUSTED,
    PACKED,
    BadSizeError,
    BoundExceededError,
    DimensionMismatchError,
    Labeling,
    OutOfRangeError,
    SparsePoly,
    ValidationError,
    YPoly,
    canonical_rep,
    certificate_eval,
    composition_implication_check,
    edge_poly_eval,
    family_enumerate,
    lagrange_basis,
    monomial_support_check,
    nonvanishing_equivalence_check,
    pack,
    poly_reduce,
    star_family,
    variable_dependency_check,
    vertex_poly_eval,
)
from treepack import certificate
from treepack.certificate import _basis_numerator, _phi_full
from treepack.packing import full_count_multiplier, phi_enumerate

FAM2 = next(family_enumerate(2))
ID2 = ((0, 1), (0, 1))
SW2 = ((1, 0), (1, 0))


def perm_tuples(n):
    return itertools.product(itertools.permutations(range(n)), repeat=n)


# --- YPoly ---------------------------------------------------------------


def test_ypoly_normalization():
    assert YPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert YPoly(()).coeffs == (0,)
    assert YPoly((0, 0)).coeffs == (0,)
    assert YPoly((0,)).is_zero()
    assert YPoly((0,)).degree() == -1
    assert YPoly((3, 0, 5)).degree() == 2
    assert YPoly((1, -3, 2)).evaluate(3) == 10


# --- SparsePoly ----------------------------------------------------------


def test_sparsepoly_zero_coefficients_never_stored():
    p = SparsePoly(n=2, terms={((0, 1),): Fraction(0), (): Fraction(3)})
    assert p.terms == {(): Fraction(3)}
    x = SparsePoly.x(2, 0, 1)
    assert (x - x).is_zero()


def test_sparsepoly_merges_monomials_that_normalize_alike():
    """Construction normalizes: monomials that sort to the same key add
    their coefficients, a repeated variable adds its exponents, and terms
    that sum to zero are dropped."""
    x0, x1 = SparsePoly.x(2, 0, 0), SparsePoly.x(2, 0, 1)
    p = SparsePoly(n=2, terms={((1, 1), (0, 1)): 1, ((0, 1), (1, 1)): 2})
    assert p.terms == {((0, 1), (1, 1)): Fraction(3)}
    assert p == 3 * x0 * x1
    q = SparsePoly(n=2, terms={((0, 1), (0, 2)): 1})
    assert q.terms == {((0, 3),): Fraction(1)}
    assert q == x0**3
    z = SparsePoly(n=2, terms={((1, 1), (0, 1)): 1, ((0, 1), (1, 1)): -1})
    assert z.terms == {} and z == SparsePoly.zero(2)


def test_sparsepoly_rejects_bad_variables():
    with pytest.raises(OutOfRangeError):
        SparsePoly(n=2, terms={((5, 1),): Fraction(1)})
    with pytest.raises(ValidationError):
        SparsePoly(n=2, terms={((0, 0),): Fraction(1)})
    with pytest.raises(DimensionMismatchError):
        SparsePoly.x(2, 0, 0) + SparsePoly.x(3, 0, 0)


def test_sparsepoly_arithmetic_commutes_with_evaluation():
    rng = random.Random(41)
    n = 3
    for _ in range(20):
        def rand_poly():
            terms = {}
            for _ in range(rng.randrange(1, 6)):
                mono = tuple(
                    sorted(
                        (vid, rng.randrange(1, 3))
                        for vid in rng.sample(range(n * n + 1), rng.randrange(1, 4))
                    )
                )
                terms[mono] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
            return SparsePoly(n=n, terms=terms)

        p, q = rand_poly(), rand_poly()
        point = tuple(
            tuple(rng.randrange(n) for _ in range(n)) for _ in range(n)
        )
        y = rng.randrange(-3, 4)
        assert (p + q).evaluate(point, y) == p.evaluate(point, y) + q.evaluate(point, y)
        assert (p * q).evaluate(point, y) == p.evaluate(point, y) * q.evaluate(point, y)
        assert (p - q).evaluate(point, y) == p.evaluate(point, y) - q.evaluate(point, y)
        assert (p**2).evaluate(point, y) == p.evaluate(point, y) ** 2


def test_eval_x_splits_off_y():
    n = 2
    y = SparsePoly.y(n)
    p = 2 * y**2 * SparsePoly.x(n, 0, 1) - y + SparsePoly.const(n, 5)
    coeffs = p.eval_x(((0, 1), (0, 0)))
    assert coeffs == (Fraction(5), Fraction(-1), Fraction(2))


def test_to_text_canonical_form():
    n = 2
    p = 2 * SparsePoly.y(n) ** 2 - SparsePoly.x(n, 1, 0) + SparsePoly.const(n, 1)
    assert p.to_text() == "2 * y^2 + -1 * x[1][0] + 1"
    assert SparsePoly.zero(3).to_text() == "0"


# --- evaluation oracles --------------------------------------------------


def test_vertex_poly_frozen_values():
    assert vertex_poly_eval(ID2) == 1
    assert vertex_poly_eval(((0, 0), (0, 1))) == 0
    assert vertex_poly_eval(((2, 1, 0), (0, 1, 2), (0, 2, 1))) == -2 * 2 * -2


def test_vertex_poly_magnitude_exhaustive_n3():
    target = math.prod(math.factorial(j) for j in range(1, 3)) ** 3
    for rows in perm_tuples(3):
        assert abs(vertex_poly_eval(rows)) == target


def test_edge_poly_hand_expansion():
    # slot 0 owns the loop quadratic y^2 (its value is 0 under identity);
    # slot 1 owns y^2-y and (y-1)^2; the two cross differences multiply to
    # (-y)(1-2y) = 2y^2 - y
    assert edge_poly_eval(FAM2, ID2).coeffs == (0, -1, 2)
    assert edge_poly_eval(next(family_enumerate(1)), ((0,),)).coeffs == (1,)


def test_edge_poly_repeated_edge_vanishes():
    # both slots put an edge on the same unordered pair -> zero polynomial
    fam = next(family_enumerate(3))
    rows = ((0, 1, 2), (0, 1, 2), (0, 1, 2))
    # slot1 edge {sigma(0), sigma(1)} = {0,1}; slot2 star rooted at 2 has
    # edge {0,2},{1,2}... pick rows making slot2 hit {0,1}: relabel
    rows = ((0, 1, 2), (0, 1, 2), (2, 0, 1))
    val = edge_poly_eval(fam, rows)
    assert val.is_zero() or not certificate_eval(fam, rows).is_zero()


def test_certificate_frozen_values_n2():
    assert certificate_eval(FAM2, ID2).coeffs == (0, -1, 2)
    assert certificate_eval(FAM2, SW2).coeffs == (1, -3, 2)
    assert certificate_eval(FAM2, ((0, 1), (1, 0))).is_zero()
    assert certificate_eval(FAM2, ((0, 0), (0, 1))).is_zero()


def test_certificate_nonzero_iff_complete_n2():
    from treepack import Labeling, is_complete

    for rows in perm_tuples(2):
        lab = Labeling(n=2, sigmas=rows)
        assert (not certificate_eval(FAM2, rows).is_zero()) == is_complete(
            FAM2, lab
        )


def test_point_validation():
    with pytest.raises(DimensionMismatchError):
        certificate_eval(FAM2, ((0, 1),))
    with pytest.raises(DimensionMismatchError, match="row 1 has 1 entries, expected 2"):
        certificate_eval(FAM2, ((0, 1), (0,)))
    with pytest.raises(OutOfRangeError):
        certificate_eval(FAM2, ((0, 2), (0, 1)))


def test_certificate_eval_reads_its_point_once():
    """A point given as an iterator is read once and checked once; it was
    read again for the edge product, found empty and refused."""
    rows = (r for r in [[0, 1], [0, 1]])
    assert certificate_eval(FAM2, rows) == certificate_eval(FAM2, ID2)


@pytest.mark.parametrize("n", [0, True, 2.0, "3"])
def test_sparsepoly_refuses_a_size_that_is_no_positive_int(n):
    """True and 2.0 built a polynomial (printing x[0.0][0.0]) and "3"
    raised a bare TypeError; 0 was a ValidationError."""
    with pytest.raises(BadSizeError):
        SparsePoly(n=n, terms={((0, 1),): 1})


def test_powers_must_be_nonnegative_ints():
    """p ** True was p ** 1, and p ** 2.0 and a power of 2.5 in the
    dependency check raised a bare TypeError."""
    p = SparsePoly.x(2, 0, 1) + 1
    for power in (True, 2.0, -1):
        with pytest.raises(ValidationError):
            p**power
    with pytest.raises(ValidationError):
        variable_dependency_check(p, 2.5)


def test_non_integer_inputs_are_rejected_not_truncated():
    # int() would read 1.9 as 1 and 1.5 as 1; bool is no coordinate either
    with pytest.raises(OutOfRangeError):
        vertex_poly_eval(((1.9, 0), (0, 1)))
    with pytest.raises(OutOfRangeError):
        certificate_eval(FAM2, ((0, 1), (1.0, 0)))
    with pytest.raises(OutOfRangeError):
        certificate_eval(FAM2, ((0, True), (1, 0)))
    with pytest.raises(OutOfRangeError):
        lagrange_basis((1.0, 0), point=ID2)
    with pytest.raises(ValidationError):
        SparsePoly(n=2, terms={((0, 1.5),): 1})
    with pytest.raises(ValidationError):
        SparsePoly(n=2, terms={((0, True),): 1})
    with pytest.raises(OutOfRangeError):
        SparsePoly(n=2, terms={((0.0, 1),): 1})
    with pytest.raises(OutOfRangeError):
        SparsePoly(n=2, terms={((True, 1),): 1})
    with pytest.raises(OutOfRangeError):
        poly_reduce(SparsePoly.x(2, 0, 1) ** 2, variables=[1.0])
    with pytest.raises(OutOfRangeError):
        SparsePoly.x(2, 0, 1).evaluate(((0, 1.5), (0, 1)))


def test_evaluation_at_an_inexact_y_is_refused():
    """A float y returned a float (0.5 and 2.0), where every value the
    package computes is exact; an int or a Fraction is evaluated."""
    point = ((0, 1), (0, 1))
    for y in (0.5, 1.0, True, "1"):
        with pytest.raises(ValidationError, match="int or a Fraction"):
            SparsePoly.y(2).evaluate(point, y)
        with pytest.raises(ValidationError, match="int or a Fraction"):
            YPoly((1, 2)).evaluate(y)
    assert SparsePoly.y(2).evaluate(point, Fraction(1, 2)) == Fraction(1, 2)
    assert YPoly((1, 2)).evaluate(Fraction(1, 2)) == 2
    assert YPoly((1, 2)).evaluate(3) == 7


def test_poly_reduce_refuses_variable_ids_outside_the_universe():
    """Ids past y or below 0 were accepted; SparsePoly refuses them, and
    so does poly_reduce.  y itself, id n * n, may be listed."""
    p = SparsePoly.x(2, 0, 1) ** 3 + SparsePoly.y(2) ** 2
    for bad in ([999], [-1], [0, 5]):
        with pytest.raises(OutOfRangeError):
            poly_reduce(p, bad)
    # y^2 is y modulo y(y - 1); x[0][1], not listed, keeps its cube
    assert poly_reduce(p, [4]) == SparsePoly.x(2, 0, 1) ** 3 + SparsePoly.y(2)


def test_subtracting_a_constant_and_an_empty_basis_index():
    """p - 1 lifts the constant into p's universe, and an empty basis
    index is refused in either mode."""
    p = SparsePoly.x(2, 0, 0) - 1
    assert p.terms == {((0, 1),): 1, (): -1}
    assert p == SparsePoly.x(2, 0, 0) + SparsePoly.const(2, -1)
    with pytest.raises(ValidationError, match="empty basis index"):
        lagrange_basis((), expand=True)


def test_ypoly_and_support_check_reject_non_integers():
    # int() would read (1.5, 2.7) as (1, 2) and (1.5, 0) as the
    # permutation (1, 0)
    with pytest.raises(ValidationError):
        YPoly((1.5, 2.7))
    with pytest.raises(ValidationError):
        YPoly((1, True))
    with pytest.raises(OutOfRangeError):
        monomial_support_check((1.5, 0))
    with pytest.raises(OutOfRangeError):
        monomial_support_check((True, False))


# --- Lagrange bases ------------------------------------------------------


def test_lagrange_kronecker_full_points_n2():
    pts = list(itertools.product(itertools.product(range(2), repeat=2), repeat=2))
    for f in pts:
        for g in pts:
            want = Fraction(1 if f == g else 0)
            assert lagrange_basis(f, point=g) == want


def test_lagrange_kronecker_single_mapping_n3():
    maps = list(itertools.product(range(3), repeat=3))
    for f in maps:
        for g in maps:
            assert lagrange_basis(f, point=g) == (1 if f == g else 0)


def test_lagrange_expand_agrees_with_point_mode():
    rng = random.Random(17)
    for f in [(0, 2, 1), (1, 1, 2), (2, 0, 0)]:
        p = lagrange_basis(f, expand=True)
        for _ in range(15):
            g = tuple(rng.randrange(3) for _ in range(3))
            # expansion lives on slot-0 variables
            point = (g, (0, 0, 0), (0, 0, 0))
            assert p.evaluate(point) == lagrange_basis(f, point=g)
        assert p.degree_in(0) <= 2


def test_lagrange_expand_bound():
    lagrange_basis(ID2, expand=True)  # 4 variables, fine
    assert len(lagrange_basis((1, 0, 2, 3, 4, 5), expand=True).terms) == 6 * 5**5
    with pytest.raises(BoundExceededError):
        lagrange_basis(
            tuple(tuple(range(4)) for _ in range(4)), expand=True
        )  # (4 * 3^3)^4 terms
    with pytest.raises(BoundExceededError):
        lagrange_basis(tuple(range(7)), expand=True)  # 7 * 6^6 terms
    t0 = time.perf_counter()  # the count stops once it passes the cap
    with pytest.raises(BoundExceededError, match="cap of 19683 terms"):
        lagrange_basis(tuple(range(2000)), expand=True)  # 2000 * 1999^1999 terms
    assert time.perf_counter() - t0 < 1.0
    with pytest.raises(ValidationError):
        lagrange_basis((0, 1), point=(0, 1), expand=True)
    with pytest.raises(ValidationError):
        lagrange_basis((0, 1))


def test_lagrange_point_on_another_lattice_is_refused():
    """A mapping on Z_4 has as many values as a point on Z_2, and its
    basis evaluated at one returned 1."""
    with pytest.raises(DimensionMismatchError):
        lagrange_basis((0, 1, 1, 0), point=((0, 1), (1, 0)))
    with pytest.raises(DimensionMismatchError):
        lagrange_basis(((0, 1), (1, 0)), point=(0, 1, 1, 0))
    with pytest.raises(DimensionMismatchError):
        lagrange_basis((0, 1), point=ID2)


def test_lagrange_constant_term_vanishes():
    # evaluating any basis at the all-zero mapping gives 0 for n >= 2
    for sig in itertools.permutations(range(3)):
        assert lagrange_basis(sig, point=(0, 0, 0)) == (
            1 if sig == (0, 0, 0) else 0
        )
        expanded = lagrange_basis(sig, expand=True)
        assert expanded.terms.get(()) is None


# --- canonical representative --------------------------------------------


def test_canonical_rep_n1_is_one():
    fam = next(family_enumerate(1))
    assert canonical_rep(fam, mode="phi-sum").to_text() == "1"
    assert canonical_rep(fam, mode="lattice").to_text() == "1"


def test_canonical_rep_modes_agree_n2():
    """FAM2 is the only n = 2 family; its text is frozen in both modes
    (n = 1's is the literal "1" above)."""
    a = canonical_rep(FAM2, mode="phi-sum")
    b = canonical_rep(FAM2, mode="lattice")
    assert a == b
    assert not a.is_zero()
    frozen = "417d7ebcbe509d7ce60250436f49f08a21ab4d0fd5b045ab192f61e001395cdd"
    assert _text_digest(a) == _text_digest(b) == frozen


def _text_digest(rep):
    return hashlib.sha256(rep.to_text().encode()).hexdigest()


def test_canonical_rep_closed_form_n2():
    """Independent reconstruction: the weighted sum of the two member
    bases with the frozen y-polynomials."""
    y = SparsePoly.y(2)
    left = (2 * y**2 - y) * lagrange_basis(ID2, expand=True)
    right = (2 * y**2 - 3 * y + 1) * lagrange_basis(SW2, expand=True)
    assert canonical_rep(FAM2, mode="phi-sum") == left + right


def test_canonical_rep_agrees_with_certificate_on_lattice_n2():
    rep = canonical_rep(FAM2, mode="phi-sum")
    for rows in itertools.product(itertools.product(range(2), repeat=2), repeat=2):
        cert = certificate_eval(FAM2, rows)
        for yv in (0, 1, 2, 3):
            assert rep.evaluate(rows, yv) == cert.evaluate(yv)


def test_canonical_rep_degree_bound_and_reduce_fixpoint():
    """Also freezes the sha256 of each n = 3 family's phi-sum to_text()."""
    frozen = [
        "0aca56e950f97fe6b60acd06b0c9e37adba482fd49e57876628690bf78db2c4d",
        "7d6c1c98ecb64c5717571d66ef6de64f273fbb454cc5059f4a70282c179f49ec",
    ]
    for fam, want in zip(family_enumerate(3), frozen, strict=True):
        rep = canonical_rep(fam, mode="phi-sum")
        for vid in range(9):
            assert rep.degree_in(vid) <= 2
        assert poly_reduce(rep) == rep
        assert _text_digest(rep) == want


def test_canonical_rep_terms_are_already_normalized():
    """canonical_rep skips the public constructor's normalization; its
    result must equal what that constructor builds from the same terms."""
    cases = [(fam, "phi-sum") for n in range(1, 4) for fam in family_enumerate(n)]
    cases += [(fam, "lattice") for n in range(1, 3) for fam in family_enumerate(n)]
    for fam, mode in cases:
        rep = canonical_rep(fam, mode=mode)
        rebuilt = SparsePoly(n=rep.n, terms=rep.terms)
        assert rep.terms == rebuilt.terms
        assert all(type(c) is Fraction for c in rep.terms.values())


def per_point_canonical_rep(fam, mode):
    """The oracle: canonical_rep's sum accumulated point by point, each
    contributing point expanding its own basis numerator over all n*n
    variables, with no grouping."""
    n = fam.n
    y_id = n * n
    if mode == "phi-sum":
        points = _phi_full(fam)
    else:
        points = itertools.product(itertools.product(range(n), repeat=n), repeat=n)
    acc = {}  # (x monomial, y power) -> integer numerator
    denom = None
    for rows in points:
        cert = certificate_eval(fam, rows)
        if cert.is_zero():
            continue
        vals = [(k * n + v, rows[k][v]) for k in range(n) for v in range(n)]
        numer, d = _basis_numerator(vals, n)
        assert denom in (None, d)  # one denominator for every point
        denom = d
        for mono, a in numer.items():
            for t, c in enumerate(cert.coeffs):
                acc[mono, t] = acc.get((mono, t), 0) + a * c
    return {
        mono + ((y_id, t),) if t else mono: Fraction(c, denom)
        for (mono, t), c in acc.items()
        if c
    }


def test_canonical_rep_matches_per_point_expansion():
    """The expansion one variable at a time equals the per-point oracle
    term for term: every family with n <= 2 in both modes, and both
    n = 3 families in phi-sum mode."""
    cases = [(fam, mode) for n in (1, 2) for fam in family_enumerate(n)
             for mode in ("phi-sum", "lattice")]
    cases += [(fam, "phi-sum") for fam in family_enumerate(3)]
    assert len(cases) == 6
    for fam, mode in cases:
        rep = canonical_rep(fam, mode=mode)
        assert rep.terms == per_point_canonical_rep(fam, mode)
    assert [len(canonical_rep(fam).terms) for fam in family_enumerate(3)] == [25076, 28950]


def test_canonical_rep_sampled_lattice_agreement_n3():
    """1000 seeded lattice points; comparing whole y-coefficient vectors
    checks every y at once."""
    rng = random.Random(1234)
    fam = next(family_enumerate(3))
    rep = canonical_rep(fam, mode="phi-sum")
    for _ in range(1000):
        rows = tuple(
            tuple(rng.randrange(3) for _ in range(3)) for _ in range(3)
        )
        want = certificate_eval(fam, rows).coeffs
        assert rep.eval_x(rows) == tuple(Fraction(c) for c in want)


def test_canonical_rep_bounds_and_mode_validation():
    with pytest.raises(BoundExceededError):
        canonical_rep(star_family(4), mode="phi-sum")
    with pytest.raises(BoundExceededError):
        canonical_rep(star_family(3), mode="lattice")
    with pytest.raises(ValidationError):
        canonical_rep(FAM2, mode="newton")


# --- reduction -----------------------------------------------------------


def test_poly_reduce_examples():
    n = 2
    x0 = SparsePoly.x(n, 0, 0)
    assert poly_reduce(x0**2) == x0  # x^2 = x on {0,1}
    falling = x0 * (x0 - SparsePoly.const(n, 1))
    assert poly_reduce(falling).is_zero()
    low = 3 * x0 + SparsePoly.const(n, 7)
    assert poly_reduce(low) == low


def test_poly_reduce_preserves_lattice_values():
    rng = random.Random(3)
    n = 3
    for _ in range(15):
        terms = {}
        for _ in range(5):
            mono = tuple(
                sorted((vid, rng.randrange(1, 7)) for vid in rng.sample(range(9), 2))
            )
            terms[mono] = Fraction(rng.randrange(-5, 6))
        p = SparsePoly(n=n, terms=terms)
        r = poly_reduce(p)
        assert poly_reduce(r) == r
        for vid in p.variables():
            assert r.degree_in(vid) < n
        for _ in range(10):
            rows = tuple(
                tuple(rng.randrange(n) for _ in range(n)) for _ in range(n)
            )
            assert p.evaluate(rows) == r.evaluate(rows)


def test_poly_reduce_builds_no_remainder_below_degree_n():
    """The degree-n remainder is built only for a term that needs it: a
    constant at n = 4000 comes back unchanged at once."""
    p = SparsePoly.const(4000, 5)
    t0 = time.perf_counter()
    assert poly_reduce(p) == p
    assert time.perf_counter() - t0 < 0.5


def test_poly_reduce_leaves_y_alone():
    n = 2
    y = SparsePoly.y(n)
    assert poly_reduce(y**3) == y**3
    assert poly_reduce(y**3, [n * n]) == y  # but reducible on request


# --- the mechanical checks ------------------------------------------------


def test_nonvanishing_equivalence_small_n():
    """Canonical form nonzero iff Phi nonempty iff the composition audit's
    oracle, pack, packs."""
    for n in (1, 2, 3):
        for fam in family_enumerate(n):
            assert nonvanishing_equivalence_check(fam)
            assert (pack(fam).status == PACKED) == (phi_enumerate(fam)[1] > 0)
    with pytest.raises(BoundExceededError):
        nonvanishing_equivalence_check(star_family(4))


def test_monomial_support_all_perms():
    for n in (2, 3):
        for sig in itertools.permutations(range(n)):
            assert monomial_support_check(sig)
    with pytest.raises(BoundExceededError):
        monomial_support_check((0, 1, 2, 3))


def test_monomial_support_detail():
    """Direct look at one expansion: every monomial misses at most the
    variable the permutation sends to 0."""
    sig = (1, 2, 0)
    skippable = sig.index(0)  # = 2
    expanded = lagrange_basis(sig, expand=True)
    for mono in expanded.terms:
        seen = {vid for vid, _ in mono}
        assert len(seen) >= 2
        assert set(range(3)) - seen <= {skippable}


def test_variable_dependency_seeded():
    rng = random.Random(2718)
    n = 3
    for _ in range(25):
        vids = rng.sample(range(9), rng.choice([2, 3]))
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            mono = tuple(
                sorted(
                    (v, rng.randrange(1, n))
                    for v in rng.sample(vids, rng.randrange(1, len(vids) + 1))
                )
            )
            terms[mono] = Fraction(rng.randrange(-4, 5))
        p = SparsePoly(n=n, terms=terms)
        for power in (0, 1, 2, 3):
            assert variable_dependency_check(p, power)
    assert variable_dependency_check(SparsePoly.const(n, 9), 3)
    with pytest.raises(ValidationError):
        variable_dependency_check(SparsePoly.const(n, 1), -1)


def permute_slots(p, perms):
    """Substitute x[k][v] -> x[k][perms[k][v]] in p, leaving y alone."""
    n = p.n
    new_id = {k * n + v: k * n + perms[k][v] for k in range(n) for v in range(n)}
    new_id[n * n] = n * n
    terms = {}
    for mono, coef in p.terms.items():
        moved = tuple(sorted((new_id[vid], e) for vid, e in mono))
        terms[moved] = terms.get(moved, 0) + coef
    return SparsePoly(n=n, terms=terms)


def test_poly_aut_identity_and_sign_flip():
    """An odd automorphism of one slot's tree negates the canonical form
    (the per-slot Vandermonde is antisymmetric), so the literal equality
    is false while the negated comparison is exact."""
    fam = next(family_enumerate(3))  # largest slot is the star
    rep = canonical_rep(fam, mode="phi-sum")
    ident = ((0, 1, 2),) * 3
    assert permute_slots(rep, ident) == rep
    leaf_swap = ((0, 1, 2), (0, 1, 2), (1, 0, 2))  # root-at-2 leaf swap
    assert permute_slots(rep, leaf_swap) != rep
    assert permute_slots(rep, leaf_swap) == -rep
    # non-automorphism permutations scramble the polynomial entirely
    scramble = ((1, 0), (0, 1))
    rep2 = canonical_rep(FAM2, mode="phi-sum")
    assert permute_slots(rep2, scramble) != rep2
    assert permute_slots(rep2, scramble) != -rep2


# --- composition implication ----------------------------------------------


def test_composition_implication_small_n():
    for n, families, steps in (
        (1, 1, 0), (2, 1, 0), (3, 2, 1), (4, 12, 16), (5, 288, 660)
    ):
        report = composition_implication_check(n)
        assert report.ok
        assert report.n == n
        assert not report.violations
        assert (report.families_checked, report.steps_checked) == (families, steps)
    with pytest.raises(BoundExceededError):
        composition_implication_check(7)


@pytest.mark.parametrize("n", ["3", 2.0, True])
def test_composition_implication_refuses_a_non_int_size(n):
    """A size that is not an int is refused as sweep refuses it, before
    the cap comparison can raise a bare TypeError on a str."""
    with pytest.raises(BadSizeError, match="must be an int"):
        composition_implication_check(n)


def test_composition_implication_reports_a_base_that_does_not_pack(monkeypatch):
    """Every family packs, so the violation branch is reached only by a
    sweep that claims otherwise: family 5 of Z_4 read as exhausted.  Its
    squared family and its one stepped family (slot 3) both pack, and
    are reported in that order; the step count does not change."""
    real_sweep = certificate.sweep

    def sweep_with_row_5_exhausted(n):
        report = real_sweep(n)
        rows = list(report.rows)
        rows[5] = rows[5]._replace(status=EXHAUSTED)
        return dataclasses.replace(report, rows=tuple(rows))

    monkeypatch.setattr(certificate, "sweep", sweep_with_row_5_exhausted)
    report = composition_implication_check(4)
    assert report.violations == ("family 5: full squaring", "family 5: slot 3")
    assert not report.ok
    assert (report.families_checked, report.steps_checked) == (12, 16)


def test_phi_full_members_all_complete():
    """The full-Phi expansion behind phi-sum only produces certificates
    that evaluate nonzero, and exactly essential * multiplier members.
    Its slots skip the public constructor's check; each row must still
    be the labeling that constructor builds from the same slots."""
    for fam in family_enumerate(3):
        rows = list(_phi_full(fam))
        _, essential = phi_enumerate(fam, mode="essential")
        full = essential * full_count_multiplier(3)
        assert len(rows) == full
        assert len(set(rows)) == full
        for row in rows:
            assert Labeling(n=3, sigmas=row).sigmas == row
            assert not certificate_eval(fam, row).is_zero()
