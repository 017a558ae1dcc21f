"""Exact polynomial certificate for packability.

Give slot k one variable per vertex, written x[k][v], plus a single shared
variable y.  Two polynomial ingredients encode completeness:

* the product of per-slot Vandermonde determinants, which vanishes exactly
  when some slot assigns two vertices the same value, and
* for every pair of arcs taken from two different slots, the difference of
  their monic edge quadratics (y - a)(y - b) - (y - c)(y - d), which is
  the zero polynomial in y exactly when the two arcs coincide as unordered
  pairs.

Their product, evaluated at a permutation sequence, is a nonzero
polynomial in y precisely when the sequence is a complete labeling; its
canonical representative of degree < n per variable on the integer
lattice is nonzero precisely when some complete labeling exists.  That
representative is computed here two independent ways (a sum over the
complete labelings, and brute-force Lagrange interpolation over the whole
lattice) so the two can be cross-checked.

All arithmetic is exact — integer where possible, Fraction elsewhere.
Zero testing is literal, which is the entire point; nothing here may
float.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import permutations, product
from math import gcd, prod

from .errors import (
    BadSizeError,
    BoundExceededError,
    DimensionMismatchError,
    OutOfRangeError,
    ValidationError,
)
from .functree import (
    AugTreeFamily,
    check_permutation,
    check_size,
    compose_square,
    family_enumerate,
    is_int,
    local_compose,
)
from .packing import phi_enumerate
from .solver import PACKED, pack, sweep

# === feasibility bounds =================================================
# The objects grow super-exponentially, so every exhaustive mode carries
# an explicit cap with its cost formula rather than discovering the limit
# by running out of memory.

LAGRANGE_EXPAND_MAX_TERMS = 3**9  # the n = 3 lattice point at 0 has 3^9 terms
CANONICAL_PHI_MAX_N = 3  # phi-sum walks |Phi| <= (n!)^n certificate terms
CANONICAL_LATTICE_MAX_N = 2  # lattice mode interpolates n^(n*n) points
SUPPORT_CHECK_MAX_N = 3
# the composition audit is one sweep(n): 34 560 families in 1.2-1.7 s of CPU at n = 6
# (Python 3.11.7, shared 2-core machine); n = 7 would sweep 24 883 200 labeled families
COMPOSITION_CHECK_MAX_N = 6

CANONICAL_REP_MODES = ("phi-sum", "lattice")

# A monomial is a tuple of (variable id, exponent) pairs sorted by id with
# all exponents positive; the empty tuple is the constant monomial.
# Variable ids: x[k][v] <-> k*n + v, and y <-> n*n.
Monomial = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class YPoly:
    """Dense integer polynomial in the single variable y."""

    coeffs: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        cs = list(self.coeffs)
        if not cs:
            cs = [0]
        for c in cs:
            if not is_int(c):
                raise ValidationError(f"coefficient {c!r} is not an integer")
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has -1."""
        return -1 if self.is_zero() else len(self.coeffs) - 1

    def evaluate(self, y):
        return _horner(self.coeffs, y)


def _horner(coeffs, y):
    """The polynomial in y with ``coeffs``, low power first, at an exact
    ``y``: an `is_int` or a Fraction (ValidationError otherwise)."""
    if not (is_int(y) or isinstance(y, Fraction)):
        raise ValidationError(f"y must be an int or a Fraction, got {y!r}")
    acc = 0
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def _linear_product(factors) -> list[int]:
    """Dense product of the linear factors c0 + c1*x, given as (c0, c1)
    pairs, low degree first."""
    out = [1]
    for c0, c1 in factors:
        out = [c0 * a + c1 * b for a, b in zip(out + [0], [0] + out)]
    return out


@dataclass(frozen=True)
class SparsePoly:
    """Sparse polynomial over x[k][v] (k, v in Z_n) and y, exact rational.

    ``n`` fixes the variable universe and the lattice the canonical forms
    live on; terms map monomials to nonzero Fractions, and a coefficient
    given, a scalar operand included, must be an `is_int` or a Fraction
    (ValidationError).  Instances are value-like: construction
    normalizes, equality is term-for-term.
    """

    n: int
    terms: dict[Monomial, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_size(self.n, "a lattice")
        clean: dict[Monomial, Fraction] = {}
        y_id = self.n * self.n
        # exact-type tests first: the ring operations build their terms
        # from Fractions and ints
        for mono, coef in self.terms.items():
            if type(coef) is not Fraction:  # Fraction() would read 0.1, "1/3" and True
                if not (is_int(coef) or isinstance(coef, Fraction)):
                    raise ValidationError(f"coefficient {coef!r} is not an int or a Fraction")
                coef = Fraction(coef)
            if not coef:
                continue
            exps: dict[int, int] = {}
            for vid, e in mono:
                if not (type(vid) is int or is_int(vid)) or not 0 <= vid <= y_id:
                    raise OutOfRangeError(f"variable id {vid!r} outside universe")
                if not (type(e) is int or is_int(e)) or e <= 0:
                    raise ValidationError(f"exponent {e!r} is not a positive integer")
                exps[vid] = exps.get(vid, 0) + e  # a repeated variable multiplies
            key = tuple(sorted(exps.items()))
            # monomials that normalize alike are one term: add them
            clean[key] = clean[key] + coef if key in clean else coef
        object.__setattr__(self, "terms", {m: c for m, c in clean.items() if c})

    @classmethod
    def _checked(cls, n: int, terms: dict[Monomial, Fraction]) -> "SparsePoly":
        """A polynomial whose terms need no normalizing.

        Precondition: ``n`` is positive, every monomial in ``terms`` is
        sorted by variable id, names each variable once, with an id in
        the universe and a positive int exponent, and every coefficient
        is a nonzero Fraction.  Nothing is checked or copied here.  The
        caller is `canonical_rep`, which builds its terms that way.
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "n", n)
        object.__setattr__(poly, "terms", terms)
        return poly

    # --- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "SparsePoly":
        return cls(n=n, terms={})

    @classmethod
    def const(cls, n: int, value) -> "SparsePoly":
        return cls(n=n, terms={(): value})

    @classmethod
    def variable(cls, n: int, vid: int) -> "SparsePoly":
        return cls(n=n, terms={((vid, 1),): Fraction(1)})

    @classmethod
    def x(cls, n: int, k: int, v: int) -> "SparsePoly":
        return cls.variable(n, k * n + v)

    @classmethod
    def y(cls, n: int) -> "SparsePoly":
        return cls.variable(n, n * n)

    # --- ring operations --------------------------------------------------

    def _require_same_universe(self, other: "SparsePoly") -> None:
        if self.n != other.n:
            raise DimensionMismatchError(
                f"mixed lattice sizes {self.n} and {other.n}"
            )

    def __add__(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.const(self.n, other)
        self._require_same_universe(other)
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + coef
        return SparsePoly(n=self.n, terms=out)

    def __neg__(self):
        return SparsePoly(
            n=self.n, terms={m: -c for m, c in self.terms.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.const(self.n, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.const(self.n, other)
        self._require_same_universe(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                out[mono] = out.get(mono, Fraction(0)) + c1 * c2
        return SparsePoly(n=self.n, terms=out)

    __rmul__ = __mul__

    def __pow__(self, power: int):
        if not is_int(power) or power < 0:
            raise ValidationError(f"polynomial power {power!r} is not a nonnegative int")
        out = SparsePoly.const(self.n, 1)
        for _ in range(power):
            out = out * self
        return out

    # --- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> tuple[int, ...]:
        seen = {vid for mono in self.terms for vid, _ in mono}
        return tuple(sorted(seen))

    def degree_in(self, vid: int) -> int:
        best = 0
        for mono in self.terms:
            for v, e in mono:
                if v == vid and e > best:
                    best = e
        return best

    def evaluate(self, point, y=0) -> Fraction:
        """Exact value at a lattice point, with y given separately."""
        return _horner(self.eval_x(point), y)

    def _compiled(self):
        # terms flattened for the evaluation hot path: one common
        # denominator, integer numerators, y split out, and a bitmask of
        # each term's x variables.  Cached on the instance (terms never
        # mutate after __post_init__); the cache is not a dataclass
        # field, so equality and repr ignore it.
        cache = getattr(self, "_eval_cache", None)
        if cache is None:
            denom = 1
            for coef in self.terms.values():
                denom = denom * coef.denominator // gcd(denom, coef.denominator)
            y_id = self.n * self.n
            rows = []
            max_exp = [0] * (self.n * self.n)
            for mono, coef in self.terms.items():
                num = coef.numerator * (denom // coef.denominator)
                ydeg = 0
                pairs = []
                mask = 0
                for vid, e in mono:
                    if vid == y_id:
                        ydeg = e
                    else:
                        pairs.append((vid, e))
                        mask |= 1 << vid
                        if e > max_exp[vid]:
                            max_exp[vid] = e
                rows.append((ydeg, num, tuple(pairs), mask))
            ytop = max((r[0] for r in rows), default=0)
            cache = (denom, tuple(rows), tuple(max_exp), ytop)
            object.__setattr__(self, "_eval_cache", cache)
        return cache

    def eval_x(self, point) -> tuple[Fraction, ...]:
        """Substitute the x variables only; returns dense y coefficients
        (low power first, trailing zeros stripped, `(0,)` for zero)."""
        vals = _check_point(point, self.n)
        flat = [v for row in vals for v in row]
        denom, rows, max_exp, ytop = self._compiled()
        powers = []
        for vid, top in enumerate(max_exp):
            row = [1] * (top + 1)
            for e in range(1, top + 1):
                row[e] = row[e - 1] * flat[vid]
            powers.append(row)
        # every exponent is positive, so a term with a variable at 0 is 0
        zero = sum(1 << vid for vid, v in enumerate(flat) if not v)
        acc = [0] * (ytop + 1)
        for ydeg, num, pairs, mask in rows:
            if mask & zero:
                continue
            for vid, e in pairs:
                num *= powers[vid][e]
            acc[ydeg] += num
        while len(acc) > 1 and acc[-1] == 0:
            acc.pop()
        return tuple(Fraction(c, denom) for c in acc)

    # --- canonical text ---------------------------------------------------

    def var_name(self, vid: int) -> str:
        if vid == self.n * self.n:
            return "y"
        return f"x[{vid // self.n}][{vid % self.n}]"

    def to_text(self) -> str:
        """Canonical form: graded-lex term order, `coeff * x[k][v]^e * y^e`."""
        if not self.terms:
            return "0"
        def grade(item):
            mono, _ = item
            return (-sum(e for _, e in mono), mono)
        chunks = []
        for mono, coef in sorted(self.terms.items(), key=grade):
            parts = [str(coef)]
            for vid, e in mono:
                parts.append(
                    self.var_name(vid) if e == 1 else f"{self.var_name(vid)}^{e}"
                )
            chunks.append(" * ".join(parts))
        return " + ".join(chunks)


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    acc = dict(m1)
    for vid, e in m2:
        acc[vid] = acc.get(vid, 0) + e
    return tuple(sorted(acc.items()))


# === lattice points =====================================================


def _check_point(point, n: int | None = None):
    """Validate an assignment of a value in Z_n to every x[k][v]."""
    rows = tuple(tuple(row) for row in point)
    if n is None:
        n = len(rows)
    if len(rows) != n:
        raise DimensionMismatchError(
            f"lattice point needs {n} rows, got {len(rows)}"
        )
    for k, row in enumerate(rows):
        if len(row) != n:
            raise DimensionMismatchError(
                f"row {k} has {len(row)} entries, expected {n}"
            )
        for v, value in enumerate(row):
            if not is_int(value) or not 0 <= value < n:
                raise OutOfRangeError(
                    f"x[{k}][{v}] = {value!r} outside Z_{n}"
                )
    return rows


def vertex_poly_eval(point) -> int:
    """Product over slots of the Vandermonde of that slot's values.

    Zero exactly when some slot repeats a value.  For a full permutation
    per slot the magnitude is the superfactorial power (prod j!)^n, a fact
    the test suite leans on as an independent cross-check.
    """
    return _vandermonde(_check_point(point))


def _vandermonde(rows) -> int:
    return prod([b - a for row in rows for u, a in enumerate(row) for b in row[u + 1:]])


def edge_poly_eval(family: AugTreeFamily, point) -> YPoly:
    """Product over cross-slot arc pairs of their quadratic differences.

    Each root-at-k arc (c, p) of slot k owns the monic quadratic
    (y - x[k][p])(y - x[k][c]); for slots i < j the factor is the later
    slot's quadratic minus the earlier one's, which is linear in y and
    vanishes identically exactly when the two arcs collide as unordered
    pairs.  The empty product (n = 1) is the constant 1.
    """
    return YPoly(tuple(_edge_product(family, _check_point(point, family.n))))


def _edge_product(family: AugTreeFamily, rows) -> list[int]:
    arcs = [t.compiled().arcs for t in family.trees]
    factors = []
    for i in range(family.n):
        for j in range(i + 1, family.n):
            for (cu, pu) in arcs[i]:
                c, d = rows[i][pu], rows[i][cu]
                for (cv, pv) in arcs[j]:
                    a, b = rows[j][pv], rows[j][cv]
                    if a * b == c * d and a + b == c + d:
                        return [0]  # identical unordered arc pair
                    factors.append((a * b - c * d, c + d - a - b))
    return _linear_product(factors)


def certificate_eval(family: AugTreeFamily, point) -> YPoly:
    """Vandermonde times edge product: nonzero iff the point is in Phi."""
    rows = _check_point(point, family.n)  # read once: `point` may be an iterator
    v = _vandermonde(rows)
    if v == 0:
        return YPoly((0,))
    return YPoly(tuple([v * c for c in _edge_product(family, rows)]))


# === Lagrange bases =====================================================


def _basis_variables(f):
    """Split `f` into (n, [(vid, value), ...]) for point or single mapping."""
    seq = tuple(f)
    if not seq:
        raise ValidationError("empty basis index")
    if isinstance(seq[0], (tuple, list)):
        rows = _check_point(seq)  # x[k][v] is variable k*n + v
        return len(rows), list(enumerate([v for row in rows for v in row]))
    n = len(seq)
    for value in seq:
        if not is_int(value) or not 0 <= value < n:
            raise OutOfRangeError(f"basis value {value!r} outside Z_{n}")
    return n, list(enumerate(seq))


def lagrange_basis(f, point=None, expand: bool = False):
    """Lagrange basis through `f`: evaluate at a point, or expand fully.

    `f` is either a full lattice point (one mapping per slot) or a single
    mapping over Z_n.  Exactly one mode must be requested: `point=` gives
    the exact rational value (1 at f, 0 at every other lattice point; a
    point of another shape or on another Z_n is refused), and
    `expand=True` gives the SparsePoly, capped at LAGRANGE_EXPAND_MAX_TERMS
    monomials: a variable at 0 expands to n of them, any other to n - 1.
    """
    n, vals = _basis_variables(f)
    if (point is None) == (not expand):
        raise ValidationError("choose exactly one of point= or expand=True")

    if point is not None:
        pn, pvals = _basis_variables(point)
        if pn != n or len(pvals) != len(vals):
            raise DimensionMismatchError(
                f"point of {len(pvals)} values on Z_{pn}, basis index of {len(vals)} on Z_{n}"
            )
        # both lie on Z_n, where the basis through f is 1 at f and 0 elsewhere
        return Fraction(int(pvals == vals))

    terms = 1
    for _, fv in vals:  # stops as soon as the count passes the cap
        terms *= n if fv == 0 else n - 1
        if terms > LAGRANGE_EXPAND_MAX_TERMS:
            raise BoundExceededError(
                f"the expansion exceeds the cap of {LAGRANGE_EXPAND_MAX_TERMS} terms"
            )
    numer, denom = _basis_numerator(vals, n)
    return SparsePoly(
        n=n, terms={m: Fraction(c, denom) for m, c in numer.items()}
    )


def _uni_numerator(fv: int, n: int) -> tuple[list[int], int]:
    """prod over j != fv in Z_n of (x - j), low degree first, and the
    product of the (fv - j): the univariate Lagrange basis through fv
    is their quotient."""
    others = [j for j in range(n) if j != fv]
    return _linear_product([(-j, 1) for j in others]), prod([fv - j for j in others])


def _expand(factors) -> dict[Monomial, int]:
    """Sparse product of one univariate per variable.

    ``factors`` lists (variable id, coefficients low degree first) pairs
    with ids ascending, so appending each variable keeps a monomial
    sorted, and each product term lands on a monomial of its own.
    """
    acc: dict[Monomial, int] = {(): 1}
    for vid, uni in factors:
        acc = {
            mono + ((vid, e),) if e else mono: c * u
            for mono, c in acc.items()
            for e, u in enumerate(uni)
            if u
        }
    return acc


def _basis_numerator(vals, n: int) -> tuple[dict[Monomial, int], int]:
    """Integer expansion of prod (x - j) plus the common denominator."""
    unis = [_uni_numerator(fv, n) for _, fv in vals]
    numer = _expand([(vid, uni) for (vid, _), (uni, _) in zip(vals, unis)])
    return numer, prod([d for _, d in unis])


# === canonical representative ===========================================


def _phi_full(family: AugTreeFamily):
    """All complete labelings as slot tuples, the unused values placed every way."""
    members, _ = phi_enumerate(family, mode="essential")
    n = family.n
    for lab in members:
        pools = []
        for k, sig in enumerate(lab.sigmas):
            head = sig[: k + 1]
            rest = [x for x in range(n) if x not in head]
            pools.append([head + tail for tail in permutations(rest)])
        # each slot is a checked head followed by an ordering of the
        # values it leaves out, so a permutation by construction
        yield from product(*pools)


def canonical_rep(family: AugTreeFamily, mode: str = "phi-sum") -> SparsePoly:
    """The unique degree < n per-variable polynomial matching the
    certificate on every lattice point.

    phi-sum mode sums certificate-value times Lagrange basis over the
    complete labelings; lattice mode interpolates over every one of the
    n^(n*n) lattice points.  Both land on the same polynomial — off-Phi
    points contribute nothing because the certificate vanishes there —
    and the test suite insists on term-for-term agreement.

    The sum is expanded one variable at a time, not one point at a time
    (a sum-factorized Lagrange expansion).  A point's basis is a product
    of univariate numerators, one per variable, over one denominator.  So
    the points are grouped by their values on the variables before the
    last one still unexpanded; each group's partial sum, whose monomials
    hold only later variables, is multiplied by that variable's numerator
    and added into its group one level up, until one sum is left.  No
    point expands its own basis of up to n^(n*n) terms, and points that
    agree on their leading variables share the work for the rest.  The y
    coefficients of a monomial ride along packed in one int.  One
    Fraction is built per distinct numerator: the n = 3 forms have
    25 076 and 28 950 terms but 2 750 and 2 302 distinct coefficients.
    """
    if mode not in CANONICAL_REP_MODES:
        raise ValidationError(f"unknown canonical_rep mode {mode!r}")
    n = family.n
    y_id = n * n

    if mode == "phi-sum":
        if n > CANONICAL_PHI_MAX_N:
            raise BoundExceededError(
                f"phi-sum canonical form capped at n = {CANONICAL_PHI_MAX_N}"
            )
        points = _phi_full(family)
    else:
        if n > CANONICAL_LATTICE_MAX_N:
            raise BoundExceededError(
                f"lattice canonical form capped at n = {CANONICAL_LATTICE_MAX_N} "
                f"(n^(n*n) points)"
            )
        points = product(product(range(n), repeat=n), repeat=n)
    # the certificate vanishes unless every slot is a permutation, and the
    # basis denominator is the product of each variable's, which depends
    # only on each slot's set of values: every point that contributes has
    # the same one, and integer accumulation is exact
    unis = [_uni_numerator(a, n) for a in range(n)]
    denom = prod(unis[a][1] for a in range(n)) ** n
    certs = {}  # per contributing point, by its values in variable order
    for rows in points:
        cert = certificate_eval(family, rows)
        if not cert.is_zero():
            certs[tuple([v for row in rows for v in row])] = cert.coeffs
    # y is carried as 2**shift (Kronecker substitution): the expansion only
    # adds and scales by ints, so each monomial's y coefficients stay one
    # int.  A final coefficient is a sum over points of a certificate
    # coefficient times one numerator coefficient per variable, so bound
    # caps its size and shift gives each a field it fits in, sign included.
    u_max = max([abs(u) for uni, _ in unis for u in uni])
    bound = sum([max(map(abs, cs)) for cs in certs.values()]) * u_max ** y_id
    shift = bound.bit_length() + 1
    width = max(map(len, certs.values()), default=0)
    # a partial sum maps a monomial in the x variables to its packed y
    # coefficients
    groups: dict[tuple[int, ...], dict[Monomial, int]] = {
        values: {(): sum([c << shift * t for t, c in enumerate(cs)])}
        for values, cs in certs.items()
    }
    for vid in range(y_id - 1, -1, -1):
        # times x[vid]'s numerator: the monomials so far hold only later
        # variables, so prepending x[vid] keeps them sorted by id
        up: dict[tuple[int, ...], dict[Monomial, int]] = {}
        for values, part in groups.items():
            acc = up.get(values[:vid])
            if acc is None:
                acc = up[values[:vid]] = {}
            for e, u in enumerate(unis[values[vid]][0]):
                if not u:
                    continue
                var = ((vid, e),) if e else ()
                for mono, ys in part.items():
                    mono = var + mono
                    acc[mono] = acc.get(mono, 0) + u * ys
        groups = up
    fractions: dict[int, Fraction] = {}
    terms = {}
    field_mask = (1 << shift) - 1
    for mono, ys in groups.get((), {}).items():
        for t in range(width):  # unpack, low power first
            c = ys & field_mask
            if c >> shift - 1:  # a negative coefficient
                c -= field_mask + 1
            ys = (ys - c) >> shift
            if c:
                f = fractions.get(c)
                if f is None:
                    f = fractions[c] = Fraction(c, denom)
                terms[mono + ((y_id, t),) if t else mono] = f
    # each monomial lists its x ids ascending, each once, then y; each
    # coefficient is a nonzero Fraction
    return SparsePoly._checked(n, terms)


# === reduction and the small mechanical checks ==========================


def poly_reduce(p: SparsePoly, variables=None) -> SparsePoly:
    """Canonical representative of `p` modulo the falling factorials.

    Every power x^e with e >= n (x in the listed variables, n the lattice
    size) becomes its remainder modulo the falling factorial
    x(x-1)...(x-n+1), which vanishes on Z_n: that leaves degree < n in
    each listed variable and never changes any lattice evaluation.
    Defaults to the x variables of `p`; y is left alone unless listed
    explicitly, since y is not a lattice coordinate.
    """
    n = p.n
    if variables is None:
        vset = frozenset(v for v in p.variables() if v != n * n)
    else:
        variables = tuple(variables)
        if not all(is_int(v) and 0 <= v <= n * n for v in variables):
            raise OutOfRangeError(f"variable ids {variables} must be ints in 0..{n * n}")
        vset = frozenset(variables)
    rems: list[list[int]] = []  # rems[i] is x^(n+i) mod the falling factorial
    out: dict[Monomial, Fraction] = {}
    for mono, coef in p.terms.items():
        factors = []
        for vid, e in mono:
            if e < n or vid not in vset:
                factors.append((vid, [0] * e + [1]))
                continue
            if not rems:
                # the falling factorial is x times the basis numerator through 0
                rems.append([0] + [-c for c in _uni_numerator(0, n)[0][:-1]])
            while len(rems) <= e - n:  # times x, folding its x^n back in
                low, top = [0] + rems[-1][:-1], rems[-1][-1]
                rems.append([a + top * r for a, r in zip(low, rems[0])])
            factors.append((vid, rems[e - n]))
        for m, c in _expand(factors).items():
            out[m] = out.get(m, 0) + coef * c
    return SparsePoly(n=n, terms=out)


def nonvanishing_equivalence_check(family: AugTreeFamily) -> bool:
    """Does `canonical form is nonzero` agree with `the family packs`?

    Expected true for every family; a false return means one of the two
    pipelines has a bug, which is the whole reason this function exists.
    They are independent: the form sums over the Phi listing, and `pack`
    runs its own search and verifies its labeling edge by edge.
    """
    if family.n > CANONICAL_PHI_MAX_N:
        raise BoundExceededError(
            f"equivalence check capped at n = {CANONICAL_PHI_MAX_N}"
        )
    rep = canonical_rep(family, mode="phi-sum")
    return (not rep.is_zero()) == (pack(family).status == PACKED)


def monomial_support_check(sigma) -> bool:
    """Every monomial of the expanded basis for a single permutation must
    touch at least n-1 distinct variables, and the only variable a
    monomial may skip is the one the permutation sends to zero."""
    sig = tuple(sigma)
    for x in sig:
        if not is_int(x):
            raise OutOfRangeError(f"permutation value {x!r} is not a vertex")
    n = len(sig)
    if n > SUPPORT_CHECK_MAX_N:
        raise BoundExceededError(
            f"support check capped at n = {SUPPORT_CHECK_MAX_N}"
        )
    check_permutation(sig, n)
    expanded = lagrange_basis(sig, expand=True)
    skippable = sig.index(0)
    allvars = set(range(n))
    for mono in expanded.terms:
        seen = {vid for vid, _ in mono}
        if len(seen) < n - 1:
            return False
        missing = allvars - seen
        if missing and missing != {skippable}:
            return False
    return True


def variable_dependency_check(p: SparsePoly, power: int) -> bool:
    """Reducing a power of `p` must not drag in outside variables."""
    support = set(p.variables())
    reduced = poly_reduce(p**power, support)
    return set(reduced.variables()) <= support


# === composition implication ============================================


@dataclass(frozen=True)
class CompositionReport:
    """Outcome of checking `squared packable implies original packable`."""

    n: int
    families_checked: int
    steps_checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def composition_implication_check(n: int) -> CompositionReport:
    """Exhaustively confirm that squaring a family never creates
    packability out of nothing: if the fully squared family packs, so does
    the original, and likewise for each single-slot squaring step.  The base
    verdicts are `sweep(n)`'s rows; a streamed sweep must list those not packed.
    A non-int n is a BadSizeError, as in `sweep`."""
    if not is_int(n):
        raise BadSizeError(f"a composition check size must be an int, not {type(n).__name__}")
    if n > COMPOSITION_CHECK_MAX_N:
        raise BoundExceededError(
            f"composition check capped at n = {COMPOSITION_CHECK_MAX_N}"
        )
    report = sweep(n)
    flatten = cache(local_compose)  # trees are immutable and shared between families
    steps = 0
    violations: list[str] = []
    for row, fam in zip(report.rows, family_enumerate(n), strict=True):
        # slot 0 has no edge to contract
        slots = [k for k in range(1, n) if flatten(fam.trees[k]) != fam.trees[k]]
        steps += len(slots)
        # sweep sets no time limit, so a row is exact.  A violation is a
        # squared or stepped family that packs where the base does not: none
        # occurs where the base packs, so those steps count without a pack.
        if row.status == PACKED:
            continue
        squared = compose_square(fam)
        if squared != fam and pack(squared).status == PACKED:
            violations.append(f"family {row.index}: full squaring")
        for k in slots:
            if pack(fam.with_tree(k, flatten(fam.trees[k]))).status == PACKED:
                violations.append(f"family {row.index}: slot {k}")
    return CompositionReport(
        n=n,
        families_checked=report.total,
        steps_checked=steps,
        violations=tuple(violations),
    )
