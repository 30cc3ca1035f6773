"""Order-2 zero spaces: points where a polynomial vanishes together with
all of its first partial derivatives.

Over any field, a point of the order-2 zero space V2(e_d) of e_d in n
variables has at most d-1 distinct coordinates.  The identity

    d e_d / d x_i = e_(d-1)(x without x_i) = sum_j (-x_i)^j e_(d-1-j)(x),

exact over any commutative ring, reads d e_d / d x_i = P(x_i) for
P(y) = sum_j e_(d-1-j)(x) (-y)^j, a polynomial of degree d-1 whose leading
coefficient is (-1)^(d-1) e_0 = +-1.  At a point of V2 every coordinate is a
root of P, and P has at most d-1 roots (none for d = 1: V2(e_1) is empty).

Membership depends only on the multiset of coordinates, so enumerate_v2 and
count_v2 walk strata, not points.  A stratum is a set of r <= d-1 distinct
values with a composition of n into r positive multiplicities m_i; it stands
for the n!/prod m_i! points that arrange it.  The exact test of a stratum
is one generating-function sweep on the field's scalar kernel (esp_raw),
giving e_0..e_d of its n coordinates, and, when e_d vanishes, one pass of
the field's Horner kernel (horner_raw) for each distinct value v: the
coefficients e_(d-1), ..., e_0 at -v, checking P(v) = 0.  That is O(n*d)
ring operations in place of one test for each of its points.

Scaling orbits cut the strata tested by a factor of about q.  e_d is
homogeneous: e_j(lam*x) = lam^j e_j(x), and each partial d e_d / d x_i
scales by lam^(d-1), so x -> lam*x (lam != 0) maps V2(e_d) onto itself and
a stratum S, its values scaled and its multiplicities carried along, onto a
stratum lam*S that is accepted exactly when S is.  The walk therefore tests
only the zero stratum, which every scaling fixes, and the
sum_r C(q-1, r-1) C(n-1, r-1) strata whose values hold 1.  Every other
accepted stratum is lam*S for an accepted S holding 1: a stratum with r'
nonzero values arises from the r' pairs (v^-1 * S, v), v among those
values, so it is kept from the one pair whose lam is its least nonzero
value.  count_v2 adds up the weights of the accepted strata; enumerate_v2
expands them into points.  is_order2_zero runs the same test on a point
when its polynomial is e_d (told from its multilinear terms, read once per
polynomial), and evaluates formal partial derivatives of any other; tests
cross-check the two routes, the walk by orbits against the walk over every
stratum, and the strata against a scan of every point.

Conversely, highly repetitive points get in via binomial coefficients
vanishing mod p; witness_family picks the smallest variable count where a
(d-1)-parameter family of such points works, verifying the binomial
conditions with lucas_binomial before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb

from .field import FieldDescriptor, FieldElement, FieldError, _is_prime, embed, lucas_binomial
from .poly import MAX_VARIABLE_INDEX, Polynomial, _multilinear_terms
from .rng import SplitMix64

SWEEP_CAP = 2**24  # fixed bound on the steps of a walk by orbits: n*d + (q-1)*r per tested stratum
LIST_CAP = 2**20   # fixed bound on points * n, the coordinates a listing holds
SCAN_CAP = 2**16   # product_zero_containment scans at most this many points
TRIAL_STEP_CAP = 2**24  # fixed bound on trials * n * d, the sweep steps witness trials take


class V2Error(ValueError):
    """Raised on guard or precondition failure."""


def is_order2_zero(f: Polynomial, point) -> bool:
    """True iff f and all nvars first partials vanish at the point, exactly.

    When f is e_d in its nvars variables (decided once per polynomial), the
    point gets the strata walk's O(n*d) test: one e_j sweep, then one Horner
    pass of P at each distinct coordinate.  Any other f is evaluated with
    its formal partials."""
    field, d = f.field, _esp_degree(f)
    if d is None:
        pt = tuple(field.element(c) if not isinstance(c, FieldElement) else c for c in point)
        _check_arity(f, len(pt))
        if not f.evaluate(pt).is_zero:
            return False
        return all(f.partial_derivative(i).evaluate(pt).is_zero
                   for i in range(1, f.nvars + 1))
    # one pass to raws, raising what the formal route raises, in its order
    F, mixed, raws = None, False, []
    for c in point:
        if not isinstance(c, FieldElement):
            c = field.element(c)
        if c.field is not F:
            mixed, F = mixed or F is not None, c.field
        raws.append(c.raw)
    _check_arity(f, len(raws))
    if mixed:
        raise FieldError("point coordinates live in mixed fields")
    F = F or field
    embed(field.one, F)  # as evaluate does: F must host f's coefficients
    return _order2_vanishes(F, d, raws, set(raws))


def _check_arity(f: Polynomial, count: int) -> None:
    if count != f.nvars:
        raise V2Error(f"point has {count} coordinates, f has {f.nvars} variables")


def _esp_degree(f: Polynomial):
    """d when f is exactly e_d in its nvars variables, else None.  The first
    call scans f's terms and keeps the answer in f's _esp slot."""
    try:
        return f._esp
    except AttributeError:
        f._esp = d = _scan_esp(f)
        return d


def _scan_esp(f: Polynomial):
    """_esp_degree's scan: C(nvars, d) terms, each multilinear of degree d
    with coefficient 1, are every d-subset of the variables, once."""
    d = f.degree()
    if d < 0 or len(f._terms) != comb(f.nvars, d):
        return None
    table = _multilinear_terms(f, d)
    return d if len(table) == len(f._terms) and set(table.values()) == {f.field.one_raw} else None


def _order2_vanishes(F: FieldDescriptor, d: int, coords, values) -> bool:
    """Whether e_d and d e_d / d x_i = P(x_i) vanish at raw coordinates in F
    whose distinct values are values, by one sweep and one horner_raw call
    per value."""
    e, zero = F.esp_raw(coords, d), F.zero_raw
    if e[d] != zero:
        return False
    P, horner, neg = e[d - 1::-1], F.horner_raw, F.neg_raw   # P(y) = sum_j e_(d-1-j) (-y)^j
    for x in values:
        if horner(P, neg(x)) != zero:
            return False
    return True


def in_s_k(point, k: int) -> bool:
    """True iff the point has at most k distinct coordinate values."""
    return len(set(point)) <= k


@dataclass
class V2PointSet:
    """Exhaustive list of order-2 zeros of e_d in n variables over a field."""

    field: FieldDescriptor
    n: int
    d: int
    points: list

    @property
    def count(self) -> int:
        return len(self.points)

    def to_json(self) -> dict:
        return {
            "field": self.field.spec_string(),
            "n": self.n,
            "d": self.d,
            "count": self.count,
            "points": [[str(c) for c in pt] for pt in self.points],
        }


def _walk_cost(n: int, d: int, q: int, limit: int) -> tuple[int, int]:
    """(strata, steps) of a walk by orbits: for 1 <= r <= min(d-1, q, n),
    the C(q-1, r-1) C(n-1, r-1) strata of r values holding 1, and at r = 1
    the zero stratum, each tested at n*d sweep steps plus (q-1)*r steps for
    its scalings.  The sum stops as soon as the steps pass limit, so it
    costs at most limit + 1 terms."""
    strata = steps = 0
    for r in range(1, min(d - 1, q, n) + 1):
        count = (comb(q - 1, r - 1) + (r == 1)) * comb(n - 1, r - 1)
        strata += count
        steps += count * (n * d + (q - 1) * r)
        if steps > limit:
            break
    return strata, steps


def _multiset(values, mults) -> list:
    """The stratum's coordinates, ascending: each value repeated m_i times."""
    coords = []
    for v, m in zip(values, mults):
        coords += [v] * m
    return coords


def _multinomial(mults) -> int:
    """n!/prod m_i!: the number of points arranging a stratum."""
    out, total = 1, 0
    for m in mults:
        total += m
        out *= comb(total, m)
    return out


def _check_walk(n: int, d: int, F: FieldDescriptor) -> None:
    """Raise V2Error unless a strata walk of F^n to degree d is defined and
    takes at most SWEEP_CAP steps; run before any stratum is tested."""
    if F.order is None:
        raise V2Error("enumeration needs a finite field")
    if not 1 <= d <= n:
        raise V2Error(f"need 1 <= d <= n, got d={d}, n={n}")
    strata, steps = _walk_cost(n, d, F.order, SWEEP_CAP)
    if steps > SWEEP_CAP:
        raise V2Error(f"{strata} or more strata of {n} coordinates to degree {d} "
                      f"exceed the fixed bound of {SWEEP_CAP} sweep and scaling steps")


def _accepted_strata(n: int, d: int, F: FieldDescriptor) -> list:
    """(ascending values, multiplicities) of the strata of F^n in V2(e_d), by
    scaling orbits; after _check_walk.  The raw values of a finite field are
    its element indices 0..q-1, with 0 its zero and 1 its one.  Only the zero
    stratum and the strata holding 1 are tested; each accepted one is scaled
    by every unit lam, and lam*S is kept when lam is its least nonzero value,
    so every stratum is listed once."""
    q, mul = F.order, F.mul_raw
    accepted = []
    if d >= 2 and _order2_vanishes(F, d, [0] * n, (0,)):
        accepted.append(((0,), (n,)))
    others = [v for v in range(q) if v != 1]
    for r in range(1, min(d - 1, q, n) + 1):
        for cuts in combinations(range(1, n), r - 1):
            mults = tuple(b - a for a, b in zip((0,) + cuts, cuts + (n,)))
            for rest in combinations(others, r - 1):
                values = tuple(sorted(rest + (1,)))
                if not _order2_vanishes(F, d, _multiset(values, mults), values):
                    continue
                for lam in range(1, q):
                    scaled = [mul(v, lam) for v in values]
                    if all(x >= lam or not x for x in scaled):
                        pairs = sorted(zip(scaled, mults))
                        accepted.append((tuple(v for v, _ in pairs), tuple(m for _, m in pairs)))
    return accepted


def _arrangements(a: list):
    """Every distinct ordering of the ascending list a, in lexicographic
    order, by the next-permutation step; a is consumed."""
    last = len(a) - 1
    while True:
        yield tuple(a)
        i = last - 1
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]


def count_v2(n: int, d: int, F: FieldDescriptor) -> int:
    """Number of points of the order-2 zero space of e_d^n over a finite
    field, from the strata alone; no point is built."""
    return count_v2_tower(n, d, [F])[0]


def count_v2_tower(n: int, d: int, fields) -> list[int]:
    """count_v2 over each field; every field is checked before any is counted."""
    for F in fields:
        _check_walk(n, d, F)
    return [sum(_multinomial(mults) for _, mults in _accepted_strata(n, d, F)) for F in fields]


def enumerate_v2(n: int, d: int, F: FieldDescriptor) -> V2PointSet:
    """All points of the order-2 zero space of e_d^n over a finite field.

    Points are listed in lexicographic order over the field's canonical
    element order, so the output list is deterministic.  A listing of more
    than LIST_CAP coordinates (points times n) is refused before any point
    is built.
    """
    _check_walk(n, d, F)
    accepted = _accepted_strata(n, d, F)
    total = sum(_multinomial(mults) for _, mults in accepted)
    if total * n > LIST_CAP:
        raise V2Error(f"{total} points of {n} coordinates exceed the fixed bound "
                      f"of {LIST_CAP} listed coordinates")
    points = []
    for values, mults in accepted:
        points += _arrangements(_multiset(values, mults))
    points.sort()
    elems = list(F.elements())
    points = [tuple(map(elems.__getitem__, raws)) for raws in points]
    return V2PointSet(field=F, n=n, d=d, points=points)


def dimension_estimate(counts, p: int):
    """Least-squares slope of floor(log_p(count)) against extension degree k.

    Input is a list of (k, count) pairs from enumerate_v2 over a tower of
    extensions.  Each count is read as the integer D with p^D <= count <
    p^(D+1), found by integer powers, so the whole estimate is exact
    arithmetic.  A p-power count keeps its exact logarithm; any other count
    is read as its floor, e.g. the counts 14, 76, 344, 1456, 5984, 24256 of
    V2(e_3) in 6 variables over GF(2^k), k = 1..6, give D = 3, 6, 8, 10, 12,
    14 and the slope 15/7, which rounds to the expected 2.  Returns a
    Fraction; None marks an empty variety (all counts zero).  This is an
    empirical proxy for dimension, not a proof.
    """
    if p < 2:
        raise V2Error(f"the logarithm base p = {p} must be at least 2")
    data = [(k, c) for k, c in counts if c > 0]
    if not data:
        return None
    if len(data) < 2:
        raise V2Error("need at least two nonzero counts for a slope")

    def floor_log_p(c: int) -> int:
        d, power = 0, p
        while power <= c:
            power *= p
            d += 1
        return d

    xs = [Fraction(k) for k, _ in data]
    ys = [Fraction(floor_log_p(c)) for _, c in data]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    num = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    den = sum((x - xbar) ** 2 for x in xs)
    return num / den


@dataclass(frozen=True)
class WitnessFamily:
    """A (d-1)-parameter family of order-2 zeros of e_d in n variables.

    The map repeats the last parameter: the point is (b_1, ..., b_(d-2),
    b_(d-1), b_(d-1), ...) out to n coordinates.
    """

    p: int
    d: int
    n: int

    @property
    def parameter_arity(self) -> int:
        return self.d - 1

    def point(self, betas, field: FieldDescriptor) -> tuple:
        betas = tuple(field.element(b) if not isinstance(b, FieldElement) else b
                      for b in betas)
        if len(betas) != self.parameter_arity:
            raise V2Error(f"expected {self.parameter_arity} parameters, got {len(betas)}")
        if field.characteristic != self.p:
            raise V2Error(f"field {field} has the wrong characteristic for p={self.p}")
        head = betas[:self.d - 2]
        return head + (betas[-1],) * (self.n - len(head))

    def required_binomials(self):
        """The (a, i) pairs whose binomial coefficients must vanish mod p."""
        top1 = self.n - self.d + 2
        top2 = self.n - self.d + 1
        pairs = [(top1, i) for i in range(2, min(self.d, top1) + 1)]
        pairs += [(top2, i) for i in range(1, min(self.d - 1, top2) + 1)]
        return pairs


def witness_family(p: int, d: int) -> WitnessFamily:
    """Smallest n making the repeated-coordinate family land in the order-2
    zero space of e_d^n over characteristic p.

    Requires n - d + 1 to be a power of p, at least d - 1, and the binomial
    coefficients C(n-d+2, i) for 2 <= i <= d and C(n-d+1, i) for
    1 <= i <= d-1 to vanish mod p (checked with lucas_binomial).  d must be
    at least 2: V2(e_1) is empty.  A d whose n would pass
    MAX_VARIABLE_INDEX is refused before any binomial is listed.
    """
    if not _is_prime(p):
        raise V2Error(f"p = {p} is not prime")
    if d < 2:
        raise V2Error(f"a witness family needs d >= 2 (V2(e_1) is empty), got d = {d}")
    r = 1                                    # n - d + 1, over the powers of p
    while True:
        if r + d - 1 > MAX_VARIABLE_INDEX:
            raise V2Error(f"the witness family for p = {p}, d = {d} needs more than "
                          f"{MAX_VARIABLE_INDEX} variables")
        if r >= d - 1:
            fam = WitnessFamily(p=p, d=d, n=r + d - 1)
            if all(lucas_binomial(a, i, p) == 0 for a, i in fam.required_binomials()):
                return fam
        r *= p


def product_zero_containment(factors, trials: int, seed: int) -> bool:
    """Check that common zeros of all factor pairs are order-2 zeros of the
    sum of products.

    factors is a list of (f, g) pairs of constant-free polynomials over a
    finite field.  Point spaces of at most SCAN_CAP points are scanned
    exhaustively; larger ones are sampled with the seeded generator.
    Returns True iff no sampled or enumerated common zero fails the order-2
    test.
    """
    if not factors:
        raise V2Error("need at least one factor pair")
    pairs = []
    for f, g in factors:
        if not f.is_constant_free() or not g.is_constant_free():
            raise V2Error("all factors must be constant-free")
        pairs.append((f, g))
    F = pairs[0][0].field
    if F.order is None:
        raise V2Error("containment scan needs a finite field")
    total = Polynomial.zero(F)
    n = 0
    for f, g in pairs:
        if f.field != F or g.field != F:
            raise V2Error("factor pairs live over mixed fields")
        total = total + f * g
        n = max(n, f.nvars, g.nvars)
    n = max(n, total.nvars, 1)
    total = total + Polynomial.zero(F, n)

    q = F.order

    def common_zero(pt) -> bool:
        return all(f.evaluate(pt).is_zero and g.evaluate(pt).is_zero
                   for f, g in pairs)

    if q**n <= SCAN_CAP:
        candidates = product(list(F.elements()), repeat=n)
    else:
        rng = SplitMix64(seed)
        candidates = (tuple(F.element_at(rng.below(q)) for _ in range(n))
                      for _ in range(trials))
    for pt in candidates:
        if common_zero(pt) and not is_order2_zero(total, pt):
            return False
    return True

