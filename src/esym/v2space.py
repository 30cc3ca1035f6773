"""Order-2 zero spaces: points where a polynomial vanishes together with
all of its first partial derivatives.

enumerate_v2 scans every point of F^n for e_d without differentiating
formally.  One generating-function sweep (esp_sweep) gives e_0..e_d of the
point's coordinates.  When e_d vanishes, each partial is checked through

    d e_d / d x_i = e_(d-1)(x without x_i) = sum_j (-x_i)^j e_(d-1-j)(x),

an identity exact over any commutative ring, evaluated by one Horner pass in
-x_i per distinct coordinate value.  A point thus costs O(n*d) ring
operations.  is_order2_zero keeps the formal-derivative route for arbitrary
polynomials; the two agree and tests cross-check them.

Every point of the order-2 zero space of e_d has at most d-1 distinct
coordinates, and conversely highly repetitive points get in via binomial
coefficients vanishing mod p; witness_family picks the smallest variable
count where a (d-1)-parameter family of such points works, verifying the
binomial conditions with lucas_binomial before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import log

from .field import FieldDescriptor, FieldElement, _is_prime, esp_sweep, lucas_binomial
from .poly import Polynomial
from .rng import SplitMix64

POINT_CAP = 2**24


class V2Error(ValueError):
    """Raised on guard or precondition failure."""


def is_order2_zero(f: Polynomial, point) -> bool:
    """True iff f and all nvars first partials vanish at the point, exactly."""
    pt = tuple(f.field.element(c) if not isinstance(c, FieldElement) else c
               for c in point)
    if len(pt) != f.nvars:
        raise V2Error(f"point has {len(pt)} coordinates, f has {f.nvars} variables")
    if not f.evaluate(pt).is_zero:
        return False
    return all(f.partial_derivative(i).evaluate(pt).is_zero
               for i in range(1, f.nvars + 1))


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


def enumerate_v2(n: int, d: int, F: FieldDescriptor, cap: int = POINT_CAP) -> V2PointSet:
    """All points of the order-2 zero space of e_d^n over a finite field.

    Points are visited in odometer order over the field's canonical element
    order, so the output list is deterministic.
    """
    if F.order is None:
        raise V2Error("enumeration needs a finite field")
    if not 1 <= d <= n:
        raise V2Error(f"need 1 <= d <= n, got d={d}, n={n}")
    if F.order**n > cap:
        raise V2Error(f"{F.order}^{n} points exceed the cap of {cap}")

    add, mul, neg, zero, one = F.add_raw, F.mul_raw, F.neg_raw, F.zero_raw, F.one_raw
    elems = list(F.elements())
    points = []
    # the raw values of a finite field are its element indices 0..q-1
    for coords in product(range(F.order), repeat=n):
        e = esp_sweep(coords, d, zero, one, add, mul)
        if e[d] != zero:
            continue
        for x in set(coords):
            m, acc = neg(x), one  # Horner for sum_j (-x)^j e_(d-1-j)
            for j in range(1, d):
                acc = add(mul(acc, m), e[j])
            if acc != zero:
                break
        else:
            points.append(tuple(elems[c] for c in coords))
    return V2PointSet(field=F, n=n, d=d, points=points)


def dimension_estimate(counts, p: int):
    """Least-squares slope of log_p(count) against extension degree k.

    Input is a list of (k, count) pairs from enumerate_v2 over a tower of
    extensions.  Returns an exact Fraction; None marks an empty variety
    (all counts zero).  This is an empirical proxy for dimension, not a
    proof.
    """
    data = [(k, c) for k, c in counts if c > 0]
    if not data:
        return None
    if len(data) < 2:
        raise V2Error("need at least two nonzero counts for a slope")

    def log_p(c: int) -> Fraction:
        e = 0
        m = c
        while m % p == 0:
            m //= p
            e += 1
        if m == 1:
            return Fraction(e)
        return Fraction(log(c, p)).limit_denominator(10**9)

    xs = [Fraction(k) for k, _ in data]
    ys = [log_p(c) for _, c in data]
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
    1 <= i <= d-1 to vanish mod p (checked with lucas_binomial).
    """
    if not _is_prime(p):
        raise V2Error(f"p = {p} is not prime")
    if d < 1:
        raise V2Error("d must be positive")
    n = d
    while True:
        r = n - d + 1
        if r >= max(1, d - 1) and _is_p_power(r, p):
            fam = WitnessFamily(p=p, d=d, n=n)
            if all(lucas_binomial(a, i, p) == 0 for a, i in fam.required_binomials()):
                return fam
        n += 1


def _is_p_power(r: int, p: int) -> bool:
    if r < 1:
        return False
    while r % p == 0:
        r //= p
    return r == 1


def product_zero_containment(factors, trials: int, seed: int,
                             cap: int = 2**16) -> bool:
    """Check that common zeros of all factor pairs are order-2 zeros of the
    sum of products.

    factors is a list of (f, g) pairs of constant-free polynomials over a
    finite field.  Small point spaces are scanned exhaustively; larger ones
    are sampled with the seeded generator.  Returns True iff no sampled or
    enumerated common zero fails the order-2 test.
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

    if q**n <= cap:
        candidates = product(list(F.elements()), repeat=n)
    else:
        rng = SplitMix64(seed)
        candidates = (tuple(F.element_at(rng.below(q)) for _ in range(n))
                      for _ in range(trials))
    for pt in candidates:
        if common_zero(pt) and not is_order2_zero(total, pt):
            return False
    return True

