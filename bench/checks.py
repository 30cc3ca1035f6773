"""Answer checks for the benchmark jobs, written so they do not trust esym.

Each checker takes a job's answer and raises CheckFailed when it is wrong.
The checkers rely on closed forms and theorems (F = 1 on the block
polynomial, vanishing on members, |V2(e_2^5)| = 2^k, containment of V2 in
S_(d-1)) and on the small exact arithmetic defined here: finite fields as
digit vectors modulo a monic modulus (with their own log tables), rationals
as Fractions, and sparse
polynomials as dicts from exponent tuples to coefficients.  Nothing here
calls esym arithmetic; answers are read only through the public surface
(Polynomial.terms(), FieldElement.raw, LinearForm.coefficients, Formula
trees of Leaf/Gate nodes, report fields).  The one exception is documented
in check_ben_or: the exact comparison with gen_esp for n <= 10 reuses esym
on purpose, on top of the independent evaluation check.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction


class CheckFailed(Exception):
    """A job's answer disagrees with the benchmark's own reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# exact coefficient arithmetic

class Rationals:
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def from_int(self, n):
        return Fraction(n)


class GF:
    """GF(p^k) with elements as base-p digit integers, constant digit first,
    reduced modulo a monic modulus given constant-first (k = 1: plain
    residues).  This is the documented raw encoding of esym elements, so raw
    values can be compared directly."""

    zero = 0
    one = 1

    def __init__(self, p: int, modulus=(0, 1)):
        self.p = p
        self.modulus = tuple(modulus)
        self.k = len(self.modulus) - 1
        self.order = p ** self.k
        self._exp = self._log = None
        if self.k > 1:
            self._build_tables()

    def _build_tables(self):
        """Discrete log/antilog tables from the first generator found."""
        group = self.order - 1
        primes = [r for r in range(2, group + 1)
                  if group % r == 0 and all(r % s for s in range(2, int(r ** 0.5) + 1))]
        for gen in range(2, self.order):
            if all(self._pow_slow(gen, group // r) != 1 for r in primes):
                break
        exp = [1] * group
        for i in range(1, group):
            exp[i] = self._mul_slow(exp[i - 1], gen)
        log = [0] * self.order
        for i, v in enumerate(exp):
            log[v] = i
        self._exp, self._log = exp, log

    def digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.k):
            a, r = divmod(a, self.p)
            out.append(r)
        return out

    def undigits(self, cs) -> int:
        out = 0
        for c in reversed(cs):
            out = out * self.p + c
        return out

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self.undigits([(x + y) % self.p
                              for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a):
        if self.k == 1:
            return (-a) % self.p
        return self.undigits([(-x) % self.p for x in self.digits(a)])

    def mul(self, a, b):
        if self.k == 1:
            return (a * b) % self.p
        if not a or not b:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def _mul_slow(self, a, b):
        """Digit convolution reduced by the modulus."""
        p, k, m = self.p, self.k, self.modulus
        da, db = self.digits(a), self.digits(b)
        conv = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    conv[i + j] += x * y
        for e in range(2 * k - 2, k - 1, -1):
            c = conv[e] % p
            if c:
                for i in range(k):
                    conv[e - k + i] -= c * m[i]
        return self.undigits([c % p for c in conv[:k]])

    def _pow_slow(self, a, n: int):
        r = 1
        while n:
            if n & 1:
                r = self._mul_slow(r, a)
            a = self._mul_slow(a, a)
            n >>= 1
        return r

    def pow(self, a, n: int):
        r = 1
        while n:
            if n & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            n >>= 1
        return r

    def from_int(self, n):
        return n % self.p


def _irreducible(m, p: int) -> bool:
    """Trial division of a monic constant-first polynomial by every monic
    polynomial of degree up to half its own."""
    k = len(m) - 1
    for deg in range(1, k // 2 + 1):
        for idx in range(p ** deg):
            div = [(idx // p ** i) % p for i in range(deg)] + [1]
            rem = list(m)
            for top in range(k, deg - 1, -1):
                c = rem[top] % p
                if c:
                    for i in range(deg + 1):
                        rem[top - deg + i] = (rem[top - deg + i] - c * div[i]) % p
            if not any(r % p for r in rem[:deg]):
                return False
    return True


def extension(p: int, k: int) -> GF:
    """A degree-k extension of GF(p) found by the benchmark's own search."""
    for idx in range(p ** k):
        low = [(idx // p ** i) % p for i in range(k)]
        if low[0] and _irreducible(low + [1], p):
            return GF(p, low + [1])
    raise ValueError(f"no irreducible of degree {k} over GF({p})")


def arith_of(field):
    """Own arithmetic matching an esym field descriptor."""
    if field.order is None:
        return Rationals()
    if field.k == 1:
        return GF(field.p)
    return GF(field.p, field.modulus)


# ---------------------------------------------------------------------------
# sparse polynomials: {exponent tuple (trailing zeros trimmed): coefficient}

def trim(mono) -> tuple:
    mono = list(mono)
    while mono and mono[-1] == 0:
        mono.pop()
    return tuple(mono)


def poly_of(poly) -> dict:
    """Own copy of an esym Polynomial, read through terms()."""
    return {trim(m): c.raw for m, c in poly.terms()}


def linear(A, coeffs) -> dict:
    """The linear form sum c_i x_i from a list of raw coefficients."""
    return {(0,) * i + (1,): c for i, c in enumerate(coeffs) if c != A.zero}


def padd(A, f: dict, g: dict) -> dict:
    out = dict(f)
    for m, c in g.items():
        s = A.add(out.get(m, A.zero), c)
        if s == A.zero:
            out.pop(m, None)
        else:
            out[m] = s
    return out


def pscale(A, f: dict, c) -> dict:
    if c == A.zero:
        return {}
    return {m: A.mul(x, c) for m, x in f.items()}


def pmul(A, f: dict, g: dict) -> dict:
    out: dict = {}
    for ma, ca in f.items():
        for mb, cb in g.items():
            if len(ma) < len(mb):
                m = tuple(x + y for x, y in zip(mb, ma)) + mb[len(ma):]
            else:
                m = tuple(x + y for x, y in zip(ma, mb)) + ma[len(mb):]
            s = A.add(out.get(m, A.zero), A.mul(ca, cb))
            if s == A.zero:
                out.pop(m, None)
            else:
                out[m] = s
    return out


def ppow(A, f: dict, n: int) -> dict:
    out = {(): A.one}
    for _ in range(n):
        out = pmul(A, out, f)
    return out


def esp_polys(A, forms, dmax: int) -> list[dict]:
    """[e_0 .. e_dmax] of the given own polynomials, by the product DP."""
    table = [{(): A.one}] + [{} for _ in range(dmax)]
    for f in forms:
        for k in range(dmax, 0, -1):
            table[k] = padd(A, table[k], pmul(A, f, table[k - 1]))
    return table


def esp_values(A, values, dmax: int) -> list:
    """[e_0 .. e_dmax] of field values, by the same DP on scalars."""
    table = [A.one] + [A.zero] * dmax
    for x in values:
        for k in range(dmax, 0, -1):
            table[k] = A.add(table[k], A.mul(x, table[k - 1]))
    return table


def evaluate(A, f: dict, point, powers=None) -> object:
    """f at a point; powers caches x_i^e across calls at the same point."""
    powers = {} if powers is None else powers
    acc = A.zero
    for m, c in f.items():
        term = c
        for i, e in enumerate(m):
            if e:
                x = powers.get((i, e))
                if x is None:
                    x = powers[(i, e)] = A.pow(point[i], e)
                term = A.mul(term, x)
        acc = A.add(acc, term)
    return acc


def degree(f: dict) -> int:
    return max((sum(m) for m in f), default=-1)


# ---------------------------------------------------------------------------
# formula trees (Leaf has .label; Gate has .op, .left, .right)

class Tree:
    """Own view of a formula tree: nodes in postorder, leaf labels as own
    polynomials (read once via terms())."""

    def __init__(self, root):
        stack, self.order = [(root, False)], []
        while stack:
            node, done = stack.pop()
            if done or not hasattr(node, "op"):
                self.order.append(node)
            else:
                stack.append((node, True))
                stack.append((node.right, False))
                stack.append((node.left, False))
        self.labels = {id(n): poly_of(n.label) for n in self.order if not hasattr(n, "op")}

    def _fold(self, leaf, gate):
        values = {}
        for node in self.order:
            if hasattr(node, "op"):
                values[id(node)] = gate(node.op, values[id(node.left)], values[id(node.right)])
            else:
                values[id(node)] = leaf(self.labels[id(node)])
        return values[id(self.order[-1])]

    def evaluate(self, A, point):
        powers = {}
        return self._fold(lambda f: evaluate(A, f, point, powers),
                          lambda op, a, b: A.add(a, b) if op == "+" else A.mul(a, b))

    def formal_degree(self) -> int:
        return self._fold(lambda f: max(degree(f), 0),
                          lambda op, a, b: max(a, b) if op == "+" else a + b)

    def size(self) -> int:
        return sum(1 for f in self.labels.values() if degree(f) >= 1)


# ---------------------------------------------------------------------------
# checkers, one per job kind; each raises CheckFailed on a wrong answer

def check_identity(report) -> None:
    """The five identity families are theorems: every instance must hold."""
    require(report.holds, f"{report.kind} {report.params} reported as failing")
    require(not list(report.discrepancy.terms()),
            f"{report.kind} {report.params} has a nonzero discrepancy")


def check_esp_table(A, forms: list[dict], table) -> None:
    expect = esp_polys(A, forms, len(table) - 1)
    for k, (got, want) in enumerate(zip(table, expect)):
        require(poly_of(got) == want, f"e_{k} of the forms differs from the product DP")


def check_e4_e3(A, product, nvars: int = 12) -> None:
    """e_4 * e_3: the monomial with a squared and b single variables has
    coefficient C(b, 4 - a), so the term count has a closed form too."""
    terms = poly_of(product)
    expected_count = 0
    for a in range(4):
        b = 7 - 2 * a
        if A.from_int(math.comb(b, 4 - a)) != A.zero:
            expected_count += math.comb(nvars, a) * math.comb(nvars - a, b)
    require(len(terms) == expected_count,
            f"e4*e3 has {len(terms)} terms, expected {expected_count}")
    for m, c in terms.items():
        a, b = m.count(2), m.count(1)
        require(len(m) <= nvars and a + b == sum(1 for e in m if e) and 2 * a + b == 7,
                f"e4*e3 has a stray monomial {m}")
        require(c == A.from_int(math.comb(b, 4 - a)), f"e4*e3 coefficient at {m} is {c}")


def _form_rows(forms) -> list[list]:
    return [[c.raw for c in f.coefficients] for f in forms]


def check_quadratic_rep(A, target: dict, forms) -> None:
    """e_2 of the gadget forms is the target and e_1 vanishes."""
    own = [linear(A, row) for row in _form_rows(forms)]
    table = esp_polys(A, own, 2)
    require(not table[1], "e_1 of the gadget forms is not zero")
    require(table[2] == target, "e_2 of the gadget forms is not the target")


def _series_mul(A, s: list, t: list) -> list:
    T = min(len(s), len(t))
    out = [{} for _ in range(T)]
    for i in range(T):
        if s[i]:
            for j in range(T - i):
                if t[j]:
                    out[i + j] = padd(A, out[i + j], pmul(A, s[i], t[j]))
    return out


def _series_of(s) -> list:
    return [poly_of(c) for c in s.coeffs]


def check_round_trip(A, target: dict, answer) -> None:
    """GF(4) border round trip: the gadget, then kumar_fanin2 extracts the
    target at order 2, then depth3_to_sym gives symmetric terms whose
    degree-2 parts sum to eps^2 * target + higher order."""
    rep, witness, reps = answer
    check_quadratic_rep(A, target, rep.forms)
    require(witness.order == 2, f"kumar extraction at order {witness.order}, not 2")
    require(poly_of(witness.principal) == target, "kumar principal is not the target")
    total = None
    for r in reps:
        forms = [_series_of(f) for f in r.forms]
        T = min([len(f) for f in forms] + [r.scalar.truncation])
        table = [[{(): A.one}] + [{} for _ in range(T - 1)]]
        table += [[{} for _ in range(T)] for _ in range(r.degree)]
        for f in forms:
            for j in range(r.degree, 0, -1):
                prod = _series_mul(A, table[j - 1], f)
                table[j] = [padd(A, x, y) for x, y in zip(table[j], prod)]
        realized = _series_mul(A, _series_of(r.scalar), table[r.degree])
        realized = [{m: c for m, c in part.items() if sum(m) == 2} for part in realized]
        total = realized if total is None else [
            padd(A, x, y) for x, y in zip(total, realized)]
    require(total is not None, "depth3_to_sym returned no terms")
    order = next((i for i, part in enumerate(total) if part), None)
    require(order == 2 and total[2] == target,
            f"symmetric terms extract at order {order}, not the target at 2")


def check_newton(A, forms, p: int, dec) -> None:
    """Reassemble the Newton split with own arithmetic and compare it with
    e_(p+1) of the forms."""
    own_forms = [linear(A, row) for row in _form_rows(forms)]
    want = esp_polys(A, own_forms, p + 1)[p + 1]
    got = {}
    for r in dec.reducibles:
        low, high = poly_of(r.factor_low), poly_of(r.factor_high)
        require(degree(low) <= degree(high) or not low or not high,
                "reducible factors out of degree order")
        got = padd(A, got, pmul(A, low, high))
    frob = linear(A, [c.raw for c in dec.frobenius_term.coefficients])
    got = padd(A, got, ppow(A, frob, p + 1))
    sign = A.one if dec.power_sign == 1 else A.neg(A.one)
    require(dec.power_sign == (1 if p == 2 else -1), "wrong power sign")
    for L in dec.linear_power_terms:
        own = linear(A, [c.raw for c in L.coefficients])
        got = padd(A, got, pscale(A, ppow(A, own, p + 1), sign))
    require(got == want, "Newton pieces do not reassemble e_(p+1) of the forms")


def check_cli(answer, **expected) -> None:
    code, report = answer
    require(code == 0, f"cli exit code {code}")
    for key, value in expected.items():
        require(report.get(key) == value, f"cli report {key} = {report.get(key)!r}, "
                                          f"expected {value!r}")


def _in_s(values, k: int) -> bool:
    return len(set(values)) <= k


def check_v2(A, n: int, d: int, points, rng: random.Random, samples: int = 12) -> None:
    """Structure of an order-2 zero set of e_d in n variables:
    V2 lies in S_(d-1); d = 1 gives nothing; d = n gives the points with at
    least two zero coordinates; e_2 in 5 variables over GF(2^k) has 2^k
    points.  A seeded sample of points is re-verified as order-2 zeros."""
    q = A.order
    raws = [tuple(c.raw for c in pt) for pt in points.points]
    require(len(set(raws)) == len(raws), "V2 point list has duplicates")
    if d == 1:
        require(not raws, "e_1 has order-2 zeros")
    if d == n:
        expected = q ** n - (q - 1) ** n - n * (q - 1) ** (n - 1)
        require(len(raws) == expected, f"|V2(e_{n}^{n})| = {len(raws)}, expected {expected}")
    if (n, d) == (5, 2) and A.p == 2:
        require(len(raws) == q, f"|V2(e_2^5)| over GF({q}) = {len(raws)}, expected {q}")
    for pt in raws:
        require(len(pt) == n, f"V2 point {pt} has the wrong length")
        require(d == 1 or _in_s(pt, d - 1), f"V2 point {pt} lies outside S_{d - 1}")
    for pt in rng.sample(raws, min(samples, len(raws))):
        require(is_order2_zero(A, pt, d), f"V2 point {pt} is not an order-2 zero")


def is_order2_zero(A, values, d: int) -> bool:
    """e_d and every leave-one-out e_(d-1) vanish at the values."""
    if esp_values(A, values, d)[d] != A.zero:
        return False
    for i in range(len(values)):
        rest = values[:i] + values[i + 1:]
        if esp_values(A, rest, d - 1)[d - 1] != A.zero:
            return False
    return True


def check_witness(A, d: int, point, verdict: bool) -> None:
    """Witness-family points are order-2 zeros (the family's theorem),
    re-verified with own arithmetic."""
    require(verdict is True, f"witness point {point} reported as not an order-2 zero")
    values = tuple(c.raw for c in point)
    require(is_order2_zero(A, values, d), f"witness point {values} is not an order-2 zero")


def partitions(n: int, block: int) -> int:
    ell = n // block
    return math.factorial(n) // (math.factorial(block) ** ell * math.factorial(ell))


def check_hard(p: int, ell: int, report) -> None:
    """The block polynomial has F = 1 over exactly n!/((p+1)!^ell ell!)
    partitions, which rules out k up to ceil(ell/(p-1)) - 1."""
    n = (p + 1) * ell
    require(report.F_value.raw == 1, f"F(hard_poly({p},{ell})) = {report.F_value}, not 1")
    require(report.partitions_evaluated == partitions(n, p + 1),
            f"{report.partitions_evaluated} partitions, expected {partitions(n, p + 1)}")
    require(report.verdict == "nonmember", f"verdict {report.verdict}")
    require(report.nonmember_of_k_up_to == -(-ell // (p - 1)) - 1,
            f"bound {report.nonmember_of_k_up_to}")


def check_member(k: int, p: int, ell: int, value) -> None:
    """Members of the k-term class with ell > k(p-1) have F = 0."""
    require(ell > k * (p - 1), "setting does not qualify")
    require(value.raw == 0, f"partition sum {value} on a member, expected 0")


def check_peel(A, phi, d_prime: int, dec, points) -> None:
    """The four peel invariants: the identity phi = residual + sum f_i g_i
    (by evaluation at seeded points of an extension A of the base field,
    where each point passes a false identity with probability at most
    deg/|A|), constant-free
    pairs, residual formal degree below d', and k*d'/3 <= size."""
    source, residual = Tree(phi.root), Tree(dec.residual.root)
    size = source.size()
    require(dec.k == len(dec.pairs), "k does not match the pair count")
    require(dec.k * d_prime <= 3 * size,
            f"k*d'/3 = {dec.k}*{d_prime}/3 exceeds the size {size}")
    require(residual.formal_degree() < d_prime,
            f"residual formal degree {residual.formal_degree()} >= {d_prime}")
    own_pairs = []
    for f, g in dec.pairs:
        of, og = poly_of(f), poly_of(g)
        require(() not in of and () not in og and of and og, "a pair is not constant-free")
        own_pairs.append((of, og))
    for pt in points:
        lhs = source.evaluate(A, pt)
        rhs = residual.evaluate(A, pt)
        powers = {}
        for of, og in own_pairs:
            rhs = A.add(rhs, A.mul(evaluate(A, of, pt, powers), evaluate(A, og, pt, powers)))
        require(lhs == rhs, "phi != residual + sum f_i g_i at a test point")


def check_ben_or(A, n: int, d: int, phi, points, exact=None) -> None:
    """Ben-Or's formula evaluates to e_d at seeded points (own tree walk
    against the own e_d DP, never the 2^n expansion), has size at most
    (n+1)n, and for n <= 10 expands exactly to gen_esp (exact is that
    comparison, made with esym)."""
    tree = Tree(phi.root)
    size = tree.size()
    require(size <= (n + 1) * n, f"ben_or size {size} > {(n + 1) * n}")
    for pt in points:
        got = tree.evaluate(A, pt)
        want = esp_values(A, pt, d)[d]
        require(got == want, f"ben_or({n},{d}) evaluates to {got}, e_{d} is {want}")
    if exact is not None:
        require(exact(), f"ben_or({n},{d}) does not expand to gen_esp")
