"""Exact coefficient arithmetic: rationals, prime fields, small extensions.

A field is described by a FieldDescriptor and values travel as FieldElement
wrappers around a cheap raw representation.  Each kind of field is its own
FieldDescriptor subclass with its own raw operations:

  * RationalField   raw = fractions.Fraction
  * PrimeField      raw = int residue in [0, p)
  * ExtensionField  raw = int index in [0, p^k), the base-p encoding of the
                    coefficient vector (constant digit first), so raw order
                    doubles as the canonical element order

Extensions are F_p[t] modulo a fixed irreducible polynomial.  Thirteen
moduli are pinned so that serialized data is reproducible across runs:

    gf(2^2): t^2+t+1            gf(3^2): t^2+1          gf(5^2): t^2+t+1
    gf(2^3): t^3+t+1            gf(3^3): t^3+2t+1       gf(5^3): t^3+3t+3
    gf(2^4): t^4+t+1            gf(3^4): t^4+2t^3+2     gf(7^2): t^2+6t+3
    gf(2^5): t^5+t^2+1          gf(3^5): t^5+2t+1
    gf(2^6): t^6+t^4+t^3+t+1
    gf(2^7): t^7+t+1

Other extensions require an explicit modulus, written constant-first, e.g.
gf(2^8;1,0,1,1,1,0,0,0,1).  Extension multiplication runs on discrete
log/antilog tables built once per descriptor: the generator g is the first
raw index from 2 up whose power walk reaches all q - 1 nonzero elements
before it returns to 1, and that walk is the antilog table.
Characteristic-2 addition is a single xor on the raw index; odd-characteristic
addition runs on a Zech logarithm table, g^a + g^b = g^(a + Z(b - a)) with
g^Z(i) = 1 + g^i, and negation is g^a -> g^(a + (q-1)/2).

Field spec grammar accepted by make_field:

    q | gf(P) | gf(P^K) | gf(P^K;c0,c1,...,cK)

Extension elements print as polynomials in t, e.g. "t+1".  Literals are
ASCII: -?[0-9]+ in GF(p), and in Q with an optional /[0-9]+.  The host of
the roots of z^d + 1 is read off the group order, not searched for.

Products of term dicts {key: raw}, keys adding, run on one kernel per kind:
addmul_terms adds into an accumulator in place (GF(p) and Q sum integers,
Q over a common denominator; GF(2^k) xors antilog reads; odd GF(p^k) adds
logs by the Zech table inline) and finish_terms reduces each term once.
mul_terms, _dot_terms (sums of products) and _sweep_terms use it.
_sweep_terms is the one term-dict sweep: rows by z-degree of a start
polynomial in z times prod(gamma + z*lambda), so e_j of forms or series
(every gamma 1) and the degree-d part of an affine product (border.py) run
the same DP.  The partition sum (certificate.py) runs on it over GF(p^k),
one call per state with that state as the one-term operand.

The e_j of a list of raw values run on one scalar kernel per kind, esp_raw:
GF(p) takes one % p per step, GF(2^k) xors antilog reads, odd GF(p^k) adds
logs by the Zech table inline, and Q runs the generic esp_sweep, which is
also the kernels' test oracle.  Zero values are skipped.  horner_raw, the
value of a raw coefficient list at a raw point, is the one Horner kernel,
inlined the same way per kind; Q runs the generic add_raw/mul_raw loop.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import count

MAX_EXTENSION_SIZE = 1 << 20

_MODULUS_TABLE = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 2): (1, 1, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (5, 3): (3, 3, 0, 1),
    (7, 2): (3, 6, 1),
}

# Miller-Rabin with the first 13 prime bases is exact below _MR_LIMIT
# (Sorenson & Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


class FieldError(ValueError):
    """Raised for malformed field specs, mismatched fields, or bad arguments."""


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises FieldError when n has no small
    factor and is too large for the fixed bases to decide exactly."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_LIMIT:
        raise FieldError(f"{n} is too large to certify as prime")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_power(n: int):
    """(p, k) with p prime and p^k = n, or None."""
    for k in range(1, n.bit_length()):
        # integer Newton steps from above settle on floor(n^(1/k))
        p = 1 << -(-n.bit_length() // k)
        while (r := ((k - 1) * p + n // p ** (k - 1)) // k) < p:
            p = r
        if p**k == n and _is_prime(p):
            return p, k
    return None


# ---------------------------------------------------------------------------
# univariate polynomials over GF(p) as constant-first int lists, used only
# to bootstrap extension arithmetic

def _umod(a: list[int], m, p: int) -> list[int]:
    """The remainder of a by the monic m over GF(p): its len(m) - 1 low
    digits, each in [0, p).  a's digits may be any ints."""
    a = list(a)
    dm = len(m) - 1
    for top in range(len(a) - 1, dm - 1, -1):
        c = a[top] % p
        if c:                                # m[dm] = 1 cancels a[top]
            for i in range(dm):
                a[top - dm + i] -= c * m[i]
    return [c % p for c in a[:dm]]


def _uirreducible(m: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(m)/2."""
    k = len(m) - 1
    if k < 1 or m[-1] == 0:
        return False
    for deg in range(1, k // 2 + 1):
        for idx in range(p**deg):
            if not any(_umod(m, _base_p_digits(idx, p, deg) + [1], p)):
                return False
    return True


def _base_p_digits(raw: int, p: int, k: int) -> list[int]:
    """The k base-p digits of raw, constant digit first."""
    out = []
    for _ in range(k):
        out.append(raw % p)
        raw //= p
    return out


# ---------------------------------------------------------------------------

_DESCRIPTORS: dict[tuple, "FieldDescriptor"] = {}


class FieldDescriptor:
    """Arithmetic kernel for one field.  Use make_field() to obtain one:
    descriptors are interned, so equality and hashing are object identity.

    Subclasses supply spec_string and the raw operations add_raw, neg_raw,
    mul_raw, inv_raw and pow_raw; p is the characteristic (0 for Q).
    """

    __slots__ = ("p", "k", "modulus")
    zero_raw = 0
    one_raw = 1

    def __init__(self, p: int = 0, k: int = 1, modulus: tuple[int, ...] | None = None):
        self.p = p
        self.k = k
        self.modulus = modulus

    def __repr__(self):
        return f"FieldDescriptor({self.spec_string()!r})"

    def __str__(self):
        return self.spec_string()

    # -- structure ---------------------------------------------------------

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def order(self) -> int | None:
        """Number of elements, or None for the rationals."""
        return self.p**self.k

    def sub_raw(self, a, b):
        return self.add_raw(a, self.neg_raw(b))

    # -- element construction and canonical order ----------------------------

    def coerce_raw(self, value):
        """Raw value from an element of this field, an int, or a literal
        string; Q also accepts Fractions.  An int is always a prime-subfield
        constant (value % p over GF(p^k)), never a raw index, so a raw must
        not come back through here.  A literal may sit in one pair of
        parentheses."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldError(f"mixed fields: {self} and {value.field}")
            return value.raw
        if isinstance(value, int):
            return value % self.p  # prime-subfield constant
        if isinstance(value, str):
            s = value.strip()
            try:
                return self._raw_from_str(s[1:-1].strip() if s[:1] == "(" and s[-1:] == ")" else s)
            except FieldError:
                raise
            except ValueError:
                raise FieldError(f"bad element literal {s!r} for {self}") from None
        raise FieldError(f"cannot interpret {value!r} as an element of {self}")

    def scalar_raw(self, other):
        """Raw value of a scalar operand of element, polynomial or series
        arithmetic, coerced once by coerce_raw (an int is a prime-subfield
        constant), or None for any other type (the operator then returns
        NotImplemented).  Callers build a constant from this raw directly,
        never by coercing it again."""
        if isinstance(other, self._scalar_types):
            return self.coerce_raw(other)
        return None

    def element(self, value) -> "FieldElement":
        return FieldElement(self, self.coerce_raw(value))

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, self.zero_raw)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, self.one_raw)

    def element_at(self, index: int) -> "FieldElement":
        """index-th element in canonical order: 0, 1, ... (raw index order)."""
        if not 0 <= index < self.order:
            raise FieldError(f"element index {index} out of range for {self}")
        return FieldElement(self, index)

    def elements(self):
        """All elements in canonical order."""
        return (FieldElement(self, i) for i in range(self.order))

    def raw_to_str(self, raw) -> str:
        return str(raw)

    # -- sparse products: the kernel of the module docstring -----------------

    def addmul_terms(self, acc: dict, a: dict, b: dict) -> dict:
        """acc += a * b in place, returning acc; Q and GF(p) sum integers."""
        if len(a) > len(b):
            a, b = b, a
        items = list(b.items())
        get = acc.get
        for ka, ra in a.items():
            for kb, rb in items:
                k = ka + kb
                acc[k] = get(k, 0) + ra * rb
        return acc

    def finish_terms(self, acc: dict, den: int = 1) -> dict:
        """The zero-free raw term dict of acc / den."""
        return {k: r for k, r in acc.items() if r}

    def mul_terms(self, a: dict, b: dict) -> dict:
        """a * b: one addmul_terms into a fresh accumulator, one finish."""
        den = 1
        if not self.p:   # Q: integer numerators over one denominator
            (a, b), den = _lift_common(self, [a, b])
        return self.finish_terms(self.addmul_terms({}, a, b), den * den)

    # -- the scalar sweep: e_j of raw values ---------------------------------

    def esp_raw(self, values, dmax: int) -> list:
        """[e_0, ..., e_dmax] of raw values; Q runs the generic esp_sweep.
        The finite kinds inline their arithmetic and skip zero values, whose
        factor 1 + 0*z is 1; row j is touched once j nonzero values are in."""
        return esp_sweep(values, dmax, self.zero_raw, self.one_raw, self.add_raw, self.mul_raw)

    def horner_raw(self, coeffs, x):
        """sum_i coeffs[i] * x^i for raw coefficients listed constant first
        and a raw x, by Horner's rule; zero for an empty list.  Q runs this
        loop on add_raw and mul_raw; the finite kinds inline their arithmetic."""
        add, mul = self.add_raw, self.mul_raw
        acc = self.zero_raw
        for c in reversed(coeffs):
            acc = add(mul(acc, x), c)
        return acc


class RationalField(FieldDescriptor):
    """Q: raw values are Fractions."""

    __slots__ = ()
    zero_raw = Fraction(0)
    one_raw = Fraction(1)

    def spec_string(self) -> str:
        return "q"

    @property
    def order(self) -> None:
        return None

    def add_raw(self, a, b):
        return a + b

    def neg_raw(self, a):
        return -a

    def mul_raw(self, a, b):
        return a * b

    def inv_raw(self, a):
        return 1 / a  # raises ZeroDivisionError at zero

    def pow_raw(self, a, n: int):
        return a**n

    def coerce_raw(self, value):
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        return super().coerce_raw(value)

    def finish_terms(self, acc, den=1):
        if den == 1:   # Fraction(v) takes the int fast path, Fraction(v, den) a gcd
            return {k: Fraction(v) for k, v in acc.items() if v}
        return {k: Fraction(v, den) for k, v in acc.items() if v}

    def _raw_from_str(self, s: str) -> Fraction:
        if not _RATIONAL_RE.fullmatch(s):
            raise ValueError(s)                  # coerce_raw names the literal
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise FieldError(f"zero denominator in the literal {s!r}") from None

    def element_at(self, index: int) -> "FieldElement":
        """The integer index, the rationals' canonical order."""
        if index < 0:
            raise FieldError("element index must be nonnegative")
        return FieldElement(self, Fraction(index))

    def elements(self):
        """The unbounded stream 0, 1, 2, ..."""
        return (FieldElement(self, Fraction(i)) for i in count())


class PrimeField(FieldDescriptor):
    """GF(p): raw values are residues in [0, p)."""

    __slots__ = ()

    def spec_string(self) -> str:
        return f"gf({self.p})"

    def add_raw(self, a, b):
        return (a + b) % self.p

    def neg_raw(self, a):
        return (-a) % self.p

    def mul_raw(self, a, b):
        return (a * b) % self.p

    def inv_raw(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def pow_raw(self, a, n: int):
        if n < 0:
            a, n = self.inv_raw(a), -n
        return pow(a, n, self.p)

    def finish_terms(self, acc, den=1):
        p = self.p
        return {k: r for k, v in acc.items() if (r := v % p)}

    def esp_raw(self, values, dmax):
        """One % p per step."""
        p = self.p
        table = [1] + [0] * dmax
        top = 0
        for v in values:
            if v:
                if top < dmax:
                    top += 1
                for j in range(top, 0, -1):
                    table[j] = (table[j] + v * table[j - 1]) % p
        return table

    def horner_raw(self, coeffs, x):
        """One % p per step."""
        p, acc = self.p, 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        return acc

    def _raw_from_str(self, s: str) -> int:
        if not _INTEGER_RE.fullmatch(s):
            raise ValueError(s)                  # coerce_raw names the literal
        return int(s) % self.p


class ExtensionField(FieldDescriptor):
    """GF(p^k) = F_p[t]/(modulus): raw values are base-p digit indices."""

    __slots__ = ("_exp", "_exp2", "_log", "_zech", "_group")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        super().__init__(p, k, modulus)
        self._build_log_tables()

    def spec_string(self) -> str:
        if _MODULUS_TABLE.get((self.p, self.k)) == self.modulus:
            return f"gf({self.p}^{self.k})"
        return f"gf({self.p}^{self.k};{','.join(str(c) for c in self.modulus)})"

    # -- bootstrap -----------------------------------------------------------

    def _undigits(self, cs) -> int:
        out = 0
        for c in reversed(cs):
            out = out * self.p + c
        return out

    def _mul_generic(self, a: int, b: int) -> int:
        p, k = self.p, self.k
        da, db = _base_p_digits(a, p, k), _base_p_digits(b, p, k)
        conv = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    conv[i + j] += x * y
        return self._undigits(_umod(conv, self.modulus, p))

    def _build_log_tables(self):
        q = self.order
        if q > MAX_EXTENSION_SIZE:
            raise FieldError(f"extension field of size {q} exceeds cap {MAX_EXTENSION_SIZE}")
        group = q - 1
        # the first candidate whose power walk, exp, has all q - 1 elements
        for cand in range(2, q):
            exp, x = [1], cand
            while x != 1 and len(exp) < group:
                exp.append(x)
                x = self._mul_generic(x, cand)
            if x == 1 and len(exp) == group:
                break
        else:
            raise FieldError("modulus is not irreducible: no multiplicative generator")
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self._exp = exp
        self._log = log
        self._group = group
        self._zech = self._exp2 = None
        p = self.p
        if p == 2:
            # exp read at a sum of two logs, each below q - 1, without a mod
            self._exp2 = exp + exp
        else:
            # zech[i] = log(1 + g^i), or -1 where 1 + g^i = 0; adding 1
            # changes only the constant digit, raw % p, of the base-p index
            zech = []
            for x in exp:
                y = x + 1 if x % p != p - 1 else x + 1 - p
                zech.append(log[y] if y else -1)
            self._zech = zech

    # -- raw arithmetic ------------------------------------------------------

    def add_raw(self, a, b):
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        z = self._zech[self._log[b] - la]  # a negative index wraps mod q-1
        return 0 if z < 0 else self._exp[(la + z) % self._group]

    def neg_raw(self, a):
        if self.p == 2 or not a:
            return a
        return self._exp[(self._log[a] + self._group // 2) % self._group]

    def mul_raw(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % self._group]

    def inv_raw(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[(-self._log[a]) % self._group]

    def pow_raw(self, a, n: int):
        if a == 0:
            if n < 0:
                raise ZeroDivisionError("inverse of zero")
            return 1 if n == 0 else 0
        return self._exp[(self._log[a] * n) % self._group]

    def addmul_terms(self, acc, a, b):
        """The logs of one operand once, then per term of the other:
        GF(2^k) xors in one antilog read per product; odd p adds each
        product by the Zech table inline, a cancellation leaving a zero raw
        for finish_terms to drop.  Zero raws (cancelled accumulator terms)
        have no log and are skipped."""
        if len(a) > len(b):
            a, b = b, a
        log, get = self._log, acc.get
        logs = [(kb, log[rb]) for kb, rb in b.items() if rb]
        if self.p == 2:
            exp2 = self._exp2
            for ka, ra in a.items():
                if ra:
                    la = log[ra]
                    for kb, lb in logs:
                        k = ka + kb
                        acc[k] = get(k, 0) ^ exp2[la + lb]
            return acc
        exp, zech, group = self._exp, self._zech, self._group
        for ka, ra in a.items():
            if not ra:
                continue
            la = log[ra]
            for kb, lb in logs:
                k = ka + kb
                t = la + lb                          # log of the product
                if t >= group:
                    t -= group
                r = get(k)
                if not r:
                    acc[k] = exp[t]
                    continue
                e = log[r]
                if (z := zech[t - e]) < 0:           # g^e + g^t = g^e (1 + g^(t-e))
                    acc[k] = 0
                else:
                    e += z
                    acc[k] = exp[e - group if e >= group else e]
        return acc

    def esp_raw(self, values, dmax):
        """GF(2^k): each value's log once, then one antilog read xored in per
        step.  Odd p: the rows are held as logs (None for zero) and add by
        the Zech table inline, read back through the antilog at the end."""
        table = [1] + [0] * dmax
        top = 0
        log = self._log
        if self.p == 2:
            exp2 = self._exp2
            for v in values:
                if v:
                    lv = log[v]
                    if top < dmax:
                        top += 1
                    for j in range(top, 0, -1):
                        b = table[j - 1]
                        if b:
                            table[j] ^= exp2[lv + log[b]]
            return table
        exp, zech, group = self._exp, self._zech, self._group
        logs = [0] + [None] * dmax
        for v in values:
            if v:
                lv = log[v]
                if top < dmax:
                    top += 1
                for j in range(top, 0, -1):
                    b = logs[j - 1]
                    if b is None:
                        continue
                    t = lv + b                       # log of v * e_(j-1)
                    if t >= group:
                        t -= group
                    a = logs[j]
                    if a is None:
                        logs[j] = t
                    elif (z := zech[t - a]) < 0:     # g^a + g^t = g^a (1 + g^(t-a))
                        logs[j] = None
                    else:
                        a += z
                        logs[j] = a - group if a >= group else a
        return [0 if a is None else exp[a] for a in logs]

    def horner_raw(self, coeffs, x):
        """x's log once.  GF(2^k): one antilog read xored in per step.  Odd
        p: the accumulator is held as a log (None for zero), moves by x's log
        and adds each nonzero coefficient by the Zech table inline."""
        if not x:
            return coeffs[0] if coeffs else 0
        log = self._log
        lx = log[x]
        if self.p == 2:
            exp2, acc = self._exp2, 0
            for c in reversed(coeffs):
                acc = exp2[log[acc] + lx] ^ c if acc else c
            return acc
        exp, zech, group = self._exp, self._zech, self._group
        a = None
        for c in reversed(coeffs):
            if a is not None:
                a += lx
                if a >= group:
                    a -= group
            if c:
                lc = log[c]
                if a is None:
                    a = lc
                elif (z := zech[a - lc]) < 0:        # g^lc + g^a = g^lc (1 + g^(a-lc))
                    a = None
                else:
                    a = lc + z
                    if a >= group:
                        a -= group
        return 0 if a is None else exp[a]

    # -- elements, printing and parsing ----------------------------------------

    def raw_to_str(self, raw) -> str:
        cs = _base_p_digits(raw, self.p, self.k)
        parts = []
        for e in range(self.k - 1, -1, -1):
            c = cs[e]
            if not c:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                tpow = "t" if e == 1 else f"t^{e}"
                parts.append(tpow if c == 1 else f"{c}*{tpow}")
        return "+".join(parts) if parts else "0"

    def _raw_from_str(self, s: str) -> int:
        """Terms c, t^e or c*t^e joined by '+' or '-'; '-' may open the text."""
        cs = [0] * self.k
        for token in re.split(r"\+|(?<=.)(?=-)", s.replace(" ", "")):
            m = _EXT_TERM_RE.fullmatch(token)
            if not m:
                raise ValueError(token)          # coerce_raw names the literal
            sign, const, coeff, exp = m.groups()
            e = 0 if const else int(exp or 1)
            if e >= self.k:
                raise FieldError(f"literal power t^{e} too large for {self}")
            c = int(const or coeff or 1)
            cs[e] = (cs[e] - c if sign else cs[e] + c) % self.p
        return self._undigits(cs)


def _scalar_operator(op):
    """A FieldElement operator: its operand coerced once by scalar_raw, then
    FieldElement(field, op(field, self.raw, raw)), or NotImplemented."""
    def operator(self, other):
        field = self.field
        raw = field.scalar_raw(other)
        if raw is None:
            return NotImplemented
        return FieldElement(field, op(field, self.raw, raw))
    return operator


class FieldElement:
    """A value tied to its FieldDescriptor; all operators are exact."""

    __slots__ = ("field", "raw")

    def __init__(self, field: FieldDescriptor, raw):
        self.field = field
        self.raw = raw

    __add__ = __radd__ = _scalar_operator(lambda f, a, b: f.add_raw(a, b))
    __sub__ = _scalar_operator(lambda f, a, b: f.sub_raw(a, b))
    __rsub__ = _scalar_operator(lambda f, a, b: f.sub_raw(b, a))
    __mul__ = __rmul__ = _scalar_operator(lambda f, a, b: f.mul_raw(a, b))
    __truediv__ = _scalar_operator(lambda f, a, b: f.mul_raw(a, f.inv_raw(b)))
    __rtruediv__ = _scalar_operator(lambda f, a, b: f.mul_raw(b, f.inv_raw(a)))

    def __pow__(self, n: int):
        return FieldElement(self.field, self.field.pow_raw(self.raw, n))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_raw(self.raw))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv_raw(self.raw))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.raw == other.raw
        coerced = self.field.scalar_raw(other)
        if coerced is None:
            return NotImplemented
        return self.raw == coerced

    def __hash__(self):
        return hash((self.field, self.raw))

    def __bool__(self):
        return self.raw != self.field.zero_raw

    @property
    def is_zero(self) -> bool:
        return self.raw == self.field.zero_raw

    def __str__(self):
        return self.field.raw_to_str(self.raw)

    def __repr__(self):
        return f"<{self} in {self.field}>"


# the operand types that scalar_raw takes, once FieldElement is defined
FieldDescriptor._scalar_types = (int, FieldElement)
RationalField._scalar_types = (int, Fraction, FieldElement)


# ---------------------------------------------------------------------------

def _get_descriptor(cls, p=0, k=1, modulus=None) -> FieldDescriptor:
    key = (cls, p, k, modulus)
    if key not in _DESCRIPTORS:
        _DESCRIPTORS[key] = cls(p, k, modulus)
    return _DESCRIPTORS[key]


QQ = _get_descriptor(RationalField)

_INTEGER_RE = re.compile(r"-?[0-9]+")
_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
_EXT_TERM_RE = re.compile(r"(-?)(?:([0-9]+)|(?:([0-9]+)\*?)?t(?:\^([0-9]+))?)")
_SPEC_RE = re.compile(r"(?ai)gf\(\s*(\d+)\s*(?:\^\s*(\d+)\s*)?(?:;\s*([0-9,\s]+))?\)")


def make_field(spec) -> FieldDescriptor:
    """Build a field from its spec: a descriptor (returned as is), a prime
    power integer, or a string q | gf(P) | gf(P^K) | gf(P^K;MODULUS)."""
    if isinstance(spec, FieldDescriptor):
        return spec
    if isinstance(spec, int):
        spec = f"gf({spec})"
    s = spec.strip()
    if s.lower() == "q":
        return QQ
    m = _SPEC_RE.fullmatch(s)
    if not m:
        raise FieldError(f"bad field spec {spec!r}")
    base = int(m.group(1))
    modulus_text = m.group(3)
    if m.group(2) is None:
        # gf(N): N prime, or a prime power resolved to its (p, k)
        pk = _prime_power(base)
        if pk is None:
            raise FieldError(f"{base} is not a prime power")
        p, k = pk
    else:
        p, k = base, int(m.group(2))
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
    if k == 1:
        if modulus_text:
            raise FieldError("modulus not allowed for a prime field")
        return _get_descriptor(PrimeField, p)
    # p >= 2, so k > 20 already exceeds the cap; test it before forming p^k
    if k > 20 or p**k > MAX_EXTENSION_SIZE:
        raise FieldError(f"extension field of size {p}^{k} exceeds cap {MAX_EXTENSION_SIZE}")
    if modulus_text:
        coeffs = tuple(int(c) % p for c in modulus_text.replace(" ", "").split(","))
        if len(coeffs) != k + 1:
            raise FieldError(f"modulus must list {k + 1} coefficients, constant first")
        if coeffs[-1] != 1:
            raise FieldError("modulus must be monic")
        if not _uirreducible(coeffs, p):
            raise FieldError(f"modulus {','.join(map(str, coeffs))} is reducible over gf({p})")
        return _get_descriptor(ExtensionField, p, k, coeffs)
    if (p, k) in _MODULUS_TABLE:
        return _get_descriptor(ExtensionField, p, k, _MODULUS_TABLE[(p, k)])
    raise FieldError(
        f"no built-in modulus for gf({p}^{k}); supply one as gf({p}^{k};c0,c1,...)")


def esp_sweep(values, dmax: int, zero, one, add, mul) -> list:
    """[e_0, e_1, ..., e_dmax] of the values, by one pass of the truncated
    generating function prod_i (1 + z*v_i) in the ring given by zero, one,
    add and mul."""
    table = [one] + [zero] * dmax
    for i, v in enumerate(values, 1):
        for j in range(min(i, dmax), 0, -1):
            table[j] = add(table[j], mul(v, table[j - 1]))
    return table


def _lift_common(field: FieldDescriptor, dicts: list) -> tuple[list, int]:
    """Kernel forms of zero-free term dicts, and their denominator D: over
    Q integer numerators over one D; a finite field's raws, with D = 1."""
    if field.p:
        return dicts, 1
    den = math.lcm(*[r.denominator for t in dicts for r in t.values()])
    return [{k: r.numerator * (den // r.denominator) for k, r in t.items()} for t in dicts], den


def _dot_terms(field: FieldDescriptor, pairs) -> dict:
    """sum a*b over pairs of zero-free term dicts, as one accumulation."""
    ops, den = _lift_common(field, [t for pair in pairs for t in pair])
    acc = {}
    for a, b in zip(ops[::2], ops[1::2]):
        field.addmul_terms(acc, a, b)
    return field.finish_terms(acc, den * den)


def _sweep_terms(field: FieldDescriptor, start: list, factors, cut=None) -> list[dict]:
    """Rows 0..len(start)-1 of (sum_j start[j]*z^j) * prod(gamma + z*lambda)
    over the (gamma, lambda) pairs of factors, all zero-free term dicts.
    Each step maps row j to row j*gamma + row j-1*lambda by addmul_terms, a
    gamma of exactly 1 adding into (a copy of) row j in place; cut(row), if
    given, cuts each new row, and every row is finished once at the end.
    Over Q all factors are lifted over one D, a non-unit gamma's lambda
    once more, and row j is held over E*D^(j+g), E the start's own
    denominator and g the non-unit gammas so far: a unit gamma never
    rescales a row.  Over GF(p) with a top row >= 2p each step also reduces
    its rows, dropping the terms that cancel mod p: timed, that pays there
    and costs up to 1.6x nearer p = top or at large p."""
    start, E = _lift_common(field, start)
    ops, D = _lift_common(field, [t for pair in factors for t in pair])
    rows = [{k: r * D**j for k, r in row.items()} for j, row in enumerate(start)]
    top = len(rows) - 1
    addmul, finish = field.addmul_terms, field.finish_terms
    if field.k == 1 and field.p and 2 * field.p <= top:
        cut = finish if cut is None else (lambda row, thin=cut: thin(finish(row)))
    g = 0
    for gamma, lam in zip(ops[::2], ops[1::2]):
        is_unit = gamma == {0: D}   # a lifted 1; finite fields have one_raw 1
        if not is_unit:
            g += 1
            lam = {k: r * D for k, r in lam.items()}
        for j in range(top, -1, -1):
            lower = rows[j - 1] if j else {}
            if is_unit and not lower:
                continue
            row = rows[j] if is_unit else addmul({}, rows[j], gamma)
            addmul(row, lower, lam)
            rows[j] = row if cut is None else cut(row)
    return [finish(row, E * D**(j + g)) for j, row in enumerate(rows)]


# ---------------------------------------------------------------------------

def lucas_binomial(a: int, b: int, p: int) -> int:
    """Binomial coefficient C(a, b) mod p via the digitwise base-p product."""
    if a < 0 or b < 0:
        raise ValueError("lucas_binomial needs nonnegative arguments")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    out = 1
    while b or a:
        da, db = a % p, b % p
        if db > da:
            return 0
        out = (out * math.comb(da, db)) % p
        a //= p
        b //= p
    return out


# ---------------------------------------------------------------------------

_EMBED_ROOTS: dict[tuple, int] = {}


def _embedding_root(src: ExtensionField, host: ExtensionField) -> int:
    """Raw image in host of src's generator t: the first root of src.modulus."""
    key = (src, host)
    if key not in _EMBED_ROOTS:
        root = next((x for x in range(host.order) if host.horner_raw(src.modulus, x) == 0), None)
        if root is None:
            raise FieldError(f"{src} does not embed in {host}")
        _EMBED_ROOTS[key] = root
    return _EMBED_ROOTS[key]


def embed(element: FieldElement, host: FieldDescriptor) -> FieldElement:
    """Map an element into a host field containing its field as a subfield."""
    src = element.field
    if src == host:
        return element
    if src.p != host.p:
        raise FieldError(f"no embedding of {src} into {host}: characteristics differ")
    if src.k == 1:
        return FieldElement(host, element.raw)  # prime subfield is raws 0..p-1
    if host.k % src.k != 0:
        raise FieldError(f"{src} is not a subfield of {host}")
    digits = _base_p_digits(element.raw, src.p, src.k)
    # a digit c < p is the raw of the prime-subfield constant c in host
    return FieldElement(host, host.horner_raw(digits, _embedding_root(src, host)))


# ---------------------------------------------------------------------------

def roots_of_z_pow_d_plus_one(field: FieldDescriptor, d: int):
    """All d roots of z^d + 1 over the smallest available host extension.

    Returns (roots, host) where roots is a list of d host elements listed
    with multiplicity: writing d = p^a * d0 with p not dividing d0,
    z^d + 1 = (z^d0 + 1)^(p^a), so each of the d0 distinct roots repeats
    p^a times.  Their orders divide N = d0 (p = 2) or 2*d0, so GF(p^j) holds
    them all exactly when N divides p^j - 1; the host is the field or the
    tabled GF(p^j) for the least such multiple j of the field's degree.
    The product of (z - root) over the d0 distinct roots is verified to
    reproduce z^d0 + 1 exactly before returning; its p^a-th power is then
    z^d + 1 by Frobenius.
    """
    if field.characteristic == 0:
        raise FieldError("roots_of_z_pow_d_plus_one requires positive characteristic")
    if d < 1:
        raise FieldError("degree must be positive")
    p, k = field.p, field.k
    d0 = d
    while d0 % p == 0:
        d0 //= p
    N = d0 if p == 2 else 2 * d0
    # GF(p^j) holding the roots has more than N elements, so past the size
    # cap only the field itself can, and no j is stepped to; below it the
    # steps number fewer than MAX_EXTENSION_SIZE
    step = pow(p, k, N)
    j, r = k, step                          # r = p^j mod N, back at 1 within N steps
    while r != 1 % N and N < MAX_EXTENSION_SIZE:
        j, r = j + k, r * step % N
    if r != 1 % N or (j != k and (p, j) not in _MODULUS_TABLE):
        needed = f"gf({p}^{j})" if r == 1 % N else f"a field of more than {N} elements"
        raise FieldError(
            f"host too large: no available extension of {field} splits z^{d}+1; "
            f"roots have multiplicative order {N}, requiring {needed}")
    host = field if j == k else _get_descriptor(ExtensionField, p, j, _MODULUS_TABLE[(p, j)])
    minus_one = host.neg_raw(host.one_raw)
    found = [x for x in range(host.order) if host.pow_raw(x, d0) == minus_one]
    # prod (z - w_i) over d0 values = sum_j e_j(-w) z^(d0-j): it is z^d0 + 1
    # exactly when e_0..e_d0 of the negated roots read 1, 0, ..., 0, 1
    esp = host.esp_raw([host.neg_raw(w) for w in found], d0)
    if len(found) != d0 or esp != [host.one_raw] + [host.zero_raw] * (d0 - 1) + [host.one_raw]:
        raise FieldError("internal: root product check failed")
    return [FieldElement(host, r) for r in found for _ in range(d // d0)], host
