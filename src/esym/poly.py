"""Sparse multivariate polynomials and linear forms over exact fields.

A Polynomial maps packed monomials to nonzero raw coefficients.  A packed
monomial is one nonnegative int cut into WIDTH = 32-bit fields: the total
degree sits in the lowest field (field 0) and the exponent of x_i in field
i.  So the product of two monomials is one int add, the degree of a term is
one mask, and a key does not depend on the variable count.  Products of
term dicts run on the field's kernel (FieldDescriptor.addmul_terms into an
accumulator, then finish_terms), which reduces once per output term.  The
key of x_i, 1 << 32*i | 1, holds 1 in the degree field, so the sum of the
keys of distinct variables is the key of their squarefree product:
squarefree_sum and symfunc's e_d builder sum the keys that _variable_keys
builds after checking every index for range and repeats.  Other modules
build and read keys only through this module's helpers (_variable_keys,
_degree, _top, _multilinear_terms and the like), except border.py, whose
series keys shift these keys up one field.

The guard: no field may carry into its neighbour.  The constructor checks
each term, and * and ** check in O(1) from their operands' degrees, that
the total degree stays below DEGREE_LIMIT = 2^32, and raise ValueError past
it; every exponent is at most the total degree, so no field then overflows.
A key for x_i is 32*i bits long, so a dense row of w variables holds about
2w^2 bytes of keys, and every index that comes from outside (the parser,
variable, squarefree_sum, the tuple constructor, the length of a
LinearForm's row) must lie in 1..MAX_VARIABLE_INDEX = 2^11, checked before
its key is built; ben_or's largest n, 2047, fits.  Printing
reads only the nonzero fields of a key, from the top down, so a term costs
O(its variables), not O(its highest index).

Variables are named x1, x2, ... and the variable count widens automatically
under arithmetic.  The public surface speaks exponent tuples with trailing
zeros trimmed: the constructor takes {tuple: raw}, and terms() and
coefficient() give and take such tuples, in graded lexicographic order (x1
first) for printing and serialization.

A LinearForm is a Polynomial whose terms all have degree 1; it adds a row
constructor and reader, and no arithmetic of its own.

Text grammar (also used by the CLI), whitespace ignored:

    poly   := ['-'] term (('+' | '-' | '+-') term)*
    term   := factor ('*' factor)*
    factor := x<idx> ['^' exp] | '(' poly ')' ['^' exp] | field-element literal

Examples: "x1*x2 + (t+1)*x3^2", "x1^2 + 2*x1*x2 - x2^2".  _parse_nested
drives it and formula.parse_formula's grammar alike, one generator per
parenthesized span on an explicit stack.
"""

from __future__ import annotations

import re
import struct
from functools import partial

from .field import FieldDescriptor, FieldElement, FieldError, embed

WIDTH = 32                  # bits per field; _words reads them as 32-bit words
DEGREE_LIMIT = 1 << WIDTH
_MASK = DEGREE_LIMIT - 1
MAX_VARIABLE_INDEX = 1 << 11
_BITS = bytes.maketrans(b"\0\1", b"01")   # bytes 0 and 1 read as binary digits


def _check_index(i: int) -> None:
    if not 1 <= i <= MAX_VARIABLE_INDEX:
        raise ValueError(f"variable index {i} is outside the 1-based range "
                         f"1..{MAX_VARIABLE_INDEX}")


def _check_degree(d: int) -> None:
    if d >= DEGREE_LIMIT:
        raise ValueError(f"total degree {d} exceeds the packed-monomial bound "
                         f"2^{WIDTH} - 1")


def _pack(mono) -> int:
    """Packed key of an exponent sequence (x1's exponent first)."""
    key = deg = 0
    for i, e in enumerate(mono, 1):
        if e:
            if e < 0:
                raise ValueError(f"negative exponent in the monomial {tuple(mono)}")
            _check_index(i)
            key |= e << (WIDTH * i)
            deg += e
    _check_degree(deg)
    return key | deg


def _variable_key(i: int) -> int:
    """Packed key of x_i, unchecked.  Its degree field holds 1, so the sum
    of the keys of distinct variables is the key of their product."""
    return 1 << (WIDTH * i) | 1


def _variable_keys(indices) -> list[int]:
    """The packed keys of x_i for the given distinct 1-based indices, in
    order.  Every index is checked once, for its range and for repeats,
    before any key is built."""
    idx = tuple(indices)
    if idx and not (1 <= min(idx) and max(idx) <= MAX_VARIABLE_INDEX):
        for i in idx:
            _check_index(i)
    if len(set(idx)) != len(idx):
        raise ValueError(f"repeated variable index in {idx}")
    return list(map(_variable_key, idx))


def _top(key: int) -> int:
    """Index of the highest variable in a packed key; 0 for the constant."""
    return max((key.bit_length() - 1) // WIDTH, 0)


def _words(n: int) -> struct.Struct:
    """The Struct that reads the n variable fields of a key's 4(n + 1)
    little-endian bytes, skipping the degree field; one per n."""
    words = _WORDS.get(n)
    if words is None:
        words = _WORDS[n] = struct.Struct(f"<4x{n}I")
    return words


_WORDS: dict[int, struct.Struct] = {}


def _exponents(key: int) -> tuple[int, ...]:
    """The monomial (e_1, ..., e_top) of a packed key, trailing zeros
    trimmed, read in C."""
    n = _top(key)
    return _words(n).unpack(key.to_bytes(4 * n + 4, "little"))


def _grlex(key: int):
    """Sort key of graded lex order, x1 first; trimmed tuples compare as
    padded ones do."""
    return key & _MASK, _exponents(key)


def _vars(key: int) -> list[tuple[int, int]]:
    """(-index, exponent) of each variable in a packed key, x1 first: the
    sparse read for keys with few variables among many.  The walk reads from
    the top field down and stops once the exponents found add up to the
    degree, so it visits only the nonzero fields.  The index is negated so
    that, after the degree, these lists compare as padded exponent tuples."""
    out = []
    left = key & _MASK
    while left:
        i = (key.bit_length() - 1) // WIDTH
        e = key >> (WIDTH * i)
        out.append((-i, e))
        left -= e
        if left:
            key ^= e << (WIDTH * i)
    out.reverse()
    return out


def _degree(terms: dict) -> int:
    """Total degree of a packed term dict; -1 for the empty one."""
    deg = -1
    for k in terms:
        k &= _MASK
        if k > deg:
            deg = k
    return deg


def _multilinear_terms(f: Polynomial, d: int) -> dict:
    """{mask: raw} of f's terms of degree d in d one-bits (every exponent 0
    or 1): bit i-1 of the mask is x_i.  In a key's big-endian bytes the low
    byte of x_nvars's field comes first and x_1's last, WIDTH // 8 bytes
    apart, so that slice, read as binary digits, is the mask."""
    table, step = {}, WIDTH // 8
    width = step * (f.nvars + 1)
    for key, raw in f._terms.items():
        if key & _MASK == d and (key >> WIDTH).bit_count() == d:
            lows = key.to_bytes(width, "big")[step - 1:-step:step]
            table[int(lows.translate(_BITS) or b"0", 2)] = raw
    return table


class Polynomial:
    """Immutable-by-convention sparse polynomial; operators never mutate."""

    # _esp is unset until v2space._esp_degree stores there whether the
    # polynomial is e_d; sound because a polynomial's terms are never written
    __slots__ = ("field", "nvars", "_terms", "_esp")

    def __init__(self, field: FieldDescriptor, terms: dict | None = None, nvars: int = 0):
        self.field = field
        self._terms = clean = {}
        self.nvars = nvars
        if terms:
            zero = field.zero_raw
            for mono, raw in terms.items():
                if raw != zero:
                    clean[_pack(mono)] = raw
            if clean:   # the largest key holds the highest variable
                self.nvars = max(nvars, _top(max(clean)))

    # -- constructors --------------------------------------------------------
    # These build plain Polynomials, also when called on a subclass.

    @staticmethod
    def zero(field: FieldDescriptor, nvars: int = 0) -> "Polynomial":
        return Polynomial._of(field, {}, nvars)

    @staticmethod
    def constant(field: FieldDescriptor, value, nvars: int = 0) -> "Polynomial":
        raw = field.coerce_raw(value)
        return Polynomial._of(field, {0: raw} if raw != field.zero_raw else {}, nvars)

    @staticmethod
    def variable(field: FieldDescriptor, index: int, nvars: int | None = None) -> "Polynomial":
        """The variable x<index>, 1-based."""
        _check_index(index)
        return Polynomial._of(field, {_variable_key(index): field.one_raw},
                              max(nvars or 0, index))

    @staticmethod
    def squarefree_sum(field: FieldDescriptor, index_sets, nvars: int = 0) -> "Polynomial":
        """Sum, each with coefficient 1, of the monomials x_i1 * ... * x_ik
        over the given sets (i1, ..., ik) of distinct 1-based indices; no
        two sets may name the same monomial."""
        one, terms = field.one_raw, {}
        for indices in map(tuple, index_sets):
            key = sum(_variable_keys(indices))
            if key in terms:
                raise ValueError(f"repeated index set {indices}")
            terms[key] = one
        return Polynomial._of(field, terms, max(nvars, _top(max(terms, default=0))))

    @classmethod
    def _of(cls, field: FieldDescriptor, terms: dict, nvars: int) -> "Polynomial":
        """Wrap, without copying, a packed term dict that is zero-free."""
        out = cls.__new__(cls)
        out.field, out._terms, out.nvars = field, terms, nvars
        return out

    # -- inspection ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return _degree(self._terms)

    def is_homogeneous(self, d: int | None = None) -> bool:
        if not self._terms:
            return True
        degrees = {k & _MASK for k in self._terms}
        if d is None:
            return len(degrees) == 1
        return degrees == {d}

    def term_count(self) -> int:
        return len(self._terms)

    def terms(self):
        """Yield (monomial, coefficient) pairs in graded lex order."""
        for k in sorted(self._terms, key=_grlex, reverse=True):
            yield _exponents(k), FieldElement(self.field, self._terms[k])

    def coefficient(self, mono) -> FieldElement:
        raw = self._terms.get(_pack(mono), self.field.zero_raw)
        return FieldElement(self.field, raw)

    def constant_term(self) -> FieldElement:
        return FieldElement(self.field, self._terms.get(0, self.field.zero_raw))

    def is_constant_free(self) -> bool:
        """True when the constant term vanishes."""
        return 0 not in self._terms

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.field != other.field:
            raise FieldError(f"mixed fields: {self.field} and {other.field}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = _as_polynomial(self.field, other)
            if other is None:
                return NotImplemented
        self._check(other)
        terms = dict(self._terms)
        _merge(terms, other._terms, self.field)
        cls = type(self) if type(other) is type(self) else Polynomial   # form + form
        return cls._of(self.field, terms, max(self.nvars, other.nvars))

    __radd__ = __add__

    def __neg__(self):
        neg = self.field.neg_raw
        terms = {k: neg(raw) for k, raw in self._terms.items()}
        return type(self)._of(self.field, terms, self.nvars)

    def __sub__(self, other):
        other = _as_polynomial(self.field, other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            raw = self.field.scalar_raw(other)
            if raw is None:
                return NotImplemented
            return self.scale_raw(raw)
        self._check(other)
        nvars = max(self.nvars, other.nvars)
        if not self._terms or not other._terms:
            return Polynomial._of(self.field, {}, nvars)
        _check_degree(self.degree() + other.degree())
        return Polynomial._of(self.field, self.field.mul_terms(self._terms, other._terms),
                              nvars)

    __rmul__ = __mul__

    def scale_raw(self, raw) -> "Polynomial":
        if raw == self.field.zero_raw:
            return type(self)._of(self.field, {}, self.nvars)
        mul = self.field.mul_raw
        terms = {k: mul(r, raw) for k, r in self._terms.items()}
        return type(self)._of(self.field, terms, self.nvars)

    def scale(self, scalar) -> "Polynomial":
        raw = self.field.scalar_raw(scalar)
        if raw is None:
            raise FieldError(f"cannot scale by {scalar!r}")
        return self.scale_raw(raw)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        _check_degree(max(self.degree(), 0) * n)
        out = Polynomial.constant(self.field, 1, self.nvars)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            other = _as_polynomial(self.field, other)
            if other is None:
                return NotImplemented
        return self.field == other.field and self._terms == other._terms

    def __hash__(self):
        return hash((self.field, frozenset(self._terms.items())))

    # -- calculus and evaluation ----------------------------------------------

    def partial_derivative(self, index: int) -> "Polynomial":
        """Formal derivative with respect to x<index> (1-based)."""
        _check_index(index)
        shift = WIDTH * index
        step = _variable_key(index)
        mul, coerce = self.field.mul_raw, self.field.coerce_raw
        zero = self.field.zero_raw
        terms = {}
        for k, raw in self._terms.items():
            e = (k >> shift) & _MASK
            if e:
                coeff = raw if e == 1 else mul(raw, coerce(e))
                if coeff != zero:
                    terms[k - step] = coeff
        return Polynomial._of(self.field, terms, self.nvars)

    def evaluate(self, point) -> FieldElement:
        """Value at a point of field elements (in this field or an extension)."""
        pts = list(point)
        if len(pts) < self.nvars:
            raise ValueError(f"need {self.nvars} coordinates, got {len(pts)}")
        target, raws = _point_raws(self.field, pts)
        add, mul, power = target.add_raw, target.mul_raw, target.pow_raw
        n = self.nvars                     # every key reads as n exponents
        unpack, size = _words(n).unpack, 4 * n + 4
        acc = target.zero_raw
        for k, term in self.map_field(target)._terms.items():
            for x, e in zip(raws, unpack(k.to_bytes(size, "little"))):
                if e:
                    term = mul(term, x if e == 1 else power(x, e))
            acc = add(acc, term)
        return FieldElement(target, acc)

    def map_field(self, host: FieldDescriptor) -> "Polynomial":
        """Lift every coefficient into a host field containing this one."""
        if host == self.field:
            return self
        terms = {k: embed(FieldElement(self.field, r), host).raw
                 for k, r in self._terms.items()}
        return type(self)._of(host, terms, self.nvars)

    # -- text ------------------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        rows = [(k & _MASK, _vars(k), raw) for k, raw in self._terms.items()]
        rows.sort(reverse=True)
        parts = []
        for _, pairs, raw in rows:
            cs = self.field.raw_to_str(raw)
            mono = "*".join([f"x{-i}" if e == 1 else f"x{-i}^{e}" for i, e in pairs])
            if not mono:
                parts.append(f"({cs})" if ("+" in cs or "-" in cs[1:]) else cs)
            elif raw == self.field.one_raw:
                parts.append(mono)
            else:
                needs_parens = "+" in cs or "-" in cs[1:] or "/" in cs
                parts.append(f"({cs})*{mono}" if needs_parens else f"{cs}*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<poly {self} over {self.field}>"


def _as_polynomial(field: FieldDescriptor, value):
    """A Polynomial unchanged; a scalar as the constant of its raw, which
    field.scalar_raw coerces once; None for any other type."""
    if isinstance(value, Polynomial):
        return value
    raw = field.scalar_raw(value)
    if raw is None:
        return None
    return Polynomial._of(field, {0: raw} if raw != field.zero_raw else {}, 0)


def _merge(terms: dict, other: dict, field: FieldDescriptor) -> None:
    """Add the term dict other into terms in place; cancelled terms drop."""
    add, zero = field.add_raw, field.zero_raw
    for k, raw in other.items():
        acc = add(terms.get(k, zero), raw)
        if acc == zero:
            terms.pop(k, None)
        else:
            terms[k] = acc


def _point_raws(field: FieldDescriptor, pts: list) -> tuple[FieldDescriptor, list]:
    """The field a point's coordinates live in (field for the empty point)
    and their raws; FieldError when they live in mixed fields."""
    target = pts[0].field if pts else field
    for c in pts:
        if c.field != target:
            raise FieldError("point coordinates live in mixed fields")
    return target, [c.raw for c in pts]


class LinearForm(Polynomial):
    """A Polynomial whose terms all have degree 1, built from a row of
    coefficients; nvars is the row's length, trailing zeros included.
    Negation, scaling, map_field and form + form give forms, any other
    operation a plain Polynomial; a form equals the Polynomial with its terms.
    """

    __slots__ = ()

    def __init__(self, field: FieldDescriptor, coefficients):
        row = list(coefficients)
        if len(row) > MAX_VARIABLE_INDEX:
            raise ValueError(f"a row of {len(row)} coefficients needs x{len(row)}, past "
                             f"the variable index bound {MAX_VARIABLE_INDEX}")
        zero = field.zero_raw
        self.field, self.nvars = field, len(row)
        self._terms = {_variable_key(i): raw
                       for i, raw in enumerate(map(field.coerce_raw, row), 1) if raw != zero}

    @classmethod
    def from_polynomial(cls, poly: Polynomial) -> "LinearForm":
        """The form with poly's terms, shared, not copied, and its nvars."""
        if not poly.is_homogeneous(1):
            raise ValueError(f"{poly} is not a linear form")
        return cls._of(poly.field, poly._terms, poly.nvars)

    @property
    def coefficients(self) -> tuple[FieldElement, ...]:
        """(c_1, ..., c_nvars), zeros included."""
        row = [self.field.zero_raw] * self.nvars
        for k, raw in self._terms.items():
            row[_top(k) - 1] = raw
        return tuple(FieldElement(self.field, raw) for raw in row)

    def to_polynomial(self) -> Polynomial:
        """The same terms as a plain Polynomial, in O(1)."""
        return Polynomial._of(self.field, self._terms, self.nvars)

    def __repr__(self):
        return f"<form {self} over {self.field}>"


# ---------------------------------------------------------------------------
# parsing

_VAR_RE = re.compile(r"x([0-9]+)(?:\^([0-9]+))?")


def _split_top(s: str, lo: int, hi: int, seps: str, closes: dict) -> list[tuple[int, int]]:
    """Spans of s[lo:hi] cut at separators outside parentheses; a '-' starts
    the next span and may open one, any other separator needs a span on both
    sides.  A '(' jumps to its ')' in closes."""
    parts, start, i = [], lo, lo
    while i < hi:
        ch = s[i]
        if ch == "(":
            i = closes.get(i, hi)
        elif ch == ")":
            break
        elif ch in seps:
            if start < i:
                parts.append((start, i))
                start = i if ch == "-" else i + 1
            elif ch != "-":
                raise ValueError(f"dangling {ch!r} in {s[lo:hi]!r}")
        i += 1
    if i != hi:
        raise ValueError(f"unbalanced parentheses in {s[lo:hi]!r}")
    if start < hi:
        parts.append((start, hi))
    elif hi > lo and s[hi - 1] in seps:
        raise ValueError(f"dangling {s[hi - 1]!r} in {s[lo:hi]!r}")
    return parts


def _parse_nested(text: str, parse_sum):
    """The value of text, whitespace removed, by one generator
    parse_sum(s, lo, hi, closes, top) per parenthesized span: it yields the
    inner span of each parenthesized factor and is sent back its value.
    closes maps each '(' to its ')', and the generators wait on an explicit
    stack, so nesting depth is bounded by memory only."""
    s = "".join(text.split())
    closes, opens = {}, []
    for i, ch in enumerate(s):
        if ch == "(":
            opens.append(i)
        elif ch == ")" and opens:
            closes[opens.pop()] = i
    stack, value = [parse_sum(s, 0, len(s), closes, True)], None
    while stack:
        try:
            lo, hi = stack[-1].send(value)
            stack.append(parse_sum(s, lo, hi, closes, False))
            value = None
        except StopIteration as done:
            stack.pop()
            value = done.value
    return value


def parse_polynomial(text: str, field: FieldDescriptor, nvars: int | None = None) -> Polynomial:
    """Parse the polynomial text grammar over the given field."""
    value = _parse_nested(text, partial(_parse_sum, text, nvars or 0, field))
    if nvars is not None and value.nvars > nvars:
        raise ValueError(f"polynomial uses x{value.nvars} but nvars={nvars}")
    return value


def _parse_sum(text, nvars: int, field: FieldDescriptor, s: str, lo: int, hi: int, closes, top):
    """_parse_nested's parse_sum for polynomials; the top span is quoted as
    text and is at least nvars wide.  No slice of s is held."""
    if lo == hi:
        raise ValueError("empty polynomial text")
    terms, width = {}, nvars if top else 0
    for a, b in _split_top(s, lo, hi, "+-", closes):
        negate = s[a] == "-"
        if a + negate == b:
            raise ValueError(f"dangling sign in {text if top else s[lo:hi]!r}")
        prod = Polynomial.constant(field, 1)
        for fa, fb in _split_top(s, a + negate, b, "*", closes):
            if s[fa] == "(":
                close = s.rindex(")", fa, fb)
                tail = s[close + 1:fb]
                if tail and not (tail[0] == "^" and tail[1:].isascii() and tail[1:].isdigit()):
                    raise ValueError(f"bad factor {s[fa:fb]!r}")
                exp = int(tail[1:]) if tail else 1
                prod = prod * (yield fa + 1, close) ** exp
            elif m := _VAR_RE.fullmatch(s, fa, fb):
                idx = int(m.group(1))
                _check_index(idx)
                exp = int(m.group(2)) if m.group(2) else 1
                _check_degree(exp)
                key = exp << (WIDTH * idx) | exp
                prod = prod * Polynomial._of(field, {key: field.one_raw}, _top(key))
            else:
                prod = prod.scale_raw(field.coerce_raw(s[fa:fb]))
        _merge(terms, (-prod if negate else prod)._terms, field)
        width = max(width, prod.nvars)
    return Polynomial._of(field, terms, width)
