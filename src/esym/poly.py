"""Sparse multivariate polynomials and linear forms over exact fields.

A Polynomial stores a mapping from monomials to nonzero coefficients.  A
monomial is a tuple of nonnegative exponents indexed by variable, with
trailing zeros trimmed, so the same key denotes the same monomial at any
variable count.  Variables are named x1, x2, ... and the variable count
widens automatically under arithmetic.  Terms are kept in graded
lexicographic order for printing and serialization.

Text grammar (also used by the CLI):

    poly   := term ('+' term)*
    term   := [coeff '*'] factor ('*' factor)*
    factor := x<idx> ['^' exp] | '(' poly ')' ['^' exp] | field-element literal

Examples: "x1*x2 + (t+1)*x3^2", "x1^2 + 2*x1*x2 + x2^2".  A '-' starting a
term is folded into its coefficient.
"""

from __future__ import annotations

import re

from .field import FieldDescriptor, FieldElement, FieldError, embed

Monomial = tuple[int, ...]


def mono_trim(exponents) -> Monomial:
    exps = list(exponents)
    while exps and exps[-1] == 0:
        exps.pop()
    return tuple(exps)


def mono_degree(m: Monomial) -> int:
    return sum(m)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return a
    return tuple(x + y for x, y in zip(a, b)) + a[len(b):]


def mono_is_multilinear(m: Monomial) -> bool:
    return all(e <= 1 for e in m)


def _mono_str(m: Monomial) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts)


class Polynomial:
    """Immutable-by-convention sparse polynomial; operators never mutate."""

    __slots__ = ("field", "nvars", "_terms")

    def __init__(self, field: FieldDescriptor, terms: dict | None = None, nvars: int = 0):
        self.field = field
        clean: dict[Monomial, object] = {}
        width = nvars
        if terms:
            zero = field.zero_raw
            for mono, raw in terms.items():
                key = mono_trim(mono)
                if raw != zero:
                    clean[key] = raw
                    if len(key) > width:
                        width = len(key)
        self._terms = clean
        self.nvars = width

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field: FieldDescriptor, nvars: int = 0) -> "Polynomial":
        return cls(field, {}, nvars)

    @classmethod
    def constant(cls, field: FieldDescriptor, value, nvars: int = 0) -> "Polynomial":
        return cls(field, {(): field.coerce_raw(value)}, nvars)

    @classmethod
    def variable(cls, field: FieldDescriptor, index: int, nvars: int | None = None) -> "Polynomial":
        """The variable x<index>, 1-based."""
        if index < 1:
            raise ValueError("variable index is 1-based")
        mono = (0,) * (index - 1) + (1,)
        return cls(field, {mono: field.one_raw}, nvars or index)

    @classmethod
    def _of(cls, field: FieldDescriptor, terms: dict, nvars: int) -> "Polynomial":
        """Wrap, without copying, a term dict already trimmed and zero-free."""
        out = cls(field, None, nvars)
        out._terms = terms
        return out

    # -- inspection ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(mono_degree(m) for m in self._terms)

    def is_homogeneous(self, d: int | None = None) -> bool:
        if not self._terms:
            return True
        degrees = {mono_degree(m) for m in self._terms}
        if d is None:
            return len(degrees) == 1
        return degrees == {d}

    def term_count(self) -> int:
        return len(self._terms)

    def _sorted_monos(self):
        n = self.nvars
        return sorted(self._terms,
                      key=lambda m: (mono_degree(m), m + (0,) * (n - len(m))),
                      reverse=True)

    def terms(self):
        """Yield (monomial, coefficient) pairs in graded lex order."""
        for m in self._sorted_monos():
            yield m, FieldElement(self.field, self._terms[m])

    def coefficient(self, mono) -> FieldElement:
        raw = self._terms.get(mono_trim(mono), self.field.zero_raw)
        return FieldElement(self.field, raw)

    def constant_term(self) -> FieldElement:
        return self.coefficient(())

    def is_constant_free(self) -> bool:
        """True when the constant term vanishes."""
        return () not in self._terms

    def multilinear_coefficients(self) -> dict[tuple[int, ...], FieldElement]:
        """Coefficients of squarefree monomials, keyed by 1-based index tuples."""
        out = {}
        for m, raw in self._terms.items():
            if mono_is_multilinear(m):
                key = tuple(i + 1 for i, e in enumerate(m) if e)
                out[key] = FieldElement(self.field, raw)
        return out

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.field != other.field:
            raise FieldError(f"mixed fields: {self.field} and {other.field}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            raw = self.field.scalar_raw(other)
            if raw is None:
                return NotImplemented
            other = Polynomial(self.field, {(): raw})
        self._check(other)
        terms = dict(self._terms)
        _merge(terms, other._terms, self.field)
        return Polynomial._of(self.field, terms, max(self.nvars, other.nvars))

    __radd__ = __add__

    def __neg__(self):
        neg = self.field.neg_raw
        terms = {m: neg(raw) for m, raw in self._terms.items()}
        return Polynomial._of(self.field, terms, self.nvars)

    def __sub__(self, other):
        if isinstance(other, Polynomial):
            return self + (-other)
        raw = self.field.scalar_raw(other)
        if raw is None:
            return NotImplemented
        return self + Polynomial(self.field, {(): self.field.neg_raw(raw)})

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            raw = self.field.scalar_raw(other)
            if raw is None:
                return NotImplemented
            return self.scale_raw(raw)
        self._check(other)
        mul = self.field.mul_raw
        add = self.field.add_raw
        zero = self.field.zero_raw
        terms: dict[Monomial, object] = {}
        for ma, ra in self._terms.items():
            for mb, rb in other._terms.items():
                m = mono_mul(ma, mb)
                acc = add(terms.get(m, zero), mul(ra, rb))
                if acc == zero:
                    terms.pop(m, None)
                else:
                    terms[m] = acc
        return Polynomial._of(self.field, terms, max(self.nvars, other.nvars))

    __rmul__ = __mul__

    def scale_raw(self, raw) -> "Polynomial":
        if raw == self.field.zero_raw:
            return Polynomial.zero(self.field, self.nvars)
        mul = self.field.mul_raw
        terms = {m: mul(r, raw) for m, r in self._terms.items()}
        return Polynomial._of(self.field, terms, self.nvars)

    def scale(self, scalar) -> "Polynomial":
        raw = self.field.scalar_raw(scalar)
        if raw is None:
            raise FieldError(f"cannot scale by {scalar!r}")
        return self.scale_raw(raw)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial.constant(self.field, 1, self.nvars)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.field == other.field and self._terms == other._terms
        raw = self.field.scalar_raw(other)
        if raw is None:
            return NotImplemented
        if raw == self.field.zero_raw:
            return not self._terms
        return self._terms == {(): raw}

    def __hash__(self):
        return hash((self.field, frozenset(self._terms.items())))

    # -- calculus and substitution --------------------------------------------

    def partial_derivative(self, index: int) -> "Polynomial":
        """Formal derivative with respect to x<index> (1-based)."""
        if index < 1:
            raise ValueError("variable index is 1-based")
        i = index - 1
        mul = self.field.mul_raw
        zero = self.field.zero_raw
        terms = {}
        for m, raw in self._terms.items():
            if i < len(m) and m[i]:
                e = m[i]
                coeff = mul(raw, self.field.coerce_raw(e))
                if coeff != zero:
                    terms[mono_trim(m[:i] + (e - 1,) + m[i + 1:])] = coeff
        return Polynomial._of(self.field, terms, self.nvars)

    def homogeneous_component(self, d: int) -> "Polynomial":
        terms = {m: r for m, r in self._terms.items() if mono_degree(m) == d}
        return Polynomial._of(self.field, terms, self.nvars)

    def substitute_linear(self, forms) -> "Polynomial":
        """Substitute x_i -> forms[i-1]; forms are LinearForm or Polynomial."""
        polys = [f.to_polynomial() if isinstance(f, LinearForm) else f for f in forms]
        if len(polys) < self.nvars:
            raise ValueError(f"{self.nvars} variables but only {len(polys)} forms")
        width = max([p.nvars for p in polys], default=0)
        target = polys[0].field if polys else self.field
        if any(p.field != target for p in polys):
            raise FieldError("substitution forms live in mixed fields")
        terms: dict[Monomial, object] = {}
        powers: dict[tuple[int, int], Polynomial] = {}

        def power(i: int, e: int) -> Polynomial:
            key = (i, e)
            if key not in powers:
                powers[key] = polys[i] ** e
            return powers[key]

        for m, raw in self._terms.items():
            piece = Polynomial.constant(target, _lift_raw(self.field, raw, target), width)
            for i, e in enumerate(m):
                if e:
                    piece = piece * power(i, e)
            _merge(terms, piece._terms, target)
        return Polynomial._of(target, terms, width)

    def evaluate(self, point) -> FieldElement:
        """Value at a point of field elements (in this field or an extension)."""
        pts = list(point)
        if len(pts) < self.nvars:
            raise ValueError(f"need {self.nvars} coordinates, got {len(pts)}")
        target = pts[0].field if pts else self.field
        for c in pts:
            if c.field != target:
                raise FieldError("point coordinates live in mixed fields")
        raws = [c.raw for c in pts]
        acc = target.zero_raw
        for m, raw in self._terms.items():
            term = _lift_raw(self.field, raw, target)
            for i, e in enumerate(m):
                if e:
                    term = target.mul_raw(term, target.pow_raw(raws[i], e))
            acc = target.add_raw(acc, term)
        return FieldElement(target, acc)

    def map_field(self, host: FieldDescriptor) -> "Polynomial":
        """Lift every coefficient into a host field containing this one."""
        if host == self.field:
            return self
        terms = {m: embed(FieldElement(self.field, r), host).raw
                 for m, r in self._terms.items()}
        return Polynomial._of(host, terms, self.nvars)

    # -- text ------------------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for m in self._sorted_monos():
            raw = self._terms[m]
            cs = self.field.raw_to_str(raw)
            mono = _mono_str(m)
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


def _merge(terms: dict, other: dict, field: FieldDescriptor) -> None:
    """Add the term dict other into terms in place; cancelled terms drop."""
    add, zero = field.add_raw, field.zero_raw
    for m, raw in other.items():
        acc = add(terms.get(m, zero), raw)
        if acc == zero:
            terms.pop(m, None)
        else:
            terms[m] = acc


def _lift_raw(src: FieldDescriptor, raw, target: FieldDescriptor):
    if src == target:
        return raw
    return embed(FieldElement(src, raw), target).raw


class LinearForm:
    """Homogeneous degree-1 form: one coefficient per variable, no constant."""

    __slots__ = ("field", "coefficients")

    def __init__(self, field: FieldDescriptor, coefficients):
        self.field = field
        self.coefficients = tuple(field.element(c) for c in coefficients)

    @property
    def nvars(self) -> int:
        return len(self.coefficients)

    @classmethod
    def from_polynomial(cls, poly: Polynomial) -> "LinearForm":
        if not poly.is_homogeneous(1) and not poly.is_zero:
            raise ValueError(f"{poly} is not a linear form")
        coeffs = [FieldElement(poly.field, poly.field.zero_raw)] * poly.nvars
        for m, raw in poly._terms.items():
            coeffs[len(m) - 1] = FieldElement(poly.field, raw)
        return cls(poly.field, coeffs)

    def to_polynomial(self) -> Polynomial:
        terms = {}
        for i, c in enumerate(self.coefficients):
            if not c.is_zero:
                terms[(0,) * i + (1,)] = c.raw
        return Polynomial(self.field, terms, self.nvars)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coefficients)

    def evaluate(self, point) -> FieldElement:
        return self.to_polynomial().evaluate(point)

    def scale(self, scalar) -> "LinearForm":
        s = self.field.element(scalar) if not isinstance(scalar, FieldElement) else scalar
        return LinearForm(self.field, [c * s for c in self.coefficients])

    def map_field(self, host: FieldDescriptor) -> "LinearForm":
        if host == self.field:
            return self
        return LinearForm(host, [embed(c, host) for c in self.coefficients])

    def __add__(self, other: "LinearForm"):
        if not isinstance(other, LinearForm):
            return NotImplemented
        if self.field != other.field:
            raise FieldError("mixed fields in linear form sum")
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] = merged[i] + c
        return LinearForm(self.field, merged)

    def __neg__(self):
        return LinearForm(self.field, [-c for c in self.coefficients])

    def __eq__(self, other):
        return (isinstance(other, LinearForm) and self.field == other.field
                and self.to_polynomial() == other.to_polynomial())

    def __hash__(self):
        return hash((self.field, tuple(c.raw for c in self.coefficients)))

    def __str__(self):
        return str(self.to_polynomial())

    def __repr__(self):
        return f"<form {self} over {self.field}>"


# ---------------------------------------------------------------------------
# parsing

_VAR_RE = re.compile(r"x(\d+)(?:\^(\d+))?")


def _split_top(s: str, lo: int, hi: int, seps: str, closes: dict) -> list[tuple[int, int]]:
    """Spans of s[lo:hi] cut at separators outside parentheses ('-' starts
    the next span); a '(' jumps to its ')' in closes."""
    parts, start, i = [], lo, lo
    while i < hi:
        ch = s[i]
        if ch == "(":
            i = closes.get(i, hi)
        elif ch == ")":
            break
        elif ch in seps and start < i:
            parts.append((start, i))
            start = i if ch == "-" else i + 1
        i += 1
    if i != hi:
        raise ValueError(f"unbalanced parentheses in {s[lo:hi]!r}")
    if start < hi:
        parts.append((start, hi))
    elif hi > lo and s[hi - 1] in seps:
        raise ValueError(f"dangling {s[hi - 1]!r} in {s[lo:hi]!r}")
    return parts


def parse_polynomial(text: str, field: FieldDescriptor, nvars: int | None = None) -> Polynomial:
    """Parse the polynomial text grammar over the given field.  Each
    parenthesized factor is parsed by a _parse_sum of its own, suspended on
    an explicit stack, so nesting depth is bounded by memory only."""
    s = "".join(text.split())
    closes, opens = {}, []
    for i, ch in enumerate(s):
        if ch == "(":
            opens.append(i)
        elif ch == ")" and opens:
            closes[opens.pop()] = i
    stack, value = [_parse_sum(s, 0, len(s), text, nvars or 0, field, closes)], None
    while stack:
        try:
            lo, hi = stack[-1].send(value)
            stack.append(_parse_sum(s, lo, hi, None, 0, field, closes))
            value = None
        except StopIteration as done:
            stack.pop()
            value = done.value
    if nvars is not None and value.nvars > nvars:
        raise ValueError(f"polynomial uses x{value.nvars} but nvars={nvars}")
    return value


def _parse_sum(s: str, lo: int, hi: int, text, nvars: int, field: FieldDescriptor, closes):
    """Parse s[lo:hi] (quoted as text, or itself when None), yielding the span
    of each parenthesized factor for its polynomial; no slice of s is held."""
    if lo == hi:
        raise ValueError("empty polynomial text")
    terms, width = {}, nvars
    for a, b in _split_top(s, lo, hi, "+-", closes):
        negate = s[a] == "-"
        if negate:
            a += 1
        if a == b:
            raise ValueError(f"dangling sign in {s[lo:hi] if text is None else text!r}")
        prod = Polynomial.constant(field, 1)
        for fa, fb in _split_top(s, a, b, "*", closes):
            if s[fa] == "(":
                close = s.rindex(")", fa, fb)
                tail = s[close + 1:fb]
                if tail and (not tail.startswith("^") or not tail[1:].isdigit()):
                    raise ValueError(f"bad factor {s[fa:fb]!r}")
                exp = int(tail[1:]) if tail else 1
                prod = prod * (yield fa + 1, close) ** exp
            elif m := _VAR_RE.fullmatch(s, fa, fb):
                idx = int(m.group(1))
                if idx < 1:
                    raise ValueError("variable indices are 1-based")
                exp = int(m.group(2)) if m.group(2) else 1
                prod = prod * Polynomial(field, {(0,) * (idx - 1) + (exp,): field.one_raw})
            else:
                prod = prod.scale_raw(field.coerce_raw(s[fa:fb]))
        if negate:
            prod = -prod
        _merge(terms, prod._terms, field)
        width = max(width, prod.nvars)
    return Polynomial._of(field, terms, width)
