"""Truncated epsilon-series arithmetic and border constructions.

An EpsSeries is a polynomial-coefficient power series in epsilon, exact
modulo eps^T.  Operations take the minimum truncation of their operands;
dividing by eps^v lowers T by v.  A series witnesses a border computation
of f when it reads eps^N * f + eps^(N+1) * (anything): approx_extract
returns that N and principal part.

A series is one zero-free term dict, as a Polynomial is.  A key is
(x_key << WIDTH) | i for the term x^m * eps^i: the eps-power i sits in the
lowest 32-bit field and the packed monomial x_key of poly.py (its total
degree in field 0) is shifted up one field, so the x-degree of a key k is
(k >> WIDTH) & _MASK.  Keys still add under multiplication, so a series
product is one FieldDescriptor.mul_terms call followed by dropping the
terms with eps-power T or more, and esp_of_series one term-dict sweep
(field._sweep_terms, every gamma 1) that cuts each row the same way.  No
field carries: eps-powers stay below T <= 2^16, so a sum of two is below
2^17, and a product checks, as Polynomial.__mul__ does, that its x-degree
stays below 2^32.  The dense tuple of coefficient polynomials, .coeffs, is
derived on read.

kumar_fanin2 realizes e_d of forms with two product terms:
prod(1 + eps*L_i) - 1, valid when e_1..e_(d-1) of the forms vanish.
constant_shift realizes the lemma that a factor may be nudged by eps^M
without changing what the circuit approximates.  depth3_to_sym converts a
fan-in-k circuit of affine eps-factors into k symmetric terms: each factor
is normalized to gamma * (1 + lhat) with gamma a scalar series, and the
degree-d part in x of each product is exactly e_d of the normalized linear
parts, so the sum of scalar * e_d(forms) extracts to the same principal.

depth3_to_sym reads only the degree-d part H_d in x of the circuit and of
the realized symmetric terms.  The circuit's H_d is the same sweep, one
call per product term (_affine_degree_part): row j starts as the scalar's
part of x-degree j, and a factor gamma + lambda (gamma free of x, lambda
of x-degree 1) maps row j to row j*gamma + row j-1*lambda.  This is exact:
x-degrees are nonnegative and add, so the rows above d are never needed.
The realized symmetric terms are checked by their full products, each
cut to its H_d; sums keep degrees, so the sum of these parts is the H_d
of the sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

from .field import FieldDescriptor, FieldError, _dot_terms, _sweep_terms
from .poly import (WIDTH, LinearForm, Polynomial, _as_polynomial, _check_degree, _MASK, _merge,
                   _top)
from .symfunc import esp_table_of_forms


# fixed bound on the truncation T: it keeps eps-powers, and sums of two,
# inside one key field, and .coeffs builds T polynomials
MAX_TRUNCATION = 1 << 16


class BorderError(ValueError):
    """Raised on truncation, precondition, or normalization failure."""


def _check_truncation(truncation: int) -> None:
    if not 1 <= truncation <= MAX_TRUNCATION:
        raise BorderError(f"truncation {truncation} is outside 1..{MAX_TRUNCATION}")


def _x_degree(terms: dict) -> int:
    """Highest x-degree among packed series terms; -1 for none."""
    return max([(k >> WIDTH) & _MASK for k in terms], default=-1)


def _below(terms: dict, T: int) -> dict:
    """The packed series terms whose eps-power is below T."""
    return {k: r for k, r in terms.items() if k & _MASK < T}


class EpsSeries:
    """Polynomial coefficients by eps-power, exact mod eps^truncation."""

    __slots__ = ("field", "truncation", "_terms")

    def __init__(self, field: FieldDescriptor, truncation: int, coeffs=()):
        _check_truncation(truncation)
        terms = {}
        for i, c in enumerate(islice(coeffs, truncation)):
            if not isinstance(c, Polynomial) or c.field != field:
                raise BorderError(f"coefficient {c!r} is not a polynomial over {field}")
            for k, raw in c._terms.items():
                terms[k << WIDTH | i] = raw
        self.field = field
        self.truncation = truncation
        self._terms = terms

    @classmethod
    def _of(cls, field: FieldDescriptor, truncation: int, terms: dict) -> "EpsSeries":
        """Wrap, without copying, a zero-free packed term dict whose
        eps-powers are below the truncation."""
        out = cls.__new__(cls)
        out.field = field
        out.truncation = truncation
        out._terms = terms
        return out

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, field: FieldDescriptor, truncation: int) -> "EpsSeries":
        return cls(field, truncation)

    @classmethod
    def constant(cls, field: FieldDescriptor, value, truncation: int) -> "EpsSeries":
        return cls.from_polynomial(Polynomial.constant(field, value), truncation)

    @classmethod
    def from_polynomial(cls, poly: Polynomial, truncation: int,
                        eps_power: int = 0) -> "EpsSeries":
        _check_truncation(truncation)
        if not isinstance(poly, Polynomial):
            raise BorderError(f"coefficient {poly!r} is not a polynomial")
        if eps_power < 0:
            raise BorderError(f"negative eps-power {eps_power}")
        terms = ({k << WIDTH | eps_power: raw for k, raw in poly._terms.items()}
                 if eps_power < truncation else {})
        return cls._of(poly.field, truncation, terms)

    @classmethod
    def eps(cls, field: FieldDescriptor, truncation: int, power: int = 1) -> "EpsSeries":
        return cls.from_polynomial(Polynomial.constant(field, 1), truncation, power)

    # -- inspection --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def coeffs(self) -> tuple:
        """The coefficient polynomials of eps^0, ..., eps^(T-1)."""
        parts = self._by_power()
        zero = Polynomial.zero(self.field)
        return tuple(parts.get(i, zero) for i in range(self.truncation))

    def coeff(self, i: int) -> Polynomial:
        if i < 0:
            i += self.truncation
        if not 0 <= i < self.truncation:
            raise IndexError(f"eps-power {i} is outside the truncation {self.truncation}")
        return _polynomial(self.field, {k >> WIDTH: raw for k, raw in self._terms.items()
                                        if k & _MASK == i})

    def valuation(self):
        """Least eps-power with a nonzero coefficient; None for the zero series."""
        return min([k & _MASK for k in self._terms], default=None)

    def __eq__(self, other):
        return (isinstance(other, EpsSeries) and self.field == other.field
                and self.truncation == other.truncation
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.field, self.truncation, frozenset(self._terms.items())))

    def __str__(self):
        parts = []
        for i, c in sorted(self._by_power().items()):
            body = f"({c})" if c.term_count() > 1 else str(c)
            power = "" if i == 0 else "e" if i == 1 else f"e^{i}"
            if not power:
                parts.append(body)
            elif body == "1":
                parts.append(power)
            else:
                parts.append(f"{body}*{power}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<EpsSeries mod e^{self.truncation}: {self}>"

    def _by_power(self) -> dict:
        """{i: the nonzero coefficient of eps^i}."""
        parts = {}
        for k, raw in self._terms.items():
            parts.setdefault(k & _MASK, {})[k >> WIDTH] = raw
        return {i: _polynomial(self.field, p) for i, p in parts.items()}

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        s = _as_series(other, self.field, self.truncation)
        if s is None:
            return NotImplemented
        T = min(self.truncation, s.truncation)
        terms = _below(self._terms, T)
        _merge(terms, _below(s._terms, T), self.field)
        return EpsSeries._of(self.field, T, terms)

    __radd__ = __add__

    def __neg__(self):
        neg = self.field.neg_raw
        return EpsSeries._of(self.field, self.truncation,
                             {k: neg(raw) for k, raw in self._terms.items()})

    def __sub__(self, other):
        s = _as_series(other, self.field, self.truncation)
        if s is None:
            return NotImplemented
        return self + (-s)

    def __rsub__(self, other):
        s = _as_series(other, self.field, self.truncation)
        if s is None:
            return NotImplemented
        return s + (-self)

    def __mul__(self, other):
        s = _as_series(other, self.field, self.truncation)
        if s is None:
            return NotImplemented
        T = min(self.truncation, s.truncation)
        a, b = _below(self._terms, T), _below(s._terms, T)
        _check_degree(_x_degree(a) + _x_degree(b))
        return EpsSeries._of(self.field, T, _below(self.field.mul_terms(a, b), T))

    __rmul__ = __mul__

    def scale(self, scalar) -> "EpsSeries":
        raw = self.field.scalar_raw(scalar)
        if raw is None:
            raise FieldError(f"cannot scale by {scalar!r}")
        if raw == self.field.zero_raw:
            return EpsSeries._of(self.field, self.truncation, {})
        mul = self.field.mul_raw
        return EpsSeries._of(self.field, self.truncation,
                             {k: mul(r, raw) for k, r in self._terms.items()})

    def shift(self, j: int) -> "EpsSeries":
        """Multiply by eps^j, keeping the truncation."""
        if j < 0:
            raise BorderError("negative shift")
        T = self.truncation
        return EpsSeries._of(self.field, T, {k + j: raw for k, raw in self._terms.items()
                                             if (k & _MASK) + j < T})

    def divide_eps(self, v: int) -> "EpsSeries":
        """Exact division by eps^v; the truncation drops to T - v."""
        if v == 0:
            return self
        if v < 0 or v >= self.truncation:
            raise BorderError(f"cannot divide by e^{v} at truncation {self.truncation}")
        if any(k & _MASK < v for k in self._terms):
            raise BorderError(f"series is not divisible by e^{v}")
        return EpsSeries._of(self.field, self.truncation - v,
                             {k - v: raw for k, raw in self._terms.items()})

    def invert(self) -> "EpsSeries":
        """Inverse of a series whose eps^0 coefficient is a nonzero constant,
        by the recurrence out_k = -sum_(1 <= i <= k) a_i * out_(k-i) / a_0
        over the eps-powers i > 0 that are present."""
        parts = self._by_power()
        lead = parts.pop(0, None)
        if lead is None or lead.degree() > 0:
            raise BorderError("only series with a nonzero constant leading "
                              "coefficient are invertible")
        F, T = self.field, self.truncation
        inv0 = F.inv_raw(lead.constant_term().raw)
        if not parts:
            return EpsSeries._of(F, T, {0: inv0})
        _check_degree((T - 1) * _x_degree(self._terms))
        minus_inv0, out = F.neg_raw(inv0), [{0: inv0}]
        for k in range(1, T):   # each out_k is one accumulation
            acc = _dot_terms(F, [(parts[i]._terms, out[k - i]) for i in parts if i <= k])
            out.append({key: F.mul_raw(r, minus_inv0) for key, r in acc.items()})
        return EpsSeries._of(F, T, {key << WIDTH | k: r for k, t in enumerate(out)
                                    for key, r in t.items()})

    def homogeneous_part(self, d: int) -> "EpsSeries":
        """Keep only the degree-d part in x of every coefficient."""
        return EpsSeries._of(self.field, self.truncation,
                             {k: raw for k, raw in self._terms.items()
                              if (k >> WIDTH) & _MASK == d})


def _polynomial(field: FieldDescriptor, terms: dict) -> Polynomial:
    """A coefficient polynomial from its zero-free packed term dict."""
    return Polynomial._of(field, terms, _top(max(terms)) if terms else 0)


# ---------------------------------------------------------------------------
# the approximates-relation

@dataclass(frozen=True)
class BorderWitness:
    """Reading eps^order * principal + eps^(order+1) * tail off a series."""

    order: int
    principal: Polynomial
    tail_present: bool


def approx_extract(s: EpsSeries) -> BorderWitness:
    """Order and principal part of a series; a zero series reports order = T
    with zero principal."""
    v = s.valuation()
    if v is None:
        return BorderWitness(order=s.truncation,
                             principal=Polynomial.zero(s.field),
                             tail_present=False)
    tail = any(k & _MASK > v for k in s._terms)
    return BorderWitness(order=v, principal=s.coeff(v), tail_present=tail)


def esp_of_series(forms, d: int, field: FieldDescriptor,
                  truncation: int) -> EpsSeries:
    """e_d of eps-series (or values _as_series coerces), by one term-dict
    sweep of prod(1 + z*s_i) over their terms below T, the least truncation,
    keeping its rows below T."""
    _check_truncation(truncation)
    series = [_as_series(f, field, truncation) for f in forms]
    if None in series:
        raise BorderError(f"an argument of esp_of_series is not a series over {field}")
    if not 0 < d <= len(series):   # e_0 = 1, and e_d = 0 past the argument count
        return EpsSeries.constant(field, 1 if d == 0 else 0, truncation)
    T = min([truncation] + [s.truncation for s in series])
    terms = [_below(s._terms, T) for s in series]
    _check_degree(sum(sorted([_x_degree(t) for t in terms])[-d:]))
    # rows are cut below T after each step, unless d eps-powers stay below T
    top = sum(sorted([max((k & _MASK for k in t), default=0) for t in terms])[-d:])
    cut = None if top < T else (lambda row: _below(row, T))
    unit = {0: field.one_raw}
    return EpsSeries._of(field, T, _sweep_terms(field, [unit] + [{}] * d,
                                                [(unit, t) for t in terms], cut)[d])


# ---------------------------------------------------------------------------
# fan-in-2 border products

def kumar_fanin2(forms, d: int, T: int | None = None):
    """Two product terms whose sum border-computes e_d of the forms.

    Requires e_k(forms) = 0 for 1 <= k < d, checked symbolically; then
    prod(1 + eps*L_i) - 1 = eps^d * e_d(forms) + higher order.  The product
    is read off the e_k table, since prod_i (1 + eps*L_i) = sum_k eps^k
    e_k(L) in any commutative ring; the table stops at k = len(forms),
    above which e_k vanishes, so only the EpsSeries constructor sizes
    anything by T.  Returns (product_series, minus_one_series, combined).
    """
    forms = list(forms)
    if not forms:
        raise BorderError("need at least one form")
    if d < 1:
        raise BorderError("d must be positive")
    if T is None:
        T = 2 * d + 2
    if T < d + 2:
        raise BorderError(f"truncation {T} is below the minimum d+2 = {d + 2}")
    field = forms[0].field
    table = esp_table_of_forms(forms, min(T - 1, len(forms)), field)
    for k, e in enumerate(table[1:d], 1):
        if not e.is_zero:
            raise BorderError(f"e_{k} of the forms is {e}, not zero")
    product = EpsSeries(field, T, table)
    minus_one = EpsSeries.constant(field, -1, T)
    return product, minus_one, product + minus_one


# ---------------------------------------------------------------------------
# the shift lemma

def constant_shift(F: EpsSeries, G: EpsSeries, ell: LinearForm,
                   target: Polynomial, degree: int | None = None) -> int:
    """Minimal M such that F*(ell + eps^M) + G still extracts to target.

    Requires F*ell + G to extract to target already (the precondition of
    the lemma); when degree is given the extraction is filtered to the
    degree-d part in x first.  Returns the exponent M; raises when no
    M < T verifies, which signals that the truncation is too small.
    """
    def extract(s: EpsSeries) -> BorderWitness:
        return approx_extract(s.homogeneous_part(degree) if degree is not None else s)

    base = F * ell + G
    w0 = extract(base)
    if w0.principal != target:
        raise BorderError(
            f"F*ell + G extracts {w0.principal} at order {w0.order}, not the target")
    if F.is_zero:
        return 1
    for M in range(base.truncation):
        w = extract(base + F.shift(M))
        if w.order == w0.order and w.principal == target:
            return M
    raise BorderError("truncation too small: no shift exponent below "
                      f"{base.truncation} preserves the extraction")


# ---------------------------------------------------------------------------
# depth-3 terms to symmetric terms

@dataclass
class EpsSymRepresentation:
    """One symmetric term over eps: scalar * e_degree(forms), with forms
    eps-series whose coefficients are homogeneous linear."""

    scalar: EpsSeries
    forms: list
    degree: int
    field: FieldDescriptor

    def realized(self) -> EpsSeries:
        T = min([self.scalar.truncation] + [f.truncation for f in self.forms])
        return self.scalar * esp_of_series(self.forms, self.degree, self.field, T)


def depth3_to_sym(terms, target: Polynomial, T: int):
    """Convert fan-in-k products of affine eps-factors into k symmetric
    terms whose sum extracts to the same target.

    Each term is (scalar, factors): the scalar and every factor coerce to
    an EpsSeries (from a series, polynomial, linear form or field scalar),
    and every factor has affine coefficients.  The circuit's degree-d part
    in x is read by one affine sweep per term (see the module docstring).
    Factors with a zero constant part must have the single-power shape
    eps^w * ell and are repaired through constant_shift; every factor is
    then split into gamma, its x-free part, and its linear part, and
    normalized to gamma * (1 + lhat).  When gamma is exactly 1, lhat is the
    linear part itself and the scalar is only cut to the factor's
    truncation; any other gamma is inverted into lhat and folded into the
    scalar.  lhat's linear coefficients become the forms.  The sum of
    realized terms is checked against the original by H_d extraction.
    """
    if not target.is_homogeneous() or target.is_zero:
        raise BorderError("target must be homogeneous and nonzero")
    d = target.degree()
    field = target.field
    norm_terms = []
    for scalar, factors in terms:
        c = _as_series(scalar, field, T)
        fs = [_as_series(f, field, T) for f in factors]
        if c is None or None in fs:
            raise BorderError("a term holds a value that is not a series, polynomial, "
                              f"linear form or scalar over {field}")
        for s in fs:
            if _x_degree(s._terms) > 1:
                raise BorderError(f"factor {s} is not affine")
        norm_terms.append((c, fs))

    w0 = approx_extract(_affine_degree_part(field, norm_terms, d, T))
    if w0.principal != target:
        raise BorderError(
            f"the terms extract {w0.principal} at order {w0.order}, not the target")

    # repair factors with no constant part via the shift lemma
    for ti, (c, fs) in enumerate(norm_terms):
        for fi, f in enumerate(fs):
            if any(k <= _MASK for k in f._terms):
                continue
            w = f.valuation()
            if w is None:
                raise BorderError("a zero factor cannot be normalized")
            if any(k & _MASK > w for k in f._terms):
                raise BorderError(
                    f"factor {f} has no constant part and is not eps^w * linear; "
                    "cannot normalize within a truncated series")
            ell = LinearForm.from_polynomial(f.coeff(w))
            others = math.prod(fs[:fi] + fs[fi + 1:], start=c)
            rest = _affine_degree_part(
                field, [t for k, t in enumerate(norm_terms) if k != ti], d, T)
            M = constant_shift(others.shift(w), rest, ell, target, degree=d)
            if w + M >= f.truncation:
                raise BorderError(
                    f"shift eps^{w + M} falls outside truncation {f.truncation}")
            fs[fi] = f + EpsSeries.eps(field, f.truncation, w + M)

    unit = {0: field.one_raw}
    reps = []
    for c, fs in norm_terms:
        scalar = c
        forms = []
        for f in fs:
            gamma, lam = _split_affine(f._terms)
            v = min([k & _MASK for k in gamma])
            lv = min([k & _MASK for k in lam], default=None)
            if lv is not None and lv < v:
                raise BorderError(
                    f"factor {f}: the linear part appears at eps^{lv}, below the "
                    f"constant part at eps^{v}; normalizing needs rational eps "
                    "coefficients, not a truncated series")
            Tf = f.truncation - v
            lhat = EpsSeries._of(field, Tf, {k - v: r for k, r in lam.items()})
            if gamma == unit:   # f = 1 + lhat: the form is lhat, the scalar is cut
                forms.append(lhat)
                scalar = scalar + EpsSeries.zero(field, Tf)
                continue
            u = EpsSeries._of(field, Tf, {k - v: r for k, r in gamma.items()})
            forms.append(lhat * u.invert())
            scalar = scalar * EpsSeries._of(field, f.truncation, gamma)
        reps.append(EpsSymRepresentation(scalar=scalar, forms=forms,
                                         degree=d, field=field))

    parts = [rep.realized().homogeneous_part(d) for rep in reps]
    wr = approx_extract(sum(parts[1:], parts[0]))
    if wr.order != w0.order or wr.principal != target:
        raise BorderError(
            f"symmetric terms extract {wr.principal} at order {wr.order}; "
            f"expected the target at order {w0.order} (truncation too small?)")
    return reps


def _as_series(value, field: FieldDescriptor, T: int):
    """A series, polynomial (forms included) or scalar of field as a series
    mod eps^T (a series keeps its own truncation); None for any other type."""
    if not isinstance(value, EpsSeries):
        value = _as_polynomial(field, value)
        if value is None:
            return None
        value = EpsSeries.from_polynomial(value, T)
    if value.field != field:
        raise FieldError("mixed fields in series arithmetic")
    return value


def _split_affine(terms: dict) -> tuple[dict, dict]:
    """The terms of an affine series split into gamma, the keys with no x,
    and lambda, the keys of x-degree 1."""
    gamma, lam = {}, {}
    for k, r in terms.items():
        (gamma if k <= _MASK else lam)[k] = r
    return gamma, lam


def _affine_degree_part(field: FieldDescriptor, terms, d: int, T: int) -> EpsSeries:
    """H_d of the sum of c * prod(fs) over the (c, fs) in terms, every factor
    affine, mod eps^T or a smaller operand truncation: per term, start rows
    of c by x-degree, each factor split into (gamma, lambda), one
    _sweep_terms call cutting its rows below eps^T, and row d merged."""
    T = min([T] + [s.truncation for c, fs in terms for s in (c, *fs)])
    total = {}
    for c, fs in terms:
        start = [_below(c.homogeneous_part(j)._terms, T) for j in range(d + 1)]
        factors = [_split_affine(_below(f._terms, T)) for f in fs]
        rows = _sweep_terms(field, start, factors, lambda row: _below(row, T))
        _merge(total, rows[d], field)
    return EpsSeries._of(field, T, total)
