"""Elementary symmetric polynomials, power sums, and their exact identities.

e_d over n variables is written gen_esp(n, d); p_d is gen_power_sum(n, d).
verify_identity expands both sides of a named identity symbolically over a
chosen field and reports the exact discrepancy polynomial:

  generating_function   prod_i (x_i + y) = sum_k y^(n-k) e_k
  split                 e_d over a block union, via e_k x e_(d-k) pieces
  partial_derivative    d e_d / d x_i = e_(d-1) over the other variables
  euler                 sum_i x_i * (d e_d / d x_i) = d * e_d
  newton                d * e_d = sum_k (-1)^(k+1) p_k e_(d-k)

Everything here is exact; a report with holds=False carries the nonzero
difference so callers can inspect where an identity fails.

esp_on (and gen_esp) builds e_d's terms in C: each key is the sum of d of
the variables' packed keys, taken by map(sum, ...) over
itertools.combinations, so the subsets are never listed.  An identity is
decided by lhs == rhs, a comparison of zero-free term dicts over one field
and so the same test as lhs - rhs vanishing; the subtraction runs only
when the sides differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .field import FieldDescriptor, FieldError, _dot_terms, _sweep_terms
from .poly import Polynomial, _check_degree, _check_index, _top, _variable_keys

IDENTITY_KINDS = ("generating_function", "split", "partial_derivative", "euler", "newton")

_TERM_GUARD = 2_000_000
_KEY_BYTE_GUARD = 1 << 27  # bytes of e_d's packed keys; x_i's key is about 4(i+1)
_IDENTITY_CAP = 16  # the largest n+m that verify_identity expands


def esp_on(indices, d: int, field: FieldDescriptor, nvars: int | None = None) -> Polynomial:
    """e_d over an explicit tuple of distinct 1-based variable indices.

    Each term's key is the sum of d of the indices' packed keys, summed in
    C over itertools.combinations without listing the subsets."""
    return _esp_of_keys(_variable_keys(indices), d, field, nvars)


def _esp_of_keys(keys: list, d: int, field: FieldDescriptor, nvars: int | None = None) -> Polynomial:
    """esp_on over the checked keys of _variable_keys, so that one key list
    can feed every d."""
    widest = max(keys, default=0)
    top = _top(widest)
    width = nvars or top
    if d < 0 or d > len(keys):
        return Polynomial.zero(field, width)
    count = math.comb(len(keys), d)
    if count > _TERM_GUARD:
        raise ValueError(f"e_{d} over {len(keys)} variables exceeds the term guard")
    # the m-th key by width is the widest in C(m-1, d-1) subsets' key sums
    if count * ((widest.bit_length() + 7) // 8) > _KEY_BYTE_GUARD:
        widths = sorted((k.bit_length() + 7) // 8 for k in keys)
        if sum(math.comb(m - 1, d - 1) * w for m, w in enumerate(widths, 1)) > _KEY_BYTE_GUARD:
            raise ValueError(f"e_{d} over {len(keys)} variables exceeds the key-byte guard")
    terms = dict.fromkeys(map(sum, combinations(keys, d)), field.one_raw)
    return Polynomial._of(field, terms, max(width, top) if d else width)  # e_0 names no x_i


def gen_esp(n: int, d: int, field: FieldDescriptor) -> Polynomial:
    """Elementary symmetric polynomial e_d over x1..xn."""
    if n < 0:
        raise ValueError("variable count must be nonnegative")
    if d < 0 or d > n:
        raise ValueError(f"need 0 <= d <= n, got d={d}, n={n}")
    if n:
        _check_index(n)   # before the range of n indices is built
    return esp_on(range(1, n + 1), d, field, n)


def gen_power_sum(n: int, d: int, field: FieldDescriptor) -> Polynomial:
    """Power sum p_d = x1^d + ... + xn^d."""
    if n < 1 or d < 1:
        raise ValueError("gen_power_sum needs n >= 1 and d >= 1")
    terms = {(0,) * i + (d,): field.one_raw for i in range(n)}
    return Polynomial(field, terms, n)


def esp_of_forms(forms, d: int, field: FieldDescriptor | None = None) -> Polynomial:
    """e_d evaluated at a list of linear forms, by one pass of the
    truncated generating function prod_i (1 + z*L_i).

    e_d of m values vanishes for d > m, so that case is the zero
    polynomial at once, without a sweep over d + 1 table entries.
    """
    forms = list(forms)
    if d > len(forms):
        return Polynomial.zero(*_field_and_nvars(forms, field))
    return esp_table_of_forms(forms, d, field)[d]


def esp_table_of_forms(forms, dmax: int, field: FieldDescriptor | None = None) -> list[Polynomial]:
    """[e_0, e_1, ..., e_dmax] at the given forms: rows 0..m of the term-dict
    sweep of prod(1 + z*L_i) (field._sweep_terms) for m forms; higher e_k vanish.

    The field argument is only needed when forms is empty, where e_0 = 1
    and every higher e_k vanishes.
    """
    forms = list(forms)
    if dmax < 0:
        raise ValueError("dmax must be nonnegative")
    field, nvars = _field_and_nvars(forms, field)
    if any(p.field != field for p in forms):
        raise FieldError("forms live in mixed fields")
    top = min(dmax, len(forms))
    _check_degree(sum(sorted([max(p.degree(), 0) for p in forms], reverse=True)[:top]))
    unit = {0: field.one_raw}
    rows = _sweep_terms(field, [unit] + [{}] * top, [(unit, p._terms) for p in forms])
    zero = Polynomial.zero(field, nvars)
    return [Polynomial._of(field, t, nvars) for t in rows] + [zero] * (dmax - top)


def _field_and_nvars(forms: list, field: FieldDescriptor | None):
    if forms:
        return forms[0].field, max(f.nvars for f in forms)
    if field is None:
        raise ValueError("esp_table_of_forms needs forms or an explicit field")
    return field, 0


def power_sum_of_forms(forms, d: int) -> Polynomial:
    forms = list(forms)
    if not forms:
        raise ValueError("power_sum_of_forms needs at least one form")
    field = forms[0].field
    nvars = max(f.nvars for f in forms)
    acc = Polynomial.zero(field, nvars)
    for form in forms:
        acc = acc + form**d
    return acc


@dataclass
class IdentityReport:
    kind: str
    params: dict
    holds: bool
    discrepancy: Polynomial

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "params": dict(self.params),
            "holds": self.holds,
            "discrepancy": str(self.discrepancy),
        }


def _require(params: dict, *names: str) -> list[int]:
    out = []
    for name in names:
        if name not in params:
            raise ValueError(f"identity parameter {name!r} is required")
        out.append(int(params[name]))
    return out


def verify_identity(kind: str, params: dict, field: FieldDescriptor) -> IdentityReport:
    """Expand both sides of a named identity and compare exactly."""
    if kind not in IDENTITY_KINDS:
        raise ValueError(f"unknown identity kind {kind!r}; choose from {IDENTITY_KINDS}")
    total = int(params.get("n", 0)) + int(params.get("m", 0))
    if total > _IDENTITY_CAP:
        raise ValueError(f"identity parameters exceed the desk-scale cap n+m <= {_IDENTITY_CAP}")

    if kind == "generating_function":
        (n,) = _require(params, "n")
        if n < 1:
            raise ValueError("generating_function needs n >= 1")
        y = Polynomial.variable(field, n + 1)
        lhs = Polynomial.constant(field, 1, n + 1)
        for i in range(1, n + 1):
            lhs = lhs * (Polynomial.variable(field, i, n + 1) + y)
        keys = _variable_keys(range(1, n + 1))
        rhs = _sum_of_products(field, n + 1, [(y ** (n - k), _esp_of_keys(keys, k, field))
                                              for k in range(n + 1)])

    elif kind == "split":
        n, m, d = _require(params, "n", "m", "d")
        if n < 1 or m < 1 or d < 0 or d > n + m:
            raise ValueError("split needs n, m >= 1 and 0 <= d <= n+m")
        keys = _variable_keys(range(1, n + m + 1))
        first, second = keys[:n], keys[n:]
        lhs = _esp_of_keys(keys, d, field, n + m)
        rhs = _sum_of_products(field, n + m, [(_esp_of_keys(first, k, field),
                                               _esp_of_keys(second, d - k, field))
                                              for k in range(d + 1)])

    elif kind == "partial_derivative":
        n, d = _require(params, "n", "d")
        if not 1 <= d <= n:
            raise ValueError("partial_derivative needs 1 <= d <= n")
        keys = _variable_keys(range(1, n + 1))
        e = _esp_of_keys(keys, d, field, n)
        lhs = rhs = None
        for i in range(1, n + 1):
            left = e.partial_derivative(i)
            right = _esp_of_keys(keys[:i - 1] + keys[i:], d - 1, field, n)
            if left != right:
                lhs, rhs = left, right
                break
        if lhs is None:
            lhs = rhs = Polynomial.zero(field, n)

    elif kind == "euler":
        n, d = _require(params, "n", "d")
        if not 1 <= d <= n:
            raise ValueError("euler needs 1 <= d <= n")
        e = gen_esp(n, d, field)
        lhs = _sum_of_products(field, n, [(Polynomial.variable(field, i), e.partial_derivative(i))
                                          for i in range(1, n + 1)])
        rhs = e.scale(d)

    else:  # newton
        n, d = _require(params, "n", "d")
        if not 1 <= d <= n:
            raise ValueError("newton needs 1 <= d <= n")
        keys = _variable_keys(range(1, n + 1))
        lhs = _esp_of_keys(keys, d, field, n).scale(d)
        rhs = _sum_of_products(field, n, [(gen_power_sum(n, k, field).scale((-1) ** (k + 1)),
                                           _esp_of_keys(keys, d - k, field, n))
                                          for k in range(1, d + 1)])

    if lhs == rhs:
        return IdentityReport(kind, dict(params), True,
                              Polynomial.zero(field, max(lhs.nvars, rhs.nvars)))
    return IdentityReport(kind, dict(params), False, lhs - rhs)


def _sum_of_products(field: FieldDescriptor, nvars: int, pairs) -> Polynomial:
    """sum a*b over pairs of polynomials of degree at most 16, one accumulation."""
    return Polynomial._of(field, _dot_terms(field, [(a._terms, b._terms) for a, b in pairs]), nvars)
