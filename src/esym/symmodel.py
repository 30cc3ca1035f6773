"""Representations of polynomials as e_d of linear forms, and rewriting
moves between them.

A SymRepresentation is a list of linear forms together with a degree d and
the polynomial the forms realize.  The constructor expands e_d of the forms
once, by the generating-function sweep; a target passed in must equal that
expansion exactly, and with no target the expansion becomes the target, so
an instance is self-certifying.  The moves:

  * append_linear_power: extend a representation of f to one of f + q^d by
    appending the d forms -w_i*q for the roots w_i of z^d + 1.
  * quadratic_gadget / quadratic_to_sym: in characteristic 2, write any
    quadratic as e_2 of forms with e_1 = 0, three forms per monomial, using
    a cube root of unity w (lifting into the smallest extension containing
    one when needed).
  * newton_decompose: for degree p + 1 over characteristic p, split e_(p+1)
    of the forms into products of two lower-degree symmetric pieces, a
    Frobenius power of e_1, and (p+1)-th powers of the forms.  Reassembly is
    exact; the power-sum block carries sign (-1)^p, so it flips for odd p.
  * reducible_to_sym: in characteristic 2, turn a product of a quadratic
    and a linear factor into a degree-3 representation, cancelling the
    leftover cubes with one block of cube-root multiples per gadget form.

All construction is pure; every function returns fresh objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import (FieldDescriptor, FieldElement, FieldError, make_field,
                    roots_of_z_pow_d_plus_one)
from .poly import LinearForm, Polynomial
from .symfunc import esp_of_forms, esp_table_of_forms, power_sum_of_forms


class SymModelError(ValueError):
    """Raised when a construction's precondition or postcondition fails."""


class SymRepresentation:
    """forms, degree, field, and the target the forms provably realize."""

    __slots__ = ("field", "degree", "forms", "target")

    def __init__(self, field: FieldDescriptor, degree: int, forms,
                 target: Polynomial | None = None):
        if degree < 0:
            raise SymModelError("degree must be nonnegative")
        forms = tuple(forms)
        for f in forms:
            if f.field != field:
                raise FieldError(f"form over {f.field} in a representation over {field}")
        if target is not None and target.field != field:
            raise FieldError(f"target over {target.field} in a representation over {field}")
        realized = esp_of_forms(forms, degree, field)
        if target is None:
            target = realized
        elif realized != target:
            raise SymModelError(
                f"forms do not realize the recorded target (degree {degree}, {len(forms)} forms)")
        self.field = field
        self.degree = degree
        self.forms = forms
        self.target = target

    @classmethod
    def from_forms(cls, forms, degree: int, field: FieldDescriptor | None = None) -> "SymRepresentation":
        forms = tuple(forms)
        if forms:
            field = forms[0].field
        elif field is None:
            raise SymModelError("an empty representation needs an explicit field")
        return cls(field, degree, forms)

    def realized(self) -> Polynomial:
        """e_degree of the forms, expanded exactly."""
        return esp_of_forms(self.forms, self.degree, self.field)

    def to_json(self) -> dict:
        return {
            "field": self.field.spec_string(),
            "degree": self.degree,
            "forms": [[str(c) for c in f.coefficients] for f in self.forms],
        }

    @classmethod
    def from_json(cls, data) -> "SymRepresentation":
        """Inverse of to_json; data of any other shape raises SymModelError."""
        if not (isinstance(data, dict) and isinstance(data.get("field"), str)
                and type(data.get("degree")) is int
                and isinstance(data.get("forms"), list)
                and all(isinstance(row, list) and not any(isinstance(c, bool) for c in row)
                        for row in data["forms"])):
            raise SymModelError('a representation is a JSON object {"field": spec, '
                                '"degree": integer, "forms": [[coefficient, ...], ...]}')
        fld = make_field(data["field"])
        forms = [LinearForm(fld, row) for row in data["forms"]]
        return cls.from_forms(forms, data["degree"], fld)

    def __repr__(self):
        return (f"<SymRepresentation degree={self.degree} forms={len(self.forms)} "
                f"over {self.field}>")


def verify_representation(rep: SymRepresentation, target: Polynomial) -> bool:
    """Check e_d(forms) == target, the target lifted into the representation's
    field, by one generating-function sweep."""
    return rep.realized() == target.map_field(rep.field)


# ---------------------------------------------------------------------------

def append_linear_power(rep: SymRepresentation, q: LinearForm) -> SymRepresentation:
    """Extend a representation of f into one of f + q^d, d = rep.degree.

    Appends the block (-w_1*q, ..., -w_d*q) for the roots w_i of z^d + 1,
    lifting everything into the smallest extension hosting the roots.  The
    root finder checks the roots, and the new representation checks that it
    realizes f + q^d.
    """
    d = rep.degree
    if d < 1:
        raise SymModelError("append_linear_power needs degree >= 1")
    roots, host = roots_of_z_pow_d_plus_one(rep.field, d)
    q_host = q.map_field(host)
    lifted = [f.map_field(host) for f in rep.forms]
    block = [q_host.scale(-w) for w in roots]
    new_target = rep.target.map_field(host) + q_host ** d
    return SymRepresentation(host, d, lifted + block, new_target)


# ---------------------------------------------------------------------------

def _host_with_omega(field: FieldDescriptor):
    """(host, omega) with omega a primitive cube root of unity, char 2 only."""
    if field.characteristic != 2:
        raise SymModelError("a cube root of unity needs characteristic 2 here")
    roots, host = roots_of_z_pow_d_plus_one(field, 3)      # 1, w, w^2 by raw
    return host, roots[1]


def quadratic_gadget(u: LinearForm, v: LinearForm) -> SymRepresentation:
    """Three forms with e_2 = u*v and e_1 = 0, characteristic 2.

    The forms are (w*u + w^2*v, w^2*u + w*v, u + v) for a cube root of
    unity w; u and v are lifted to the smallest field containing one.
    """
    if u.field != v.field:
        raise FieldError("gadget factors live in mixed fields")
    host, omega = _host_with_omega(u.field)
    uu, vv = u.map_field(host), v.map_field(host)
    return SymRepresentation(host, 2, _gadget_forms(uu, vv, omega), uu * vv)


def _gadget_forms(u: LinearForm, v: LinearForm, omega: FieldElement) -> tuple:
    """The gadget's forms for u and v over omega's field; their e_2 is u*v
    and their e_1 is 0 since 1 + w + w^2 = 0."""
    omega2 = omega * omega
    return (u.scale(omega) + v.scale(omega2), u.scale(omega2) + v.scale(omega), u + v)


def quadratic_to_sym(f: Polynomial) -> SymRepresentation:
    """Write a homogeneous quadratic over characteristic 2 as e_2 of forms
    with e_1 = 0, three forms per monomial."""
    if f.field.characteristic != 2:
        raise SymModelError("quadratic_to_sym needs characteristic 2")
    if not f.is_homogeneous(2) and not f.is_zero:
        raise SymModelError("quadratic_to_sym needs a homogeneous quadratic")
    host, omega = _host_with_omega(f.field)
    lifted = f.map_field(host)
    forms: list[LinearForm] = []
    n = lifted.nvars
    for mono, coeff in lifted.terms():
        on = [i + 1 for i, e in enumerate(mono) if e]
        i, j = on if len(on) == 2 else on * 2
        u = LinearForm.from_polynomial(Polynomial.variable(host, i, n).scale_raw(coeff.raw))
        v = LinearForm.from_polynomial(Polynomial.variable(host, j, n))
        forms.extend(_gadget_forms(u, v, omega))
    return SymRepresentation(host, 2, forms, lifted)   # the one check of all 3M forms


# ---------------------------------------------------------------------------

class ReduciblePolynomial:
    """A product of two homogeneous factors, smaller degree first."""

    __slots__ = ("factor_low", "factor_high", "product")

    def __init__(self, factor_low: Polynomial, factor_high: Polynomial,
                 product: Polynomial | None = None):
        if not factor_low.is_homogeneous() or not factor_high.is_homogeneous():
            raise SymModelError("reducible factors must be homogeneous")
        if (factor_low and factor_high
                and factor_low.degree() > factor_high.degree()):
            raise SymModelError("factor_low must have the smaller degree")
        self.factor_low = factor_low
        self.factor_high = factor_high
        expected = factor_low * factor_high
        if product is None:
            product = expected
        elif product != expected:
            raise SymModelError("recorded product does not match the factors")
        self.product = product

    @property
    def field(self) -> FieldDescriptor:
        return self.product.field

    def __repr__(self):
        return f"<reducible ({self.factor_low})*({self.factor_high})>"


@dataclass
class NewtonDecomposition:
    """e_(p+1) of forms split into reducibles, a Frobenius term, and powers.

    assembled() recombines the pieces:

        sum_i product_i + frobenius^(p+1) + power_sign * sum_j L_j^(p+1)

    power_sign is (-1)^p: +1 in characteristic 2, -1 for odd p.
    """

    field: FieldDescriptor
    degree: int
    reducibles: list[ReduciblePolynomial]
    frobenius_term: LinearForm
    linear_power_terms: list[LinearForm]
    power_sign: int

    def assembled(self) -> Polynomial:
        p = self.degree - 1
        acc = Polynomial.zero(self.field)
        for r in self.reducibles:
            acc = acc + r.product
        acc = acc + self.frobenius_term ** (p + 1)
        for L in self.linear_power_terms:
            acc = acc + (L ** (p + 1)).scale(self.power_sign)
        return acc

    def to_json(self) -> dict:
        return {
            "field": self.field.spec_string(),
            "degree": self.degree,
            "reducibles": [[str(r.factor_low), str(r.factor_high)] for r in self.reducibles],
            "frobenius_term": str(self.frobenius_term),
            "linear_power_terms": [str(L) for L in self.linear_power_terms],
            "power_sign": self.power_sign,
        }


def newton_decompose(rep: SymRepresentation) -> NewtonDecomposition:
    """Split a degree p+1 representation over characteristic p.

    The i-th reducible, for i in [p-1], pairs the power sum p_i of the
    forms with (-1)^(i-1) * e_(p+1-i) of the forms, the sign folded into
    the e-factor.  Ties in factor degree put the e-factor low.
    """
    p = rep.field.characteristic
    if p == 0:
        raise SymModelError("newton_decompose needs positive characteristic")
    if rep.degree != p + 1:
        raise SymModelError(f"degree must be p+1 = {p + 1}, got {rep.degree}")
    forms = list(rep.forms)
    etable = esp_table_of_forms(forms, p, rep.field)
    reducibles = []
    for i in range(1, p):
        e_factor = etable[p + 1 - i]
        if i % 2 == 0:
            e_factor = -e_factor
        p_factor = (power_sum_of_forms(forms, i) if forms
                    else Polynomial.zero(rep.field))
        if p + 1 - i <= i:
            low, high = e_factor, p_factor
        else:
            low, high = p_factor, e_factor
        reducibles.append(ReduciblePolynomial(low, high))
    frob = LinearForm(rep.field, [])
    for f in forms:
        frob = frob + f
    return NewtonDecomposition(
        field=rep.field,
        degree=rep.degree,
        reducibles=reducibles,
        frobenius_term=frob,
        linear_power_terms=forms,
        power_sign=1 if p == 2 else -1,
    )


# ---------------------------------------------------------------------------

def reducible_to_sym(g: ReduciblePolynomial) -> SymRepresentation:
    """Degree-3 representation of quadratic*linear over characteristic 2.

    Builds e_2 forms for the quadratic factor, appends the linear factor as
    one more form, and cancels each leftover cube L_i^3 with the block
    (-w_1*L_i, -w_2*L_i, -w_3*L_i) for the roots w_j of z^3 + 1 (the e_1^3
    and g_2^3 cubes cancel each other mod 2).  A block has e_1 = e_2 = 0
    and e_3 = L_i^3, so e_3 of the whole list is e_3 of the gadget forms
    and the linear factor plus the sum of the cubes; the one constructor
    check re-derives it.
    """
    if g.field.characteristic != 2:
        raise SymModelError("reducible_to_sym needs characteristic 2")
    degs = sorted((g.factor_low.degree(), g.factor_high.degree()))
    if degs != [1, 2]:
        raise SymModelError("reducible_to_sym needs factor degrees (2, 1)")
    quad = g.factor_low if g.factor_low.degree() == 2 else g.factor_high
    lin = g.factor_high if quad is g.factor_low else g.factor_low

    base = quadratic_to_sym(quad)
    roots, host = roots_of_z_pow_d_plus_one(base.field, 3)
    gadget = [L.map_field(host) for L in base.forms]
    forms = gadget + [LinearForm.from_polynomial(lin.map_field(host))]
    for L in gadget:
        forms.extend(L.scale(-w) for w in roots)
    return SymRepresentation(host, 3, forms, g.product.map_field(host))
