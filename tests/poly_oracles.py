"""Reference polynomial algebra that only the tests use, built on the public
Polynomial arithmetic: substituting polynomials for the variables, taking
a homogeneous component, and reading the squarefree coefficients.  Import it from a test module as
`from poly_oracles import ...` (pytest puts the tests directory on the path).
"""

from esym.field import embed
from esym.poly import Polynomial


def substitute_linear(poly: Polynomial, forms) -> Polynomial:
    """poly with x_i -> forms[i-1], each a Polynomial (a LinearForm is one)
    over one field that holds poly's coefficients; a plain Polynomial as wide
    as the widest form.  Forms over mixed fields raise the product's
    FieldError."""
    forms = list(forms)
    if len(forms) < poly.nvars:
        raise ValueError(f"{poly.nvars} variables but only {len(forms)} forms")
    target = forms[0].field if forms else poly.field
    width = max([form.nvars for form in forms], default=0)
    out = Polynomial.zero(target, width)
    for mono, coeff in poly.terms():
        piece = Polynomial.constant(target, embed(coeff, target), width)
        for form, e in zip(forms, mono):
            if e:
                piece = piece * form ** e
        out = out + piece
    return out


def homogeneous_component(poly: Polynomial, d: int) -> Polynomial:
    """The terms of poly of total degree d, as a plain Polynomial."""
    return Polynomial(poly.field, {m: c.raw for m, c in poly.terms() if sum(m) == d},
                      poly.nvars)


def multilinear_coefficients(poly: Polynomial) -> dict:
    """Coefficients of squarefree monomials, keyed by 1-based index tuples."""
    return {tuple(i for i, e in enumerate(mono, 1) if e): c
            for mono, c in poly.terms() if all(e <= 1 for e in mono)}
