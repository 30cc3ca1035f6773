"""Reference symmetric-model constructions that only the tests use.  Import
from a test module as `from symmodel_oracles import ...` (pytest puts the
tests directory on the path).
"""

from esym.poly import LinearForm, Polynomial
from esym.symmodel import SymModelError, SymRepresentation, _gadget_forms, _host_with_omega


def ref_quadratic_to_sym(f: Polynomial) -> SymRepresentation:
    """A homogeneous quadratic over characteristic 2 as e_2 of forms with
    e_1 = 0, one three-form gadget per monomial c*x_i*x_j (u = c*x_i,
    v = x_j): 3 forms per term, where quadratic_to_sym needs at most
    3*(n//2) + 2 in all."""
    if f.field.characteristic != 2:
        raise SymModelError("ref_quadratic_to_sym needs characteristic 2")
    if not f.is_homogeneous(2) and not f.is_zero:
        raise SymModelError("ref_quadratic_to_sym needs a homogeneous quadratic")
    host, omega = _host_with_omega(f.field)
    lifted = f.map_field(host)
    forms = []
    n = lifted.nvars
    for mono, coeff in lifted.terms():
        on = [i + 1 for i, e in enumerate(mono) if e]
        i, j = on if len(on) == 2 else on * 2
        u = LinearForm.from_polynomial(Polynomial.variable(host, i, n).scale_raw(coeff.raw))
        v = LinearForm.from_polynomial(Polynomial.variable(host, j, n))
        forms.extend(_gadget_forms(u, v, omega))
    return SymRepresentation(host, 2, forms, lifted)
