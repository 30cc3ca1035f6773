"""Symmetric-model representations: gadgets, appended powers, Newton splits."""

import json

import pytest

from esym import symmodel
from esym.field import embed, make_field
from esym.poly import LinearForm, Polynomial, parse_polynomial
from esym.rng import SplitMix64
from esym.symfunc import esp_of_forms, gen_esp
from esym.symmodel import (
    NewtonDecomposition,
    ReduciblePolynomial,
    SymModelError,
    SymRepresentation,
    append_linear_power,
    newton_decompose,
    quadratic_gadget,
    quadratic_to_sym,
    reducible_to_sym,
    verify_representation,
)
from poly_oracles import substitute_linear

GF2 = make_field("gf(2)")
GF3 = make_field("gf(3)")
GF4 = make_field("gf(4)")


def random_quadratic(field, nvars, rng):
    q = field.order
    parts = []
    for i in range(1, nvars + 1):
        for j in range(i, nvars + 1):
            c = rng.below(q)
            if c:
                parts.append(f"{field.element_at(c)}*x{i}*x{j}".replace("*x", "*x"))
    text = " + ".join(parts) if parts else None
    if text is None:
        return None
    return parse_polynomial(text, field)


# -- the quadratic gadget -----------------------------------------------------

def test_gadget_on_symbolic_variables():
    u = LinearForm(GF4, [1, 0])
    v = LinearForm(GF4, [0, 1])
    rep = quadratic_gadget(u, v)
    assert len(rep.forms) == 3
    assert esp_of_forms(rep.forms, 2) == parse_polynomial("x1*x2", GF4)
    assert esp_of_forms(rep.forms, 1).is_zero


def test_gadget_square_case():
    u = LinearForm(GF4, [0, 1])
    rep = quadratic_gadget(u, u)
    assert esp_of_forms(rep.forms, 2) == parse_polynomial("x2^2", GF4)
    assert esp_of_forms(rep.forms, 1).is_zero


def test_gadget_requires_characteristic_two():
    u = LinearForm(GF3, [1])
    with pytest.raises(SymModelError):
        quadratic_gadget(u, u)


def test_quadratic_to_sym_small_cases():
    for text in ("x1*x2", "x1^2", "x1*x2 + x3^2", "x1^2 + x1*x2 + x2^2"):
        f = parse_polynomial(text, GF4)
        rep = quadratic_to_sym(f)
        assert rep.degree == 2
        assert rep.target == f
        assert len(rep.forms) == 3 * f.term_count()
        assert esp_of_forms(rep.forms, 1).is_zero


def test_quadratic_to_sym_lifts_gf2_input():
    f = parse_polynomial("x1*x2 + x2*x3", GF2)
    rep = quadratic_to_sym(f)
    assert rep.field == GF4  # needs a cube root of unity
    assert rep.target == f.map_field(GF4)


def test_quadratic_to_sym_rejects_non_quadratic():
    with pytest.raises(SymModelError):
        quadratic_to_sym(parse_polynomial("x1*x2*x3", GF4))
    with pytest.raises(SymModelError):
        quadratic_to_sym(parse_polynomial("x1 + x2", GF4))


# -- representations are self-certifying --------------------------------------

def test_constructor_rejects_wrong_target():
    forms = [LinearForm(GF4, [1, 0]), LinearForm(GF4, [0, 1])]
    good = esp_of_forms(forms, 2)
    SymRepresentation(GF4, 2, forms, good)
    with pytest.raises(SymModelError):
        SymRepresentation(GF4, 2, forms, good + parse_polynomial("x1^2", GF4))


def test_json_round_trip():
    rep = quadratic_to_sym(parse_polynomial("x1*x2 + x3^2", GF4))
    data = json.loads(json.dumps(rep.to_json()))
    back = SymRepresentation.from_json(data)
    assert back.target == rep.target
    assert back.forms == rep.forms


def test_json_tamper_detected():
    rep = quadratic_to_sym(parse_polynomial("x1*x2", GF4))
    data = rep.to_json()
    data["forms"][0][0] = "0"  # break one coefficient
    tampered = SymRepresentation.from_json(data)  # target is recomputed
    assert not verify_representation(tampered, rep.target)


def test_verify_representation_both_routes_agree():
    # the substitution of the forms into the symbolic e_d is the oracle of
    # the one generating-function sweep behind from_forms and verify
    rep = quadratic_to_sym(parse_polynomial("x1*x2 + x2*x3 + x3^2", GF4))
    direct = substitute_linear(gen_esp(len(rep.forms), rep.degree, GF4), rep.forms)
    assert verify_representation(rep, rep.target)
    assert direct == rep.target
    rng = SplitMix64(909)
    for spec in ("q", "gf(2)", "gf(3)", "gf(4)"):
        field = make_field(spec)
        size = field.order or 5
        for _ in range(12):
            m = 1 + rng.below(6)
            nvars = 1 + rng.below(4)
            forms = [LinearForm(field, [field.element_at(rng.below(size))
                                        for _ in range(nvars)]) for _ in range(m)]
            for d in range(m + 1):
                rep = SymRepresentation.from_forms(forms, d)
                assert substitute_linear(gen_esp(m, d, field), forms) == rep.target
                assert verify_representation(rep, rep.target)
                off = rep.target + Polynomial.variable(field, 1) ** d
                assert not verify_representation(rep, off)


# -- appending a power of a linear form ----------------------------------------

@pytest.mark.parametrize("field,qtext", [(GF4, "x1 + t*x2"), (GF3, "x1 + 2*x2")])
def test_append_linear_power_gains_exactly_the_power(field, qtext):
    base_forms = [LinearForm(field, [1, 0]), LinearForm(field, [0, 1])]
    d = 2
    rep = SymRepresentation.from_forms(base_forms, d)
    q_poly = parse_polynomial(qtext, field)
    q = LinearForm.from_polynomial(q_poly)
    bigger = append_linear_power(rep, q)
    host = bigger.field
    gained = bigger.target - rep.target.map_field(host)
    assert gained == (q_poly.map_field(host)) ** d


def test_append_linear_power_rejects_wrong_roots(monkeypatch):
    # the constructor of the new representation re-derives e_d of the forms,
    # so a wrong root list cannot slip through
    rep = SymRepresentation.from_forms(
        [LinearForm(GF2, [1 if j == i else 0 for j in range(3)]) for i in range(3)], 3)
    monkeypatch.setattr(symmodel, "roots_of_z_pow_d_plus_one",
                        lambda field, d: ([GF4.one] * d, GF4))
    with pytest.raises(SymModelError):
        append_linear_power(rep, LinearForm(GF2, [0, 0, 0, 1]))


def test_append_preserves_self_certification():
    rep = quadratic_to_sym(parse_polynomial("x1*x2", GF4))
    q = LinearForm(GF4, [1, 1])
    bigger = append_linear_power(rep, q)
    assert verify_representation(bigger, bigger.target)
    assert len(bigger.forms) > len(rep.forms)


# -- reducible polynomials and the Newton split ---------------------------------

def test_reducible_polynomial_checks_degrees():
    lin = parse_polynomial("x1 + x2", GF2)
    quad = parse_polynomial("x1*x2", GF2)
    r = ReduciblePolynomial(lin, quad)
    assert r.product == lin * quad
    with pytest.raises(SymModelError):
        ReduciblePolynomial(lin, parse_polynomial("x1 + 1", GF2))


def test_reducible_polynomial_checks_a_recorded_product():
    lin = parse_polynomial("x1 + x2", GF2)
    quad = parse_polynomial("x1*x2", GF2)
    assert ReduciblePolynomial(lin, quad, lin * quad).product == lin * quad
    with pytest.raises(SymModelError, match="^recorded product does not match the factors$"):
        ReduciblePolynomial(lin, quad, lin * lin * lin)


@pytest.mark.parametrize("p,spec", [(2, "gf(2)"), (3, "gf(3)"), (5, "gf(5)")])
def test_newton_decompose_reassembles(p, spec):
    field = make_field(spec)
    rng = SplitMix64(1000 + p)
    for _ in range(10):
        m = 2 + rng.below(4)
        nvars = 2 + rng.below(3)
        forms = [LinearForm(field, [field.element_at(rng.below(field.order))
                                    for _ in range(nvars)]) for _ in range(m)]
        rep = SymRepresentation.from_forms(forms, p + 1)
        dec = newton_decompose(rep)
        assert dec.assembled() == rep.realized()
        assert len(dec.reducibles) == p - 1
        for r in dec.reducibles:
            if not r.factor_low.is_zero and not r.factor_high.is_zero:
                assert r.factor_low.degree() <= r.factor_high.degree()


def test_newton_decompose_requires_degree_p_plus_one():
    rep = SymRepresentation.from_forms([LinearForm(GF2, [1]), LinearForm(GF2, [0, 1])], 1)
    with pytest.raises(SymModelError):
        newton_decompose(rep)


def test_newton_tie_keeps_esp_factor_low():
    field = GF3
    forms = [LinearForm(field, [1, 0]), LinearForm(field, [0, 1]),
             LinearForm(field, [1, 1])]
    dec = newton_decompose(SymRepresentation.from_forms(forms, 4))
    # the i = 2 reducible pairs e_2 with p_2, both degree 2: e-part stays low
    tie = dec.reducibles[1]
    assert tie.factor_low == esp_of_forms(forms, 2).scale(-1)


# -- degree-3 product representation over characteristic 2 ----------------------

def _check_reducible_form_count_and_target(g, quad):
    rep = reducible_to_sym(g)
    # 3M gadget forms, the linear factor, and a cube-root block of 3 per
    # gadget form: 12M + 1 in all
    assert len(rep.forms) == 12 * quad.term_count() + 1
    assert rep.target == g.product.map_field(rep.field)
    assert verify_representation(rep, rep.target)


def test_reducible_to_sym_form_count_and_target():
    lin = parse_polynomial("x1 + x2", GF2)
    quad = parse_polynomial("x1*x2 + x3^2", GF2)
    _check_reducible_form_count_and_target(ReduciblePolynomial(lin, quad), quad)


def test_reducible_to_sym_form_count_and_target_gf4():
    lin = parse_polynomial("t*x1 + x3", GF4)
    quad = parse_polynomial("t*x1*x2 + x2^2 + (t+1)*x2*x3", GF4)
    _check_reducible_form_count_and_target(ReduciblePolynomial(lin, quad), quad)


def test_reducible_to_sym_rejects_wrong_roots(monkeypatch):
    # no intermediate check remains: the one constructor re-derives e_3 of
    # the whole form list, so a wrong root list cannot slip through
    g = ReduciblePolynomial(parse_polynomial("x1 + x2", GF2),
                            parse_polynomial("x1*x2 + x3^2", GF2))
    monkeypatch.setattr(symmodel, "roots_of_z_pow_d_plus_one",
                        lambda field, d: ([GF4.one] * d, GF4))
    with pytest.raises(SymModelError):
        reducible_to_sym(g)


def _count_sweeps(monkeypatch):
    """Degrees of every esp_of_forms call symmodel makes from now on."""
    degrees = []
    sweep = symmodel.esp_of_forms

    def counted(forms, d, field=None):
        degrees.append(d)
        return sweep(forms, d, field)

    monkeypatch.setattr(symmodel, "esp_of_forms", counted)
    return degrees


def test_each_representation_is_expanded_once(monkeypatch):
    rep = quadratic_to_sym(parse_polynomial("x1*x2 + x2*x3 + x3^2", GF4))
    degrees = _count_sweeps(monkeypatch)
    SymRepresentation.from_forms(rep.forms, 2)
    assert degrees == [2]
    degrees.clear()
    assert verify_representation(rep, rep.target)
    assert degrees == [2]
    degrees.clear()
    quad = parse_polynomial("x1*x2 + x3^2 + x2*x4", GF2)
    reducible_to_sym(ReduciblePolynomial(parse_polynomial("x1 + x4", GF2), quad))
    # one degree-2 sweep checks all of the quadratic's gadget forms at once;
    # the product is expanded and checked once
    assert degrees == [2, 3]


def test_reducible_to_sym_requires_char_two_and_degrees():
    lin3 = parse_polynomial("x1", GF3)
    quad3 = parse_polynomial("x1*x2", GF3)
    with pytest.raises(SymModelError):
        reducible_to_sym(ReduciblePolynomial(lin3, quad3))
