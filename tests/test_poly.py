"""Sparse polynomial and linear form arithmetic."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esym.field import FieldError, QQ, make_field
from esym.poly import LinearForm, Polynomial, parse_polynomial

GF4 = make_field("gf(4)")
GF5 = make_field("gf(5)")


def random_poly_strategy(field, nvars=3, max_deg=3, max_terms=4):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in range(nvars)])
    if field.order is None:
        coeff = st.integers(-9, 9)
    else:
        coeff = st.integers(0, field.order - 1)

    def build(pairs):
        out = Polynomial.zero(field, nvars)
        for e, c in pairs:
            out = out + Polynomial(field, {e: field.element_at(c % (field.order or 10**9)).raw}) \
                if field.order else out + Polynomial(field, {e: Fraction(c)})
        return out

    return st.lists(st.tuples(exps, coeff), max_size=max_terms).map(build)


polys_gf4 = random_poly_strategy(GF4)
polys_qq = random_poly_strategy(QQ)


# -- ring axioms --------------------------------------------------------------

@given(polys_gf4, polys_gf4, polys_gf4)
@settings(max_examples=60)
def test_ring_axioms_gf4(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Polynomial.zero(GF4) == a
    assert a * Polynomial.constant(GF4, 1) == a
    assert a - a == Polynomial.zero(GF4)


@given(polys_qq, polys_qq, polys_qq)
@settings(max_examples=40)
def test_ring_axioms_rational(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a - b == -(b - a)


@given(polys_gf4, st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                     st.integers(0, 3)), min_size=1, max_size=6))
@settings(max_examples=60)
def test_evaluation_is_a_homomorphism(a, raw_points):
    for raws in raw_points:
        pt = tuple(GF4.element_at(r) for r in raws)
        sq = a * a
        assert sq.evaluate(pt) == a.evaluate(pt) * a.evaluate(pt)


def test_evaluate_matches_term_by_term_sum():
    # independent route: fold each term by hand with Fractions
    f = parse_polynomial("2*x1^2*x2 - x2*x3 + 7", QQ)
    pt = (Fraction(3), Fraction(-1, 2), Fraction(5))
    expected = 2 * pt[0] ** 2 * pt[1] - pt[1] * pt[2] + 7
    assert f.evaluate(tuple(QQ.element(v) for v in pt)).raw == expected


# -- structure ----------------------------------------------------------------

def test_nvars_widens_under_addition():
    a = parse_polynomial("x1", GF5)
    b = parse_polynomial("x4", GF5)
    assert (a + b).nvars == 4
    assert (b + a).nvars == 4


def test_zero_terms_are_dropped():
    f = parse_polynomial("x1 + x1", make_field("gf(2)"))
    assert f.is_zero
    assert f.term_count() == 0


def test_degree_and_homogeneity():
    f = parse_polynomial("x1^2*x2 + x3^3", QQ)
    assert f.degree() == 3
    assert f.is_homogeneous()
    g = f + parse_polynomial("x1", QQ)
    assert not g.is_homogeneous()
    assert g.homogeneous_component(3) == f
    assert Polynomial.zero(QQ).degree() == -1


def test_constant_helpers():
    f = parse_polynomial("x1 + 3", GF5)
    assert f.constant_term() == GF5.element(3)
    assert not f.is_constant_free()
    assert parse_polynomial("x1*x2", GF5).is_constant_free()


def test_partial_derivative():
    f = parse_polynomial("x1^3*x2 + x2^2", QQ)
    assert f.partial_derivative(1) == parse_polynomial("3*x1^2*x2", QQ)
    assert f.partial_derivative(2) == parse_polynomial("x1^3 + 2*x2", QQ)
    # char p kills p-th powers
    g = parse_polynomial("x1^2", make_field("gf(2)"))
    assert g.partial_derivative(1).is_zero


def test_substitute_linear_against_pointwise_evaluation():
    f = parse_polynomial("x1*x2 + x2^2", GF5)
    forms = [LinearForm(GF5, [1, 2, 0]), LinearForm(GF5, [0, 1, 3])]
    g = f.substitute_linear(forms)
    for raws in [(0, 1, 2), (4, 4, 4), (3, 0, 1)]:
        pt = tuple(GF5.element_at(r) for r in raws)
        images = tuple(L.evaluate(pt) for L in forms)
        assert g.evaluate(pt) == f.evaluate(images)


def test_scalar_coercion():
    f = parse_polynomial("x1", GF5)
    assert f * 2 == parse_polynomial("2*x1", GF5)
    assert f * GF5.element(3) == parse_polynomial("3*x1", GF5)
    h = parse_polynomial("x1", QQ)
    assert h * Fraction(1, 2) == parse_polynomial("1/2*x1", QQ)


def test_mixed_field_operations_rejected():
    with pytest.raises(FieldError):
        parse_polynomial("x1", GF5) + parse_polynomial("x1", GF4)


# -- printing and parsing -----------------------------------------------------

@given(polys_gf4)
@settings(max_examples=60)
def test_str_parse_round_trip_gf4(f):
    if f.is_zero:
        assert str(f) == "0"
        return
    assert parse_polynomial(str(f), GF4) == f


@given(polys_qq)
@settings(max_examples=60)
def test_str_parse_round_trip_rational(f):
    if not f.is_zero:
        assert parse_polynomial(str(f), QQ) == f


def test_graded_lex_descending_term_order():
    f = parse_polynomial("x2 + x1^2 + 1 + x1*x2", QQ)
    assert str(f) == "x1^2 + x1*x2 + x2 + 1"


def test_parse_whitespace_and_parens():
    f = parse_polynomial(" x1 * ( 1 ) + 2\n", GF5)
    assert f == parse_polynomial("x1+2", GF5)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_polynomial("", GF5)
    with pytest.raises(ValueError):
        parse_polynomial("x0", GF5)
    with pytest.raises(ValueError):
        parse_polynomial("x1 +", GF5)
    with pytest.raises(ValueError):
        parse_polynomial("(x1", GF5)
    with pytest.raises(ValueError):
        parse_polynomial("x1*x2", GF5, nvars=1)
    assert parse_polynomial("x1*x2", GF5, nvars=4).nvars == 4


def test_parse_of_every_degree4_monomial_in_28_variables():
    # 31,465 terms; each is merged into one running sum, not copied per term
    terms, parts = {}, []
    for k, combo in enumerate(combinations_with_replacement(range(28), 4)):
        mono = [0] * (combo[-1] + 1)
        for i in combo:
            mono[i] += 1
        c = 1 + k % 4
        terms[tuple(mono)] = GF5.element_at(c).raw
        parts.append(f"{c}*" + "*".join(f"x{i + 1}" for i in combo))
    assert len(parts) == 31465
    assert parse_polynomial(" + ".join(parts), GF5) == Polynomial(GF5, terms, 28)


# -- linear forms -------------------------------------------------------------

def test_linear_form_algebra():
    a = LinearForm(GF5, [1, 2])
    b = LinearForm(GF5, [0, 1, 4])
    s = a + b
    assert s.coefficients == (GF5.element(1), GF5.element(3), GF5.element(4))
    assert (-a).coefficients == (GF5.element(4), GF5.element(3))
    assert a.scale(2).coefficients == (GF5.element(2), GF5.element(4))


def test_linear_form_polynomial_round_trip():
    a = LinearForm(GF5, [1, 0, 3])
    assert LinearForm.from_polynomial(a.to_polynomial()) == a
    with pytest.raises(ValueError):
        LinearForm.from_polynomial(parse_polynomial("x1^2", GF5))
    with pytest.raises(ValueError):
        LinearForm.from_polynomial(parse_polynomial("x1 + 1", GF5))


def test_linear_form_map_field():
    a = LinearForm(make_field("gf(2)"), [1, 1])
    b = a.map_field(GF4)
    assert b.field == GF4
    assert b.evaluate((GF4.element_at(2), GF4.element_at(3))) == GF4.one


def test_linear_form_evaluate():
    a = LinearForm(GF5, [2, 3])
    pt = (GF5.element(1), GF5.element(1))
    assert a.evaluate(pt) == GF5.element(0)


def test_deep_parentheses_need_no_recursion(recursion_limit):
    with recursion_limit():
        assert parse_polynomial("(" * 3000 + "x1 + x2" + ")" * 3000, GF5) == \
            parse_polynomial("x1 + x2", GF5)
        assert parse_polynomial("(" * 3000 + "x1" + ")^1*x2" * 3000, GF5) == \
            parse_polynomial("x1*x2^3000", GF5)
        with pytest.raises(ValueError, match=r"^dangling '\+' in 'x1\+'$"):
            parse_polynomial("(" * 3000 + "x1+" + ")" * 3000, GF5)
        with pytest.raises(ValueError, match=r"^unbalanced parentheses in 'x1\)\(x2'$"):
            parse_polynomial("(" * 3000 + "(x1)(x2)" + ")" * 3000, GF5)
