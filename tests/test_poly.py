"""Sparse polynomial and linear form arithmetic."""

import re
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esym.field import FieldElement, FieldError, QQ, make_field
from esym.poly import (
    DEGREE_LIMIT,
    MAX_VARIABLE_INDEX,
    LinearForm,
    Polynomial,
    parse_polynomial,
)
from poly_oracles import homogeneous_component, multilinear_coefficients, substitute_linear

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
    assert homogeneous_component(g, 3) == f
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
    g = substitute_linear(f, forms)
    for raws in [(0, 1, 2), (4, 4, 4), (3, 0, 1)]:
        pt = tuple(GF5.element_at(r) for r in raws)
        images = tuple(L.evaluate(pt) for L in forms)
        assert g.evaluate(pt) == f.evaluate(images)


def test_substitution_keeps_extension_coefficients():
    # a coefficient t of GF(4) is the raw index 2, not the integer 2 = 0
    f = parse_polynomial("t*x1 + (t+1)*x2^2 + t", GF4)
    identity = [LinearForm(GF4, [1, 0]), LinearForm(GF4, [0, 1])]
    assert substitute_linear(f, identity) == f


def test_squarefree_sum():
    f = Polynomial.squarefree_sum(GF5, [(1, 3), (2,), ()], 4)
    assert f == parse_polynomial("x1*x3 + x2 + 1", GF5)
    assert f.nvars == 4
    assert Polynomial.squarefree_sum(GF5, []).is_zero
    with pytest.raises(ValueError, match="repeated variable index"):
        Polynomial.squarefree_sum(GF5, [(2, 2)])
    with pytest.raises(ValueError, match="1-based"):
        Polynomial.squarefree_sum(GF5, [(0, 1)])
    # a set named twice would be a coefficient of 2, which the sum cannot hold
    for sets, named in [([(1, 2), (1, 2)], "(1, 2)"), ([(1, 3), (2,), (3, 1)], "(3, 1)"),
                        ([(), ()], "()"), ((range(1, 3) for _ in range(2)), "(1, 2)")]:
        with pytest.raises(ValueError, match=f"^repeated index set {re.escape(named)}$"):
            Polynomial.squarefree_sum(GF5, sets)


def test_variable_index_is_bounded():
    # x_i's key is 32*i bits, so every index from outside is checked first
    top = MAX_VARIABLE_INDEX
    past = f"^variable index {top + 1} is outside the 1-based range 1..{top}$"
    assert parse_polynomial(f"x{top} + 1", GF5).nvars == top
    with pytest.raises(ValueError, match=past):
        parse_polynomial(f"x{top + 1} + 1", GF5)
    with pytest.raises(ValueError, match="^variable index 1000000000 is outside"):
        parse_polynomial("x1000000000 + 1", GF5)
    assert Polynomial.variable(GF5, top).nvars == top
    with pytest.raises(ValueError, match=past):
        Polynomial.variable(GF5, top + 1)
    assert Polynomial.squarefree_sum(GF5, [(1, top)]).nvars == top
    with pytest.raises(ValueError, match=past):
        Polynomial.squarefree_sum(GF5, [(1, top + 1)])
    assert Polynomial(GF5, {(0,) * (top - 1) + (1,): 1}).nvars == top
    with pytest.raises(ValueError, match=past):
        Polynomial(GF5, {(0,) * top + (1,): 1})
    with pytest.raises(ValueError, match="^variable index 1000000000 is outside"):
        parse_polynomial("x1", GF5).partial_derivative(10**9)


def test_scalar_coercion():
    f = parse_polynomial("x1", GF5)
    assert f * 2 == parse_polynomial("2*x1", GF5)
    assert f * GF5.element(3) == parse_polynomial("3*x1", GF5)
    h = parse_polynomial("x1", QQ)
    assert h * Fraction(1, 2) == parse_polynomial("1/2*x1", QQ)


@pytest.mark.parametrize("spec", ["q", "gf(5)", "gf(4)", "gf(8)", "gf(9)", "gf(25)"])
def test_scalar_operands_become_the_constant_of_their_raw(spec):
    # over GF(p^k) the raw of t is an index, not a prime-subfield int, so a
    # scalar operand must be coerced once and its raw never read as an int
    F = make_field(spec)
    x1 = Polynomial.variable(F, 1)
    minus_x1 = Polynomial(F, {(1,): F.neg_raw(F.one_raw)})
    values = list(F.elements()) if F.order else [F.element(v) for v in (0, 3, "1/2", "-2/7")]
    for c in values + [2, 7]:
        const = Polynomial.constant(F, c)
        assert x1 + c == c + x1 == parse_polynomial(f"x1 + ({c})", F)
        assert (x1 + c).constant_term() == c and (x1 + c) - x1 == const
        assert x1 - c == x1 + (-const) and (x1 - c).constant_term() == -F.element(c)
        assert c - x1 == minus_x1 + const and (c - x1).coefficient((1,)) == -1
        assert x1 * 0 + c == c and x1 * 0 + c == const
    # an int is a prime-subfield constant, never a raw index
    assert (x1 + 7).constant_term() == F.element(7) == (7 % F.p if F.p else 7)
    if F.k > 1:
        t = F.element("t")
        assert str(x1 + t) == "x1 + t" and str(x1 + (t + 1)) == "x1 + (t+1)"
        assert x1 - (t + 1) == parse_polynomial("x1 - (t+1)", F)
        assert (t + 1) - x1 == parse_polynomial("(t+1) - x1", F)


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


@pytest.mark.parametrize("text, field, message", [
    ("3()", QQ, "bad element literal '3()' for q"),
    ("x1+3()", QQ, "bad element literal '3()' for q"),
    ("x1(x2)", GF5, "bad element literal 'x1(x2)' for gf(5)"),
    ("x1(x2)", QQ, "bad element literal 'x1(x2)' for q"),
    ("+3", GF5, "dangling '+' in '+3'"),
    ("x1++x2", GF5, "dangling '+' in 'x1++x2'"),
    ("x1**x2", GF5, "dangling '*' in 'x1**x2'"),
    ("*x1", GF5, "dangling '*' in '*x1'"),
    ("+", GF4, "dangling '+' in '+'"),
    ("(+)", GF4, "dangling '+' in '+'"),
    ("*t*x1", GF4, "dangling '*' in '*t*x1'"),
    ("+t", GF4, "dangling '+' in '+t'"),
    ("1_0*x1", GF5, "bad element literal '1_0' for gf(5)"),
    ("1.5*x1", QQ, "bad element literal '1.5' for q"),
    ("x\u0663", GF5, "bad element literal 'x\u0663' for gf(5)"),
    ("(x1)^\u00b2", GF5, "bad factor '(x1)^\u00b2'"),
])
def test_parse_refuses_text_outside_the_grammar(text, field, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_polynomial(text, field)


def test_a_minus_may_open_any_term():
    assert parse_polynomial("-x1+-2*x2 - 3", GF5) == parse_polynomial("4*x1 + 3*x2 + 2", GF5)
    assert parse_polynomial("x1*(-x2)", QQ) == -parse_polynomial("x1*x2", QQ)


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


def test_equal_linear_forms_hash_alike():
    # trailing zero coefficients change neither equality nor the hash
    a, b = LinearForm(GF5, [1]), LinearForm(GF5, [1, 0])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert {a: "first"}[b] == "first"
    assert LinearForm(QQ, [0, 0]) in {LinearForm(QQ, [])}
    assert len({a, LinearForm(GF5, [1, 1]), LinearForm(GF5, [0, 1])}) == 3


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


def _form_row(form):
    return [c.raw for c in form.coefficients]


def test_linear_form_closure():
    # negation, scaling, map_field and form +/- form stay forms, keeping the
    # widest row (trailing zeros included) and their coefficients
    a, b = LinearForm(GF5, [1, 2, 0]), LinearForm(GF5, [0, 3, 0, 0])
    GF2 = make_field("gf(2)")
    stays = [(a + b, 4, [1, 0, 0, 0]), (a - b, 4, [1, 4, 0, 0]), (-a, 3, [4, 3, 0]),
             (a.scale(3), 3, [3, 1, 0]), (GF5.element(2) * a, 3, [2, 4, 0]),
             (a * 2, 3, [2, 4, 0]), (a.scale(0), 3, [0, 0, 0]), (a - a, 3, [0, 0, 0]),
             (LinearForm(GF2, [1, 0]).map_field(GF4), 2, [1, 0])]
    for form, nvars, row in stays:
        assert type(form) is LinearForm
        assert form.nvars == nvars and _form_row(form) == row
    # every other operation gives a plain Polynomial
    p = parse_polynomial("x1*x2", GF5)
    for poly in [a * b, a + 1, 1 + a, a - 1, 1 - a, a + p, p + a, a - p, p - a,
                 a ** 2, a ** 1, a.partial_derivative(1), homogeneous_component(a, 1),
                 substitute_linear(p, [a, b]), a.to_polynomial()]:
        assert type(poly) is Polynomial
    assert str(a * b) == "3*x1*x2 + x2^2"


def test_linear_form_equals_the_polynomial_with_its_terms():
    # a form equals, and hashes like, the Polynomial with the same terms
    a = LinearForm(GF5, [1, 2, 0])
    p = parse_polynomial("x1 + 2*x2", GF5)
    assert a == p and p == a and hash(a) == hash(p)
    assert {p: "poly"}[a] == "poly" and len({a, p, a.to_polynomial()}) == 1
    assert LinearForm(GF5, []) == 0 and LinearForm(GF5, [0, 0]) == Polynomial.zero(GF5)


def test_mixed_field_form_sums_raise_the_polynomial_error():
    with pytest.raises(FieldError, match=r"^mixed fields: gf\(5\) and gf\(2\^2\)$"):
        LinearForm(GF5, [1]) + LinearForm(GF4, [1])


def test_no_route_makes_a_form_with_a_term_off_degree_one():
    a = LinearForm(GF5, [1, 2])
    built = [LinearForm.zero(GF5, 2), LinearForm.constant(GF5, 3), LinearForm.variable(GF5, 2),
             LinearForm.squarefree_sum(GF5, [(1, 2)])]
    assert [type(p) for p in built] == [Polynomial] * 4
    routes = built + [a + 1, 1 + a, a - 1, 1 - a, a * a, a ** 0, a ** 1, a ** 2, a * 0,
                      a.scale(0), a + a, a - a, -a, a.partial_derivative(1),
                      homogeneous_component(a, 1), substitute_linear(a, [a, a]),
                      a.map_field(make_field("gf(5^2)")),
                      LinearForm.from_polynomial(Polynomial.zero(GF5, 3))]
    for poly in routes:
        if isinstance(poly, LinearForm):
            assert poly.is_homogeneous(1), poly


def test_linear_form_row_past_the_index_bound_is_refused():
    assert LinearForm(GF5, [0] * (MAX_VARIABLE_INDEX - 1) + [1]).nvars == MAX_VARIABLE_INDEX
    with pytest.raises(ValueError, match="past the variable index bound"):
        LinearForm(GF5, [0] * 199_999 + [1])
    # refused before any coefficient is read, so before any key is built
    with pytest.raises(ValueError, match="past the variable index bound"):
        LinearForm(GF5, [object()] * (MAX_VARIABLE_INDEX + 1))


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


# -- the tuple-keyed slow path, kept as the oracle ---------------------------
# Polynomials here are {exponent tuple, trailing zeros trimmed: raw}; each
# product runs add_raw and mul_raw per pair of terms.

def _trim(mono) -> tuple:
    mono = list(mono)
    while mono and mono[-1] == 0:
        mono.pop()
    return tuple(mono)


def _mono_mul(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    return tuple(x + y for x, y in zip(a, b)) + a[len(b):]


def oracle_merge(terms: dict, other: dict, F) -> dict:
    for m, raw in other.items():
        acc = F.add_raw(terms.get(m, F.zero_raw), raw)
        if acc == F.zero_raw:
            terms.pop(m, None)
        else:
            terms[m] = acc
    return terms


def oracle_mul(f: dict, g: dict, F) -> dict:
    out = {}
    for ma, ra in f.items():
        for mb, rb in g.items():
            oracle_merge(out, {_mono_mul(ma, mb): F.mul_raw(ra, rb)}, F)
    return out


def oracle_pow(f: dict, n: int, F) -> dict:
    out = {(): F.one_raw}
    for _ in range(n):
        out = oracle_mul(out, f, F)
    return out


def oracle_substitute(f: dict, forms: list, F) -> dict:
    out = {}
    for m, raw in f.items():
        piece = {(): raw}
        for i, e in enumerate(m):
            piece = oracle_mul(piece, oracle_pow(forms[i], e, F), F)
        oracle_merge(out, piece, F)
    return out


def oracle_derivative(f: dict, index: int, F) -> dict:
    out = {}
    for m, raw in f.items():
        e = m[index - 1] if index <= len(m) else 0
        if e:
            mono = _trim(m[:index - 1] + (e - 1,) + m[index:])
            oracle_merge(out, {mono: F.mul_raw(raw, F.coerce_raw(e))}, F)
    return out


def oracle_evaluate(f: dict, point: list, F):
    acc = F.zero_raw
    for m, raw in f.items():
        for i, e in enumerate(m):
            raw = F.mul_raw(raw, F.pow_raw(point[i], e))
        acc = F.add_raw(acc, raw)
    return acc


def own(poly: Polynomial) -> dict:
    return {m: c.raw for m, c in poly.terms()}


ORACLE_FIELDS = [make_field(spec) for spec in
                 ("q", "gf(5)", "gf(4)", "gf(9)", "gf(2^8;1,0,1,1,1,0,0,0,1)")]
ORACLE_NVARS = 3


def _raws(F):
    if F.order is None:   # distinct small denominators, so the lcm path is exercised
        return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7))
    return st.integers(0, F.order - 1).map(lambda c: F.element_at(c).raw)


def _term_dicts(F, max_terms=4):
    monos = st.tuples(*[st.integers(0, 3)] * ORACLE_NVARS).map(_trim)
    return st.dictionaries(monos, _raws(F), max_size=max_terms).map(
        lambda d: {m: r for m, r in d.items() if r != F.zero_raw})


@st.composite
def _oracle_case(draw, F):
    f, g = draw(_term_dicts(F)), draw(_term_dicts(F))
    if draw(st.booleans()):
        # g takes some of f's terms negated, so that sums and products cancel
        for m in draw(st.lists(st.sampled_from(sorted(f)), max_size=3) if f else st.just([])):
            g[m] = F.neg_raw(f[m])
    forms = [draw(_term_dicts(F, 3).map(lambda d: {m: r for m, r in d.items()
                                                   if sum(m) == 1}))
             for _ in range(ORACLE_NVARS)]
    point = [draw(_raws(F)) for _ in range(ORACLE_NVARS)]
    return f, g, forms, point, draw(st.integers(0, 3)), draw(st.integers(0, 7))


@pytest.mark.parametrize("F", ORACLE_FIELDS, ids=str)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_packed_polynomials_match_the_tuple_oracle(F, data):
    f, g, forms, point, n, d = data.draw(_oracle_case(F))
    P, Q = Polynomial(F, f), Polynomial(F, g)
    assert own(P) == f
    assert own(P * Q) == oracle_mul(f, g, F)
    assert own(P + Q) == oracle_merge(dict(f), g, F)
    assert own(P + (-P)) == {}
    assert own(P ** n) == oracle_pow(f, n, F)
    linear = [LinearForm(F, [FieldElement(F, form.get((0,) * i + (1,), F.zero_raw))
                             for i in range(ORACLE_NVARS)]) for form in forms]
    assert own(substitute_linear(P, linear)) == oracle_substitute(f, forms, F)
    for index in range(1, ORACLE_NVARS + 2):
        assert own(P.partial_derivative(index)) == oracle_derivative(f, index, F)
    assert own(homogeneous_component(P, d)) == {m: r for m, r in f.items() if sum(m) == d}
    assert {m: c.raw for m, c in multilinear_coefficients(P).items()} == {
        tuple(i + 1 for i, e in enumerate(m) if e): r
        for m, r in f.items() if all(e <= 1 for e in m)}
    assert P.evaluate([FieldElement(F, r) for r in point]).raw == oracle_evaluate(f, point, F)
    assert own(parse_polynomial(str(P), F)) == f


def test_products_that_cancel_inside_one_multiply():
    for F in ORACLE_FIELDS:
        a = parse_polynomial("x1 + x2", F)
        b = parse_polynomial("x1 - x2", F)
        assert own(a * b) == oracle_mul(own(a), own(b), F) == own(
            parse_polynomial("x1^2 - x2^2", F))
    assert str(parse_polynomial("x1 + 1", GF5) ** 5) == "x1^5 + 1"
    half = parse_polynomial("1/2*x1 + 1/3*x2", QQ)
    assert (half * parse_polynomial("1/2*x1 - 1/3*x2", QQ)) == \
        parse_polynomial("1/4*x1^2 - 1/9*x2^2", QQ)


def test_terms_and_printing_read_high_variable_indices():
    f = parse_polynomial("x400*x3^2 + 3*x1000 + x2", GF5)
    assert f.nvars == 1000
    assert f.degree() == 3
    assert str(f) == "x3^2*x400 + x2 + 3*x1000"
    assert [len(m) for m, _ in f.terms()] == [400, 2, 1000]
    assert f.coefficient((0,) * 999 + (1,)) == GF5.element(3)
    assert multilinear_coefficients(f) == {(2,): GF5.one, (1000,): GF5.element(3)}


# -- the packed-exponent guard ------------------------------------------------

def test_exponents_past_the_packed_bound_are_refused():
    with pytest.raises(ValueError, match="exceeds the packed-monomial bound"):
        parse_polynomial("x1^99999999999999", GF5)
    with pytest.raises(ValueError, match="exceeds the packed-monomial bound"):
        Polynomial(GF5, {(DEGREE_LIMIT,): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial(GF5, {(1, -1): 1})
    edge = parse_polynomial(f"x2^{DEGREE_LIMIT - 1}", QQ)
    assert edge.degree() == DEGREE_LIMIT - 1
    assert edge.partial_derivative(2) == (DEGREE_LIMIT - 1) * parse_polynomial(
        f"x2^{DEGREE_LIMIT - 2}", QQ)
    with pytest.raises(ValueError, match="exceeds the packed-monomial bound"):
        edge * parse_polynomial("x1", QQ)
    assert (edge * parse_polynomial("3", QQ)).degree() == DEGREE_LIMIT - 1


def test_power_across_the_packed_bound_is_refused():
    x = parse_polynomial("x1 + x2", GF5)
    half = DEGREE_LIMIT // 2
    # refused up front, from the degree and the exponent, not by a square
    with pytest.raises(ValueError, match=f"^total degree {3 * (half + 1)} exceeds"):
        parse_polynomial("x1^3", GF5) ** (half + 1)
    with pytest.raises(ValueError, match="exceeds the packed-monomial bound"):
        parse_polynomial(f"(x1^{half})^2", GF5)
    with pytest.raises(ValueError, match="exceeds the packed-monomial bound"):
        substitute_linear(x, [parse_polynomial(f"x1^{half}", GF5)] * 2) ** 2
    assert parse_polynomial("x1", GF5) ** (DEGREE_LIMIT - 1) == \
        parse_polynomial(f"x1^{DEGREE_LIMIT - 1}", GF5)
    assert parse_polynomial("2", GF5) ** (10 ** 30) == GF5.element(2) ** (10 ** 30 % 4)
