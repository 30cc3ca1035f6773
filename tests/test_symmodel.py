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
from symmodel_oracles import ref_quadratic_to_sym

GF2 = make_field("gf(2)")
GF3 = make_field("gf(3)")
GF4 = make_field("gf(4)")


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
        ref = ref_quadratic_to_sym(f)
        assert len(ref.forms) == 3 * f.term_count()
        rep = quadratic_to_sym(f)
        assert rep.degree == 2
        assert rep.target == f == ref.target
        assert len(rep.forms) <= 3 * (f.nvars // 2) + 2
        assert esp_of_forms(rep.forms, 1).is_zero


def _seeded_quadratic(field, n, rng, density):
    """A quadratic in x1..xn whose terms are present with probability
    density/8 (8: every term), coefficients drawn from the nonzero raws."""
    terms = {}
    for i in range(n):
        for j in range(i, n):
            if rng.below(8) < density:
                mono = [0] * (j + 1)
                mono[i] += 1
                mono[j] += 1
                terms[tuple(mono)] = 1 + rng.below(field.order - 1)
    return Polynomial(field, terms, n)


def _deficient_quadratics(field):
    """Rank-deficient inputs: the zero quadratic, a pure square, a single
    monomial, and quadratics in fewer variables than nvars."""
    c = field.element_at(field.order - 1)
    yield Polynomial.zero(field, 4)
    yield parse_polynomial("x1^2 + x3^2", field)
    yield Polynomial(field, {(0, 0, 2): c.raw}, 5)
    yield Polynomial(field, {(0, 1, 0, 1): c.raw}, 4)
    yield Polynomial(field, {(1, 1): c.raw, (0, 2): 1}, 7)
    yield Polynomial(field, {(0, 1, 0, 0, 1): 1, (0, 0, 0, 0, 2): c.raw}, 9)


def _quadratic_inputs(field, rng):
    for n in range(1, 13):
        for density in (8, 4):
            yield _seeded_quadratic(field, n, rng, density)
    yield from _deficient_quadratics(field)


@pytest.mark.parametrize("spec", ["gf(2)", "gf(4)", "gf(8)", "gf(16)"])
def test_quadratic_to_sym_agrees_with_the_per_monomial_oracle(spec):
    # dense inputs take at most 3*(n//2) + 2 forms (8 at n = 5, 20 at
    # n = 12) where the oracle takes 3*n*(n+1)/2 (45 and 234)
    field = make_field(spec)
    rng = SplitMix64(3100 + field.order)
    for f in _quadratic_inputs(field, rng):
        rep = quadratic_to_sym(f)
        ref = ref_quadratic_to_sym(f)
        assert rep.field == ref.field
        assert rep.target == ref.target == f.map_field(rep.field)
        assert len(rep.forms) <= 3 * (f.nvars // 2) + 2
        assert len(ref.forms) == 3 * f.term_count()
        assert esp_of_forms(rep.forms, 1, rep.field).is_zero


def _polar_rank_and_radical(f, field):
    """Rank of the alternating polar matrix M of f (M_ij = M_ji = the
    coefficient of x_i*x_j, zero diagonal) by Gauss-Jordan elimination over
    field, and a basis of its kernel, the radical."""
    n = f.nvars
    rows = [[field.zero] * n for _ in range(n)]
    for mono, c in f.terms():
        on = [i for i, e in enumerate(mono) if e]
        if len(on) == 2:
            rows[on[0]][on[1]] = rows[on[1]][on[0]] = c
    pivots = []
    for col in range(n):
        r = next((r for r in range(len(pivots), n) if rows[r][col]), None)
        if r is None:
            continue
        top = len(pivots)
        rows[top], rows[r] = rows[r], rows[top]
        inv = rows[top][col].inverse()
        rows[top] = [x * inv for x in rows[top]]
        for k in range(n):
            if k != top and rows[k][col]:
                c = rows[k][col]
                rows[k] = [x - c * y for x, y in zip(rows[k], rows[top])]
        pivots.append(col)
    radical = []
    for free in (c for c in range(n) if c not in pivots):
        vec = [field.zero] * n
        vec[free] = field.one
        for top, col in enumerate(pivots):
            vec[col] = -rows[top][free]
        radical.append(vec)
    return len(pivots), radical


@pytest.mark.parametrize("spec", ["gf(2)", "gf(4)", "gf(8)", "gf(16)"])
def test_quadratic_to_sym_splits_one_gadget_per_hyperbolic_plane(spec):
    # each elimination splits off one hyperbolic plane, so the gadgets number
    # rank(M)/2; what is left is the pair (l, l) exactly when l != 0, and
    # l^2 is f on the radical of M, so f nonzero there forces the pair
    field = make_field(spec)
    rng = SplitMix64(3200 + field.order)
    for f in _quadratic_inputs(field, rng):
        rep = quadratic_to_sym(f)
        host = rep.field
        rank, radical = _polar_rank_and_radical(rep.target, host)
        assert rank % 2 == 0
        blocks, tail = divmod(len(rep.forms), 3)
        assert blocks == rank // 2
        gadgets = rep.forms[:3 * blocks]
        rest = rep.target - esp_of_forms(gadgets, 2, host)
        if tail:
            ell = rep.forms[-1]
            assert tail == 2 and rep.forms[-2] == ell and not ell.is_zero
            assert rest == ell * ell
        else:
            assert rest.is_zero
        if any(rep.target.evaluate(r) for r in radical):
            assert tail


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
    # the m forms of the quadratic, the linear factor, and a cube-root block
    # of 3 per form of the quadratic: 4m + 1 in all
    assert len(rep.forms) == 4 * len(quadratic_to_sym(quad).forms) + 1
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
