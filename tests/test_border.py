"""Truncated eps-series and border constructions."""

import time
from fractions import Fraction

import pytest

from esym import border
from esym.border import (
    MAX_TRUNCATION,
    BorderError,
    EpsSeries,
    approx_extract,
    constant_shift,
    depth3_to_sym,
    esp_of_series,
    kumar_fanin2,
)
from esym.field import FieldError, make_field
from esym.poly import LinearForm, Polynomial, parse_polynomial
from esym.rng import SplitMix64
from esym.symfunc import esp_of_forms, esp_table_of_forms
from esym.symmodel import quadratic_to_sym

GF4 = make_field("gf(4)")
GF5 = make_field("gf(5)")


# -- series arithmetic -----------------------------------------------------------

def test_add_and_mul_take_min_truncation():
    a = EpsSeries.constant(GF5, 1, 4)
    b = EpsSeries.constant(GF5, 2, 6)
    assert (a + b).truncation == 4
    assert (a * b).truncation == 4


def test_eps_shift_and_divide():
    x1 = parse_polynomial("x1", GF5)
    s = EpsSeries.from_polynomial(x1, 4).shift(2)
    assert s.coeff(2) == x1
    assert s.valuation() == 2
    back = s.divide_eps(2)
    assert back.truncation == 2
    assert back.coeff(0) == x1
    with pytest.raises(BorderError):
        s.divide_eps(3)  # nonzero below the divided power? no: prefix is zero
    # dividing by more than the valuation prefix is the error case
    t = EpsSeries.from_polynomial(x1, 4)
    with pytest.raises(BorderError):
        t.divide_eps(1)


def test_padding_stops_at_the_truncation():
    # a power of eps at or past T is the zero series; no padding of that
    # length is built
    start = time.process_time()
    assert EpsSeries.eps(GF5, 4, 10**8) == EpsSeries.zero(GF5, 4)
    assert EpsSeries.constant(GF5, 1, 4).shift(10**8) == EpsSeries.zero(GF5, 4)
    assert time.process_time() - start < 1.0
    x1 = parse_polynomial("x1", GF5)
    assert EpsSeries.from_polynomial(x1, 4, 3).coeff(3) == x1
    assert EpsSeries.from_polynomial(x1, 4, 4).is_zero


def test_operands_coerce_like_depth3_terms():
    q = make_field("q")
    one = EpsSeries.constant(q, 1, 3)
    half = EpsSeries.constant(q, Fraction(1, 2), 3)
    assert one * Fraction(1, 2) == half == Fraction(1, 2) * one
    L = LinearForm(q, [1, 2])
    Lseries = EpsSeries.from_polynomial(L.to_polynomial(), 3)
    assert one + L == one + Lseries == L + one
    assert one * L == Lseries
    assert (one - L).coeff(0) == parse_polynomial("1 - x1 - 2*x2", q)
    with pytest.raises(TypeError):
        EpsSeries.constant(GF5, 1, 3) * Fraction(1, 2)  # no Fraction scalars mod 5
    with pytest.raises(TypeError):
        one + "1"
    with pytest.raises(FieldError, match="mixed fields in series arithmetic"):
        one + EpsSeries.constant(GF5, 1, 3)
    with pytest.raises(FieldError, match="mixed fields in series arithmetic"):
        one * LinearForm(GF5, [1])


def test_invert_round_trip():
    x1 = parse_polynomial("x1", GF5)
    one = EpsSeries.constant(GF5, 1, 5)
    s = one + EpsSeries.from_polynomial(x1, 5).shift(1)
    inv = s.invert()
    assert s * inv == EpsSeries.constant(GF5, 1, 5)


def test_invert_requires_nonzero_constant():
    x1 = parse_polynomial("x1", GF5)
    with pytest.raises(BorderError):
        EpsSeries.from_polynomial(x1, 3).shift(1).invert()
    with pytest.raises(BorderError):
        EpsSeries.from_polynomial(x1, 3).invert()  # leading coeff not constant


def test_truncation_must_be_positive():
    with pytest.raises(BorderError):
        EpsSeries(GF5, 0, [])


def test_truncation_is_bounded():
    assert EpsSeries(GF5, MAX_TRUNCATION).truncation == MAX_TRUNCATION
    with pytest.raises(BorderError, match=f"^truncation {MAX_TRUNCATION + 1} is outside"):
        EpsSeries(GF5, MAX_TRUNCATION + 1)
    with pytest.raises(BorderError, match="^truncation 1000000000000 is outside"):
        EpsSeries.constant(GF5, 1, 10**12)


def test_series_equality_and_str():
    a = EpsSeries.eps(GF5, 3, 1)
    assert str(a) == "e"
    assert a == EpsSeries.eps(GF5, 3, 1)
    assert a != EpsSeries.eps(GF5, 3, 2)


def test_homogeneous_part():
    p = parse_polynomial("x1*x2 + x1", GF5)
    s = EpsSeries.from_polynomial(p, 3)
    assert s.homogeneous_part(2).coeff(0) == parse_polynomial("x1*x2", GF5)


# -- extraction --------------------------------------------------------------------

def test_approx_extract_reads_the_lowest_order():
    x1 = parse_polynomial("x1", GF5)
    x2 = parse_polynomial("x2", GF5)
    s = EpsSeries.from_polynomial(x1, 5).shift(2) + \
        EpsSeries.from_polynomial(x2, 5).shift(4)
    w = approx_extract(s)
    assert (w.order, w.principal, w.tail_present) == (2, x1, True)


def test_approx_extract_zero_series():
    w = approx_extract(EpsSeries.zero(GF5, 4))
    assert w.order == 4
    assert w.principal.is_zero
    assert not w.tail_present


# -- esp over series: DP against the plain symbolic route ----------------------------

def test_esp_of_series_matches_polynomial_route():
    forms = [LinearForm(GF4, [1, 0]), LinearForm(GF4, [0, 1]),
             LinearForm(GF4, [1, 1])]
    for d in (1, 2, 3):
        sym = esp_of_forms(forms, d)
        ser = esp_of_series([EpsSeries.from_polynomial(f.to_polynomial(), 4)
                             for f in forms], d, GF4, 4)
        assert ser.coeff(0) == sym
        assert all(ser.coeff(j).is_zero for j in range(1, 4))


# -- fan-in-2 border product ----------------------------------------------------------

def test_kumar_requires_vanishing_low_esps():
    bad = [LinearForm(GF4, [1, 0]), LinearForm(GF4, [0, 1])]
    with pytest.raises(BorderError) as err:
        kumar_fanin2(bad, 2)
    assert "e_1" in str(err.value)


def test_kumar_on_a_gadget_quadratic():
    rep = quadratic_to_sym(parse_polynomial("x1*x2 + x2*x3", GF4))
    product, minus_one, combined = kumar_fanin2(rep.forms, 2)
    w = approx_extract(combined)
    assert w.order == 2
    assert w.principal == rep.target
    assert (product + minus_one) == combined


def test_kumar_truncation_floor():
    rep = quadratic_to_sym(parse_polynomial("x1*x2", GF4))
    with pytest.raises(BorderError):
        kumar_fanin2(rep.forms, 2, T=3)


def test_kumar_sizes_nothing_by_T_before_the_bound(monkeypatch):
    # e_k of m forms vanishes for k > m, so the table stops at m and the
    # EpsSeries constructor is the one place T is checked
    rep = quadratic_to_sym(parse_polynomial("x1*x2", GF4))
    sizes = []

    def recording(forms, dmax, field=None):
        sizes.append(dmax)
        assert dmax <= len(forms), "a T-sized table was asked for"
        return esp_table_of_forms(forms, dmax, field)

    monkeypatch.setattr(border, "esp_table_of_forms", recording)
    with pytest.raises(BorderError, match="^truncation 1000000000000 is outside"):
        kumar_fanin2(rep.forms, 2, 10**12)
    assert sizes == [len(rep.forms)]


def explicit_product(forms, T):
    field = forms[0].field
    acc = EpsSeries.constant(field, 1, T)
    for L in forms:
        acc = acc * EpsSeries(field, T, [Polynomial.constant(field, 1), L.to_polynomial()])
    return acc


def kumar_inputs(field, rng):
    """(forms, d): random forms at d = 1, forms summing to zero at d = 2, and
    in characteristic 2 the gadget forms of quadratics at d = 2."""
    def coeff():
        if field.order is None:
            return rng.below(7) - 3
        return field.element_at(rng.below(field.order))

    for m in range(1, 9):
        n = 1 + m % 4
        forms = [LinearForm(field, [coeff() for _ in range(n)]) for _ in range(m)]
        yield forms, 1
        if m >= 2:
            last = forms[0]
            for L in forms[1:-1]:
                last = last + L
            yield forms[:-1] + [-last], 2
    if field.characteristic == 2:
        for text in ("x1*x2", "x1*x2 + x2*x3", "x1^2 + x2*x3"):
            yield quadratic_to_sym(parse_polynomial(text, field)).forms, 2


@pytest.mark.parametrize("spec", ["gf(2)", "gf(4)", "gf(5)", "q"])
def test_kumar_product_is_the_product_of_its_factors(spec):
    field = make_field(spec)
    rng = SplitMix64(31)
    for forms, d in kumar_inputs(field, rng):
        assert len(forms) <= 8
        for T in sorted({d + 2, 2 * d + 2, len(forms) + 3}):
            product, minus_one, combined = kumar_fanin2(forms, d, T)
            assert product == explicit_product(forms, T)
            assert combined == product + minus_one


# -- the shift lemma --------------------------------------------------------------------

def test_constant_shift_zero_when_order_is_stable():
    # F*ell + G = eps^0 * x1 stays extractable after adding F * eps^0
    x1 = LinearForm(GF5, [1])
    F = EpsSeries.eps(GF5, 6, 2)
    G = EpsSeries.from_polynomial(parse_polynomial("x1", GF5), 6)
    M = constant_shift(F, G, x1, parse_polynomial("x1", GF5))
    assert isinstance(M, int)
    w = approx_extract(F * x1.to_polynomial() + G + F.shift(M))
    assert w.principal == parse_polynomial("x1", GF5)


def test_constant_shift_zero_F_degenerates():
    G = EpsSeries.from_polynomial(parse_polynomial("x1", GF5), 5)
    M = constant_shift(EpsSeries.zero(GF5, 5), G, LinearForm(GF5, [1]),
                       parse_polynomial("x1", GF5))
    assert M == 1


def test_constant_shift_needs_valid_precondition():
    F = EpsSeries.constant(GF5, 1, 5)
    G = EpsSeries.zero(GF5, 5)
    with pytest.raises(BorderError):
        constant_shift(F, G, LinearForm(GF5, [1]), parse_polynomial("x2", GF5))


# -- depth-3 to symmetric conversion -------------------------------------------------------

def test_depth3_round_trip_of_kumar_output():
    target = parse_polynomial("x1*x2 + x3^2", GF4)
    rep = quadratic_to_sym(target)
    T = 6
    terms = [(1, [EpsSeries.constant(GF4, 1, T) +
                  EpsSeries.from_polynomial(f.to_polynomial(), T).shift(1)
              for f in rep.forms]),
             (-1, [])]
    reps = depth3_to_sym(terms, rep.target, T)
    assert len(reps) == 2
    combined = None
    for r in reps:
        val = r.realized()
        combined = val if combined is None else combined + val
    w = approx_extract(combined.homogeneous_part(2))
    assert w.principal == rep.target


def test_depth3_repairs_pure_eps_linear_factor():
    # eps*x1 * x2 extracts to x1*x2 at eps^1; the factor has no constant
    # part and is repaired through the shift lemma
    target = parse_polynomial("x1*x2", GF5)
    T = 6
    terms = [(1, [EpsSeries.from_polynomial(parse_polynomial("x1", GF5), T).shift(1),
                  EpsSeries.constant(GF5, 1, T) +
                  EpsSeries.from_polynomial(parse_polynomial("x2", GF5), T).shift(2)])]
    reps = depth3_to_sym(terms, target, T)
    combined = None
    for r in reps:
        val = r.realized()
        combined = val if combined is None else combined + val
    w = approx_extract(combined.homogeneous_part(2))
    assert w.principal == target


def test_depth3_rejects_wrong_target():
    T = 5
    terms = [(1, [EpsSeries.constant(GF5, 1, T)])]
    with pytest.raises(BorderError):
        depth3_to_sym(terms, parse_polynomial("x1*x2", GF5), T)


def test_depth3_rejects_a_term_of_no_series_type():
    T = 5
    with pytest.raises(BorderError, match="not a series, polynomial"):
        depth3_to_sym([("1", [EpsSeries.constant(GF5, 1, T)])],
                      parse_polynomial("x1", GF5), T)


def test_depth3_rejects_nonaffine_factor():
    T = 5
    sq = EpsSeries.from_polynomial(parse_polynomial("x1*x1", GF5), T)
    with pytest.raises(BorderError):
        depth3_to_sym([(1, [sq])], parse_polynomial("x1^2", GF5), T)
