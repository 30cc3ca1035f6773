"""Truncated eps-series and border constructions."""

import operator
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
from esym.field import FieldError, esp_sweep, make_field
from esym.poly import LinearForm, Polynomial, parse_polynomial
from esym.rng import SplitMix64
from esym.symfunc import esp_of_forms, esp_table_of_forms
from esym.symmodel import quadratic_to_sym
from poly_oracles import homogeneous_component

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


def test_constant_shift_refuses_a_truncation_too_small():
    # mod eps^1 the only shift, M = 0, turns x1 into x1 + 1
    with pytest.raises(BorderError) as exc:
        constant_shift(EpsSeries.constant(GF5, 1, 1), EpsSeries.zero(GF5, 1),
                       LinearForm(GF5, [1]), parse_polynomial("x1", GF5))
    assert str(exc.value) == ("truncation too small: no shift exponent below 1 "
                              "preserves the extraction")


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


@pytest.mark.parametrize("spec", ["gf(4)", "gf(5)", "q"])
def test_depth3_divides_out_each_gamma(spec):
    # factor i is gamma_i * (1 + eps*L_i), with gamma_i the constant 1, a
    # constant other than 0 and 1, c + eps*c', or eps*(c + eps*c'); the
    # gammas fold into the scalar and every form comes back as eps*L_i
    field = make_field(spec)
    rng = SplitMix64(2113)
    T = 8
    two = field.element_at(2) if field.order else Fraction(2)
    n = 3
    forms = [LinearForm(field, [_element(field, rng) or 1 for _ in range(n)]) for _ in range(3)]
    forms.append(-(forms[0] + forms[1] + forms[2]))
    one = EpsSeries.constant(field, 1, T)
    gammas = [one, EpsSeries.constant(field, two, T), one.scale(two) + EpsSeries.eps(field, T),
              (one + EpsSeries.eps(field, T).scale(two)).shift(1)]
    factors = [g * (one + EpsSeries.from_polynomial(L.to_polynomial(), T, 1))
               for g, L in zip(gammas, forms)]
    G = gammas[0] * gammas[1] * gammas[2] * gammas[3]
    target = esp_of_forms(forms, 2).scale(G.coeff(1).constant_term())
    assert not target.is_zero
    reps = depth3_to_sym([(1, factors), (-G, [])], target, T)
    assert reps[0].scalar == G
    assert reps[0].forms == [EpsSeries.from_polynomial(L.to_polynomial(), T - v, 1)
                             for L, v in zip(forms, (0, 0, 0, 1))]
    assert reps[1].scalar == -G and reps[1].forms == []


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


def _series(text, T):
    return EpsSeries.from_polynomial(parse_polynomial(text, GF5), T)


@pytest.mark.parametrize("terms,target,message", [
    # a zero factor in a term whose sum with the others extracts the target
    ([(1, [EpsSeries.zero(GF5, 6)]), (1, [_series("x1", 6), _series("x2", 6)])], "x1*x2",
     "a zero factor cannot be normalized"),
    # no constant part, and the linear part sits at two powers of eps
    ([(1, [_series("x1", 5).shift(1) + _series("x2", 5).shift(2)])], "x1",
     "factor x1*e + x2*e^2 has no constant part and is not eps^w * linear; "
     "cannot normalize within a truncated series"),
    # the repair of eps*x1 (truncated at eps^2) needs eps^2
    ([(0, [_series("x1", 2).shift(1)]), (1, [_series("x1", 6)])], "x1",
     "shift eps^2 falls outside truncation 2"),
    ([(1, [_series("x1", 5).shift(1) + EpsSeries.eps(GF5, 5, 2)])], "x1",
     "factor x1*e + e^2: the linear part appears at eps^1, below the constant part "
     "at eps^2; normalizing needs rational eps coefficients, not a truncated series"),
    # dividing out eps^2 leaves forms truncated at eps^1, below the order
    ([(1, [(EpsSeries.constant(GF5, 1, 3) + _series("x1", 3)).shift(2)])], "x1",
     "symmetric terms extract 0 at order 1; expected the target at order 2 "
     "(truncation too small?)"),
], ids=["zero-factor", "two-eps-powers", "shift-past-truncation", "linear-below-constant",
        "terms-lose-the-order"])
def test_depth3_refusals(terms, target, message):
    with pytest.raises(BorderError) as exc:
        depth3_to_sym(terms, parse_polynomial(target, GF5), 6)
    assert str(exc.value) == message


# -- the dense-list oracle ---------------------------------------------------------------

class DenseSeries:
    """The dense-list series arithmetic that the packed term dict replaced:
    T coefficient polynomials, products by the T^2 loop over them."""

    def __init__(self, field, T, coeffs=()):
        coeffs = list(coeffs)[:T]
        self.field, self.T = field, T
        self.c = coeffs + [Polynomial.zero(field)] * (T - len(coeffs))

    def series(self):
        return EpsSeries(self.field, self.T, self.c)

    def __add__(self, other):
        T = min(self.T, other.T)
        return DenseSeries(self.field, T, [a + b for a, b in zip(self.c[:T], other.c[:T])])

    def __neg__(self):
        return DenseSeries(self.field, self.T, [-c for c in self.c])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        T = min(self.T, other.T)
        out = [Polynomial.zero(self.field)] * T
        for i, a in enumerate(self.c[:T]):
            for j in range(T - i):
                out[i + j] = out[i + j] + a * other.c[j]
        return DenseSeries(self.field, T, out)

    def scale(self, scalar):
        return DenseSeries(self.field, self.T, [c.scale(scalar) for c in self.c])

    def shift(self, j):
        pad = [Polynomial.zero(self.field)] * min(j, self.T)
        return DenseSeries(self.field, self.T, pad + self.c)

    def divide_eps(self, v):
        if v == 0:
            return self
        if v < 0 or v >= self.T or any(not c.is_zero for c in self.c[:v]):
            raise BorderError("not divisible")
        return DenseSeries(self.field, self.T - v, self.c[v:])

    def invert(self):
        lead = self.c[0]
        if lead.degree() > 0 or lead.is_zero:
            raise BorderError("not invertible")
        inv0 = lead.constant_term().inverse()
        out = [Polynomial.constant(self.field, inv0)]
        for k in range(1, self.T):
            acc = Polynomial.zero(self.field)
            for i in range(1, k + 1):
                acc = acc + self.c[i] * out[k - i]
            out.append(acc.scale(-inv0))
        return DenseSeries(self.field, self.T, out)

    def homogeneous_part(self, d):
        return DenseSeries(self.field, self.T, [homogeneous_component(c, d) for c in self.c])

    def valuation(self):
        return next((i for i, c in enumerate(self.c) if not c.is_zero), None)

    def __str__(self):
        parts = []
        for i, c in enumerate(self.c):
            if c.is_zero:
                continue
            body = f"({c})" if c.term_count() > 1 else str(c)
            power = "" if i == 0 else "e" if i == 1 else f"e^{i}"
            parts.append(body if not power else power if body == "1" else f"{body}*{power}")
        return " + ".join(parts) if parts else "0"


def _element(field, rng):
    if field.order is None:
        return Fraction(rng.below(7) - 3, 1 + rng.below(3))
    return field.element_at(rng.below(field.order))


def _dense(field, T, rng, invertible=False):
    """A seeded dense series: about half its coefficients zero, the others
    up to three terms in x1..x3 of degree at most 2."""
    coeffs = []
    for i in range(T):
        terms = {}
        if rng.below(2):
            for _ in range(1 + rng.below(3)):
                mono = tuple(rng.below(2) for _ in range(1 + rng.below(3)))
                terms[mono] = field.coerce_raw(_element(field, rng))
        coeffs.append(Polynomial(field, terms))
    if invertible:
        c = _element(field, rng)
        coeffs[0] = Polynomial.constant(field, c if c != 0 else 1)
    return DenseSeries(field, T, coeffs)


def _same(dense, series):
    assert series == dense.series()
    assert series.truncation == dense.T
    assert series.coeffs == tuple(dense.c)
    assert [series.coeff(i) for i in range(dense.T)] == dense.c
    assert str(series) == str(dense)
    assert series.valuation() == dense.valuation()
    assert hash(series) == hash(dense.series())


@pytest.mark.parametrize("spec", ["q", "gf(5)", "gf(4)", "gf(9)"])
def test_packed_series_match_the_dense_oracle(spec):
    field = make_field(spec)
    rng = SplitMix64(2027)
    for T in range(1, 8):
        for _ in range(6):
            a = _dense(field, T, rng)
            b = _dense(field, 1 + rng.below(7), rng)
            sa, sb = a.series(), b.series()
            _same(a, sa)
            _same(a + b, sa + sb)
            _same(a - b, sa - sb)
            _same(a * b, sa * sb)
            _same(-a, -sa)
            _same(a * a, sa * sa)
            c = _element(field, rng)
            _same(a.scale(c), sa.scale(c))
            for j in range(T + 2):
                _same(a.shift(j), sa.shift(j))
                _same(a.shift(j).divide_eps(min(j, T - 1)),
                      sa.shift(j).divide_eps(min(j, T - 1)))
            for d in range(4):
                _same(a.homogeneous_part(d), sa.homogeneous_part(d))
            for v in range(T + 1):
                try:
                    want = a.divide_eps(v)
                except BorderError:
                    with pytest.raises(BorderError):
                        sa.divide_eps(v)
                else:
                    _same(want, sa.divide_eps(v))
            u = _dense(field, T, rng, invertible=True)
            _same(u.invert(), u.series().invert())
            _same(u * u.invert(), u.series() * u.series().invert())
            assert (sa == sb) == (str(a) == str(b) and a.T == b.T)


SWEEP_SPECS = ["q", "gf(3)", "gf(5)", "gf(1009)", "gf(4)", "gf(9)", "gf(2^8;1,0,1,1,1,0,0,0,1)"]


@pytest.mark.parametrize("spec", SWEEP_SPECS)
def test_fused_series_sweep_matches_the_ring_generic_sweep(spec):
    # the oracle: the same DP through EpsSeries + and *, which cut every
    # product at eps^T; forms of mixed truncations, zero forms included;
    # gf(3) at d >= 6 also reduces each row as it is cut
    field = make_field(spec)
    rng = SplitMix64(2029)
    for T in range(1, 8):
        for m in (0, 1, 2, 4, 6, 8):
            forms = [_dense(field, 1 + rng.below(8), rng).series() for _ in range(m)]
            want = esp_sweep(forms, 8, EpsSeries.zero(field, T),
                             EpsSeries.constant(field, 1, T), operator.add, operator.mul)
            for d in range(9):
                got = esp_of_series(forms, d, field, T)
                assert got == want[d]
                assert got.truncation == want[d].truncation


def test_esp_of_series_cancels_to_zero():
    # (1 + eps*x1) and (1 - eps*x1) over Q: e_1 = 2, e_2 = 1 - eps^2*x1^2;
    # five copies of eps*x1 over GF(5): e_1..e_4 vanish and e_5 = eps^5*x1^5
    q = make_field("q")
    x1 = Polynomial.variable(q, 1)
    one = EpsSeries.constant(q, 1, 4)
    pair = [one + EpsSeries.from_polynomial(x1, 4, 1), one - EpsSeries.from_polynomial(x1, 4, 1)]
    assert esp_of_series(pair, 1, q, 4) == EpsSeries.constant(q, 2, 4)
    assert esp_of_series(pair, 2, q, 4) == one - EpsSeries.from_polynomial(x1 * x1, 4, 2)
    y = EpsSeries.from_polynomial(Polynomial.variable(GF5, 1), 7, 1)
    for d in range(1, 5):
        assert esp_of_series([y] * 5, d, GF5, 7).is_zero
    assert esp_of_series([y] * 5, 5, GF5, 7) == EpsSeries.from_polynomial(
        Polynomial.variable(GF5, 1) ** 5, 7, 5)
    assert esp_of_series([y] * 5, 5, GF5, 5).is_zero    # eps^5 is cut at T = 5


def test_negative_eps_powers_are_refused():
    x1 = Polynomial.variable(GF5, 1)
    with pytest.raises(BorderError, match="negative eps-power -3"):
        EpsSeries.from_polynomial(x1, 4, -3)
    with pytest.raises(BorderError, match="negative eps-power -2"):
        EpsSeries.eps(GF5, 4, -2)
    assert str(EpsSeries.eps(GF5, 4, 0)) == "1"


def test_rsub_over_q_and_gf4():
    q = make_field("q")
    for field in (q, GF4):
        s = EpsSeries.from_polynomial(parse_polynomial("x1 + 1", field), 3).shift(1) \
            + EpsSeries.constant(field, 1, 3)
        assert 2 - s == -(s - 2)
        assert field.one - s == -(s - 1)
        L = LinearForm(field, [1, 1])
        assert L - s == -(s - L)
        assert L.to_polynomial() - s == -(s - L)
        assert s - s == EpsSeries.zero(field, 3)
    with pytest.raises(TypeError):
        "1" - EpsSeries.constant(q, 1, 3)
    with pytest.raises(FieldError, match="mixed fields in series arithmetic"):
        LinearForm(GF5, [1]) - EpsSeries.constant(q, 1, 3)


def test_degree_bound_of_a_series_product():
    # x-degrees add in the field above the eps-power; a product that would
    # carry out of it is refused, as Polynomial.__mul__ refuses it
    half = Polynomial(GF5, {(1 << 31,): 1})
    s = EpsSeries.from_polynomial(half, 4, 1)
    with pytest.raises(ValueError, match="exceeds the packed-monomial bound"):
        s * s
    with pytest.raises(ValueError, match="exceeds the packed-monomial bound"):
        half * half
    rest = Polynomial(GF5, {((1 << 31) - 1,): 2})
    prod = s * EpsSeries.from_polynomial(rest, 4, 2)
    assert prod == EpsSeries.from_polynomial(half * rest, 4, 3)
    assert prod.valuation() == 3 and prod.coeff(3).degree() == (1 << 32) - 1
    assert str(prod) == f"2*x1^{(1 << 32) - 1}*e^3"


# -- the degree-d reads of depth3_to_sym ----------------------------------------------------

def _uncut(monkeypatch):
    """Make depth3_to_sym read the circuit's H_d off the full product chain."""
    monkeypatch.setattr(border, "_affine_degree_part", _product_chain)


def _product_chain(field, terms, d, T):
    """The slow path of depth3_to_sym's input check: each term's full
    product, the products summed, and the degree-d part kept."""
    acc = EpsSeries.zero(field, T)
    for c, fs in terms:
        prod = c
        for f in fs:
            prod = prod * f
        acc = acc + prod
    return acc.homogeneous_part(d)


def _affine_factor(field, rng):
    """A seeded affine series of truncation 1..7: linear forms in x1..x3 at
    a few eps-powers, plus a gamma of one of four kinds: the constant 1, a
    constant other than 0 and 1, a series of constants, or none (then the
    linear part sits at one eps-power, the shape the repair takes); GF(2)
    has no constant other than 0 and 1, and takes 1 there."""
    T = 1 + rng.below(7)
    kind = rng.below(4)
    powers = [rng.below(T)] if kind == 3 else [rng.below(T) for _ in range(1 + rng.below(3))]
    f = EpsSeries.zero(field, T)
    for i in powers:
        ell = LinearForm(field, [_element(field, rng) for _ in range(3)])
        f = f + EpsSeries.from_polynomial(ell.to_polynomial(), T, i)
    if kind == 0 or kind == 1 and field.order == 2:
        return f + EpsSeries.constant(field, 1, T)
    if kind == 1:
        c = Fraction(2 + rng.below(3)) if field.order is None else \
            field.element_at(2 + rng.below(field.order - 2))
        return f + EpsSeries.constant(field, c, T)
    if kind == 2:
        return f + EpsSeries(field, T, [Polynomial.constant(field, _element(field, rng))
                                        for _ in range(T)])
    return f


@pytest.mark.parametrize("spec", ["gf(4)", "gf(5)", "gf(9)", "q", "gf(2)", "gf(3)"])
def test_affine_sweep_matches_the_product_chain(spec):
    # scalars hold x-terms of degree 0..3; terms have 0..4 factors; every
    # operand draws its own truncation.  Over gf(2) and gf(3), d reaches 2p,
    # where each step of the sweep also reduces its rows mod p; there terms
    # have up to 2p + 1 factors and every operand is read mod eps^7, so
    # that some H_d with d >= 2p is nonzero
    field = make_field(spec)
    top = 2 * field.p if spec in ("gf(2)", "gf(3)") else 3
    rng = SplitMix64(2111)
    kinds = set()
    reduced = []
    for _ in range(60):
        T = 1 + rng.below(7)
        terms = [(_dense(field, 1 + rng.below(7), rng).series(),
                  [_affine_factor(field, rng) for _ in range(rng.below(top + 2))])
                 for _ in range(rng.below(4))]
        kinds.update(len(fs) for c, fs in terms)
        if top > 3:
            T, terms = 7, [(EpsSeries(field, 7, c.coeffs), [EpsSeries(field, 7, f.coeffs)
                                                            for f in fs]) for c, fs in terms]
        for d in range(top + 1):
            got = border._affine_degree_part(field, terms, d, T)
            want = _product_chain(field, terms, d, T)
            assert got == want
            assert got.truncation == want.truncation
            if d >= 2 * field.p > 0:
                reduced.append(got)
    assert {0, 4} <= kinds
    assert top == 3 or any(not got.is_zero for got in reduced)


def _depth3_circuits(field, rng):
    """Seeded (terms, target, T): fan-in 2 kumar circuits of forms with e_1 = 0,
    the same with a third term that only reaches past the extracted order,
    a factor with no constant part (the constant_shift repair), and a wrong
    target."""
    def coeff():
        c = _element(field, rng)
        return c if c != 0 else 1

    for _ in range(4):
        n = 2 + rng.below(3)
        forms = [LinearForm(field, [coeff() for _ in range(n)]) for _ in range(2 + rng.below(3))]
        last = forms[0]
        for L in forms[1:]:
            last = last + L
        forms.append(-last)
        target = esp_of_forms(forms, 2)
        if target.is_zero:
            continue
        T = 4 + rng.below(3)
        one = EpsSeries.constant(field, 1, T)
        factors = [one + EpsSeries.from_polynomial(L.to_polynomial(), T).shift(1) for L in forms]
        yield [(1, factors), (-1, [])], target, T
        extra = [one + EpsSeries.from_polynomial(L.to_polynomial(), T).shift(1)
                 for L in forms[:2]]
        yield [(1, factors), (-1, []), (EpsSeries.eps(field, T, 3), extra)], target, T
        yield [(1, factors), (-1, [])], target + target, T
        # an x-term in the scalar meets e_1 = 0 at degree 2, so the circuit
        # still extracts the target; the realized term keeps it in its scalar
        x_term = EpsSeries.from_polynomial(parse_polynomial("x1", field), T, 2)
        yield [(one + x_term, factors), (-1, [])], target, T
    a, b = coeff(), coeff()
    x1 = EpsSeries.from_polynomial(parse_polynomial("x1", field), 6).scale(a)
    x2 = EpsSeries.from_polynomial(parse_polynomial("x2", field), 6).scale(b)
    yield ([(1, [x1.shift(1), EpsSeries.constant(field, 1, 6) + x2.shift(2)])],
           parse_polynomial("x1*x2", field).scale(field.element(a) * field.element(b)), 6)
    # x1*(1 + eps*x2) - x1 extracts x1*x2, but e_2 of one form is zero:
    # refused
    x1, x2 = (parse_polynomial(v, field) for v in ("x1", "x2"))
    yield ([(x1, [EpsSeries.constant(field, 1, 6) + EpsSeries.from_polynomial(x2, 6, 1)]),
            (-x1, [])], x1 * x2, 6)
    # a term with no forms to e_2 and a gamma at eps^1 is zero only mod eps^2,
    # which hides the eps^2 of the first term: refused
    one = EpsSeries.constant(field, 1, 3)
    x1, x2, x3 = (EpsSeries.from_polynomial(parse_polynomial(v, field), 3, 1)
                  for v in ("x1", "x2", "x3"))
    yield ([(1, [one + x1, one + x2]), (1, [EpsSeries.eps(field, 3, 1) + x3])],
           parse_polynomial("x1*x2", field), 3)


def _outcome(terms, target, T):
    try:
        reps = depth3_to_sym(terms, target, T)
    except BorderError as exc:
        return "raises", str(exc)
    return [(r.scalar, r.forms, r.degree) for r in reps]


@pytest.mark.parametrize("spec", ["gf(4)", "gf(5)", "q"])
def test_depth3_cut_matches_the_uncut_product(spec, monkeypatch):
    field = make_field(spec)
    circuits = list(_depth3_circuits(field, SplitMix64(404)))
    cut = [_outcome(*c) for c in circuits]
    _uncut(monkeypatch)
    assert [_outcome(*c) for c in circuits] == cut
    assert sum(o[0] == "raises" for o in cut) >= 1
    assert sum(o[0] != "raises" for o in cut) >= 5


@pytest.mark.parametrize("spec", ["q", "gf(2)", "gf(5)", "gf(4)", "gf(9)"])
def test_sweeps_leave_their_operands_alone(spec):
    # the sweep adds into its rows in place, and over a finite field the
    # lift hands it the callers' own dicts
    field = make_field(spec)
    rng = SplitMix64(77)

    def untouched(call, operands):
        before = [dict(x._terms) for x in operands]
        call()
        assert [x._terms for x in operands] == before

    forms = [_dense(field, 1, rng).c[0] for _ in range(6)]
    untouched(lambda: esp_table_of_forms(forms, 8, field), forms)
    series = [_dense(field, 1 + rng.below(6), rng).series() for _ in range(6)]
    untouched(lambda: esp_of_series(series, 4, field, 5), series)
    terms = [(_dense(field, 1 + rng.below(7), rng).series(),
              [_affine_factor(field, rng) for _ in range(1 + rng.below(5))]) for _ in range(3)]
    untouched(lambda: border._affine_degree_part(field, terms, 2, 7),
              [s for c, fs in terms for s in (c, *fs)])
    for terms, target, T in _depth3_circuits(field, rng):
        operands = [s for c, fs in terms for s in (c, *fs) if hasattr(s, "_terms")]
        untouched(lambda: _outcome(terms, target, T), operands + [target])


def _forty_five_forms():
    """The 5-variable GF(4) quadratic with every term present, as 45 gadget
    forms lifted to 1 + eps*L."""
    f = parse_polynomial(" + ".join(f"x{i}*x{j}" for i in range(1, 6)
                                    for j in range(i, 6)), GF4)
    rep = quadratic_to_sym(f)
    T = 6
    one = EpsSeries.constant(GF4, 1, T)
    factors = [one + EpsSeries.from_polynomial(L.to_polynomial(), T).shift(1)
               for L in rep.forms]
    return [(1, factors), (-1, [])], rep.target, T


def _term_products(monkeypatch, call):
    """Term products that GF(4)'s kernel makes during call(): every product,
    mul_terms and the fused e_j sweep alike, passes through addmul_terms,
    which skips the zero raws an accumulator keeps for cancelled terms."""
    seen = [0]
    addmul_terms = type(GF4).addmul_terms

    def counted(self, acc, a, b):
        seen[0] += sum(map(bool, a.values())) * sum(map(bool, b.values()))
        return addmul_terms(self, acc, a, b)

    with monkeypatch.context() as m:
        m.setattr(type(GF4), "addmul_terms", counted)
        call()
    return seen[0]


def test_fused_series_sweep_cuts_each_row_below_T(monkeypatch):
    # dense series fill eps^0..eps^(T-1); rows cut after each step make the
    # same term products as the ring sweep, whose every product is cut, and
    # rows left whole to the end would make more
    rng = SplitMix64(2033)
    T = 5
    forms = [_dense(GF4, T, rng, invertible=True).series() for _ in range(6)]
    for d in (2, 4, 6):
        fused = _term_products(monkeypatch, lambda: esp_of_series(forms, d, GF4, T))
        ring = _term_products(monkeypatch, lambda: esp_sweep(
            forms, d, EpsSeries.zero(GF4, T), EpsSeries.constant(GF4, 1, T),
            operator.add, operator.mul))
        assert 0 < fused <= ring


def test_depth3_degree_cut_bounds_the_work(monkeypatch):
    terms, target, T = _forty_five_forms()
    assert len(terms[0][1]) == 45
    swept = _term_products(monkeypatch, lambda: depth3_to_sym(terms, target, T))
    # 325 with the affine sweep and the unit-gamma normalization; full
    # products everywhere make 7,461
    assert swept <= 400
    _uncut(monkeypatch)
    assert _term_products(monkeypatch, lambda: depth3_to_sym(terms, target, T)) >= 5 * swept
