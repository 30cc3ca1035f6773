"""Elementary symmetric polynomials, power sums, and the identity suite."""

import itertools
import math
from fractions import Fraction

import pytest

from esym.field import QQ, make_field
from esym.poly import LinearForm, parse_polynomial
from esym.symfunc import (
    IDENTITY_KINDS,
    esp_of_forms,
    esp_on,
    esp_table_of_forms,
    gen_esp,
    gen_power_sum,
    power_sum_of_forms,
    verify_identity,
)

GF4 = make_field("gf(4)")


def esp_value(values, d):
    """Independent numeric e_d: explicit sum over index subsets."""
    if d == 0:
        return Fraction(1)
    total = Fraction(0)
    for combo in itertools.combinations(values, d):
        prod = Fraction(1)
        for v in combo:
            prod *= v
        total += prod
    return total


# -- generators ---------------------------------------------------------------

def test_esp_three_vars_degree_two():
    assert gen_esp(3, 2, QQ) == parse_polynomial("x1*x2 + x1*x3 + x2*x3", QQ)


def test_esp_edge_degrees():
    assert gen_esp(4, 0, QQ) == parse_polynomial("1", QQ)
    assert gen_esp(4, 4, QQ) == parse_polynomial("x1*x2*x3*x4", QQ)
    with pytest.raises(ValueError):
        gen_esp(4, 5, QQ)


def test_esp_term_count_is_binomial():
    for n in range(1, 9):
        for d in range(0, n + 1):
            assert gen_esp(n, d, GF4).term_count() == math.comb(n, d)


def test_esp_numeric_against_subset_sums():
    f = gen_esp(5, 3, QQ)
    values = [Fraction(2), Fraction(-1), Fraction(3, 2), Fraction(0), Fraction(7)]
    pt = tuple(QQ.element(v) for v in values)
    assert f.evaluate(pt).raw == esp_value(values, 3)


def test_power_sum_shape():
    assert gen_power_sum(3, 2, QQ) == parse_polynomial("x1^2 + x2^2 + x3^2", QQ)


def test_frobenius_collapse_in_char_two():
    gf2 = make_field("gf(2)")
    lhs = gen_power_sum(2, 2, gf2)
    rhs = parse_polynomial("(x1 + x2) * (x1 + x2)", gf2)
    e1 = gen_esp(2, 1, gf2)
    assert lhs == e1 * e1 == rhs


def test_esp_on_index_subset():
    f = esp_on((2, 4), 2, QQ, nvars=4)
    assert f == parse_polynomial("x2*x4", QQ)


# -- esp of linear forms: DP against direct substitution ----------------------

def test_esp_table_matches_substitution():
    forms = [LinearForm(GF4, [1, 2]), LinearForm(GF4, [3, 1]),
             LinearForm(GF4, [2, 2]), LinearForm(GF4, [0, 1])]
    table = esp_table_of_forms(forms, 3)
    for d in range(0, 4):
        direct = gen_esp(len(forms), d, GF4).substitute_linear(forms)
        assert table[d] == direct
        assert esp_of_forms(forms, d) == direct


def test_esp_of_forms_above_form_count_is_the_sweeps_zero():
    forms = [LinearForm(GF4, [1, 2]), LinearForm(GF4, [0, 0, 3])]
    table = esp_table_of_forms(forms, 5)
    for d in range(3, 6):
        got = esp_of_forms(forms, d)
        assert got.is_zero and got == table[d] and got.nvars == table[d].nvars == 3
    assert esp_of_forms([], 10**9, GF4).is_zero
    assert esp_of_forms(forms[:1], 10**9).nvars == 2


def test_power_sum_of_forms():
    forms = [LinearForm(QQ, [1, 1]), LinearForm(QQ, [2, -1])]
    expect = parse_polynomial("(x1+x2)*(x1+x2) + (2*x1-x2)*(2*x1-x2)", QQ)
    assert power_sum_of_forms(forms, 2) == expect


# -- the identity suite -------------------------------------------------------

@pytest.mark.parametrize("kind", IDENTITY_KINDS)
def test_identities_hold_on_small_grid(kind, any_field):
    if kind == "generating_function":
        grid = [{"n": n} for n in range(1, 6)]
    elif kind == "split":
        grid = [{"n": n, "m": m, "d": d}
                for n in range(1, 5) for m in range(1, 5)
                for d in range(0, n + m + 1)]
    else:
        grid = [{"n": n, "d": d} for n in range(1, 6) for d in range(1, n + 1)]
    for params in grid:
        report = verify_identity(kind, params, any_field)
        assert report.holds, (kind, params, report.discrepancy)
        assert report.discrepancy.is_zero


def test_split_identity_numerically_via_fractions():
    # independent route over Q: evaluate both sides as numbers
    n, m, d = 3, 2, 3
    values = [Fraction(1), Fraction(-2), Fraction(5, 3), Fraction(4), Fraction(-1, 7)]
    lhs = esp_value(values, d)
    rhs = sum(esp_value(values[:n], i) * esp_value(values[n:], d - i)
              for i in range(0, d + 1))
    assert lhs == rhs
    report = verify_identity("split", {"n": n, "m": m, "d": d}, QQ)
    assert report.holds


def test_newton_identity_numerically_via_fractions():
    # d*e_d = sum_{i=1}^{d} (-1)^(i-1) e_{d-i} p_i, as numbers over Q
    n, d = 4, 3
    values = [Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2)]
    lhs = d * esp_value(values, d)
    rhs = Fraction(0)
    sign = 1
    for i in range(1, d + 1):
        rhs += sign * esp_value(values, d - i) * sum(v**i for v in values)
        sign = -sign
    assert lhs == rhs


def test_euler_identity_numerically_via_fractions():
    # sum_i x_i * d(e_d)/dx_i = d * e_d
    n, d = 4, 2
    f = gen_esp(n, d, QQ)
    values = tuple(QQ.element(v) for v in
                   (Fraction(3), Fraction(-1), Fraction(2), Fraction(5)))
    lhs = sum((f.partial_derivative(i + 1) * parse_polynomial(f"x{i + 1}", QQ))
              .evaluate(values).raw for i in range(n))
    assert lhs == d * f.evaluate(values).raw


def test_identity_report_fields():
    report = verify_identity("euler", {"n": 3, "d": 2}, GF4)
    assert report.kind == "euler"
    assert report.params == {"n": 3, "d": 2}
    data = report.to_json()
    assert data["holds"] is True


def test_unknown_identity_kind_rejected():
    with pytest.raises(ValueError):
        verify_identity("quadratic_reciprocity", {"n": 2}, QQ)


def test_missing_params_rejected():
    with pytest.raises(ValueError):
        verify_identity("split", {"n": 2}, QQ)


def test_size_cap_enforced():
    with pytest.raises(ValueError):
        verify_identity("split", {"n": 12, "m": 8, "d": 4}, QQ)
