"""Elementary symmetric polynomials, power sums, and the identity suite."""

import itertools
import math
import operator
import time
from fractions import Fraction

import pytest

from esym import symfunc
from esym.field import QQ, FieldError, esp_sweep, make_field
from esym.poly import LinearForm, Polynomial, parse_polynomial
from esym.rng import SplitMix64
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
from poly_oracles import substitute_linear

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


def _esp_by_tuples(idx, d, field, nvars):
    """e_d over idx through the tuple constructor, one exponent tuple per
    subset (none for d < 0): the oracle for the packed-key builder."""
    terms = {}
    for subset in itertools.combinations(idx, d) if d >= 0 else ():
        mono = [0] * max(idx, default=0)
        for i in subset:
            mono[i - 1] = 1
        terms[tuple(mono)] = field.one_raw
    return Polynomial(field, terms, nvars or max(idx, default=0))


@pytest.mark.parametrize("spec", ["gf(2)", "gf(5)", "gf(4)", "q"])
def test_esp_builder_matches_the_tuple_constructor(spec):
    field = make_field(spec)
    rng = SplitMix64(2020)
    for n in range(11):
        for d in range(n + 1):
            got, want = gen_esp(n, d, field), _esp_by_tuples(range(1, n + 1), d, field, n)
            assert got._terms == want._terms and got.nvars == want.nvars == n
        # index subsets with gaps, in any order, with and without a wider nvars
        idx = [i for i in range(1, 15) if rng.below(2)][:n]
        shuffled = sorted(idx, key=lambda i: rng.below(100))
        for indices in (idx, shuffled):
            for d in range(-1, len(indices) + 2):
                for nvars in (None, max(indices, default=0) + 3, 1):
                    got = esp_on(indices, d, field, nvars)
                    want = _esp_by_tuples(indices, d, field, nvars)
                    assert got._terms == want._terms, (indices, d, nvars)
                    assert got.nvars == want.nvars, (indices, d, nvars)


def test_esp_on_checks_every_index_before_the_shortcuts():
    gf5 = make_field("gf(5)")
    for d in (-1, 0, 1, 2, 3):
        with pytest.raises(ValueError, match=r"^repeated variable index in \(1, 1\)$"):
            esp_on((1, 1), d, gf5)
        with pytest.raises(ValueError, match="^variable index 5000 is outside the 1-based range"):
            esp_on((5000,), d, gf5)
        with pytest.raises(ValueError, match="^variable index -1 is outside the 1-based range"):
            esp_on((-1,), d, gf5)
    with pytest.raises(ValueError, match="^variable index 2049 is outside the 1-based range"):
        gen_esp(2049, 0, gf5)
    # refused before the range of n indices is built, which overflows at 2^64
    with pytest.raises(ValueError, match="^variable index 18446744073709551616 is outside"):
        gen_esp(2**64, 7, gf5)
    assert esp_on((), 0, gf5) == 1 and esp_on((), 0, gf5).nvars == 0
    assert esp_on((2, 4), 0, gf5, nvars=1).nvars == 1
    assert esp_on((2, 4), 1, gf5, nvars=1).nvars == 4
    assert esp_on((2, 4), 3, gf5, nvars=1).nvars == 1


def test_guards_refuse_before_any_key_is_built(monkeypatch):
    # e_2 in 1999 variables is 1,997,001 terms, inside the term guard, but
    # its keys would hold about 10.6 GB
    start = time.process_time()
    with pytest.raises(ValueError, match="^e_2 over 1999 variables exceeds the key-byte guard"):
        gen_esp(1999, 2, QQ)
    with pytest.raises(ValueError, match="^e_15 over 30 variables exceeds the term guard$"):
        gen_esp(30, 15, QQ)
    assert time.process_time() - start < 1.0
    # the guard's sum is exact: e_2 in 4 variables holds 9 + 2*13 + 3*17 bytes of keys
    assert sum((k.bit_length() + 7) // 8 for k in gen_esp(4, 2, QQ)._terms) == 86
    monkeypatch.setattr(symfunc, "_KEY_BYTE_GUARD", 86)
    assert gen_esp(4, 2, QQ).term_count() == 6
    monkeypatch.setattr(symfunc, "_KEY_BYTE_GUARD", 85)
    with pytest.raises(ValueError, match="^e_2 over 4 variables exceeds the key-byte guard$"):
        gen_esp(4, 2, QQ)


# -- esp of linear forms: DP against direct substitution ----------------------

def test_esp_table_matches_substitution():
    forms = [LinearForm(GF4, [1, 2]), LinearForm(GF4, [3, 1]),
             LinearForm(GF4, [2, 2]), LinearForm(GF4, [0, 1])]
    table = esp_table_of_forms(forms, 3)
    for d in range(0, 4):
        direct = substitute_linear(gen_esp(len(forms), d, GF4), forms)
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


SWEEP_SPECS = ["q", "gf(3)", "gf(5)", "gf(1009)", "gf(4)", "gf(9)", "gf(2^8;1,0,1,1,1,0,0,0,1)"]


def _random_poly(field, rng, nvars: int):
    """Up to four terms of degree at most 2 in x1..x_nvars (none: the zero
    form); over Q the coefficients have mixed denominators."""
    terms = {}
    for _ in range(rng.below(5)):
        mono = tuple(rng.below(2) for _ in range(nvars))
        if field.order is None:
            terms[mono] = Fraction(rng.below(11) - 5 or 1, 1 + rng.below(6))
        else:
            terms[mono] = 1 + rng.below(field.order - 1)
    return Polynomial(field, terms, nvars)


@pytest.mark.parametrize("spec", SWEEP_SPECS)
def test_fused_sweep_matches_the_ring_generic_sweep(spec):
    # the oracle: the same DP through Polynomial + and *; gf(3) at
    # dmax >= 6 takes the per-step reduction of small-p sweeps
    field = make_field(spec)
    rng = SplitMix64(2031)
    for m in (0, 1, 2, 5, 9):
        forms = [_random_poly(field, rng, 3) for _ in range(m)]
        for dmax in range(9):
            want = esp_sweep(forms, dmax, Polynomial.zero(field, 3),
                             Polynomial.constant(field, 1, 3), operator.add, operator.mul)
            assert esp_table_of_forms(forms, dmax, field) == want


def test_fused_sweep_cancels_to_zero():
    # p copies of one form over GF(p); L, tL, t^2 L over GF(4) (1 + t + t^2 = 0);
    # L and -L over Q
    L = LinearForm(make_field("gf(5)"), [1, 2, 3])
    table = esp_table_of_forms([L] * 5, 6)
    assert [e.is_zero for e in table] == [False, True, True, True, True, False, True]
    assert table[5] == L.to_polynomial() ** 5
    w = GF4.element("t")
    M = LinearForm(GF4, [1, w])
    table = esp_table_of_forms([M, M.scale(w), M.scale(w * w)], 3)
    assert table[1].is_zero and table[2].is_zero and table[3] == M.to_polynomial() ** 3
    N = LinearForm(QQ, [Fraction(1, 2), Fraction(2, 3)])
    table = esp_table_of_forms([N, -N], 2)
    assert table[1].is_zero and table[2] == -(N.to_polynomial() ** 2)
    with pytest.raises(FieldError, match="mixed fields"):
        esp_table_of_forms([L, M], 2)


def _old_sides(kind, params, field):
    """Both sides of an identity as verify_identity formed them before its
    sums became one accumulation each: one Polynomial + per product."""
    n = params["n"]
    if kind == "generating_function":
        y = Polynomial.variable(field, n + 1)
        lhs = Polynomial.constant(field, 1, n + 1)
        for i in range(1, n + 1):
            lhs = lhs * (Polynomial.variable(field, i, n + 1) + y)
        rhs = Polynomial.zero(field, n + 1)
        for k in range(n + 1):
            rhs = rhs + y ** (n - k) * symfunc.esp_on(range(1, n + 1), k, field, n + 1)
        return lhs, rhs
    d = params["d"]
    if kind == "split":
        m = params["m"]
        rhs = Polynomial.zero(field, n + m)
        for k in range(d + 1):
            rhs = rhs + (symfunc.esp_on(range(1, n + 1), k, field, n + m)
                         * symfunc.esp_on(range(n + 1, n + m + 1), d - k, field, n + m))
        return symfunc.gen_esp(n + m, d, field), rhs
    e = symfunc.gen_esp(n, d, field)
    if kind == "euler":
        lhs = Polynomial.zero(field, n)
        for i in range(1, n + 1):
            lhs = lhs + Polynomial.variable(field, i, n) * e.partial_derivative(i)
        return lhs, e.scale(d)
    rhs = Polynomial.zero(field, n)
    sign = field.one
    for k in range(1, d + 1):
        rhs = rhs + (symfunc.gen_power_sum(n, k, field) * symfunc.gen_esp(n, d - k, field)).scale(sign)
        sign = -sign
    return e.scale(d), rhs


@pytest.mark.parametrize("spec", ["q", "gf(5)", "gf(4)", "gf(9)"])
@pytest.mark.parametrize("kind,params", [
    ("generating_function", {"n": 4}), ("split", {"n": 2, "m": 3, "d": 3}),
    ("euler", {"n": 4, "d": 2}), ("newton", {"n": 4, "d": 3})])
def test_a_perturbed_identity_reports_the_old_discrepancy(monkeypatch, spec, kind, params):
    # each e_k and p_k gains c * x1^(k+1) (c = 2/3 over Q), which is not
    # homogeneous of degree k, so no identity holds
    field = make_field(spec)
    c = Fraction(2, 3) if field.order is None else field.element_at(field.order - 1)
    esp, power_sum = symfunc._esp_of_keys, symfunc.gen_power_sum

    def bump(poly, k):
        return poly + (Polynomial.variable(field, 1) ** (k + 1)).scale(c)

    # every e_k, esp_on's and gen_esp's included, is built by _esp_of_keys
    monkeypatch.setattr(symfunc, "_esp_of_keys",
                        lambda keys, k, F, nvars=None: bump(esp(keys, k, F, nvars), k))
    monkeypatch.setattr(symfunc, "gen_power_sum", lambda n, k, F: bump(power_sum(n, k, F), k))
    lhs, rhs = _old_sides(kind, params, field)
    report = verify_identity(kind, params, field)
    assert not report.holds
    assert report.discrepancy == lhs - rhs
    assert report.discrepancy.nvars == (lhs - rhs).nvars
    assert str(report.discrepancy) == str(lhs - rhs)


def test_equality_decides_as_the_subtraction_did(monkeypatch):
    # the acceptance grid (n+m <= 10, 5 fields): the last comparison
    # verify_identity makes is lhs == rhs, and its report must be what
    # lhs - rhs gives
    sides = []
    eq = Polynomial.__eq__

    def spy(a, b):
        sides.append((a, b))
        return eq(a, b)

    monkeypatch.setattr(Polynomial, "__eq__", spy)
    grids = {
        "generating_function": [{"n": n} for n in range(1, 11)],
        "split": [{"n": n, "m": m, "d": d} for n in range(1, 10) for m in range(1, 11 - n)
                  for d in range(n + m + 1)],
    }
    square = [{"n": n, "d": d} for n in range(1, 11) for d in range(1, n + 1)]
    for spec in ("q", "gf(2)", "gf(3)", "gf(4)", "gf(5)"):
        field = make_field(spec)
        for kind in IDENTITY_KINDS:
            for params in grids.get(kind, square):
                report = verify_identity(kind, params, field)
                lhs, rhs = sides[-1]
                diff = lhs - rhs
                assert report.holds == diff.is_zero
                assert report.discrepancy._terms == diff._terms
                assert report.discrepancy.nvars == diff.nvars
                sides.clear()


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
