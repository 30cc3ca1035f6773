"""Order-2 zero spaces of e_d: enumeration, witnesses, dimension proxies."""

from fractions import Fraction
from itertools import product

import pytest

from esym.field import lucas_binomial, make_field
from esym.poly import parse_polynomial
from esym.symfunc import gen_esp
from esym.v2space import (
    V2Error,
    dimension_estimate,
    enumerate_v2,
    in_s_k,
    is_order2_zero,
    product_zero_containment,
    witness_family,
)

GF2 = make_field("gf(2)")
GF4 = make_field("gf(4)")


# -- membership test -------------------------------------------------------------

def test_is_order2_zero_on_known_points():
    # diagonals (a,...,a) give e_2 = C(5,2) a^2 = 10 a^2 and partials
    # 4a, all even, so every diagonal of e_2^5 lands in V_2 over GF(2)
    e5 = gen_esp(5, 2, GF2)
    assert is_order2_zero(e5, tuple(GF2.zero for _ in range(5)))
    assert is_order2_zero(e5, tuple(GF2.one for _ in range(5)))
    # with 3 variables C(3,2) = 3 is odd: the all-ones diagonal fails
    e3 = gen_esp(3, 2, GF2)
    assert is_order2_zero(e3, tuple(GF2.zero for _ in range(3)))
    assert not is_order2_zero(e3, tuple(GF2.one for _ in range(3)))
    assert not is_order2_zero(e3, (GF2.one, GF2.zero, GF2.zero))


def test_is_order2_zero_arity_check():
    e = gen_esp(3, 2, GF2)
    with pytest.raises(V2Error):
        is_order2_zero(e, (GF2.one,))


def test_in_s_k():
    a, b = GF4.element_at(1), GF4.element_at(2)
    assert in_s_k((a, a, a), 1)
    assert not in_s_k((a, b, a), 1)
    assert in_s_k((a, b, a), 2)


# -- enumeration: sweep route against the formal-partials route -------------------

# odd characteristic and extensions exercise the sign of the Horner
# identity d e_d / d x_i = sum_j (-x_i)^j e_(d-1-j); GF(4) cases are named
# by n-d alone
ENUMERATION_CASES = [("gf(4)", 3, 2), ("gf(4)", 4, 2), ("gf(4)", 4, 3), ("gf(4)", 5, 2),
                     ("gf(3)", 3, 1), ("gf(3)", 4, 2), ("gf(3)", 4, 4), ("gf(3)", 5, 3),
                     ("gf(3)", 5, 4), ("gf(5)", 3, 2), ("gf(5)", 4, 3), ("gf(5)", 4, 4),
                     ("gf(5)", 5, 3), ("gf(9)", 3, 1), ("gf(9)", 3, 3), ("gf(9)", 4, 2),
                     ("gf(9)", 4, 4)]


@pytest.mark.parametrize("spec,n,d", [
    pytest.param(spec, n, d, id=f"{n}-{d}" if spec == "gf(4)" else f"{spec}-{n}-{d}")
    for spec, n, d in ENUMERATION_CASES])
def test_enumerate_matches_pointwise_definition(spec, n, d):
    field = make_field(spec)
    e = gen_esp(n, d, field)
    expect = [pt for pt in product(list(field.elements()), repeat=n) if is_order2_zero(e, pt)]
    assert enumerate_v2(n, d, field).points == expect


def test_enumeration_point_cap():
    with pytest.raises(V2Error):
        enumerate_v2(30, 2, GF4, cap=2**10)


def test_diagonal_counts_grow_with_the_field():
    for k, expect in ((1, 2), (2, 4), (3, 8)):
        field = make_field(f"gf(2^{k})") if k > 1 else GF2
        assert enumerate_v2(5, 2, field).count == expect


def test_point_set_json():
    data = enumerate_v2(3, 2, GF2).to_json()
    assert data["count"] == len(data["points"])
    assert all(isinstance(c, str) for pt in data["points"] for c in pt)


# -- containment in S_{d-1} --------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 7))
def test_v2_points_have_few_distinct_coordinates_gf2(n):
    for d in range(2, n + 1):
        for pt in enumerate_v2(n, d, GF2).points:
            assert in_s_k(pt, d - 1)


# -- witness families ---------------------------------------------------------------

@pytest.mark.parametrize("p,d,n", [(2, 2, 5), (2, 3, 6), (3, 2, 4)])
def test_witness_family_minimal_n(p, d, n):
    fam = witness_family(p, d)
    assert fam.n == n
    assert fam.parameter_arity == d - 1
    assert all(lucas_binomial(a, i, p) == 0 for a, i in fam.required_binomials())


def test_witness_points_are_order2_zeros():
    fam = witness_family(2, 3)
    field = make_field("gf(8)")
    e = gen_esp(fam.n, fam.d, field)
    for raws in ((1, 2), (3, 7), (0, 5), (6, 6)):
        betas = [field.element_at(r) for r in raws]
        assert is_order2_zero(e, fam.point(betas, field))


def test_witness_point_shape():
    fam = witness_family(2, 3)  # n = 6, arity 2
    field = GF2
    pt = fam.point([field.one, field.zero], field)
    assert pt == (field.one,) + (field.zero,) * 5


def test_witness_family_rejects_bad_input():
    with pytest.raises(V2Error):
        witness_family(4, 2)
    fam = witness_family(2, 2)
    with pytest.raises(V2Error):
        fam.point([GF2.one, GF2.one], GF2)  # arity is 1
    with pytest.raises(V2Error):
        fam.point([make_field("gf(3)").one], make_field("gf(3)"))


# -- dimension estimates ---------------------------------------------------------------

def test_dimension_estimate_exact_slope():
    assert dimension_estimate([(1, 2), (2, 4), (3, 8)], 2) == Fraction(1)
    assert dimension_estimate([(1, 9), (2, 81)], 3) == Fraction(2)


def test_dimension_estimate_degenerate_cases():
    assert dimension_estimate([(1, 0), (2, 0)], 2) is None
    with pytest.raises(V2Error):
        dimension_estimate([(1, 4), (2, 0)], 2)


def test_dimension_estimate_from_enumeration():
    counts = []
    for k in (1, 2, 3):
        field = make_field(f"gf(2^{k})") if k > 1 else GF2
        counts.append((k, enumerate_v2(5, 2, field).count))
    assert dimension_estimate(counts, 2) == Fraction(1)


# -- products ---------------------------------------------------------------------------

def test_product_zero_containment_exhaustive():
    f = parse_polynomial("x1*x2", GF2)
    g = parse_polynomial("x2*x3", GF2)
    assert product_zero_containment([(f, g)], trials=10, seed=1)


def test_product_zero_containment_rejects_constants():
    f = parse_polynomial("x1 + 1", GF2)
    with pytest.raises(V2Error):
        product_zero_containment([(f, f)], trials=5, seed=0)
