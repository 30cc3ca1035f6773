"""Order-2 zero spaces of e_d: enumeration, witnesses, dimension proxies."""

from fractions import Fraction
from itertools import combinations, product

import pytest

from esym import v2space
from esym.field import FieldElement, FieldError, esp_sweep, lucas_binomial, make_field
from esym.poly import MAX_VARIABLE_INDEX, Polynomial, parse_polynomial
from esym.rng import SplitMix64
from esym.symfunc import gen_esp
from esym.v2space import (
    V2Error,
    WitnessFamily,
    count_v2,
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


# -- membership test: the e_d route against the formal-derivative route ----------------

def formal_order2(f, point):
    """The definition: f and its nvars formal partial derivatives vanish at
    the point.  The oracle for is_order2_zero's e_d route, raising what the
    formal route raises."""
    pt = tuple(f.field.element(c) if not isinstance(c, FieldElement) else c
               for c in point)
    if len(pt) != f.nvars:
        raise V2Error(f"point has {len(pt)} coordinates, f has {f.nvars} variables")
    if not f.evaluate(pt).is_zero:
        return False
    return all(f.partial_derivative(i).evaluate(pt).is_zero
               for i in range(1, f.nvars + 1))


def _outcome(test, f, pt):
    """The answer, or the type and message of what the test raised."""
    try:
        return test(f, pt)
    except Exception as exc:
        return type(exc), str(exc)


def _low_rank_points(F, n, rng, count):
    """count seeded points of F^n with at most 3 distinct coordinates, so
    that many land in V2; Q draws from -2..2 and the halves between."""
    for _ in range(count):
        if F.order:
            values = [F.element_at(rng.below(F.order)) for _ in range(1 + rng.below(3))]
        else:
            values = [F.element(Fraction(rng.below(5) - 2, 1 + rng.below(2)))
                      for _ in range(1 + rng.below(3))]
        yield tuple(values[rng.below(len(values))] for _ in range(n))


ORDER2_SPECS = ("gf(2)", "gf(3)", "gf(4)", "gf(5)", "gf(8)", "gf(9)", "gf(27)", "q")
POINT_EXTENSIONS = {"gf(2)": "gf(4)", "gf(3)": "gf(9)"}


@pytest.mark.parametrize("spec", ORDER2_SPECS)
def test_esp_route_matches_the_formal_route(spec):
    F = make_field(spec)
    hosts = [F] + [make_field(POINT_EXTENSIONS[spec])] if spec in POINT_EXTENSIONS else [F]
    rng = SplitMix64(1300 + (F.order or 0))
    answers = []
    for n in range(8):
        for d in range(n + 1):
            e = gen_esp(n, d, F)
            assert v2space._esp_degree(e) == d
            for H in hosts:
                for pt in _low_rank_points(H, n, rng, 12):
                    expect = formal_order2(e, pt)
                    assert is_order2_zero(e, pt) == expect, (n, d, H, pt)
                    answers.append(expect)
    assert answers.count(True) >= 10 and answers.count(False) >= 10


def _lookalikes(n, d, F):
    """Polynomials one step from e_d^n that are not e_d in their nvars
    variables, with the coordinate count each takes."""
    e = gen_esp(n, d, F)
    mono = next(iter(e.terms()))[0]
    term = Polynomial(F, {mono: F.one_raw}, n)
    yield "minus-a-term", e - term, n
    if d:  # e_0 = 1 is e_0 in any number of variables, and 1^2 = 1
        yield "padded", e + Polynomial.zero(F, n + 1), n + 1
        yield "a-term-squared", e - term + term * term, n
    yield "plus-one", e + Polynomial.constant(F, 1), n
    if F.characteristic != 2:
        yield "twice", e * Polynomial.constant(F, 2), n


@pytest.mark.parametrize("spec", ["gf(2)", "gf(4)", "gf(5)", "gf(9)", "q"])
def test_lookalikes_take_the_formal_route(spec):
    F = make_field(spec)
    rng = SplitMix64(1400 + (F.order or 0))
    for n in range(1, 6):
        for d in range(n + 1):
            for name, g, width in _lookalikes(n, d, F):
                assert v2space._esp_degree(g) is None, (name, n, d)
                for pt in _low_rank_points(F, width, rng, 6):
                    assert is_order2_zero(g, pt) == formal_order2(g, pt), (name, n, d, pt)


def test_esp_route_raises_as_the_formal_route_does():
    GF3, GF5, GF8, Q = (make_field(s) for s in ("gf(3)", "gf(5)", "gf(8)", "q"))
    e2 = gen_esp(3, 2, GF2)
    cases = [
        (e2, (GF2.one,)),                                 # too few coordinates
        (e2, (GF2.one,) * 4),                             # too many
        (e2, (GF2.one, GF4.one, GF2.one)),                # mixed fields
        (e2, (GF2.one, "zz", GF2.one)),                   # a bad literal
        (gen_esp(3, 2, GF4), (GF2.one,) * 3),             # GF(4) is not in GF(2)
        (gen_esp(3, 2, GF4), (GF8.one,) * 3),             # nor in GF(8)
        (gen_esp(3, 2, GF3), (GF5.one,) * 3),             # characteristics differ
        (gen_esp(3, 2, Q), (GF2.zero,) * 3),
        (e2, (Q.zero,) * 3),
        (gen_esp(3, 0, GF4), (GF2.zero,) * 3),            # e_0 = 1 must lift too
    ]
    for e, pt in cases:
        expect = _outcome(formal_order2, e, pt)
        assert isinstance(expect, tuple), pt  # every case raises
        assert _outcome(is_order2_zero, e, pt) == expect


def test_esp_route_needs_no_formal_derivative(monkeypatch):
    e = gen_esp(12, 4, GF4)
    points = list(_low_rank_points(GF4, 12, SplitMix64(1312), 40))
    expect = [formal_order2(e, pt) for pt in points]
    assert True in expect and False in expect
    lookalikes = [e + Polynomial.constant(GF4, 1),
                  e * Polynomial.constant(GF4, GF4.element_at(2))]

    def forbidden(*args, **kwargs):
        raise AssertionError("the formal route ran")

    monkeypatch.setattr(Polynomial, "partial_derivative", forbidden)
    monkeypatch.setattr(Polynomial, "evaluate", forbidden)
    assert [is_order2_zero(e, pt) for pt in points] == expect
    for g in lookalikes:
        with pytest.raises(AssertionError, match="the formal route ran"):
            is_order2_zero(g, points[0])


def test_esp_is_recognized_once_per_polynomial(monkeypatch):
    e = gen_esp(6, 3, GF4)
    points = list(_low_rank_points(GF4, 6, SplitMix64(1500), 50))
    expect = [formal_order2(e, pt) for pt in points]
    assert True in expect and False in expect
    scans = []

    def counting(f):
        scans.append(f)
        return scan(f)

    scan = v2space._scan_esp
    monkeypatch.setattr(v2space, "_scan_esp", counting)
    assert [is_order2_zero(e, pt) for pt in points] == expect
    assert scans == [e]
    # another polynomial with the same terms is scanned on its own
    twin = parse_polynomial(str(e), GF4)
    assert [is_order2_zero(twin, pt) for pt in points] == expect
    assert scans == [e, twin]


@pytest.mark.parametrize("spec", ["gf(2)", "gf(4)", "gf(5)", "gf(9)"])
def test_a_near_esp_built_after_the_memo_takes_the_formal_route(spec):
    # e is recognized first; polynomials built from it afterwards, with one
    # coefficient changed or one term dropped, are fresh and are not e_d
    F = make_field(spec)
    rng = SplitMix64(1600 + F.order)
    for n, d in ((4, 2), (5, 3), (6, 4)):
        e = gen_esp(n, d, F)
        assert v2space._esp_degree(e) == d
        mono = next(iter(e.terms()))[0]
        term = Polynomial(F, {mono: F.one_raw}, n)
        nears = [e - term]
        if F.order > 2:   # that coefficient becomes the element of index 2
            nears.append(e - term + term * F.element_at(2))
        points = list(_low_rank_points(F, n, rng, 40))
        for g in nears:
            assert v2space._esp_degree(g) is None, (n, d, g)
            assert [is_order2_zero(g, pt) for pt in points] == [
                formal_order2(g, pt) for pt in points], (n, d, g)
        assert v2space._esp_degree(e) == d
        assert [is_order2_zero(e, pt) for pt in points] == [
            formal_order2(e, pt) for pt in points]


@pytest.mark.parametrize("spec", ["gf(2)", "gf(4)", "gf(5)", "q"])
def test_a_parsed_esp_is_recognized(spec):
    F = make_field(spec)
    rng = SplitMix64(1700 + (F.order or 0))
    for n, d in ((3, 2), (5, 2), (5, 3), (6, 4)):
        e = parse_polynomial(" + ".join("*".join(f"x{i}" for i in subset)
                                        for subset in combinations(range(1, n + 1), d)), F)
        assert e == gen_esp(n, d, F) and v2space._esp_degree(e) == d
        for pt in _low_rank_points(F, n, rng, 20):
            assert is_order2_zero(e, pt) == formal_order2(e, pt), (n, d, pt)


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
    expect = [pt for pt in product(list(field.elements()), repeat=n) if formal_order2(e, pt)]
    assert enumerate_v2(n, d, field).points == expect


def test_enumeration_point_cap(monkeypatch):
    # the listing bound counts coordinates held, points * n: V2(e_n^n) over
    # GF(2) has 2^n - n - 1 points, and at n = 17, 18 and 20 they hold more
    # than 2^20 coordinates, so they are refused before any point is built
    def forbidden(*args):
        raise AssertionError("the guarded work ran")

    with monkeypatch.context() as m:
        m.setattr(v2space, "_arrangements", forbidden)
        for n, total in ((17, 131054), (18, 262125), (20, 1048555)):
            msg = (f"^{total} points of {n} coordinates exceed the fixed bound "
                   f"of {v2space.LIST_CAP} listed coordinates$")
            with pytest.raises(V2Error, match=msg):
                enumerate_v2(n, n, GF2)
        # 13 trillion points over GF(4): the strata are walked, no point built
        with pytest.raises(V2Error, match="^13141572128839 points of 30 coordinates"):
            enumerate_v2(30, 4, GF4)
    # counting builds no points and answers past the listing bound
    assert count_v2(18, 18, GF2) == 262125
    assert count_v2(20, 20, GF2) == 1048555
    # the bound is inclusive: exactly LIST_CAP coordinates are listed
    with monkeypatch.context() as m:
        m.setattr(v2space, "LIST_CAP", 4083 * 12)
        assert enumerate_v2(12, 12, GF2).count == 4083
        m.setattr(v2space, "LIST_CAP", 4083 * 12 - 1)
        with pytest.raises(V2Error, match="^4083 points of 12 coordinates"):
            enumerate_v2(12, 12, GF2)
    # n = d = 16 just fits: 65,519 points, 1,048,304 coordinates
    assert enumerate_v2(16, 16, GF2).count == 65519


def test_enumeration_within_the_cap_beyond_q_pow_n():
    # 4^30 points, but the single stratum family r = 1 holds 4 strata and
    # only the zero diagonal survives: e_2 = C(30, 2) a^2 = 435 a^2
    pts = enumerate_v2(30, 2, GF4)
    assert pts.points == [(GF4.zero,) * 30]
    assert count_v2(30, 2, GF4) == 1


def test_sweep_bound_refuses_long_sweeps_before_the_work(monkeypatch):
    # the bound counts the walk by orbits: the zero stratum and the strata
    # holding 1, each n*d sweep steps plus (q-1)*r scalings.  2 strata of
    # 10^9 coordinates to degree 2, 2 of 4096 to degree 4096 and 2049 of
    # 2048 to degree 4 are each past it
    def forbidden(*args):
        raise AssertionError("the guarded work ran")

    # the strata walk sweeps on the field's kernel
    monkeypatch.setattr(type(GF2), "esp_raw", forbidden)
    for n, d, seen in ((10**9, 2, 2), (4096, 4096, 2), (2048, 4, 2049)):
        # the strata are summed only until they pass the bound
        msg = (f"^{seen} or more strata of {n} coordinates to degree {d} "
               f"exceed the fixed bound of {v2space.SWEEP_CAP} sweep and scaling steps$")
        with pytest.raises(V2Error, match=msg):
            enumerate_v2(n, d, GF2)
        with pytest.raises(V2Error, match=msg):
            count_v2(n, d, GF2)
    # e_1 has no order-2 zeros: nothing to sweep at any n
    assert count_v2(10**9, 1, GF2) == 0
    assert enumerate_v2(10**9, 1, GF2).points == []


def test_count_v2_rejects_bad_input():
    with pytest.raises(V2Error):
        count_v2(3, 2, make_field("q"))
    with pytest.raises(V2Error):
        count_v2(3, 4, GF2)
    with pytest.raises(V2Error):
        count_v2(3, 0, GF2)


# -- strata against a scan of every point ---------------------------------------------

def ref_enumerate_v2(n, d, F):
    """The odometer: every point of F^n, in lexicographic order, each tested
    by one e_j sweep and a Horner pass per distinct coordinate."""
    add, mul, neg, zero, one = F.add_raw, F.mul_raw, F.neg_raw, F.zero_raw, F.one_raw
    elems = list(F.elements())
    points = []
    for coords in product(range(F.order), repeat=n):
        e = esp_sweep(coords, d, zero, one, add, mul)
        if e[d] != zero:
            continue
        for x in set(coords):
            m, acc = neg(x), one  # Horner for sum_j (-x)^j e_(d-1-j)
            for j in range(1, d):
                acc = add(mul(acc, m), e[j])
            if acc != zero:
                break
        else:
            points.append(tuple(elems[c] for c in coords))
    return points


def _builtin_fields(qmax):
    for q in range(2, qmax + 1):
        try:
            yield make_field(q)
        except FieldError:
            pass  # not a prime power, or no tabled modulus


ORACLE_CASES = [(F, n) for F in _builtin_fields(27)
                for n in range(1, 13) if F.order**n <= 2**12]


@pytest.mark.parametrize("F,n", [pytest.param(F, n, id=f"{F}-{n}") for F, n in ORACLE_CASES])
def test_strata_match_the_odometer(F, n):
    for d in range(1, n + 1):
        expect = ref_enumerate_v2(n, d, F)
        # the bound the strata rest on: at most d-1 distinct coordinates
        assert all(in_s_k(pt, d - 1) for pt in expect)
        assert enumerate_v2(n, d, F).points == expect, (n, d)
        assert count_v2(n, d, F) == len(expect), (n, d)


def test_oracle_cases_cover_every_small_builtin_field():
    assert {F.order for F, _ in ORACLE_CASES} == {
        2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27}


# -- the walk by orbits against the full strata walk ----------------------------------

def ref_accepted_strata(n, d, F):
    """The full strata walk: every stratum of at most d-1 distinct values
    among all q, each tested once by one sweep and its Horner passes."""
    accepted = []
    for r in range(1, min(d - 1, F.order, n) + 1):
        for cuts in combinations(range(1, n), r - 1):
            mults = tuple(b - a for a, b in zip((0,) + cuts, cuts + (n,)))
            for values in combinations(range(F.order), r):
                if v2space._order2_vanishes(F, d, v2space._multiset(values, mults), values):
                    accepted.append((values, mults))
    return accepted


ORBIT_SPECS = ("gf(2)", "gf(3)", "gf(4)", "gf(5)", "gf(7)", "gf(8)", "gf(9)", "gf(16)",
               "gf(25)", "gf(27)")
# the enumerate workload's V2 grid of the benchmark
V2_GRID = (("gf(2)", 14, 2), ("gf(2)", 10, 4), ("gf(2)", 5, 2), ("gf(4)", 6, 3),
           ("gf(4)", 6, 1), ("gf(4)", 5, 2), ("gf(5)", 6, 3), ("gf(5)", 5, 5), ("gf(8)", 4, 3),
           ("gf(9)", 4, 3), ("gf(9)", 4, 4))


def _check_orbits(n, d, F):
    accepted = v2space._accepted_strata(n, d, F)
    expect = ref_accepted_strata(n, d, F)
    assert len(accepted) == len(set(accepted)), (n, d)   # each stratum once
    assert sorted(accepted) == sorted(expect), (n, d)
    return len(expect)


@pytest.mark.parametrize("spec", ORBIT_SPECS)
def test_orbits_give_the_strata_of_the_full_walk(spec):
    F = make_field(spec)
    found = 0
    for n in range(1, 8):
        for d in range(1, n + 1):
            if v2space._walk_cost(n, d, F.order, 2**19)[1] <= 2**19:   # the oracle's size
                found += _check_orbits(n, d, F)
    assert found


@pytest.mark.parametrize("spec,n,d", V2_GRID)
def test_orbits_give_the_strata_of_the_full_walk_on_the_bench_grid(spec, n, d):
    _check_orbits(n, d, make_field(spec))


def test_orbits_count_past_the_full_walk():
    # 2 + 441 + 41,013 strata, the zero stratum and those holding 1, take 9.1
    # million steps; the full walk tested 889,120 strata at 32 sweep steps
    # each, 28.5 million, past the bound
    F = make_field("gf(64)")
    assert v2space._walk_cost(8, 4, 64, v2space.SWEEP_CAP) == (41456, 9133741)
    assert count_v2(8, 4, F) == 111637
    # and the bound still refuses: GF(128) at n = 200, d = 3
    with pytest.raises(V2Error, match="^25275 or more strata of 200 coordinates"):
        count_v2(200, 3, make_field("gf(2^7)"))


@pytest.mark.parametrize("k", range(1, 7))
def test_count_v2_exhibits_both_tight_ends(k):
    # over GF(2^k), the witness family's n = 6 gives 6q^2 - 5q points for
    # e_3 (degree d-1 = 2 in q), and n = 5 gives 6q - 5 (degree d-2 = 1)
    q = 2**k
    F = make_field(f"gf(2^{k})") if k > 1 else GF2
    assert witness_family(2, 3).n == 6
    assert count_v2(6, 3, F) == 6 * q * q - 5 * q
    assert count_v2(5, 3, F) == 6 * q - 5


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


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_witness_family_matches_the_scan_over_every_n(p):
    # the least n >= d whose n - d + 1 is a power of p, at least d - 1, with
    # every required binomial vanishing, found by trying each n in turn
    for d in range(2, 40):
        n = d
        while True:
            r = n - d + 1
            while r % p == 0:
                r //= p
            if r == 1 and n - d + 1 >= d - 1:
                fam = WitnessFamily(p=p, d=d, n=n)
                if all(lucas_binomial(a, i, p) == 0 for a, i in fam.required_binomials()):
                    break
            n += 1
        assert witness_family(p, d) == fam


def test_witness_family_refuses_past_the_variable_bound_before_listing(monkeypatch):
    # d = 1023 fits at r = 1024; d = 1024 fails its binomials at r = 1024
    # and would need r = 2048; from d = 1026 on, r = 2048 is the first try
    assert witness_family(2, 1023).n == 2046

    def refused(d):
        return pytest.raises(V2Error, match=f"^the witness family for p = 2, d = {d} needs "
                                            f"more than {MAX_VARIABLE_INDEX} variables$")

    with refused(1024):
        witness_family(2, 1024)

    def listed(self):
        raise AssertionError("binomials listed")

    monkeypatch.setattr(v2space.WitnessFamily, "required_binomials", listed)
    for d in (1026, 2**64):
        with refused(d):
            witness_family(2, d)


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
    # V2(e_1) is empty, so no family has d < 2
    for d in (1, 0, -1):
        with pytest.raises(V2Error, match="needs d >= 2"):
            witness_family(2, d)
    fam = witness_family(2, 2)
    with pytest.raises(V2Error):
        fam.point([GF2.one, GF2.one], GF2)  # arity is 1
    with pytest.raises(V2Error):
        fam.point([make_field("gf(3)").one], make_field("gf(3)"))


# -- dimension estimates ---------------------------------------------------------------

def test_dimension_estimate_exact_slope():
    assert dimension_estimate([(1, 2), (2, 4), (3, 8)], 2) == Fraction(1)
    assert dimension_estimate([(1, 9), (2, 81)], 3) == Fraction(2)


def test_dimension_estimate_reads_other_counts_by_their_floor():
    # floor(log_3) of 5, 30, 100 is 1, 3, 4: slope (-1*1 + 0*3 + 1*4) / 2
    assert dimension_estimate([(1, 5), (2, 30), (3, 100)], 3) == Fraction(3, 2)
    # one below and at a power of 2: D = 2, then 3
    assert dimension_estimate([(1, 7), (2, 8)], 2) == Fraction(1)
    tower = [(1, 14), (2, 76), (3, 344), (4, 1456), (5, 5984), (6, 24256)]
    assert dimension_estimate(tower, 2) == Fraction(15, 7)


def test_dimension_estimate_degenerate_cases():
    assert dimension_estimate([(1, 0), (2, 0)], 2) is None
    with pytest.raises(V2Error):
        dimension_estimate([(1, 4), (2, 0)], 2)
    with pytest.raises(V2Error):
        dimension_estimate([(1, 4), (2, 16)], 1)


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


def test_product_zero_containment_samples_past_the_scan_bound(monkeypatch):
    # 2^17 points exceed SCAN_CAP = 2^16, so the points are drawn from the
    # seeded generator and the odometer is never reached
    def forbidden(*args, **kwargs):
        raise AssertionError("the exhaustive scan ran")

    f = parse_polynomial("x1*x17", GF2)
    g = parse_polynomial("x2*x17", GF2)
    seen = []

    def recording(total, pt):
        seen.append(tuple(c.raw for c in pt))
        return is_order2_zero(total, pt)

    monkeypatch.setattr(v2space, "product", forbidden)
    monkeypatch.setattr(v2space, "is_order2_zero", recording)
    runs = {}
    for seed in (1, 1, 2):
        seen.clear()
        assert product_zero_containment([(f, g)], trials=50, seed=seed)
        runs.setdefault(seed, []).append(list(seen))
    # only common zeros reach the order-2 test; each has 17 coordinates
    assert 0 < len(runs[1][0]) <= 50
    assert all(len(pt) == 17 and (pt[16] == 0 or pt[0] == pt[1] == 0)
               for pt in runs[1][0])
    # the same seed draws the same points; another seed draws others
    assert runs[1][0] == runs[1][1]
    assert runs[2][0] != runs[1][0]


def test_product_zero_containment_fails_on_a_rejected_common_zero(monkeypatch):
    f = parse_polynomial("x1*x2", GF2)
    g = parse_polynomial("x2*x3", GF2)
    checked = []

    def rejecting(total, pt):
        checked.append(pt)
        return False

    monkeypatch.setattr(v2space, "is_order2_zero", rejecting)
    assert product_zero_containment([(f, g)], trials=10, seed=1) is False
    # the scan stops at the first common zero, the origin
    assert [[c.raw for c in pt] for pt in checked] == [[0, 0, 0]]


def test_product_zero_containment_rejects_constants():
    f = parse_polynomial("x1 + 1", GF2)
    with pytest.raises(V2Error):
        product_zero_containment([(f, f)], trials=5, seed=0)
