"""Field arithmetic: descriptors, raw operations, extensions, embeddings."""

import hashlib
import math
import re
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import esym.field
from esym.field import (
    MAX_ROOT_WORK,
    FieldElement,
    FieldError,
    QQ,
    _MODULUS_TABLE,
    _dot_terms,
    _is_prime,
    _uirreducible,
    embed,
    esp_sweep,
    lucas_binomial,
    make_field,
    roots_of_z_pow_d_plus_one,
)
from esym.poly import LinearForm, Polynomial, parse_polynomial
from esym.rng import SplitMix64
from esym.symmodel import SymRepresentation, append_linear_power

GF2 = make_field("gf(2)")
SMALL_SPECS = ["gf(2)", "gf(3)", "gf(5)", "gf(4)", "gf(8)", "gf(9)", "gf(16)", "gf(25)", "gf(27)"]


# -- construction -----------------------------------------------------------

def test_make_field_accepts_descriptor_int_and_string():
    f = make_field("gf(4)")
    assert make_field(f) is f
    assert make_field(4) == f
    assert make_field("gf(2^2)") == f


def test_rational_field():
    assert make_field("q") is QQ
    assert make_field("Q") is QQ
    assert QQ.characteristic == 0
    assert QQ.order is None


def test_prime_field_spec_variants():
    assert make_field("gf(7)") == make_field("GF(7)")
    assert make_field("gf(7^1)") == make_field("gf(7)")


@pytest.mark.parametrize("spec", ["gf(\u0665)", "gf(2^\u0663)", "gf(\uff17)"])
def test_spec_digits_are_ascii(spec):
    with pytest.raises(FieldError, match="^bad field spec"):
        make_field(spec)


def test_nonprime_base_rejected():
    with pytest.raises(FieldError):
        make_field("gf(6)")
    with pytest.raises(FieldError):
        make_field("gf(6^2)")
    with pytest.raises(FieldError):
        make_field(12)


def test_primality_matches_trial_division():
    for n in range(2000):
        assert _is_prime(n) == (n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))), n
    for n in (1000003, 2**31 - 1, 2**61 - 1):
        assert _is_prime(n)
    # strong pseudoprimes to every base up to 7, 23 and 37 respectively
    for n in (3215031751, 149491 * 747451 * 34233211, 399165290221 * 798330580441):
        assert not _is_prime(n)


def test_large_prime_field_builds_promptly():
    start = time.perf_counter()
    assert make_field("gf(2305843009213693951)").order == 2**61 - 1
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("n", [
    1000003 * (2**61 - 1),           # a semiprime below the exact Miller-Rabin bound
    (2**31 - 1) * (2**61 - 1),       # a semiprime above it
    3**60,                           # a prime power far past the extension cap
], ids=["semiprime-2e24", "semiprime-5e27", "3^60"])
def test_large_non_fields_are_refused_promptly(n):
    start = time.perf_counter()
    with pytest.raises(FieldError):
        make_field(f"gf({n})")
    assert time.perf_counter() - start < 5.0


def test_untabled_extension_needs_explicit_modulus():
    with pytest.raises(FieldError, match="no built-in modulus"):
        make_field("gf(2^8)")
    with pytest.raises(FieldError, match="no built-in modulus"):
        make_field("gf(7^3)")
    f = make_field("gf(7^2;3,1,1)")  # z^2 + z + 3, irreducible mod 7
    assert f.order == 49
    assert f is not make_field("gf(7^2)")  # the tabled modulus is t^2+6t+3


def test_reducible_modulus_rejected():
    with pytest.raises(FieldError):
        make_field("gf(2^2;1,0,1)")  # z^2 + 1 = (z+1)^2 mod 2


def test_descriptors_are_interned():
    # equality and hashing of descriptors are object identity
    assert make_field("gf(9)") is make_field("gf(3^2)")
    assert make_field("gf(4)") is make_field("gf(2^2;1,1,1)")
    assert make_field(5) is make_field("gf(5)")
    assert make_field("q") is QQ
    for spec in ("gf(2)", "gf(3)", "gf(4)", "gf(5)"):
        for d in range(1, 5):
            _, host = roots_of_z_pow_d_plus_one(make_field(spec), d)
            assert host is make_field(host.spec_string())
    assert len({make_field("gf(4)"), make_field("gf(2^2)"), make_field("gf(2)")}) == 2


def test_spec_string_round_trip():
    for spec in SMALL_SPECS + ["q"]:
        f = make_field(spec)
        assert make_field(f.spec_string()) == f


# -- field axioms, exhaustively on small orders -----------------------------

@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_field_axioms_exhaustive(spec):
    f = make_field(spec)
    elems = list(f.elements())
    assert len(elems) == f.order
    zero, one = f.zero, f.one
    for a in elems:
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        assert a * zero == zero
        if not a.is_zero:
            assert a * a.inverse() == one
            assert a ** (f.order - 1) == one
    for a, b in product(elems, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    # associativity and distributivity on a grid that still covers the field
    for a, b, c in product(elems[: min(5, len(elems))], repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_frobenius_is_additive(spec):
    f = make_field(spec)
    p = f.characteristic
    for a in f.elements():
        for b in f.elements():
            assert (a + b) ** p == a**p + b**p


def test_char2_extension_addition_is_xor():
    f = make_field("gf(16)")
    for a in range(16):
        for b in range(16):
            assert f.add_raw(a, b) == a ^ b


def _digit_add(f, a, b, sign=1):
    """a + sign*b on the base-p digits of the raw indices, one digit at a time."""
    p, out, mult = f.p, 0, 1
    for _ in range(f.k):
        out += ((a + sign * b) % p) * mult
        a //= p
        b //= p
        mult *= p
    return out


ODD_EXTENSIONS = sorted(f"gf({p}^{k})" for p, k in _MODULUS_TABLE if p != 2)


@pytest.mark.parametrize("spec", ODD_EXTENSIONS)
def test_zech_addition_matches_digit_addition(spec):
    f = make_field(spec)
    for a in range(f.order):
        assert f.neg_raw(a) == _digit_add(f, 0, a, -1)
        for b in range(f.order):
            assert f.add_raw(a, b) == _digit_add(f, a, b)


def test_zech_oracle_covers_the_named_fields():
    assert {"gf(3^2)", "gf(5^2)", "gf(3^3)", "gf(7^2)"} <= set(ODD_EXTENSIONS)


def test_tabled_moduli_are_irreducible_and_print_short():
    for (p, k), modulus in _MODULUS_TABLE.items():
        assert len(modulus) == k + 1 and modulus[-1] == 1
        assert _uirreducible(modulus, p)
        f = make_field(f"gf({p}^{k})")
        assert f.modulus == modulus and f.order == p**k
        assert str(f) == f"gf({p}^{k})"
        assert make_field(f"gf({p}^{k};{','.join(map(str, modulus))})") is f


def test_gf4_multiplication_table():
    # raw encoding: 0, 1, t, t+1; t^2 = t + 1
    f = make_field("gf(4)")
    t = f.element_at(2)
    one = f.one
    assert t * t == t + one
    assert t * (t + one) == one
    assert str(t) == "t"
    assert str(t + one) == "t+1"


def test_element_at_canonical_order():
    f = make_field("gf(9)")
    names = [str(f.element_at(i)) for i in range(9)]
    assert names == ["0", "1", "2", "t", "t+1", "t+2", "2*t", "2*t+1", "2*t+2"]
    assert [str(QQ.element_at(i)) for i in range(4)] == ["0", "1", "2", "3"]


def test_rational_elements_are_fractions():
    a = QQ.element(Fraction(3, 7))
    b = QQ.element(2)
    assert (a * b).raw == Fraction(6, 7)
    assert (a / b).raw == Fraction(3, 14)
    with pytest.raises(ZeroDivisionError):
        a / QQ.zero


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_prime_field_matches_int_mod_p(a, b, c):
    f = make_field("gf(5)")
    x, y = f.element(a), f.element(b)
    assert (x + y).raw == (a + b) % 5
    assert (x * y).raw == (a * b) % 5
    assert (x - y).raw == (a - b) % 5
    assert (x ** abs(c)).raw == pow(a, abs(c), 5)


# -- cross-kind guards ------------------------------------------------------

def test_mixed_field_arithmetic_rejected():
    a = make_field("gf(4)").one
    b = make_field("gf(2)").one
    with pytest.raises(FieldError):
        a + b


def test_foreign_elements_are_refused_with_one_message():
    # every scalar path checks the operand's field in coerce_raw
    gf4, gf2 = make_field("gf(4)"), make_field("gf(2)")
    a, b = gf4.element("t"), gf2.one
    message = r"^mixed fields: gf\(2\^2\) and gf\(2\)$"
    x1 = Polynomial.variable(gf4, 1)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b,
               lambda: a.__rsub__(b), lambda: a.__rtruediv__(b), lambda: gf4.element(b),
               lambda: gf4.scalar_raw(b), lambda: x1 + b, lambda: x1 - b, lambda: x1 == b):
        with pytest.raises(FieldError, match=message):
            op()


@pytest.mark.parametrize("spec", ["q", "gf(5)", "gf(9)", "gf(2^3)"])
def test_scalar_operands_act_as_their_element(spec):
    f = make_field(spec)
    values = list(f.elements())[:9] if f.order else [f.element(v) for v in (1, -2, "3/4")]
    for a in values:
        for c in (2, 7, f.element(2), values[-1]):
            e = f.element(c)
            assert a + c == c + a == a + e
            assert a - c == -(c - a) == a + (-e)
            assert a * c == c * a == a * e
            if e:
                assert a / c == a * e.inverse()
            if a:
                assert c / a == e * a.inverse()


def test_coercion_from_int():
    f = make_field("gf(3)")
    assert f.element(5) == f.element(2)
    assert f.one + 1 == f.element(2)
    assert 1 + f.one == f.element(2)


def test_digit_lists_are_not_elements():
    GF4 = make_field("gf(4)")
    for value in ([1, 1], (0, 1), [True, 1], [[1]]):
        with pytest.raises(FieldError, match="^cannot interpret"):
            GF4.element(value)


@pytest.mark.parametrize("p", [2, 5, 7, 11])
def test_reflected_operators_and_negative_powers_over_gf_p(p):
    f = make_field(p)
    for r in range(1, p):
        a, inv = f.element(r), pow(r, p - 2, p)
        assert (2 - a).raw == (2 - r) % p
        assert (2 / a).raw == 2 * inv % p
        assert (a ** -1).raw == inv and (a ** -3).raw == pow(inv, 3, p)
        assert a ** -5 * a ** 5 == f.one
    with pytest.raises(ZeroDivisionError):
        1 / f.zero
    with pytest.raises(ZeroDivisionError):
        f.zero ** -2
    with pytest.raises(TypeError):
        object() - f.one
    with pytest.raises(TypeError):
        object() / f.one


# -- embeddings -------------------------------------------------------------

@pytest.mark.parametrize("src,host", [("gf(2)", "gf(4)"), ("gf(2)", "gf(16)"),
                                      ("gf(4)", "gf(16)"), ("gf(3)", "gf(9)"),
                                      ("gf(5)", "gf(25)")])
def test_embed_is_a_ring_homomorphism(src, host):
    s, h = make_field(src), make_field(host)
    for a in s.elements():
        for b in s.elements():
            assert embed(a + b, h) == embed(a, h) + embed(b, h)
            assert embed(a * b, h) == embed(a, h) * embed(b, h)
    assert embed(s.one, h) == h.one
    images = {embed(a, h) for a in s.elements()}
    assert len(images) == s.order


def test_embed_rejects_non_subfield():
    with pytest.raises(FieldError):
        embed(make_field("gf(4)").one, make_field("gf(8)"))
    with pytest.raises(FieldError):
        embed(make_field("gf(2)").one, make_field("gf(3)"))
    with pytest.raises(FieldError):
        embed(QQ.one, make_field("gf(2)"))


# -- roots of z^d + 1 -------------------------------------------------------

@pytest.mark.parametrize("spec,d", [("gf(2)", 1), ("gf(2)", 2), ("gf(2)", 3),
                                    ("gf(4)", 3), ("gf(3)", 2), ("gf(3)", 4),
                                    ("gf(5)", 2), ("gf(5)", 6), ("gf(2)", 7)])
def test_roots_reassemble_z_pow_d_plus_one(spec, d):
    field = make_field(spec)
    roots, host = roots_of_z_pow_d_plus_one(field, d)
    assert len(roots) == d
    assert host.p == field.p
    # multiply out prod (z - r): coefficients low to high must be z^d + 1
    coeffs = [host.one]
    for r in roots:
        nxt = [host.zero] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * r
        coeffs = nxt
    expect = [host.zero] * (d + 1)
    expect[0], expect[d] = host.one, host.one
    assert coeffs == expect


@pytest.mark.parametrize("spec, d, distinct", [("gf(2)", 4096, 1), ("gf(4)", 3 << 10, 3),
                                               ("gf(3)", 2 * 3**7, 2)])
def test_roots_repeat_the_distinct_roots(spec, d, distinct):
    # d = p^a * d0: the d0 distinct roots are checked once and each repeats p^a times
    field = make_field(spec)
    roots, host = roots_of_z_pow_d_plus_one(field, d)
    assert len(roots) == d and len(set(roots)) == distinct
    assert all(r ** d == -host.one for r in roots)
    assert roots == [r for r in sorted(set(roots), key=lambda r: r.raw)
                     for _ in range(d // distinct)]


@pytest.mark.parametrize("listed", [[0, 2, 3], [3], [0, 2]],
                         ids=["extra-root", "missing-root", "swapped-root"])
def test_a_wrong_root_list_fails_the_product_check(monkeypatch, listed):
    # a listing that misreads which raws are roots of z^2 + 1 over gf(5),
    # whose roots are 2 and 3 (-1 is 4), fails the check
    gf5 = make_field("gf(5)")
    monkeypatch.setattr(esym.field, "_distinct_roots", lambda host, d0, N: listed)
    with pytest.raises(FieldError, match="root product check failed"):
        roots_of_z_pow_d_plus_one(gf5, 2)
    monkeypatch.undo()
    assert [r.raw for r in roots_of_z_pow_d_plus_one(gf5, 2)[0]] == [2, 3]


def _within_one_second(call):
    def ring(signum, frame):
        raise TimeoutError("the roots ran on past 1 s")

    old = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, 1)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_roots_list_no_host_elements_and_bound_their_work():
    # over GF(10^9 + 7) the roots of z + 1 come from one element of order 2,
    # not from a scan of 10^9 elements
    big = make_field(10**9 + 7)
    roots, host = _within_one_second(lambda: roots_of_z_pow_d_plus_one(big, 1))
    assert host is big and [r.raw for r in roots] == [10**9 + 6]
    # 2*166667 divides 1000002, so GF(1000003) hosts the roots, but d0^2 is
    # past the cap and is refused before the product check runs
    with pytest.raises(FieldError, match=rf"^z\^166667\+1 has 166667 roots over 166667 "
                                         rf"distinct ones: d \+ d0\^2 = 27778055556 exceeds "
                                         rf"the cap {MAX_ROOT_WORK}$"):
        _within_one_second(lambda: roots_of_z_pow_d_plus_one(make_field(1000003), 166667))
    # the largest d0 below the cap, over the least prime field hosting it,
    # answers in time; d = MAX_ROOT_WORK over gf(2) (d0 = 1) is past it
    d0 = max(n for n in range(1, 2048) if n * n + n <= MAX_ROOT_WORK)
    p = next(p for p in range(2 * d0 + 1, 10**6, 2 * d0) if _is_prime(p))
    roots, _ = _within_one_second(lambda: roots_of_z_pow_d_plus_one(make_field(p), d0))
    assert len(set(roots)) == d0 and all(r ** d0 == -r.field.one for r in roots)
    with pytest.raises(FieldError, match="exceeds the cap"):
        roots_of_z_pow_d_plus_one(GF2, MAX_ROOT_WORK)


def test_roots_refuse_two_to_the_forty_before_listing_them():
    # 2^40 roots of z^(2^40) + 1 over gf(2) would not fit in memory: a child
    # process with a 1 GB address space must refuse at once
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from esym.field import FieldError, make_field, roots_of_z_pow_d_plus_one\n"
        "try:\n"
        "    roots_of_z_pow_d_plus_one(make_field('gf(2)'), 2**40)\n"
        "except FieldError as exc:\n"
        "    print(exc)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (f"z^{2**40}+1 has {2**40} roots over 1 distinct ones: "
                           f"d + d0^2 = {2**40 + 1} exceeds the cap {MAX_ROOT_WORK}\n")


def test_roots_requires_positive_characteristic():
    with pytest.raises(FieldError):
        roots_of_z_pow_d_plus_one(QQ, 2)


ROOT_SPECS = ["gf(2)", "gf(3)", "gf(4)", "gf(5)", "gf(7)", "gf(8)", "gf(9)", "gf(11)", "gf(16)",
              "gf(25)", "gf(27)", "gf(3^2;2,2,1)", "gf(2^8;1,0,1,1,1,0,0,0,1)"]


def test_roots_and_hosts_match_the_pinned_digest():
    # SHA-256 of every (host, root raws), or "no host", for d = 1..24 over
    # ROOT_SPECS, computed with the earlier search that scanned each tabled
    # extension in turn
    h = hashlib.sha256()
    for spec in ROOT_SPECS:
        for d in range(1, 25):
            try:
                roots, host = roots_of_z_pow_d_plus_one(make_field(spec), d)
                item = (str(host), [r.raw for r in roots])
            except FieldError:
                item = "no host"
            h.update(repr((spec, d, item)).encode())
    assert h.hexdigest() == "6a389b363455cf1c8e6c8d530c9640230ad367a51180f216526aed46d57069cb"


@pytest.mark.parametrize("spec, d, needed", [
    ("gf(2)", 29, "gf(2^28)"), ("gf(4)", 23, "gf(2^22)"), ("gf(2)", 17, "gf(2^8)"),
    ("gf(3)", 7, "gf(3^6)"), ("gf(11)", 4, "gf(11^2)"),
])
def test_no_host_names_the_field_that_holds_the_roots(spec, d, needed):
    # the roots have order dividing N = d0 (p = 2) or 2*d0, and gf(p^j)
    # holds them exactly when N divides p^j - 1
    field = make_field(spec)
    with pytest.raises(FieldError, match=rf"requiring {re.escape(needed)}$"):
        roots_of_z_pow_d_plus_one(field, d)
    p, j = map(int, needed[3:-1].split("^"))
    n = d if p == 2 else 2 * d
    assert (p**j - 1) % n == 0 and j % field.k == 0
    assert all((p**i - 1) % n for i in range(field.k, j, field.k))


def test_extension_tables_match_the_pinned_digest():
    # SHA-256 of the antilog table of every tabled modulus and two given
    # ones, computed when products were reduced by precomputed rows for
    # t^k .. t^(2k-2) instead of the division that tests moduli
    h = hashlib.sha256()
    for spec in ([f"gf({p}^{k})" for p, k in sorted(_MODULUS_TABLE)]
                 + ["gf(3^2;2,2,1)", "gf(2^8;1,0,1,1,1,0,0,0,1)"]):
        h.update(repr((spec, make_field(spec)._exp)).encode())
    assert h.hexdigest() == "80e64635ab73a48b9caeeda3ce680b79595f07545bcda0414f2a5c55c3247753"


def _prime_factors(n):
    """Distinct prime factors of n, ascending, by trial division."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    return out + [n] if n > 1 else out


def order_test_tables(field):
    """(generator, exp, log, zech, exp2) by the earlier search: the first
    candidate g from 2 up with g^((q-1)/ell) != 1 for every prime ell
    dividing q - 1, each power by square-and-multiply on _mul_generic, then
    one walk of its powers."""
    q, mul = field.order, field._mul_generic

    def power(a, n):
        r = 1
        while n:
            if n & 1:
                r = mul(r, a)
            a = mul(a, a)
            n >>= 1
        return r

    group = q - 1
    gen = next(c for c in range(2, q)
               if all(power(c, group // ell) != 1 for ell in _prime_factors(group)))
    exp = [1] * group
    for i in range(1, group):
        exp[i] = mul(exp[i - 1], gen)
    log = [0] * q
    for i, v in enumerate(exp):
        log[v] = i
    p, zech, exp2 = field.p, None, None
    if p == 2:
        exp2 = exp + exp
    else:
        zech = []
        for x in exp:
            y = x + 1 if x % p != p - 1 else x + 1 - p
            zech.append(log[y] if y else -1)
    return gen, exp, log, zech, exp2


# t is not a generator of gf(3^2) (t^2 + 1: t^4 = 1) nor of the two given
# moduli that follow it; their generators are the raws 4, 3 and 6
ORACLE_SPECS = ([f"gf({p}^{k})" for p, k in sorted(_MODULUS_TABLE)]
                + ["gf(2^8;1,1,0,1,1,0,0,0,1)", "gf(5^4;1,0,2,2,1)",
                   "gf(2^8;1,0,1,1,1,0,0,0,1)", "gf(3^2;2,2,1)"])


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_the_power_walk_builds_the_order_tests_tables(spec):
    field = make_field(spec)
    gen, exp, log, zech, exp2 = order_test_tables(field)
    assert field._exp[1] == gen
    assert (field._exp, field._log, field._zech, field._exp2) == (exp, log, zech, exp2)


def test_the_oracle_moduli_include_ones_where_t_is_not_a_generator():
    gens = {spec: order_test_tables(make_field(spec))[0] for spec in ORACLE_SPECS}
    assert (gens["gf(3^2)"], gens["gf(2^8;1,1,0,1,1,0,0,0,1)"], gens["gf(5^4;1,0,2,2,1)"]) == (
        4, 3, 6)
    assert all(make_field(spec).element_at(gens[spec]) != make_field(spec).element("t")
               for spec in ("gf(3^2)", "gf(2^8;1,1,0,1,1,0,0,0,1)", "gf(5^4;1,0,2,2,1)"))


def test_a_host_past_the_size_cap_is_refused_at_once():
    # N = 10^9 + 7 is prime and 2 has order (N - 1)/2 mod N: stepping j up
    # to that order took more than 20 s; a host of the roots has more than
    # N elements, past the size cap, so no degree is stepped to
    def ring(signum, frame):
        raise TimeoutError("the host search ran on past the size cap")

    d = 10**9 + 7
    old = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, 1)
    try:
        with pytest.raises(FieldError, match=rf"^host too large: no available extension of "
                                             rf"gf\(2\) splits z\^{d}\+1; roots have "
                                             rf"multiplicative order {d}, requiring a field "
                                             rf"of more than {d} elements$"):
            roots_of_z_pow_d_plus_one(GF2, d)
        rep = SymRepresentation(GF2, d, [LinearForm(GF2, [1])])
        with pytest.raises(FieldError, match=rf"requiring a field of more than {d} elements$"):
            append_linear_power(rep, LinearForm(GF2, [1]))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    # below the cap the host is named: 2 generates the units mod the prime
    # 1048573, the most steps any N below the cap takes
    with pytest.raises(FieldError, match=r"requiring gf\(2\^1048572\)$"):
        roots_of_z_pow_d_plus_one(GF2, 1048573)


# -- Lucas binomials --------------------------------------------------------

@given(st.integers(0, 400), st.integers(0, 400), st.sampled_from([2, 3, 5, 7]))
def test_lucas_matches_comb(a, b, p):
    assert lucas_binomial(a, b, p) == math.comb(a, b) % p


def test_lucas_rejects_bad_input():
    with pytest.raises(ValueError):
        lucas_binomial(3, 1, 4)
    with pytest.raises(ValueError):
        lucas_binomial(-1, 0, 2)


# -- string round trips -----------------------------------------------------

@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_element_str_parse_round_trip(spec):
    f = make_field(spec)
    for a in f.elements():
        text = f.raw_to_str(a.raw)
        assert f.element(text) == a == f.element(f" ({text}) ")
        assert parse_polynomial(text, f) == parse_polynomial(f"({text})", f) == \
            Polynomial.constant(f, a)


@pytest.mark.parametrize("spec, text", [
    ("q", "3()"), ("q", "((3))"), ("q", "x1(x2"), ("q", ""), ("gf(5)", "3()"),
    ("gf(5)", "x1(x2"), ("gf(5)", "1/2"), ("gf(4)", "+"), ("gf(4)", "(+)"), ("gf(4)", "*t"),
    ("gf(4)", "+t"), ("gf(4)", "t+"), ("gf(4)", "2*"), ("gf(9)", "t+-1"), ("gf(9)", "--t"),
    ("gf(9)", "((t))"), ("gf(9)", "t^"),
])
def test_bad_literals_raise_one_field_error(spec, text):
    f = make_field(spec)
    with pytest.raises(FieldError, match=f"^{re.escape(f'bad element literal {text!r} for {f}')}$"):
        f.element(text)


@pytest.mark.parametrize("spec, text", [
    ("gf(5)", "1_0"), ("gf(5)", "\u0663"), ("gf(5)", "3.0"), ("gf(5)", "0x3"), ("q", "1e3"),
    ("q", "1.5"), ("q", "1_0/3"), ("q", "\u0663/2"), ("q", "1/-2"), ("q", "inf"),
    ("gf(4)", "\u0661"), ("gf(9)", "t^\u0661"),
])
def test_literals_outside_the_ascii_grammar_are_refused(spec, text):
    # int() and Fraction() read these; the grammar is -?[0-9]+ (and /[0-9]+ over Q)
    f = make_field(spec)
    with pytest.raises(FieldError, match="^bad element literal"):
        f.element(f"({text})")
    with pytest.raises(FieldError, match="^bad element literal"):
        parse_polynomial(f"{text}*x1", f)


def test_literals_inside_the_grammar_still_parse():
    assert make_field("gf(5)").element("-13") == make_field("gf(5)").element("( 2 )")
    assert QQ.element("-6/4") == QQ.element("(-3/2)")
    with pytest.raises(FieldError, match="^bad element literal"):
        make_field("gf(5)").element("+3")              # as in the GF(p^k) reader
    assert parse_polynomial("10*x1 - 007", QQ) == parse_polynomial("10*x1 + (-7)", QQ)


def test_literal_errors_keep_their_cause():
    with pytest.raises(FieldError, match="zero denominator"):
        QQ.element("(1/0)")
    with pytest.raises(FieldError, match=r"literal power t\^2 too large"):
        make_field("gf(9)").element("t^2")
    assert make_field("gf(9)").element("-t - 1") == make_field("gf(9)").element("2*t+2")


# -- the product kernel -------------------------------------------------------

KERNEL_SPECS = ["q", "gf(5)", "gf(1009)", "gf(4)", "gf(8)", "gf(2^8;1,0,1,1,1,0,0,0,1)", "gf(9)",
                "gf(27)"]


def oracle_mul_terms(F, a: dict, b: dict) -> dict:
    """The product of two term dicts by one add_raw and one mul_raw per
    pair of terms, keys adding; cancelled terms drop."""
    out = {}
    for ka, ra in a.items():
        for kb, rb in b.items():
            out[ka + kb] = F.add_raw(out.get(ka + kb, F.zero_raw), F.mul_raw(ra, rb))
    return {k: r for k, r in out.items() if r != F.zero_raw}


def random_raw(F, rng) -> object:
    """A nonzero raw value; over Q a fraction with a small mixed denominator."""
    if F.order is None:
        return Fraction(rng.below(19) - 9 or 1, 1 + rng.below(6))
    return 1 + rng.below(F.order - 1)


def random_terms(F, rng, size: int, keys: int) -> dict:
    return {rng.below(keys): random_raw(F, rng) for _ in range(size)}


@pytest.mark.parametrize("spec", KERNEL_SPECS)
def test_mul_terms_matches_the_generic_path(spec):
    # few distinct keys make outputs collide and cancel
    F = make_field(spec)
    rng = SplitMix64(88)
    for size in (1, 2, 5, 12, 30):
        for keys in (4, 50):
            a = random_terms(F, rng, size, keys)
            b = random_terms(F, rng, size + 3, keys)
            want = oracle_mul_terms(F, a, b)
            assert F.mul_terms(a, b) == want
            assert F.mul_terms(b, a) == want
            assert all(r != F.zero_raw for r in want.values())
    assert F.mul_terms({}, {1: F.one_raw}) == {}


@pytest.mark.parametrize("spec", KERNEL_SPECS)
def test_dot_terms_is_the_sum_of_the_products(spec):
    F = make_field(spec)
    rng = SplitMix64(89)
    for count in (0, 1, 2, 7):
        pairs = [(random_terms(F, rng, 1 + rng.below(6), 6),
                  random_terms(F, rng, 1 + rng.below(6), 6)) for _ in range(count)]
        want = {}
        for a, b in pairs:
            for k, r in oracle_mul_terms(F, a, b).items():
                want[k] = F.add_raw(want.get(k, F.zero_raw), r)
        assert _dot_terms(F, pairs) == {k: r for k, r in want.items() if r != F.zero_raw}


@pytest.mark.parametrize("spec", ["gf(4)", "gf(9)", "gf(5)"])
def test_an_accumulator_keeps_cancelled_terms_until_the_finish(spec):
    # x + (p-1)x accumulates to a zero raw over GF(p^k); used as an operand,
    # the zero has no log and must add nothing
    F = make_field(spec)
    a, one = {1: F.one_raw}, {0: F.one_raw}
    acc = {}
    for _ in range(F.p):
        F.addmul_terms(acc, a, one)
    assert F.finish_terms(acc) == {}
    out = {}
    F.addmul_terms(out, acc, {0: F.one_raw, 3: F.one_raw})
    F.addmul_terms(out, a, one)
    assert F.finish_terms(out) == {1: F.one_raw}


@pytest.mark.parametrize("spec", ["gf(5)", "gf(4)", "gf(8)", "gf(9)", "gf(25)", "gf(27)"])
def test_addmul_terms_adds_into_a_held_accumulator_as_the_generic_loop(spec):
    # seeded operands over few keys added into an accumulator that already
    # holds terms, zero raws among them, against one add_raw and one mul_raw
    # per product; the negated product then cancels every term it touched
    F = make_field(spec)
    rng = SplitMix64(93)
    for _ in range(40):
        held = {k: F.zero_raw if rng.below(3) == 0 else random_raw(F, rng)
                for k in range(rng.below(8))}
        a = random_terms(F, rng, 1 + rng.below(6), 5)
        b = random_terms(F, rng, 1 + rng.below(6), 5)
        want = dict(held)
        for ka, ra in a.items():
            for kb, rb in b.items():
                want[ka + kb] = F.add_raw(want.get(ka + kb, F.zero_raw), F.mul_raw(ra, rb))
        acc = F.addmul_terms(dict(held), a, b)
        assert F.finish_terms(acc) == F.finish_terms(want)
        F.addmul_terms(acc, {k: F.neg_raw(r) for k, r in a.items()}, b)
        assert F.finish_terms(acc) == F.finish_terms(held)


# -- the scalar sweep kernel ----------------------------------------------------

@pytest.mark.parametrize("spec", ["gf(2)", "gf(5)", "gf(1009)", "gf(4)", "gf(8)",
                                  "gf(2^8;1,0,1,1,1,0,0,0,1)", "gf(9)", "gf(25)", "gf(27)", "q"])
def test_esp_raw_matches_the_generic_sweep(spec):
    # seeded values with zeros among them, against esp_sweep on the raw ops;
    # dmax runs from 0 past the number of values, and the list may be empty
    F = make_field(spec)
    rng = SplitMix64(90)

    def oracle(values, dmax):
        return esp_sweep(values, dmax, F.zero_raw, F.one_raw, F.add_raw, F.mul_raw)

    for size in (0, 1, 2, 3, 6, 13):
        for _ in range(6):
            values = [F.zero_raw if rng.below(4) == 0 else random_raw(F, rng)
                      for _ in range(size)]
            for dmax in range(size + 3):
                assert F.esp_raw(values, dmax) == oracle(values, dmax), (values, dmax)
    assert F.esp_raw([], 0) == [F.one_raw]
    assert F.esp_raw([F.zero_raw] * 4, 2) == [F.one_raw, F.zero_raw, F.zero_raw]
    # every value of a small field at once: prod (1 + z*v) over nonzero v
    if F.order is not None and F.order <= 27:
        values = list(range(F.order))
        assert F.esp_raw(values, F.order) == oracle(values, F.order)


# -- the Horner kernel ------------------------------------------------------------

HORNER_SPECS = (["q", "gf(2)", "gf(5)", "gf(1009)"]
                + [f"gf({p}^{k})" for p, k in _MODULUS_TABLE]
                + ["gf(2^8;1,0,1,1,1,0,0,0,1)"])


@pytest.mark.parametrize("spec", HORNER_SPECS)
def test_horner_raw_matches_the_generic_loop(spec):
    # seeded coefficient lists with zeros among them (leading and trailing
    # too), at 0, 1 and seeded points, against Horner's rule on add_raw and
    # mul_raw; the list may be empty
    F = make_field(spec)
    rng = SplitMix64(91)

    def oracle(coeffs, x):
        acc = F.zero_raw
        for c in reversed(coeffs):
            acc = F.add_raw(F.mul_raw(acc, x), c)
        return acc

    for size in (0, 1, 2, 3, 7, 20):
        for _ in range(8):
            coeffs = [F.zero_raw if rng.below(3) == 0 else random_raw(F, rng)
                      for _ in range(size)]
            for x in (F.zero_raw, F.one_raw, random_raw(F, rng), random_raw(F, rng)):
                assert F.horner_raw(coeffs, x) == oracle(coeffs, x), (coeffs, x)
    assert F.horner_raw([], F.zero_raw) == F.horner_raw([], F.one_raw) == F.zero_raw
    assert F.horner_raw([F.zero_raw] * 5, random_raw(F, rng)) == F.zero_raw
