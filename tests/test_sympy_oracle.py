"""Differential tests of the field and polynomial kernels against sympy.

sympy is an independent implementation, used here only as a test oracle:
Q and GF(p) arithmetic is compared with sympy's domains and sympy.Poly,
GF(p^k) arithmetic with sympy's galoistools reduced modulo the same
irreducible polynomial.  Inputs are small and drawn from fixed seeds.
"""

import random
from fractions import Fraction

import pytest

from esym.field import make_field
from esym.poly import Polynomial

sympy = pytest.importorskip("sympy")
from sympy.polys import galoistools as gt  # noqa: E402
from sympy.polys.domains import ZZ  # noqa: E402

NVARS = 3
XS = sympy.symbols(f"x1:{NVARS + 1}")
T = sympy.Symbol("t")
BASE_SPECS = ["q", "gf(2)", "gf(3)", "gf(7)"]
EXT_SPECS = ["gf(4)", "gf(8)", "gf(9)", "gf(25)", "gf(7^2;3,1,1)"]
ROUNDS = 25


def _random_raw(rng, field):
    if field.order is None:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return rng.randrange(field.order)


def _random_poly(rng, field):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        terms[tuple(rng.randint(0, 2) for _ in range(NVARS))] = _random_raw(rng, field)
    return Polynomial(field, terms, NVARS)


# -- GF(p^k) raws as galoistools polynomials in t ----------------------------

def _digits(raw, field):
    """Constant-first base-p digits: the documented GF(p^k) raw encoding."""
    return [raw // field.p**i % field.p for i in range(field.k)]


def _gf(raw, field):
    return gt.gf_strip(_digits(raw, field)[::-1])


def _gf_raw(poly_t, field):
    """Raw value of a galoistools polynomial in t, reduced mod the modulus."""
    reduced = gt.gf_rem(gt.gf_strip([int(c) % field.p for c in poly_t]),
                        list(field.modulus[::-1]), field.p, ZZ)
    return sum(int(c) * field.p**i for i, c in enumerate(reversed(reduced)))


# -- polynomials as sympy.Poly ---------------------------------------------------

def _pad(mono):
    return tuple(mono) + (0,) * (NVARS - len(mono))


def _ours(poly):
    return {_pad(m): c.raw for m, c in poly.terms()}


def _to_sympy(poly):
    F = poly.field
    if F.order is None:
        data = {_pad(m): sympy.Rational(c.raw.numerator, c.raw.denominator)
                for m, c in poly.terms()}
        return sympy.Poly.from_dict(data, XS, domain="QQ")
    if F.k == 1:
        return sympy.Poly.from_dict(_ours(poly), XS, modulus=F.p)
    data = {}
    for m, c in poly.terms():
        for e, digit in enumerate(_digits(c.raw, F)):
            if digit:
                data[(e,) + _pad(m)] = digit
    return sympy.Poly.from_dict(data, (T,) + XS, modulus=F.p)


def _from_sympy(sp, field):
    if field.order is None:
        return {m: Fraction(int(c.p), int(c.q)) for m, c in sp.as_dict().items()}
    if field.k == 1:
        return {m: int(c) % field.p for m, c in sp.as_dict().items()}
    by_mono = {}
    for (e, *m), c in sp.as_dict().items():
        by_mono.setdefault(tuple(m), {})[e] = int(c)
    out = {}
    for m, cs in by_mono.items():
        raw = _gf_raw([cs.get(e, 0) for e in range(max(cs), -1, -1)], field)
        if raw:
            out[m] = raw
    return out


# -- tests -------------------------------------------------------------------------

@pytest.mark.parametrize("spec", BASE_SPECS)
def test_base_field_elements_match_sympy(spec):
    field = make_field(spec)
    domain = sympy.QQ if field.order is None else sympy.GF(field.p)

    def back(x):
        if field.order is None:
            return Fraction(int(x.numerator), int(x.denominator))
        return int(x) % field.p

    rng = random.Random(f"elements {spec}")
    for _ in range(ROUNDS):
        ra, rb = _random_raw(rng, field), _random_raw(rng, field)
        a, b = field.element(ra), field.element(rb)
        if field.order is None:
            sa, sb = domain(ra.numerator, ra.denominator), domain(rb.numerator, rb.denominator)
        else:
            sa, sb = domain(ra), domain(rb)
        n = rng.randint(0, 6)
        assert (a + b).raw == back(sa + sb)
        assert (a - b).raw == back(sa - sb)
        assert (a * b).raw == back(sa * sb)
        assert (a**n).raw == back(sa**n)
        if not b.is_zero:
            assert (a / b).raw == back(sa / sb)


@pytest.mark.parametrize("spec", EXT_SPECS)
def test_extension_elements_match_galoistools(spec):
    field = make_field(spec)
    p, mod = field.p, list(field.modulus[::-1])
    rng = random.Random(f"elements {spec}")
    for _ in range(ROUNDS):
        a, b = field.element_at(rng.randrange(field.order)), field.element_at(rng.randrange(field.order))
        fa, fb = _gf(a.raw, field), _gf(b.raw, field)
        n = rng.randint(0, 30)
        assert (a + b).raw == _gf_raw(gt.gf_add(fa, fb, p, ZZ), field)
        assert (a - b).raw == _gf_raw(gt.gf_sub(fa, fb, p, ZZ), field)
        assert (a * b).raw == _gf_raw(gt.gf_mul(fa, fb, p, ZZ), field)
        assert (a**n).raw == _gf_raw(gt.gf_pow_mod(fa, n, mod, p, ZZ), field)
        if not a.is_zero:
            s, _, h = gt.gf_gcdex(fa, mod, p, ZZ)
            assert h == [1]
            assert a.inverse().raw == _gf_raw(s, field)


@pytest.mark.parametrize("spec", BASE_SPECS + EXT_SPECS)
def test_polynomial_ring_ops_match_sympy(spec):
    field = make_field(spec)
    rng = random.Random(f"polynomials {spec}")
    for _ in range(ROUNDS):
        f, g = _random_poly(rng, field), _random_poly(rng, field)
        sf, sg = _to_sympy(f), _to_sympy(g)
        e = rng.randint(0, 3)
        assert _ours(f + g) == _from_sympy(sf + sg, field)
        assert _ours(f - g) == _from_sympy(sf - sg, field)
        assert _ours(f * g) == _from_sympy(sf * sg, field)
        assert _ours(f**e) == _from_sympy(sf**e, field)
