"""Partition-sum certificates: block partitions, hard polynomials, soundness."""

import hashlib
import itertools
import json
import math
import random
import signal

import pytest

from esym import certificate
from esym.certificate import (
    BlockPolynomialSpec,
    CertificateError,
    CertificateReport,
    certify_nonmembership,
    hard_poly,
    partition_count,
    partition_sum,
    random_member,
)
from esym.border import EpsSeries, approx_extract, esp_of_series
from esym.cli import main
from esym.field import FieldElement, make_field
from esym.poly import LinearForm, Polynomial, _multilinear_terms, parse_polynomial
from esym.rng import SplitMix64
from poly_oracles import multilinear_coefficients

GF2 = make_field("gf(2)")


# -- the enumeration oracle ------------------------------------------------------

def iter_block_partitions(indices, block_size: int):
    """All partitions of the index tuple into size-block_size blocks.

    Canonical order: each block is anchored at the smallest index not yet
    used, so every partition appears exactly once.
    """
    indices = tuple(indices)
    if block_size < 1:
        raise CertificateError("block size must be positive")
    if len(indices) % block_size:
        raise CertificateError(
            f"{len(indices)} indices do not split into blocks of {block_size}")
    if not indices:
        yield ()
        return
    first, rest = indices[0], indices[1:]
    for combo in itertools.combinations(rest, block_size - 1):
        block = (first, *combo)
        left = tuple(i for i in rest if i not in combo)
        for tail in iter_block_partitions(left, block_size):
            yield (block, *tail)


def enumerated_partition_sum(f, p):
    """The partition sum by walking every partition."""
    fld = f.field
    coeffs = multilinear_coefficients(f)
    total = fld.zero
    for partition in iter_block_partitions(range(1, f.nvars + 1), p + 1):
        prod = fld.one
        for block in partition:
            prod = prod * coeffs.get(block, fld.zero)
        total = total + prod
    return total


# -- partition combinatorics ---------------------------------------------------

@pytest.mark.parametrize("n,b", [(3, 3), (6, 3), (8, 4), (9, 3), (6, 2)])
def test_partition_count_formula(n, b):
    ell = n // b
    expect = math.factorial(n) // (math.factorial(b) ** ell * math.factorial(ell))
    assert partition_count(n, b) == expect


def test_iter_block_partitions_is_canonical_and_complete():
    indices = tuple(range(1, 7))
    parts = list(iter_block_partitions(indices, 3))
    assert len(parts) == partition_count(6, 3)
    seen = set()
    for part in parts:
        # blocks are disjoint, sorted, cover everything, anchored canonically
        flat = [i for block in part for i in block]
        assert sorted(flat) == list(indices)
        assert all(block == tuple(sorted(block)) for block in part)
        assert [b[0] for b in part] == sorted(b[0] for b in part)
        key = tuple(sorted(part))
        assert key not in seen
        seen.add(key)


def test_iter_block_partitions_rejects_indivisible():
    with pytest.raises(CertificateError):
        list(iter_block_partitions((1, 2, 3, 4), 3))


# -- hard polynomials ----------------------------------------------------------

def test_hard_poly_shapes():
    f = hard_poly(BlockPolynomialSpec(2, 2))
    assert f == parse_polynomial("x1*x2*x3 + x4*x5*x6", GF2)
    g = hard_poly(BlockPolynomialSpec(3, 2))
    assert g.nvars == 8 and g.term_count() == 2 and g.degree() == 4


def test_block_spec_validation():
    with pytest.raises(CertificateError):
        BlockPolynomialSpec(4, 2)
    with pytest.raises(CertificateError):
        BlockPolynomialSpec(2, 0)


# -- partition sums --------------------------------------------------------------

@pytest.mark.parametrize("p,ell,count", [(2, 2, 10), (2, 3, 280), (3, 2, 35)])
def test_hard_poly_partition_sum_is_one(p, ell, count):
    f = hard_poly(BlockPolynomialSpec(p, ell))
    assert partition_count(f.nvars, p + 1) == count
    assert partition_sum(f, p) == make_field(p).one


def test_partition_sum_requires_matching_characteristic():
    f = hard_poly(BlockPolynomialSpec(2, 2))
    with pytest.raises(CertificateError):
        partition_sum(f, 3)


def _two_anchor_blocks(n):
    """Every block of three through x1, and every one through x2 and not x1,
    in n variables over GF(2): dense at the first two anchors."""
    terms = {}
    for first in (0, 1):
        for rest in itertools.combinations(range(first + 1, n), 2):
            mono = [0] * n
            for i in (first, *rest):
                mono[i] = 1
            terms[tuple(mono)] = 1
    return Polynomial(GF2, terms, n)


def test_partition_sum_trial_cap_refuses_before_the_work(capsys, tmp_path):
    # the first layer takes the C(n-1, 2) blocks through x1; the second would
    # try C(n-4, 2) subsets for each of the C(n-2, 2) states that leave x2
    # free, past the cap, so the sum is refused after the first layer's
    # products and before any of the second's
    n = 69
    first = math.comb(n - 1, 2)
    assert first * 100 < certificate.TRIAL_CAP < math.comb(n - 2, 2) * math.comb(n - 4, 2)
    f = _two_anchor_blocks(n)
    products = []

    class Counted(int):
        """A block coefficient that counts the products taken with it."""

        def __mul__(self, other):
            products.append(other)
            return int(self) * other

        __rmul__ = __mul__

    counted = _two_anchor_blocks(n)
    counted._terms = {key: Counted(raw) for key, raw in counted._terms.items()}
    with pytest.raises(CertificateError, match=f"exceed the cap of {certificate.TRIAL_CAP}$"):
        partition_sum(counted, 2)
    assert len(products) == first

    poly_file = tmp_path / "dense.txt"
    poly_file.write_text(str(f))
    assert main(["certify", "--p", "2", "--poly", str(poly_file)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1
    assert out.err.startswith("error: ") and str(certificate.TRIAL_CAP) in out.err


def test_partition_sum_by_direct_enumeration():
    # independent route: sum over partitions of products of multilinear
    # coefficients, written out with itertools only
    f = hard_poly(BlockPolynomialSpec(2, 2)) + parse_polynomial(
        "x1*x4*x5 + x2*x3*x6", GF2)
    coeffs = multilinear_coefficients(f)
    partitions = {tuple(sorted((tuple(sorted(perm[:3])), tuple(sorted(perm[3:])))))
                  for perm in itertools.permutations(range(1, 7))}
    assert len(partitions) == 10
    total = GF2.zero
    for blocks in partitions:
        prod = GF2.one
        for block in blocks:
            prod = prod * coeffs.get(block, GF2.zero)
        total = total + prod
    assert total == partition_sum(f, 2)


# -- the subset DP against the enumeration ------------------------------------------

# every (p, ell) that random_member draws in well under a second and whose
# partition count is at most 2*10^5, with the seeds drawn for each k
MEMBER_SETTINGS = [(2, 1, 3), (2, 2, 3), (2, 3, 3), (2, 4, 1), (3, 1, 3), (3, 2, 3),
                   (3, 3, 1), (5, 1, 1), (5, 2, 1), (7, 1, 1)]


@pytest.mark.parametrize("p,ell,seeds", MEMBER_SETTINGS)
def test_dp_matches_enumeration_on_random_members(p, ell, seeds):
    assert partition_count((p + 1) * ell, p + 1) <= 2 * 10**5
    for k in range(3 if p > 3 else 4):
        for seed in range(seeds):
            f = random_member(k, p, ell, seed=seed)
            assert partition_sum(f, p) == enumerated_partition_sum(f, p)


def _random_polynomial(rng, field, n, block_size, density):
    """Blocks of the right size at the given density, plus multilinear
    terms of other sizes and non-multilinear terms, with random
    coefficients (zero included)."""
    terms = {}
    for block in itertools.combinations(range(n), block_size):
        if rng.random() < density:
            terms[tuple(1 if i in block else 0 for i in range(n))] = rng.randrange(field.order)
    for _ in range(rng.randrange(8)):
        size = rng.choice([s for s in range(min(n, 2 * block_size) + 1) if s != block_size])
        chosen = rng.sample(range(n), size)
        terms[tuple(1 if i in chosen else 0 for i in range(n))] = rng.randrange(field.order)
        if n:
            mono = [0] * n
            mono[rng.randrange(n)] = rng.randrange(2, 4)
            terms[tuple(mono)] = rng.randrange(field.order)
    return Polynomial(field, terms, n)


@pytest.mark.parametrize("spec,p", [("gf(2)", 2), ("gf(3)", 3), ("gf(5)", 5), ("gf(4)", 2),
                                    ("gf(8)", 2), ("gf(9)", 3)])
def test_dp_matches_enumeration_on_random_polynomials(spec, p):
    field = make_field(spec)
    rng = random.Random(f"{spec} {p}")
    for n in range(0, 13, p + 1):
        for density in (0.1, 0.5, 1.0):
            for _ in range(4 if n < 12 else 1):
                f = _random_polynomial(rng, field, n, p + 1, density)
                assert partition_sum(f, p) == enumerated_partition_sum(f, p)


@pytest.mark.parametrize("p,n", [(2, 12), (3, 12), (5, 12), (7, 16)])
def test_dp_matches_enumeration_on_dense_inputs(p, n):
    # every block present; (7, 16) stays under the trial cap only because a
    # state takes the fewer of its anchored blocks and its free subsets
    rng = random.Random(n)
    f = Polynomial(make_field(p), {
        tuple(1 if i in block else 0 for i in range(n)): rng.randrange(1, p)
        for block in itertools.combinations(range(n), p + 1)}, n)
    assert partition_sum(f, p) == enumerated_partition_sum(f, p)


def _multilinear_table(f, size):
    """The block table read through multilinear_coefficients' index tuples."""
    return {sum(1 << (i - 1) for i in key): c.raw
            for key, c in multilinear_coefficients(f).items() if len(key) == size}


def _mixed_polynomial(rng, field, n, size):
    """Blocks of the given size, degree-size terms with a repeated variable
    (x1^2*x2 for size 3), squarefree terms of other degrees and a term in
    x_n, with random coefficients (zero included), over a partition into
    consecutive blocks with nonzero coefficients."""
    terms = {}

    def put(exps, low=0):
        mono = [0] * n
        for i, e in exps.items():
            mono[i - 1] += e
        terms[tuple(mono)] = rng.randrange(low, field.order)

    put({1: 2, **{i: 1 for i in range(2, size)}})
    put({n: 1})
    for start in range(1, n + 1, size):
        put({i: 1 for i in range(start, start + size)}, low=1)
    for _ in range(12):
        put({i: 1 for i in rng.sample(range(1, n + 1), size)})
        repeated = rng.sample(range(1, n + 1), size - 1)
        put({**{i: 1 for i in repeated}, repeated[0]: 2})
        other = rng.choice([k for k in (0, 1, size - 1, size + 1) if k <= n])
        put({i: 1 for i in rng.sample(range(1, n + 1), other)})
    return Polynomial(field, terms, n)


@pytest.mark.parametrize("spec,p", [("gf(2)", 2), ("gf(3)", 3), ("gf(5)", 5), ("gf(4)", 2),
                                    ("gf(9)", 3)])
def test_block_table_reads_the_packed_keys(monkeypatch, spec, p):
    # the table read off packed keys is the one multilinear_coefficients
    # gives, and the partition sum does not change with the route
    field = make_field(spec)
    rng = random.Random(f"blocks {spec}")
    size = p + 1
    for n in sorted({size, 2 * size, 12 - 12 % size, 24 - 24 % size}):
        for _ in range(3):
            f = _mixed_polynomial(rng, field, n, size)
            assert _multilinear_terms(f, size) == _multilinear_table(f, size)
            value = partition_sum(f, p)
            if n <= 12:
                assert value == enumerated_partition_sum(f, p)
            with monkeypatch.context() as m:
                m.setattr(certificate, "_multilinear_terms", _multilinear_table)
                assert partition_sum(f, p) == value


# -- the generic DP oracle, past the enumeration's reach ----------------------------

def ref_partition_sum(f, p):
    """The partition sum by the subset DP on add_raw and mul_raw, one call
    of each per block trial and no cap: the DP before the per-kind inline
    arithmetic, reading its blocks through multilinear_coefficients."""
    fld, n, size = f.field, f.nvars, p + 1
    zero, add, mul = fld.zero_raw, fld.add_raw, fld.mul_raw
    coeffs = _multilinear_table(f, size)
    anchored = [[] for _ in range(n)]
    for block in coeffs:
        anchored[(block & -block).bit_length() - 1].append(block)
    states = {0: fld.one_raw}
    for layer in range(n // size):
        picks = math.comb(n - layer * size - 1, size - 1)
        grown = {}
        for mask, value in states.items():
            low = ((mask + 1) & ~mask).bit_length() - 1
            if len(anchored[low]) <= picks:
                blocks = [b for b in anchored[low] if not b & mask]
            else:
                free = [1 << i for i in range(low + 1, n) if not mask >> i & 1]
                subsets = ((1 << low) + sum(rest)
                           for rest in itertools.combinations(free, size - 1))
                blocks = [b for b in subsets if b in coeffs]
            for block in blocks:
                key = mask | block
                grown[key] = add(grown.get(key, zero), mul(value, coeffs[block]))
        states = {m: v for m, v in grown.items() if v != zero}
    return FieldElement(fld, states.get((1 << n) - 1, zero))


@pytest.mark.parametrize("k,p,ell", [(3, 2, 6), (1, 3, 4)])
def test_dp_matches_the_generic_dp_on_members(k, p, ell):
    # 1.9*10^8 and 2.6*10^6 partitions; a member's sum vanishes (ell >
    # k(p-1)), and with the block polynomial added it need not
    assert partition_count((p + 1) * ell, p + 1) > 2 * 10**6
    block = hard_poly(BlockPolynomialSpec(p, ell))
    values = []
    for seed in range(2):
        f = random_member(k, p, ell, seed)
        assert partition_sum(f, p) == ref_partition_sum(f, p) == make_field(p).zero
        values.append(partition_sum(f + block, p))
        assert values[-1] == ref_partition_sum(f + block, p)
    assert any(values)


@pytest.mark.parametrize("spec,p,n", [("gf(4)", 2, 15), ("gf(8)", 2, 15), ("gf(9)", 3, 16)])
def test_dp_matches_the_generic_dp_on_random_polynomials(spec, p, n):
    # sparse inputs take the anchored blocks, dense ones the free subsets
    field = make_field(spec)
    rng = random.Random(f"generic {spec}")
    values = []
    for density in (0.2, 0.2, 1.0):
        f = _random_polynomial(rng, field, n, p + 1, density)
        values.append(partition_sum(f, p))
        assert values[-1] == ref_partition_sum(f, p)
    assert any(values)


@pytest.mark.parametrize("spec,p", [("gf(3)", 3), ("gf(8)", 2), ("gf(9)", 3)])
def test_no_block_trial_calls_add_raw_or_mul_raw(monkeypatch, spec, p):
    field = make_field(spec)
    rng = random.Random(f"no calls {spec}")
    inputs = [_random_polynomial(rng, field, n, p + 1, density)
              for n in (2 * (p + 1), 3 * (p + 1)) for density in (0.3, 1.0)]
    want = [enumerated_partition_sum(f, p) for f in inputs]

    def forbidden(*args):
        raise AssertionError("a block trial called a field method")

    with monkeypatch.context() as m:
        m.setattr(type(field), "add_raw", forbidden)
        m.setattr(type(field), "mul_raw", forbidden)
        got = [partition_sum(f, p) for f in inputs]
    assert got == want
    assert any(want)


def test_trial_cap_counts_the_same_trials():
    # random_member(3, 2, 7, 1) takes 96, 7332, 132926, 636257, 974777,
    # 1010827 and 1010934 block trials by the end of its seven layers
    f = random_member(3, 2, 7, 1)
    for cap, trials in ((100_000, 132_926), (1_010_933, 1_010_934)):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(certificate, "TRIAL_CAP", cap)
            with pytest.raises(CertificateError,
                               match=f"^{trials} block trials exceed the cap of {cap}$"):
                partition_sum(f, 2)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(certificate, "TRIAL_CAP", 1_010_934)
        assert partition_sum(f, 2).is_zero


def test_empty_partition_sum_is_one():
    for p in (2, 3, 5):
        f = Polynomial.zero(make_field(p))
        assert partition_sum(f, p) == make_field(p).one == enumerated_partition_sum(f, p)
        assert certify_nonmembership(f, p).partitions_evaluated == 1


def test_block_polynomial_past_the_old_partition_cap(capsys):
    # 24 variables: 9.2*10^12 partitions, one nonzero state per layer
    f = hard_poly(BlockPolynomialSpec(2, 8))
    report = certify_nonmembership(f, 2)
    assert report.F_value == GF2.one and report.verdict == "nonmember"
    assert report.partitions_evaluated == partition_count(24, 3) > 9 * 10**12
    assert main(["certify", "--p", "2", "--ell", "8", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "F_value: 1\n" in out and "verdict: nonmember\n" in out
    assert f"partitions_evaluated: {partition_count(24, 3)}\n" in out


# -- certification reports -------------------------------------------------------

@pytest.mark.parametrize("p,ell,bound", [(2, 2, 1), (2, 3, 2), (3, 2, 0), (3, 3, 1)])
def test_nonmember_bound_is_ceil_ell_over_p_minus_1_less_1(p, ell, bound):
    f = hard_poly(BlockPolynomialSpec(p, ell))
    report = certify_nonmembership(f, p)
    assert report.verdict == "nonmember"
    assert report.nonmember_of_k_up_to == bound
    assert report.border_valid
    assert report.F_value == make_field(p).one
    data = report.to_json()
    assert data["verdict"] == "nonmember"


def test_inconclusive_when_sum_vanishes():
    f = random_member(1, 2, 2, seed=5)
    report = certify_nonmembership(f, 2)
    assert report.verdict == "inconclusive"
    assert report.nonmember_of_k_up_to == 0
    assert not report.border_valid


@pytest.mark.parametrize("p,text", [(2, "0"), (2, "1"), (3, "1"), (5, "3")])
def test_polynomial_in_no_variables_proves_nothing(p, text):
    # the empty partition sums to 1, but with ell = 0 the range k <= -1 is empty
    report = certify_nonmembership(parse_polynomial(text, make_field(p)), p)
    assert (report.ell, report.F_value) == (0, make_field(p).one)
    assert report.verdict == "inconclusive"
    assert report.nonmember_of_k_up_to == 0
    assert not report.border_valid


def test_certify_cli_calls_a_constant_inconclusive(capsys):
    assert main(["certify", "--p", "2", "--poly", "0"]) == 2
    body = json.loads(capsys.readouterr().out)
    assert (body["verdict"], body["nonmember_of_k_up_to"], body["border_valid"]) == (
        "inconclusive", 0, False)


# -- soundness -------------------------------------------------------------------

@pytest.mark.parametrize("p,ell,k", [(2, 2, 1), (2, 3, 1), (2, 3, 2), (3, 3, 1)])
def test_members_have_vanishing_partition_sum(p, ell, k):
    # these settings satisfy ell > k(p-1), so the sum must vanish
    assert ell > k * (p - 1)
    zero = make_field(p).zero
    for seed in range(12):
        f = random_member(k, p, ell, seed=seed)
        assert partition_sum(f, p) == zero


def test_setting_3_2_1_fails_its_own_qualifier():
    # ell > k(p-1) reads 2 > 2 here; the certificate is silent for members
    # of this class, and indeed the sum often does not vanish
    p, ell, k = 3, 2, 1
    assert not ell > k * (p - 1)
    nonzero = 0
    for seed in range(12):
        f = random_member(k, p, ell, seed=seed)
        if partition_sum(f, p) != make_field(p).zero:
            nonzero += 1
    assert nonzero > 0


def border_member(p, ell, k, seed, T=3):
    """A seeded member of the border of the k-term class over GF(p): the
    principal part of k/2 pairs e_(p+1)(L + eps*M) - e_(p+1)(L), with L and M
    lists of n random linear forms in n = (p+1)*ell variables, padded to n
    variables.  Each pair cancels at eps^0, so two terms give one
    eps-derivative."""
    fld, n = make_field(p), (p + 1) * ell
    rng = SplitMix64(seed)
    eps = EpsSeries.eps(fld, T)

    def forms():
        return [LinearForm(fld, [rng.below(p) for _ in range(n)]) for _ in range(n)]

    total = EpsSeries.zero(fld, T)
    for _ in range(k // 2):
        L, M = forms(), forms()
        total = total + (esp_of_series([a + eps * b for a, b in zip(L, M)], p + 1, fld, T)
                         - esp_of_series(L, p + 1, fld, T))
    w = approx_extract(total)
    assert w.order >= 1
    return w.principal + Polynomial.zero(fld, n)


@pytest.mark.parametrize("p,ell,k", [(2, 3, 2), (2, 4, 2), (2, 5, 4)])
def test_border_members_have_vanishing_partition_sum(p, ell, k):
    # the certificate survives border degenerations: ell > k(p-1) here
    assert ell > k * (p - 1)
    for seed in range(5):
        f = border_member(p, ell, k, seed)
        assert f and f.nvars == (p + 1) * ell
        assert partition_sum(f, p).is_zero


def test_border_members_past_the_bound_can_have_a_nonzero_sum():
    # (3, 3, 2) has k(p-1) = 4 > ell = 3, where the certificate promises nothing
    p, ell, k = 3, 3, 2
    assert not ell > k * (p - 1)
    assert any(not partition_sum(border_member(p, ell, k, seed), p).is_zero for seed in range(5))


def test_random_member_is_deterministic():
    a = random_member(2, 2, 3, seed=42)
    b = random_member(2, 2, 3, seed=42)
    c = random_member(2, 2, 3, seed=43)
    assert a == b
    assert a != c


def test_random_member_variable_budget():
    f = random_member(1, 2, 2, seed=0)
    assert f.nvars <= 6
    with pytest.raises(CertificateError):
        random_member(1, 2, 9, seed=0)  # 27 variables exceed the cap


# every (k, p, ell) that these tests, the acceptance tests and the
# benchmark's MEMBERS draw
MEMBERS_IN_USE = sorted({(k, p, ell) for p, ell, _ in MEMBER_SETTINGS
                         for k in range(3 if p > 3 else 4)}
                        | {(3, 2, 6), (1, 3, 4), (3, 2, 7), (1, 2, 4), (2, 2, 4), (3, 2, 4),
                           (1, 3, 3), (1, 2, 2), (2, 2, 3), (1, 2, 3), (1, 3, 2)})


def test_random_member_admits_every_setting_in_use_with_the_same_draws():
    # SHA-256 of the members at seeds 0 and 1, computed before the work
    # bound was added
    h = hashlib.sha256()
    for k, p, ell in MEMBERS_IN_USE:
        for seed in (0, 1):
            f = random_member(k, p, ell, seed)
            h.update(repr((k, p, ell, seed, sorted(f._terms.items()))).encode())
    assert len(MEMBERS_IN_USE) == 40
    assert h.hexdigest() == "e4d4274308f3017818b0241adc006076fff26e05aab3c8f852d63c250f6f481e"


def test_random_member_refuses_past_its_work_bound_before_any_draw(monkeypatch):
    # n = 24 is inside the variable cap, but the dense degree-6 draws in
    # 24 variables ran past 20 s of CPU before the bound
    def ring(signum, frame):
        raise TimeoutError("random_member drew past its work bound")

    def no_draws(seed):
        raise AssertionError("random_member seeded a generator")

    monkeypatch.setattr(certificate, "SplitMix64", no_draws)
    old = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, 1)
    try:
        for k, p, ell in ((1, 11, 2), (1, 7, 2), (10**7, 2, 1)):
            with pytest.raises(CertificateError, match=rf"^random_member\({k}, {p}, {ell}\) may "
                                                       r"take \d+ term products, past the cap "
                                                       r"of 20000000$"):
                random_member(k, p, ell, seed=0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
