"""Non-membership certificates from a partition-sum metapolynomial.

For a polynomial f in n = (p+1)*ell variables over characteristic p, sum
over all partitions of [n] into blocks of size p+1 the product of f's
multilinear coefficients on the blocks.  A nonzero sum certifies that f is
not a sum of k terms e_(p+1) of linear forms for any k with ell > k(p-1),
and the certificate survives border degenerations.  A zero sum certifies
nothing: the report says inconclusive, never member.

The sum is a dynamic program over subsets of the variables, one layer per
block.  A state maps the bitmask of the variables used so far to the sum
over its partial partitions; a layer extends each state by the blocks with
a nonzero coefficient that hold its lowest free index and avoid it, so every
partition is counted once.  Each state takes the fewer of the blocks
anchored there and the subsets of its free indices, and zero states are
dropped, so sparse inputs such as the block polynomial cost almost nothing.
TRIAL_CAP bounds the block trials and is checked before each layer's work.
partitions_evaluated reports the partitions covered, partition_count(n,
p+1), not a count of partitions visited.

The block polynomial x1..x(p+1) + x(p+2)..x(2p+2) + ... sits outside the
class this way; random members built from reducible products and (p+1)-th
powers give the null model that the sum vanishes on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .field import FieldElement, _is_prime, make_field
from .poly import _MASK, WIDTH, LinearForm, Polynomial
from .rng import SplitMix64
from .symmodel import ReduciblePolynomial

# an input with at most 10^7 partitions needs at most 2,873,052 block
# trials (dense coefficients of degree 6 in 18 variables)
TRIAL_CAP = 4_000_000
_VARIABLE_CAP = 24


class CertificateError(ValueError):
    """Raised when a guard or precondition fails."""


@dataclass(frozen=True)
class BlockPolynomialSpec:
    """Parameters (p, ell) of the canonical hard polynomial on (p+1)*ell
    variables, at most _VARIABLE_CAP of them."""

    p: int
    ell: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise CertificateError(f"p = {self.p} is not prime")
        if self.ell < 1:
            raise CertificateError("ell must be positive")
        if self.n > _VARIABLE_CAP:
            raise CertificateError(f"n = {self.n} exceeds the {_VARIABLE_CAP}-variable guard")

    @property
    def n(self) -> int:
        return (self.p + 1) * self.ell


def hard_poly(spec: BlockPolynomialSpec) -> Polynomial:
    """Sum of ell disjoint multilinear block monomials of degree p+1 over
    GF(p): x1..x(p+1) + x(p+2)..x(2p+2) + ..."""
    fld = make_field(spec.p)
    size = spec.p + 1
    blocks = [range(i * size + 1, (i + 1) * size + 1) for i in range(spec.ell)]
    return Polynomial.squarefree_sum(fld, blocks, spec.n)


def partition_count(n: int, block_size: int) -> int:
    """Number of partitions of [n] into blocks of the given size."""
    if n % block_size:
        raise CertificateError(f"{n} is not divisible by block size {block_size}")
    ell = n // block_size
    return math.factorial(n) // (math.factorial(block_size) ** ell * math.factorial(ell))


def partition_sum(f: Polynomial, p: int) -> FieldElement:
    """The metapolynomial: sum over all (p+1)-block partitions of [nvars]
    of the product of f's multilinear coefficients on the blocks."""
    if not _is_prime(p):
        raise CertificateError(f"p = {p} is not prime")
    if f.field.characteristic != p:
        raise CertificateError(
            f"f lives over {f.field} but the sum is taken in characteristic {p}")
    n = f.nvars
    size = p + 1
    partition_count(n, size)  # raises unless size divides n
    fld = f.field
    zero, add, mul = fld.zero_raw, fld.add_raw, fld.mul_raw
    coeffs = _block_table(f, size)
    anchored = [[] for _ in range(n)]     # blocks by their lowest index
    for block in coeffs:
        anchored[(block & -block).bit_length() - 1].append(block)
    states = {0: fld.one_raw}             # used variables -> partial sum
    trials = 0
    for layer in range(n // size):
        # the blocks that can extend a state: those anchored at its lowest
        # free index, or that index with any size - 1 of the others
        picks = math.comb(n - layer * size - 1, size - 1)
        trials += sum(min(picks, len(anchored[_lowest_free(m)])) for m in states)
        if trials > TRIAL_CAP:
            raise CertificateError(f"{trials} block trials exceed the cap of {TRIAL_CAP}")
        grown = {}
        for mask, value in states.items():
            low = _lowest_free(mask)
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


def _block_table(f: Polynomial, size: int) -> dict:
    """{block mask: raw coefficient} of f's squarefree terms of degree size,
    read off the packed keys: bit i-1 of the mask is x_i, whose exponent
    field starts at bit WIDTH*i of a key."""
    table = {}
    for key, raw in f._terms.items():
        rest = key >> WIDTH
        # degree size in size one-bits: every exponent is 0 or 1
        if key & _MASK == size and rest.bit_count() == size:
            block = 0
            while rest:
                low = rest & -rest
                block |= 1 << ((low.bit_length() - 1) // WIDTH)
                rest ^= low
            table[block] = raw
    return table


def _lowest_free(mask: int) -> int:
    """Index of the lowest zero bit of mask."""
    return ((mask + 1) & ~mask).bit_length() - 1


@dataclass
class CertificateReport:
    """Outcome of a non-membership check, re-checkable from its fields."""

    p: int
    ell: int
    n: int
    F_value: FieldElement
    nonmember_of_k_up_to: int
    border_valid: bool
    partitions_evaluated: int

    @property
    def verdict(self) -> str:
        # border_valid holds exactly when a nonempty range of k is ruled out
        return "nonmember" if self.border_valid else "inconclusive"

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "ell": self.ell,
            "n": self.n,
            "field": self.F_value.field.spec_string(),
            "F_value": str(self.F_value),
            "verdict": self.verdict,
            "nonmember_of_k_up_to": self.nonmember_of_k_up_to,
            "border_valid": self.border_valid,
            "partitions_evaluated": self.partitions_evaluated,
        }


def certify_nonmembership(f: Polynomial, p: int) -> CertificateReport:
    """Evaluate the partition sum on f and report what it proves.

    A nonzero value rules out sums of k symmetric terms, and their border
    limits, for every k up to ceil(ell/(p-1)) - 1.  A zero value is
    reported as inconclusive: the test is one-sided.  So is a polynomial
    in no variables, whose empty partition sums to 1: with ell = 0 the
    range k <= -1 is empty and nothing is proved.
    """
    value = partition_sum(f, p)
    n = f.nvars
    ell = n // (p + 1)
    proved = ell > 0 and not value.is_zero
    return CertificateReport(
        p=p, ell=ell, n=n, F_value=value,
        nonmember_of_k_up_to=-(-ell // (p - 1)) - 1 if proved else 0,
        border_valid=proved, partitions_evaluated=partition_count(n, p + 1))


def random_member(k: int, p: int, ell: int, seed: int) -> Polynomial:
    """Seed-deterministic element of the k-term class over GF(p):
    k random reducible products of degree p+1 plus up to three random
    (p+1)-th powers of linear forms, in n = (p+1)*ell variables."""
    if k < 0:
        raise CertificateError("k must be nonnegative")
    n = BlockPolynomialSpec(p, ell).n
    fld = make_field(p)
    rng = SplitMix64(seed)

    def random_homogeneous(d: int) -> Polynomial:
        terms = {}
        for combo in itertools.combinations_with_replacement(range(n), d):
            mono = [0] * n
            for v in combo:
                mono[v] += 1
            raw = rng.below(p)
            if raw:
                terms[tuple(mono)] = raw
        return Polynomial(fld, terms, n)

    total = Polynomial.zero(fld, n)
    for _ in range(k):
        d1 = 1 + rng.below(p)
        lo, hi = sorted((d1, p + 1 - d1))
        r = ReduciblePolynomial(random_homogeneous(lo), random_homogeneous(hi))
        total = total + r.product
    for _ in range(rng.below(4)):
        q = LinearForm(fld, [rng.below(p) for _ in range(n)])
        total = total + q ** (p + 1)
    return total
