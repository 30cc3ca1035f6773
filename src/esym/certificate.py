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

No block trial calls a field method.  Over GF(p) the DP adds the trials
inline as plain integer sums, and finish_terms reduces the layer mod p
once, at its end, dropping the states that sum to zero.  Over GF(p^k) a
state adds its blocks through the field's term kernel, addmul_terms, one
call per state with the state as the one-term operand and its row of
blocks as the other: over GF(2^k) a trial xors in one antilog read at the
state value's log plus the block's, and over odd GF(p^k) it adds by the
Zech logarithm table, as esp_raw does; finish_terms drops their zero
states at the layer's end too.  The call costs about a quarter more than
the inline sums on the GF(p) members, so GF(p) keeps them.

The block polynomial x1..x(p+1) + x(p+2)..x(2p+2) + ... sits outside the
class this way; random members built from reducible products and (p+1)-th
powers give the null model that the sum vanishes on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .field import FieldElement, PrimeField, _is_prime, make_field
from .poly import LinearForm, Polynomial, _multilinear_terms
from .rng import SplitMix64
from .symmodel import ReduciblePolynomial

# an input with at most 10^7 partitions needs at most 2,873,052 block
# trials (dense coefficients of degree 6 in 18 variables)
TRIAL_CAP = 4_000_000
_VARIABLE_CAP = 24
# fixed bound on random_member's bound on a member's term products; the
# members that reach it take up to about a second of CPU
MEMBER_WORK_CAP = 20_000_000


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
    # the blocks by their lowest index, each as {the block without it: raw}
    rests = [{} for _ in range(n)]
    for block, c in _multilinear_terms(f, size).items():
        anchor = block & -block
        rests[anchor.bit_length() - 1][block ^ anchor] = c
    states = {0: fld.one_raw}             # used variables -> partial sum
    addmul, finish = fld.addmul_terms, fld.finish_terms
    prime = isinstance(fld, PrimeField)
    bits = [1 << i for i in range(n)]
    trials = 0
    for layer in range(n // size):
        # the blocks that can extend a state: those anchored at its lowest
        # free index, or that index with any size - 1 of the others
        picks = math.comb(n - layer * size - 1, size - 1)
        lows = [((m + 1) & ~m).bit_length() - 1 for m in states]   # lowest free
        cost = [min(picks, len(rest)) for rest in rests]
        trials += sum(map(cost.__getitem__, lows))
        if trials > TRIAL_CAP:
            raise CertificateError(f"{trials} block trials exceed the cap of {TRIAL_CAP}")
        grown = {}
        get = grown.get
        for (mask, value), low in zip(states.items(), lows):
            rest = rests[low]
            if len(rest) <= picks:
                keys = [r for r in rest if not r & mask]
            else:
                free = [b for b in bits[low + 1:] if not b & mask]
                keys = filter(rest.__contains__, map(sum, itertools.combinations(free, size - 1)))
            base = mask | 1 << low
            if prime:                     # integer sums, reduced by finish
                for r in keys:
                    k = base + r
                    grown[k] = get(k, 0) + value * rest[r]
            else:
                addmul(grown, {base: value}, {r: rest[r] for r in keys})
        states = finish(grown)
    return FieldElement(fld, states.get((1 << n) - 1, fld.zero_raw))


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
    (p+1)-th powers of linear forms, in n = (p+1)*ell variables.  Each of
    the k products and the at most 2*bitlength(p+1) of each power multiplies
    dense forms of degrees adding to at most p+1: CertificateError before
    any draw if that many of the dearest such pair pass MEMBER_WORK_CAP."""
    if k < 0:
        raise CertificateError("k must be nonnegative")
    n = BlockPolynomialSpec(p, ell).n
    dense = [math.comb(n + d - 1, d) for d in range(p + 2)]   # terms of degree d
    work = (k + 6 * (p + 1).bit_length()) * max(dense[d] * dense[p + 1 - d]
                                                for d in range(1, p + 1))
    if work > MEMBER_WORK_CAP:
        raise CertificateError(f"random_member({k}, {p}, {ell}) may take {work} term "
                               f"products, past the cap of {MEMBER_WORK_CAP}")
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
