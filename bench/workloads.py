"""The three seeded workloads.  Each builder makes one cycle of jobs.

A builder runs inside set-up: it calls make_field for every field the
workload uses and generates every input from the seed, so that jobs only
call the library.  Jobs look library functions up by attribute at call time
(esym.<name>, cli.main, Polynomial operators), so the tracer's wrappers are
seen when they are installed and skipped when they are not.

Costs are kept steady across seeds on purpose: the grids of fields and sizes
and the shapes of the formula trees are fixed, the seed draws the values
(coefficients, forms, points, tree leaves, member polynomials), and random
formulas are drawn in narrow size and formal-degree windows because peel
cost grows steeply with both.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import checks


@dataclass
class Job:
    kind: str                      # label for per-kind rows in the report
    run: Callable[[], object]      # the timed call into the library
    check: Callable[[object], None]  # raises checks.CheckFailed on a wrong answer


def _call(owner, name, *args):
    return lambda: getattr(owner, name)(*args)


def _cli(cli, argv):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        return code, out.getvalue()
    return run


def _cli_check(**expected):
    def check(answer):
        code, text = answer
        checks.check_cli((code, json.loads(text)), **expected)
    return check


def _elements(rng: random.Random, field, count: int) -> list[int]:
    """Raw values of random nonzero elements: indices for finite fields,
    small integers for the rationals.  Nonzero, so that forms are dense and
    their cost does not move with the seed."""
    if field.order is None:
        return [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(count)]
    return [rng.randrange(1, field.order) for _ in range(count)]


def _form(esym, field, raws):
    """LinearForm with the given raw coefficients (element indices for finite
    fields, integers for the rationals)."""
    if field.order is None:
        return esym.LinearForm(field, raws)
    return esym.LinearForm(field, [field.element_at(c) for c in raws])


def _random_quadratic(esym, rng: random.Random, field, n: int):
    """Seeded homogeneous quadratic in n variables with every term present
    (so that its cost does not move with the seed), and its own copy."""
    terms = {}
    for i in range(n):
        for j in range(i, n):
            mono = [0] * (j + 1)
            mono[i] += 1
            mono[j] += 1
            terms[tuple(mono)] = rng.randrange(1, field.order)
    return esym.Polynomial(field, terms), terms


# ---------------------------------------------------------------------------
# expand: Polynomial multiply/add with every field kind per coefficient

IDENTITY_FIELDS = ("q", "gf(5)", "gf(4)", "gf(9)")
IDENTITY_STRIDE = 16         # every 16th instance of the 4-field acceptance grid
                             # (a fixed subset: its cost does not depend on the seed)
ESP_SHAPES = ((8, 8, 4), (6, 6, 3))   # (forms, variables, dmax)
# the round trips cost about the same and hold the tail percentile, so that
# job_ms_tail is not the time of whichever single job has that rank
ROUND_TRIPS = 20
NEWTON = ((2, "gf(2)"), (3, "gf(3)"), (5, "gf(5)"))
NEWTON_REPS = 2


def acceptance_grid(kinds):
    """The identity instances of the acceptance suite, n + m <= 10."""
    for kind in kinds:
        if kind == "generating_function":
            for n in range(1, 11):
                yield kind, {"n": n}
        elif kind == "split":
            for n in range(1, 10):
                for m in range(1, 11 - n):
                    for d in range(n + m + 1):
                        yield kind, {"n": n, "m": m, "d": d}
        else:
            for n in range(1, 11):
                for d in range(1, n + 1):
                    yield kind, {"n": n, "d": d}


def build_expand(esym, seed: int) -> list[Job]:
    rng = random.Random(seed)
    cli = importlib.import_module("esym.cli")
    fields = {spec: esym.make_field(spec) for spec in IDENTITY_FIELDS}
    jobs = []

    grid = [(spec, kind, params) for spec in IDENTITY_FIELDS
            for kind, params in acceptance_grid(esym.IDENTITY_KINDS)]
    for spec, kind, params in grid[::IDENTITY_STRIDE]:
        jobs.append(Job("verify_identity",
                        _call(esym, "verify_identity", kind, params, fields[spec]),
                        checks.check_identity))

    for spec, field in fields.items():
        A = checks.arith_of(field)
        for m, n, dmax in ESP_SHAPES:
            rows = [_elements(rng, field, n) for _ in range(m)]
            forms = [_form(esym, field, row) for row in rows]
            own = [checks.linear(A, row) for row in rows]
            jobs.append(Job("esp_table_of_forms",
                            _call(esym, "esp_table_of_forms", forms, dmax),
                            lambda t, A=A, own=own: checks.check_esp_table(A, own, t)))

    for spec in ("gf(5)", "q"):
        field = fields[spec]
        e4, e3 = esym.gen_esp(12, 4, field), esym.gen_esp(12, 3, field)
        A = checks.arith_of(field)
        jobs.append(Job("e4_times_e3", lambda a=e4, b=e3: a * b,
                        lambda prod, A=A: checks.check_e4_e3(A, prod)))

    gf4 = fields["gf(4)"]
    A4 = checks.arith_of(gf4)
    quadratics = []
    for _ in range(ROUND_TRIPS):
        f, terms = _random_quadratic(esym, rng, gf4, 5)
        quadratics.append(f)
        jobs.append(Job("gf4_round_trip", lambda f=f: _round_trip(esym, f),
                        lambda ans, t=terms: checks.check_round_trip(A4, t, ans)))

    for p, spec in NEWTON:
        field = esym.make_field(spec)
        A = checks.arith_of(field)
        for _ in range(NEWTON_REPS):
            forms = [_form(esym, field, _elements(rng, field, 4)) for _ in range(6)]
            rep = esym.SymRepresentation.from_forms(forms, p + 1)
            jobs.append(Job("newton_decompose", _call(esym, "newton_decompose", rep),
                            lambda dec, A=A, forms=forms, p=p:
                            checks.check_newton(A, forms, p, dec)))

    jobs.append(Job("cli", _cli(cli, ["identities", "--all", "--max-n", "4",
                                      "--field", "gf(5)"]),
                    _cli_check(all_hold=True)))
    jobs.append(Job("cli", _cli(cli, ["sym", "build", "--field", "gf(4)",
                                      "--quadratic", str(quadratics[0])]),
                    _cli_check(verified=True)))
    jobs.append(Job("cli", _cli(cli, ["border", "demo", "--field", "gf(4)",
                                      "--target", str(quadratics[1])]),
                    _cli_check(principal_matches_target=True)))
    rng.shuffle(jobs)
    return jobs


def _round_trip(esym, f):
    """quadratic_to_sym -> kumar_fanin2 -> approx_extract -> depth3_to_sym."""
    rep = esym.quadratic_to_sym(f)
    _, _, combined = esym.kumar_fanin2(rep.forms, 2)
    witness = esym.approx_extract(combined)
    T = combined.truncation
    one = esym.EpsSeries.constant(rep.field, 1, T)
    factors = [one + esym.EpsSeries.from_polynomial(L.to_polynomial(), T).shift(1)
               for L in rep.forms]
    reps = esym.depth3_to_sym([(1, factors), (-1, [])], rep.target, T)
    return rep, witness, reps


# ---------------------------------------------------------------------------
# enumerate: raw field ops in tight loops over q^n points

V2_GRID = (  # (field, n, d); closed forms cover d = 1, d = n and e_2^5 (also via v2 dim)
    ("gf(2)", 14, 2), ("gf(2)", 10, 4), ("gf(2)", 5, 2),
    ("gf(4)", 6, 3), ("gf(4)", 6, 1), ("gf(4)", 5, 2),
    ("gf(5)", 6, 3), ("gf(5)", 5, 5),
    ("gf(8)", 4, 3),
    ("gf(9)", 4, 3), ("gf(9)", 4, 4),
)
WITNESS_FIELDS = {2: "gf(2^8;1,0,1,1,1,0,0,0,1)", 3: "gf(3^3)"}
WITNESS = ((2, 2), (2, 3), (3, 2))   # (p, d)
WITNESS_JOBS = 40
WITNESS_POINTS = 4                   # per family and job
HARD = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3))
MEMBERS = ((1, 2, 4), (2, 2, 4), (3, 2, 4), (1, 3, 3))   # (k, p, ell), ell > k(p-1)


def build_enumerate(esym, seed: int) -> list[Job]:
    rng = random.Random(seed)
    cli = importlib.import_module("esym.cli")
    jobs = []

    for spec, n, d in V2_GRID:
        field = esym.make_field(spec)
        A = checks.arith_of(field)
        sample = random.Random(rng.getrandbits(64))
        jobs.append(Job("enumerate_v2", _call(esym, "enumerate_v2", n, d, field),
                        lambda pts, A=A, n=n, d=d, s=sample:
                        checks.check_v2(A, n, d, pts, s)))

    families = []
    for p, d in WITNESS:
        field = esym.make_field(WITNESS_FIELDS[p])
        fam = esym.witness_family(p, d)
        e = esym.gen_esp(fam.n, d, field)
        points = [fam.point([field.element_at(b)
                             for b in _elements(rng, field, fam.parameter_arity)], field)
                  for _ in range(WITNESS_JOBS * WITNESS_POINTS)]
        families.append((checks.arith_of(field), d, e, points))
    for i in range(0, WITNESS_JOBS * WITNESS_POINTS, WITNESS_POINTS):
        # the same number of points of each family per job, so that every
        # such job costs the same; several points each, so that the job
        # holding job_ms_p50 is not so short that the previous job's
        # footprint in the caches decides its time
        batch = [(A, d, e, pt) for A, d, e, points in families
                 for pt in points[i:i + WITNESS_POINTS]]
        jobs.append(Job("is_order2_zero",
                        lambda b=batch: [esym.is_order2_zero(e, pt) for _, _, e, pt in b],
                        lambda oks, b=batch: [checks.check_witness(A, d, pt, ok)
                                              for (A, d, _, pt), ok in zip(b, oks)]))

    for p, ell in HARD:
        f = esym.hard_poly(esym.BlockPolynomialSpec(p, ell))
        jobs.append(Job("certify_hard", _call(esym, "certify_nonmembership", f, p),
                        lambda rep, p=p, ell=ell: checks.check_hard(p, ell, rep)))
    for k, p, ell in MEMBERS:
        esym.make_field(p)
        f = esym.random_member(k, p, ell, rng.getrandbits(32))
        jobs.append(Job("partition_sum_member", _call(esym, "partition_sum", f, p),
                        lambda v, k=k, p=p, ell=ell: checks.check_member(k, p, ell, v)))

    jobs.append(Job("cli", _cli(cli, ["certify", "--p", "2", "--ell", "4"]),
                    _cli_check(verdict="nonmember", F_value="1",
                               partitions_evaluated=checks.partitions(12, 3))))
    jobs.append(Job("cli", _cli(cli, ["v2", "dim", "--p", "2", "--n", "5", "--d", "2",
                                      "--kmax", "2"]),
                    _cli_check(counts=[[1, 2], [2, 4]])))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# formula: recursive tree walks over many tiny affine polynomials

# (components, size window, formal-degree window, d' values): larger trees
# are sums of independently drawn components.  The 120 small d' = 3 peels
# hold the median job, so that job_ms_p50 is a median over many trees.
PEEL_CLASSES = (
    (1, (10, 14), (5, 7), (4, 5, 6) * 4),
    (1, (10, 14), (5, 7), (3,) * 120),
    (2, (28, 32), (8, 10), (3,) * 6),
    (4, (28, 32), (8, 10), (4, 5, 6)),
)
PEEL_POINTS = 3
# the reference points 50 and 100, 8 and 10 (checked exactly), and twelve
# n = 24 jobs of equal cost that hold the tail percentile, so that
# job_ms_tail rests neither on seeded trees nor on any single job
BEN_OR_REFERENCE = (50, 100)
BEN_OR_NS = (8, 10) + (24,) * 12 + BEN_OR_REFERENCE
BEN_OR_POINTS = 2
NVARS = (6, 7, 8)
# Tree shapes come from this fixed stream and the seed draws the leaves
# (_relabel).  Peel cost follows the shape: with shapes drawn from the seed,
# the summed peel time of a cycle moved by about 10% between seeds.
SHAPE_SEED = 0x5EED


def _relabel(esym, phi, nvars: int, rng: random.Random):
    """phi with the same shape and leaf supports, and leaves drawn from rng:
    a permutation of the variables and a fresh nonzero value for every
    nonzero coefficient."""
    formula = importlib.import_module("esym.formula")
    field = phi.field
    perm = list(range(1, nvars + 1))
    rng.shuffle(perm)

    def nonzero():
        return field.element_at(rng.randrange(1, field.order))

    def rebuild(node):
        if isinstance(node, formula.Gate):
            return formula.Gate(node.op, rebuild(node.left), rebuild(node.right))
        label = esym.Polynomial.zero(field)
        for mono, _ in node.label.terms():
            term = (esym.Polynomial.variable(field, perm[mono.index(1)]) if any(mono)
                    else esym.Polynomial.constant(field, 1))
            label = label + term.scale(nonzero())
        return formula.Leaf(label)

    return esym.Formula(rebuild(phi.root), field)


def build_formula(esym, seed: int) -> list[Job]:
    rng = random.Random(seed)
    cli = importlib.import_module("esym.cli")
    f5 = esym.make_field("gf(5)")
    f1009 = esym.make_field("gf(1009)")
    esym.make_field("gf(11)")
    big = checks.extension(5, 4)   # peel identities are checked in GF(5^4)
    tree_rng = esym.SplitMix64(SHAPE_SEED)
    jobs = []

    def draw(size, fdeg):
        while True:
            nvars = NVARS[tree_rng.below(len(NVARS))]
            phi = esym.random_formula(tree_rng, f5, size[1] * 6 // 5 + 2, nvars)
            if (size[0] <= phi.size <= size[1]
                    and fdeg[0] <= phi.formal_degree() <= fdeg[1]):
                return _relabel(esym, phi, nvars, rng)

    first = None
    for components, size, fdeg, d_primes in PEEL_CLASSES:
        for d_prime in d_primes:
            phi = draw(size, fdeg)
            for _ in range(components - 1):
                phi = phi + draw(size, fdeg)
            first = first or phi
            points = [[rng.randrange(big.order) for _ in range(max(NVARS))]
                      for _ in range(PEEL_POINTS)]
            jobs.append(Job("peel_decompose", _call(esym, "peel_decompose", phi, d_prime),
                            lambda dec, phi=phi, d=d_prime, pts=points:
                            checks.check_peel(big, phi, d, dec, pts)))

    A = checks.GF(1009)
    for n in BEN_OR_NS:
        # d = n/2 at the reference points, where its cost would move most
        # with d; elsewhere a mid degree, where the cost barely moves with d
        d = n // 2 if n in BEN_OR_REFERENCE else n // 4 + rng.randrange(n // 2 + 1)
        points = [[rng.randrange(1009) for _ in range(n)] for _ in range(BEN_OR_POINTS)]
        exact = None
        if n <= 10:
            exact = lambda phi, n=n, d=d: phi.poly() == esym.gen_esp(n, d, f1009)
        jobs.append(Job("ben_or", _call(esym, "ben_or", n, d, f1009),
                        lambda phi, n=n, d=d, pts=points, ex=exact:
                        checks.check_ben_or(A, n, d, phi, pts, ex and (lambda: ex(phi)))))

    jobs.append(Job("cli", _cli(cli, ["formula", "peel", "--field", "gf(5)",
                                      "--formula", str(first), "--dprime", "3"]),
                    _cli_check(identity_holds=True)))
    jobs.append(Job("cli", _cli(cli, ["formula", "ben-or", "--field", "gf(11)",
                                      "--n", "6", "--d", "3"]),
                    _cli_check(computes_esp=True)))
    rng.shuffle(jobs)
    return jobs


BUILDERS = {"expand": build_expand, "enumerate": build_enumerate, "formula": build_formula}
WORKLOADS = tuple(BUILDERS)
