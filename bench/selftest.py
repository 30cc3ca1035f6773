#!/usr/bin/env python3
"""Self-test of the benchmark: every checker must flag a wrong answer.

    python3 bench/selftest.py

Each case builds a real answer with esym, perturbs it the way a bug would
(a nonzero partition sum for a member, a V2 point outside S_(d-1), a Ben-Or
formula with one coefficient perturbed, a dropped peel pair, ...) and
asserts that the checker raises CheckFailed, after asserting that the
unperturbed answer passes.  A job that raises and a job whose answer fails
its check must both be counted as failed.  Then a short smoke run of every
workload, untraced and traced, asserts that every metric named in
BENCHMARK.json is printed with its unit and that failed_frac is 0.
Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys
from pathlib import Path

import checks
import run
from workloads import WORKLOADS, Job, _round_trip

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def flags(label: str, good, bad) -> bool:
    """True when `good()` passes and `bad()` raises CheckFailed."""
    try:
        good()
    except checks.CheckFailed as exc:
        print(f"FAIL {label}: the correct answer was rejected: {exc}")
        return False
    try:
        bad()
    except checks.CheckFailed as exc:
        print(f"ok   {label}: {exc}")
        return True
    print(f"FAIL {label}: the wrong answer was accepted")
    return False


def _scale_first_leaf(esym, phi, factor: int):
    """phi with its leftmost leaf label multiplied by a constant."""
    from esym.formula import Gate, Leaf

    def rebuild(node):
        if isinstance(node, Leaf):
            return Leaf(node.label.scale(factor))
        return Gate(node.op, rebuild(node.left), node.right)

    return esym.Formula(rebuild(phi.root), phi.field)


def checker_cases(esym) -> list[bool]:
    rng = random.Random(7)
    results = []
    gf2, gf4, gf5 = (esym.make_field(s) for s in ("gf(2)", "gf(4)", "gf(5)"))
    A2, A4, A5 = checks.GF(2), checks.arith_of(gf4), checks.GF(5)

    # certificate: F = 1 on the block polynomial, F = 0 on members
    hard = esym.certify_nonmembership(esym.hard_poly(esym.BlockPolynomialSpec(2, 3)), 2)
    results.append(flags("hard_poly F != 1", lambda: checks.check_hard(2, 3, hard),
                         lambda: checks.check_hard(2, 3, dataclasses.replace(
                             hard, F_value=gf2.zero))))
    member = esym.random_member(1, 2, 4, 11)
    value = esym.partition_sum(member, 2)
    results.append(flags("nonzero partition sum on a member",
                         lambda: checks.check_member(1, 2, 4, value),
                         lambda: checks.check_member(1, 2, 4, gf2.one)))

    # v2space: containment in S_(d-1), closed forms, order-2 re-verification
    v2 = esym.enumerate_v2(5, 3, gf4)
    outside = dataclasses.replace(v2, points=v2.points + [
        tuple(gf4.element_at(i) for i in (0, 1, 2, 3, 0))])
    results.append(flags("V2 point outside S_(d-1)",
                         lambda: checks.check_v2(A4, 5, 3, v2, random.Random(1)),
                         lambda: checks.check_v2(A4, 5, 3, outside, random.Random(1))))
    inside = [pt for pt in ((a, a, a, b, b) for a in range(4) for b in range(4))
              if not checks.is_order2_zero(A4, pt, 3)][0]
    not_zero = dataclasses.replace(v2, points=v2.points + [
        tuple(gf4.element_at(i) for i in inside)])
    results.append(flags("V2 point in S_(d-1) that is not an order-2 zero",
                         lambda: None,
                         lambda: checks.check_v2(A4, 5, 3, not_zero, random.Random(1),
                                                 samples=10**6)))
    e25 = esym.enumerate_v2(5, 2, gf4)
    results.append(flags("|V2(e_2^5)| != 2^k",
                         lambda: checks.check_v2(A4, 5, 2, e25, random.Random(1)),
                         lambda: checks.check_v2(A4, 5, 2, dataclasses.replace(
                             e25, points=e25.points[1:]), random.Random(1))))

    fam = esym.witness_family(2, 2)
    e = esym.gen_esp(fam.n, 2, gf4)
    point = fam.point([gf4.element_at(2)], gf4)
    wrong = tuple(gf4.element_at(i) for i in (1, 2, 2, 2, 2))
    results.append(flags("witness point that is not an order-2 zero",
                         lambda: checks.check_witness(A4, 2, point, esym.is_order2_zero(e, point)),
                         lambda: checks.check_witness(A4, 2, wrong, True)))

    # formula: peel invariants and Ben-Or
    big = checks.extension(5, 4)
    pts = [[rng.randrange(big.order) for _ in range(8)] for _ in range(3)]
    tree_rng = esym.SplitMix64(3)
    while True:
        phi = esym.random_formula(tree_rng, gf5, 30, 6)
        dec = esym.peel_decompose(phi, 3)
        if dec.k >= 2:
            break
    dropped = dataclasses.replace(dec, pairs=dec.pairs[1:])
    results.append(flags("peel with a pair dropped",
                         lambda: checks.check_peel(big, phi, 3, dec, pts),
                         lambda: checks.check_peel(big, phi, 3, dropped, pts)))
    shifted = dataclasses.replace(dec, residual=_scale_first_leaf(esym, dec.residual, 2))
    results.append(flags("peel with a residual coefficient perturbed",
                         lambda: None, lambda: checks.check_peel(big, phi, 3, shifted, pts)))
    f, g = dec.pairs[0]
    constant = dataclasses.replace(dec, pairs=[(f + 1, g)] + dec.pairs[1:])
    results.append(flags("peel pair with a constant term",
                         lambda: None, lambda: checks.check_peel(big, phi, 3, constant, pts)))
    results.append(flags("peel residual of too high a degree",
                         lambda: None, lambda: checks.check_peel(
                             big, phi, 3, dataclasses.replace(dec, residual=phi, pairs=[]), pts)))

    f1009 = esym.make_field("gf(1009)")
    A = checks.GF(1009)
    bpts = [[rng.randrange(1009) for _ in range(40)] for _ in range(2)]
    bo = esym.ben_or(40, 7, f1009)
    results.append(flags("Ben-Or with one coefficient perturbed",
                         lambda: checks.check_ben_or(A, 40, 7, bo, bpts),
                         lambda: checks.check_ben_or(A, 40, 7, _scale_first_leaf(esym, bo, 2),
                                                     bpts)))
    small = esym.ben_or(8, 3, f1009)
    results.append(flags("Ben-Or for the wrong degree, exact comparison",
                         lambda: checks.check_ben_or(A, 8, 3, small, [pt[:8] for pt in bpts],
                                                     lambda: small.poly() == esym.gen_esp(
                                                         8, 3, f1009)),
                         lambda: checks.check_ben_or(A, 8, 3, small, [], lambda: small.poly()
                                                     == esym.gen_esp(8, 4, f1009))))

    # expand: identities, e_k tables, e4*e3, round trips, Newton
    report = esym.verify_identity("newton", {"n": 4, "d": 3}, gf5)
    results.append(flags("identity reported as failing",
                         lambda: checks.check_identity(report),
                         lambda: checks.check_identity(dataclasses.replace(
                             report, holds=False))))
    results.append(flags("identity with a nonzero discrepancy",
                         lambda: None,
                         lambda: checks.check_identity(dataclasses.replace(
                             report, discrepancy=esym.gen_esp(4, 2, gf5)))))

    rows = [[rng.randrange(4) for _ in range(5)] for _ in range(4)]
    forms = [esym.LinearForm(gf4, [gf4.element_at(c) for c in row]) for row in rows]
    own = [checks.linear(A4, row) for row in rows]
    table = esym.esp_table_of_forms(forms, 3)
    bad_table = table[:2] + [table[2] + esym.Polynomial.variable(gf4, 1) ** 2] + table[3:]
    results.append(flags("e_k table with one entry perturbed",
                         lambda: checks.check_esp_table(A4, own, table),
                         lambda: checks.check_esp_table(A4, own, bad_table)))

    e4e3 = esym.gen_esp(12, 4, gf5) * esym.gen_esp(12, 3, gf5)
    extra = esym.Polynomial.variable(gf5, 1) ** 7
    results.append(flags("e4*e3 with a stray term",
                         lambda: checks.check_e4_e3(A5, e4e3),
                         lambda: checks.check_e4_e3(A5, e4e3 + extra)))

    quad_terms = {(1, 1): 1, (0, 1, 1): 2, (2,): 3}
    quad = esym.Polynomial(gf4, quad_terms)
    rep = esym.quadratic_to_sym(quad)
    trip = _round_trip(esym, quad)
    results.append(flags("round trip extracted at the wrong order",
                         lambda: checks.check_round_trip(A4, quad_terms, trip),
                         lambda: checks.check_round_trip(A4, quad_terms, (
                             trip[0], dataclasses.replace(trip[1], order=3), trip[2]))))
    results.append(flags("gadget forms for another quadratic",
                         lambda: checks.check_quadratic_rep(A4, quad_terms, rep.forms),
                         lambda: checks.check_quadratic_rep(A4, quad_terms, rep.forms[3:])))

    nforms = [esym.LinearForm(gf2, [rng.randrange(2) for _ in range(4)]) for _ in range(6)]
    ndec = esym.newton_decompose(esym.SymRepresentation.from_forms(nforms, 3))
    results.append(flags("Newton split with a power term dropped",
                         lambda: checks.check_newton(A2, nforms, 2, ndec),
                         lambda: checks.check_newton(A2, nforms, 2, dataclasses.replace(
                             ndec, linear_power_terms=ndec.linear_power_terms[1:]))))

    results.append(flags("cli verdict false",
                         lambda: checks.check_cli((0, {"all_hold": True}), all_hold=True),
                         lambda: checks.check_cli((0, {"all_hold": False}), all_hold=True)))
    results.append(flags("cli nonzero exit code",
                         lambda: None,
                         lambda: checks.check_cli((1, {"all_hold": True}), all_hold=True)))
    return results


def tally_case() -> bool:
    """A raising job and a job with a wrong answer both count as failed,
    and their time still counts as timed work."""
    def boom():
        raise ValueError("injected")

    def reject(_):
        raise checks.CheckFailed("injected")

    tally = run.Tally()
    tally.run_cycle([Job("raises", boom, lambda _: None),
                     Job("wrong", lambda: 1, reject),
                     Job("right", lambda: 1, lambda _: None)])
    ok = (tally.attempted == 3 and len(tally.latencies) == 1 and len(tally.failures) == 2
          and tally.failed_jobs == {0, 1} and sorted(tally.runs) == [0, 1, 2])
    print(f"{'ok  ' if ok else 'FAIL'} failures are counted: {tally.failures}")
    return ok


def smoke() -> bool:
    """Every metric named in BENCHMARK.json is printed with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", "5", "--seconds", "0.1", "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=600, check=False)
            lines = proc.stdout.rstrip("\n").split("\n")
            result = json.loads(lines[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            table = "\n".join(lines[:-1])
            good = (proc.returncode == 0 and got == expected and result["correct"]
                    and result["failed"] == 0 and all(n in table for n in expected)
                    and (trace or "failed_frac" in table))
            print(f"{'ok  ' if good else 'FAIL'} smoke {workload} --trace {trace}: "
                  f"{len(got)} metrics, {result['attempted']} jobs, {result['failed']} failed")
            ok = ok and good
    return ok


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    esym = run.import_esym()
    results = checker_cases(esym) + [tally_case()]
    print(f"{sum(results)} of {len(results)} checker cases flagged their injected error")
    passed = all(results) and smoke()
    print("selftest passed" if passed else "selftest FAILED")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
