"""Command-line interface: every construction as a subcommand with
deterministic seeds and versioned JSON/text/CSV reports.

Exit codes: 0 success (including a positive certificate), 2 for an
inconclusive certificate, 1 for any error.

Arguments that accept a polynomial or representation take either a file
path or the literal text; paths win when the file exists.  JSON reports
carry schema_version and a timestamp; everything else about a report is a
pure function of the arguments, so golden comparisons strip the timestamp.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from datetime import datetime, timezone

from . import border as border_mod
from . import certificate as cert_mod
from . import formula as formula_mod
from . import symfunc, symmodel, v2space
from .field import _INTEGER_RE, FieldError, make_field
from .poly import parse_polynomial
from .rng import SplitMix64

SCHEMA_VERSION = 1


def _read_arg(value: str) -> str:
    """File contents when the argument names a file, else the literal text."""
    if os.path.isfile(value):
        with open(value, "r", encoding="utf-8") as fh:
            return fh.read()
    return value


def _read_rep(value: str) -> symmodel.SymRepresentation:
    try:  # the JSON decoder recurses once per nesting level
        data = json.loads(_read_arg(value))
    except RecursionError:
        raise ValueError("--rep JSON is nested too deeply to decode") from None
    return symmodel.SymRepresentation.from_json(data)


def _integer(text: str) -> int:
    """An integer option: ASCII digits after an optional '-', as in a GF(p)
    literal; argparse reports other text as a usage error."""
    if not _INTEGER_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _emit(report: dict, fmt: str, stream) -> None:
    if fmt == "json":
        body = {"schema_version": SCHEMA_VERSION,
                "timestamp": datetime.now(timezone.utc).isoformat(),
                **report}
        json.dump(body, stream, sort_keys=True, default=str)
        stream.write("\n")
    elif fmt == "text":
        for key in sorted(report):
            _emit_text(key, report[key], stream, indent=0)
    else:  # csv
        stream.write("key,value\n")
        for key in sorted(report):
            value = report[key]
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True, default=str)
            text = str(value).replace('"', '""')
            stream.write(f'{key},"{text}"\n')


def _emit_text(key, value, stream, indent):
    pad = "  " * indent
    if isinstance(value, dict):
        stream.write(f"{pad}{key}:\n")
        for k in sorted(value):
            _emit_text(k, value[k], stream, indent + 1)
    elif isinstance(value, list):
        stream.write(f"{pad}{key}:\n")
        for item in value:
            if isinstance(item, (dict, list)):
                _emit_text("-", item, stream, indent + 1)
            else:
                stream.write(f"{pad}  - {item}\n")
    else:
        stream.write(f"{pad}{key}: {value}\n")


# ---------------------------------------------------------------------------
# subcommand implementations; each returns (report dict, exit code)

def _cmd_identities(args):
    cap = args.max_n  # the grid's largest n+m
    if cap > symfunc._IDENTITY_CAP:
        raise ValueError("identity parameters exceed the desk-scale cap "
                         f"n+m <= {symfunc._IDENTITY_CAP}")
    field = make_field(args.field)
    kinds = symfunc.IDENTITY_KINDS if args.all or not args.kind else (args.kind,)
    results = [symfunc.verify_identity(kind, params, field).to_json()
               for kind in kinds for params in _identity_grid(kind, cap)]
    if not results:
        raise ValueError(f"--max-n {cap} leaves no identity instance to check")
    return {
        "field": field.spec_string(),
        "max_n": cap,
        "checked": len(results),
        "all_hold": all(r["holds"] for r in results),
        "failures": [r for r in results if not r["holds"]],
    }, 0


def _identity_grid(kind: str, cap: int):
    if kind == "generating_function":
        for n in range(1, cap + 1):
            yield {"n": n}
    elif kind == "split":
        for n in range(1, cap):
            for m in range(1, cap - n + 1):
                for d in range(0, n + m + 1):
                    yield {"n": n, "m": m, "d": d}
    else:
        for n in range(1, cap + 1):
            for d in range(1, n + 1):
                yield {"n": n, "d": d}


def _cmd_esp(args):
    field = make_field(args.field)
    poly = symfunc.gen_esp(args.n, args.d, field)
    return {
        "field": field.spec_string(),
        "n": args.n,
        "d": args.d,
        "terms": poly.term_count(),
        "polynomial": str(poly),
    }, 0


def _cmd_sym_build(args):
    field = make_field(args.field)
    target = parse_polynomial(_read_arg(args.quadratic), field)
    rep = symmodel.quadratic_to_sym(target)
    return {
        "target": str(target),
        "representation": rep.to_json(),
        "form_count": len(rep.forms),
        "verified": symmodel.verify_representation(rep, rep.target),
    }, 0


def _cmd_sym_verify(args):
    rep = _read_rep(args.rep)
    if args.target:
        target = parse_polynomial(_read_arg(args.target), rep.field)
    else:
        target = rep.target
    ok = symmodel.verify_representation(rep, target)
    return {
        "degree": rep.degree,
        "form_count": len(rep.forms),
        "target": str(target),
        "verified": ok,
    }, 0 if ok else 2


def _cmd_sym_decompose(args):
    rep = _read_rep(args.rep)
    dec = symmodel.newton_decompose(rep)
    exact = dec.assembled() == rep.target
    return {
        "decomposition": dec.to_json(),
        "reassembly_exact": exact,
    }, 0 if exact else 1


def _cmd_certify(args):
    if args.poly:
        poly = parse_polynomial(_read_arg(args.poly), make_field(args.p))
    elif args.ell is None:
        raise cert_mod.CertificateError("--ell or --poly is required")
    else:
        poly = cert_mod.hard_poly(cert_mod.BlockPolynomialSpec(args.p, args.ell))
    report = cert_mod.certify_nonmembership(poly, args.p)
    return {
        "polynomial": str(poly),
        **report.to_json(),
    }, 0 if report.verdict == "nonmember" else 2


def _cmd_v2_scan(args):
    field = make_field(args.field)
    points = v2space.enumerate_v2(args.n, args.d, field)
    in_s = all(v2space.in_s_k(pt, args.d - 1) for pt in points.points)
    return {**points.to_json(), "all_in_s_d_minus_1": in_s}, 0


def _cmd_v2_witness(args):
    if args.trials < 1:
        raise v2space.V2Error(f"--trials must be at least 1, got {args.trials}")
    fam = v2space.witness_family(args.p, args.d)
    steps = fam.n * args.d   # each trial sweeps e_0..e_d of n coordinates
    if args.trials * steps > v2space.TRIAL_STEP_CAP:
        raise v2space.V2Error(f"--trials {args.trials} times the {steps} sweep steps of a "
                              f"trial exceeds the cap of {v2space.TRIAL_STEP_CAP}")
    field = make_field(args.field) if args.field != "q" else make_field(args.p)
    if field.characteristic != args.p:
        raise FieldError(f"--field {args.field} has characteristic "
                         f"{field.characteristic}, expected {args.p}")
    e = symfunc.gen_esp(fam.n, args.d, field)
    rng = SplitMix64(args.seed)
    failures = 0
    for _ in range(args.trials):
        betas = [field.element_at(rng.below(field.order))
                 for _ in range(fam.parameter_arity)]
        if not v2space.is_order2_zero(e, fam.point(betas, field)):
            failures += 1
    return {
        "p": args.p,
        "d": args.d,
        "n": fam.n,
        "field": field.spec_string(),
        "parameter_arity": fam.parameter_arity,
        "required_binomials": [list(pair) for pair in fam.required_binomials()],
        "trials": args.trials,
        "seed": args.seed,
        "failures": failures,
        "all_pass": failures == 0,
    }, 0 if failures == 0 else 1


def _cmd_v2_dim(args):
    if args.kmax < 2:
        raise v2space.V2Error(f"--kmax must be at least 2 for a slope, got {args.kmax}")
    tower = [make_field(f"gf({args.p})" if k == 1 else f"gf({args.p}^{k})")
             for k in range(1, args.kmax + 1)]
    counts = list(enumerate(v2space.count_v2_tower(args.n, args.d, tower), 1))
    slope = v2space.dimension_estimate(counts, args.p)
    return {
        "p": args.p,
        "n": args.n,
        "d": args.d,
        "counts": [list(pair) for pair in counts],
        "slope": None if slope is None else str(slope),
        "slope_rounded": None if slope is None else round(slope),
        "bracket": f"{args.d - 2} <= dim <= {args.d - 1}",
        "note": "point-count slope; an empirical proxy, not a proof",
    }, 0


def _cmd_formula_peel(args):
    field = make_field(args.field)
    phi = formula_mod.parse_formula(_read_arg(args.formula), field)
    dec = formula_mod.peel_decompose(phi, args.dprime)
    report = {**dec.to_json(), "source_size": phi.size}
    return report, 0 if report["identity_holds"] else 1


def _cmd_formula_ben_or(args):
    field = make_field(args.field)
    phi = formula_mod.ben_or(args.n, args.d, field)
    exact = formula_mod.computes_esp(phi, args.n, args.d)
    return {
        "field": field.spec_string(),
        "n": args.n,
        "d": args.d,
        "size": phi.size,
        "size_bound": (args.n + 1) * args.n,
        "formula": str(phi),
        "computes_esp": exact,
    }, 0 if exact else 1


def _cmd_formula_bound(args):
    dim = args.dim if args.dim is not None else args.d - 1
    bound = formula_mod.lower_bound_report(args.n, args.d, dim)
    report = {
        "n": args.n,
        "d": args.d,
        "dim_v2": dim,
        "lower_bound": str(bound),
    }
    if args.dim is None:
        report["dim_v2_source"] = "default d-1"
        report["ben_or_upper_bound"] = (args.n + 1) * args.n
    return report, 0


def _cmd_border_demo(args):
    field = make_field(args.field)
    target = parse_polynomial(_read_arg(args.target), field)
    rep = symmodel.quadratic_to_sym(target)
    product, minus_one, combined = border_mod.kumar_fanin2(rep.forms, 2, args.T)
    witness = border_mod.approx_extract(combined)
    ok = witness.principal == rep.target
    return {
        "field": rep.field.spec_string(),
        "target": str(rep.target),
        "T": combined.truncation,
        "form_count": len(rep.forms),
        "order": witness.order,
        "principal": str(witness.principal),
        "tail_present": witness.tail_present,
        "product_term": str(product),
        "constant_term": str(minus_one),
        "principal_matches_target": ok,
    }, 0 if ok else 1


# ---------------------------------------------------------------------------

def _add_common(parser, suppress: bool) -> None:
    """Shared flags, registered both globally and per subcommand so they can
    appear on either side of the subcommand word."""
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument("--field", default=d("q"),
                        help="field spec: q, gf(P), gf(P^K), gf(P^K;c0,c1,...)")
    parser.add_argument("--seed", type=_integer, default=d(0), help="64-bit PRNG seed")
    parser.add_argument("--format", choices=("json", "text", "csv"),
                        default=d("json"), help="report format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esym",
        description="exact computations with elementary symmetric polynomials")
    _add_common(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)

    def command(group, name, help, func=None, *integers):
        """A subcommand with the common options: a group returns its own
        subparsers; a leaf takes its required integer flags, its handler and
        the words that name it in reports ("esym v2 scan" gives "v2 scan")."""
        p = group.add_parser(name, parents=[common], help=help)
        if func is None:
            return p.add_subparsers(dest=f"{name}_command", required=True)
        for flag in integers:
            p.add_argument(flag, type=_integer, required=True)
        p.set_defaults(func=func, command_name=p.prog.split(" ", 1)[1])
        return p

    sub = parser.add_subparsers(dest="command", required=True)
    p = command(sub, "identities", "verify symmetric-function identities", _cmd_identities)
    p.add_argument("--all", action="store_true", help="run every identity kind")
    p.add_argument("--kind", choices=symfunc.IDENTITY_KINDS)
    p.add_argument("--max-n", type=_integer, default=8, dest="max_n")
    command(sub, "esp", "print e_d in n variables", _cmd_esp, "--n", "--d")

    symsub = command(sub, "sym", "symmetric-model constructions")
    p = command(symsub, "build", "forms with e_2 = quadratic, e_1 = 0", _cmd_sym_build)
    p.add_argument("--quadratic", required=True,
                   help="homogeneous quadratic (text or file)")
    p = command(symsub, "verify", "check e_d(forms) against a target", _cmd_sym_verify)
    p.add_argument("--rep", required=True, help="representation JSON (text or file)")
    p.add_argument("--target", help="target polynomial (text or file)")
    p = command(symsub, "decompose", "degree p+1 split into reducibles", _cmd_sym_decompose)
    p.add_argument("--rep", required=True, help="representation JSON (text or file)")

    p = command(sub, "certify", "partition-sum non-membership certificate", _cmd_certify,
                "--p")
    p.add_argument("--ell", type=_integer)
    p.add_argument("--poly", help="polynomial to certify (text or file); "
                                  "defaults to the block polynomial")

    v2sub = command(sub, "v2", "order-2 zero space experiments")
    command(v2sub, "scan", "enumerate the order-2 zeros of e_d^n", _cmd_v2_scan, "--n", "--d")
    p = command(v2sub, "witness", "random checks of the witness family", _cmd_v2_witness,
                "--p", "--d")
    p.add_argument("--trials", type=_integer, default=100)
    p = command(v2sub, "dim", "count-slope dimension estimate", _cmd_v2_dim,
                "--p", "--n", "--d")
    p.add_argument("--kmax", type=_integer, default=3)

    fsub = command(sub, "formula", "formula IR passes")
    p = command(fsub, "peel", "peel into residual + sum of products", _cmd_formula_peel)
    p.add_argument("--formula", required=True, help="formula text or file")
    p.add_argument("--dprime", type=_integer, required=True)
    command(fsub, "ben-or", "interpolation formula for e_d^n", _cmd_formula_ben_or,
            "--n", "--d")
    p = command(fsub, "bound", "formula-size lower bound", _cmd_formula_bound, "--n", "--d")
    p.add_argument("--dim", type=_integer)

    bsub = command(sub, "border", "truncated eps-series demos")
    p = command(bsub, "demo", "border fan-in-2 product for a quadratic", _cmd_border_demo)
    p.add_argument("--target", required=True,
                   help="homogeneous quadratic (text or file)")
    p.add_argument("--T", type=_integer, default=None, help="series truncation")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() uses, built once per process; parsing does not
    change it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report, code = args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit({"command": args.command_name, **report}, args.format, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
