"""Command-line interface: every construction as a subcommand with
deterministic seeds and versioned JSON/text/CSV reports.

Subcommands: identities, esp, sym (build/verify/decompose), certify,
v2 (scan/witness/dim), formula (peel/ben-or/bound), border (demo).
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
    field = make_field(args.field)
    kinds = symfunc.IDENTITY_KINDS if args.all or not args.kind else (args.kind,)
    cap = args.max_n
    results = []
    for kind in kinds:
        for params in _identity_grid(kind, cap):
            rep = symfunc.verify_identity(kind, params, field)
            results.append(rep.to_json())
    if not results:
        raise ValueError(f"--max-n {cap} leaves no identity instance to check")
    return {
        "command": "identities",
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
        "command": "esp",
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
        "command": "sym build",
        "target": str(target),
        "representation": rep.to_json(),
        "form_count": len(rep.forms),
        "verified": symmodel.verify_representation(rep, rep.target),
    }, 0


def _cmd_sym_verify(args):
    data = json.loads(_read_arg(args.rep))
    rep = symmodel.SymRepresentation.from_json(data)
    if args.target:
        target = parse_polynomial(_read_arg(args.target), rep.field)
    else:
        target = rep.target
    ok = symmodel.verify_representation(rep, target)
    return {
        "command": "sym verify",
        "degree": rep.degree,
        "form_count": len(rep.forms),
        "target": str(target),
        "verified": ok,
    }, 0 if ok else 2


def _cmd_sym_decompose(args):
    data = json.loads(_read_arg(args.rep))
    rep = symmodel.SymRepresentation.from_json(data)
    dec = symmodel.newton_decompose(rep)
    exact = dec.assembled() == rep.target
    return {
        "command": "sym decompose",
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
        "command": "certify",
        "polynomial": str(poly),
        **report.to_json(),
    }, 0 if report.verdict == "nonmember" else 2


def _cmd_v2_scan(args):
    field = make_field(args.field)
    points = v2space.enumerate_v2(args.n, args.d, field)
    report = points.to_json()
    report["command"] = "v2 scan"
    report["all_in_s_d_minus_1"] = all(
        v2space.in_s_k(pt, args.d - 1) for pt in points.points)
    return report, 0


def _cmd_v2_witness(args):
    if args.trials < 1:
        raise v2space.V2Error(f"--trials must be at least 1, got {args.trials}")
    fam = v2space.witness_family(args.p, args.d)
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
        "command": "v2 witness",
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
        "command": "v2 dim",
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
    report = dec.to_json()
    report["command"] = "formula peel"
    report["source_size"] = phi.size
    return report, 0 if report["identity_holds"] else 1


def _cmd_formula_ben_or(args):
    field = make_field(args.field)
    phi = formula_mod.ben_or(args.n, args.d, field)
    exact = formula_mod.computes_esp(phi, args.n, args.d)
    return {
        "command": "formula ben-or",
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
        "command": "formula bound",
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
        "command": "border demo",
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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identities", parents=[common], help="verify symmetric-function identities")
    p.add_argument("--all", action="store_true", help="run every identity kind")
    p.add_argument("--kind", choices=symfunc.IDENTITY_KINDS)
    p.add_argument("--max-n", type=_integer, default=8, dest="max_n")
    p.set_defaults(func=_cmd_identities)

    p = sub.add_parser("esp", parents=[common], help="print e_d in n variables")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--d", type=_integer, required=True)
    p.set_defaults(func=_cmd_esp)

    psym = sub.add_parser("sym", parents=[common], help="symmetric-model constructions")
    symsub = psym.add_subparsers(dest="sym_command", required=True)
    p = symsub.add_parser("build", parents=[common], help="forms with e_2 = quadratic, e_1 = 0")
    p.add_argument("--quadratic", required=True,
                   help="homogeneous quadratic (text or file)")
    p.set_defaults(func=_cmd_sym_build)
    p = symsub.add_parser("verify", parents=[common], help="check e_d(forms) against a target")
    p.add_argument("--rep", required=True, help="representation JSON (text or file)")
    p.add_argument("--target", help="target polynomial (text or file)")
    p.set_defaults(func=_cmd_sym_verify)
    p = symsub.add_parser("decompose", parents=[common], help="degree p+1 split into reducibles")
    p.add_argument("--rep", required=True, help="representation JSON (text or file)")
    p.set_defaults(func=_cmd_sym_decompose)

    p = sub.add_parser("certify", parents=[common], help="partition-sum non-membership certificate")
    p.add_argument("--p", type=_integer, required=True)
    p.add_argument("--ell", type=_integer)
    p.add_argument("--poly", help="polynomial to certify (text or file); "
                                  "defaults to the block polynomial")
    p.set_defaults(func=_cmd_certify)

    pv2 = sub.add_parser("v2", parents=[common], help="order-2 zero space experiments")
    v2sub = pv2.add_subparsers(dest="v2_command", required=True)
    p = v2sub.add_parser("scan", parents=[common], help="enumerate the order-2 zeros of e_d^n")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--d", type=_integer, required=True)
    p.set_defaults(func=_cmd_v2_scan)
    p = v2sub.add_parser("witness", parents=[common], help="random checks of the witness family")
    p.add_argument("--p", type=_integer, required=True)
    p.add_argument("--d", type=_integer, required=True)
    p.add_argument("--trials", type=_integer, default=100)
    p.set_defaults(func=_cmd_v2_witness)
    p = v2sub.add_parser("dim", parents=[common], help="count-slope dimension estimate")
    p.add_argument("--p", type=_integer, required=True)
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--d", type=_integer, required=True)
    p.add_argument("--kmax", type=_integer, default=3)
    p.set_defaults(func=_cmd_v2_dim)

    pf = sub.add_parser("formula", parents=[common], help="formula IR passes")
    fsub = pf.add_subparsers(dest="formula_command", required=True)
    p = fsub.add_parser("peel", parents=[common], help="peel into residual + sum of products")
    p.add_argument("--formula", required=True, help="formula text or file")
    p.add_argument("--dprime", type=_integer, required=True)
    p.set_defaults(func=_cmd_formula_peel)
    p = fsub.add_parser("ben-or", parents=[common], help="interpolation formula for e_d^n")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--d", type=_integer, required=True)
    p.set_defaults(func=_cmd_formula_ben_or)
    p = fsub.add_parser("bound", parents=[common], help="formula-size lower bound")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--d", type=_integer, required=True)
    p.add_argument("--dim", type=_integer)
    p.set_defaults(func=_cmd_formula_bound)

    pb = sub.add_parser("border", parents=[common], help="truncated eps-series demos")
    bsub = pb.add_subparsers(dest="border_command", required=True)
    p = bsub.add_parser("demo", parents=[common], help="border fan-in-2 product for a quadratic")
    p.add_argument("--target", required=True,
                   help="homogeneous quadratic (text or file)")
    p.add_argument("--T", type=_integer, default=None, help="series truncation")
    p.set_defaults(func=_cmd_border_demo)

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
    _emit(report, args.format, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
