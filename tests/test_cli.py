"""Command-line interface: exit codes, report schema, golden comparisons.

Golden files live in tests/golden by default; set ESYM_GOLDEN_DIR to point
elsewhere.  Reports are deterministic once the timestamp field is dropped.
"""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import esym
from esym import symfunc, v2space
from esym.cli import SCHEMA_VERSION, build_parser, main
from esym.field import make_field

SRC = str(Path(esym.__file__).resolve().parents[1])
GOLDEN_DIR = Path(os.environ.get("ESYM_GOLDEN_DIR",
                                 Path(__file__).parent / "golden"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    body = json.loads(out)
    assert body.pop("schema_version") == SCHEMA_VERSION
    body.pop("timestamp")
    return code, body


GOLDEN_CASES = {
    "identities_gf3.json": ["identities", "--all", "--max-n", "5",
                            "--field", "gf(3)"],
    "esp_4_2.json": ["esp", "--n", "4", "--d", "2"],
    "certify_2_2.json": ["certify", "--p", "2", "--ell", "2"],
    "v2_scan_gf4.json": ["v2", "scan", "--n", "5", "--d", "2",
                         "--field", "gf(4)"],
    "v2_witness_2_3.json": ["v2", "witness", "--p", "2", "--d", "3",
                            "--field", "gf(8)", "--trials", "25",
                            "--seed", "11"],
    "v2_dim_2_5_2.json": ["v2", "dim", "--p", "2", "--n", "5", "--d", "2"],
    "formula_benor_5_3.json": ["formula", "ben-or", "--n", "5", "--d", "3",
                               "--field", "gf(11)"],
    "formula_bound_10_4.json": ["formula", "bound", "--n", "10", "--d", "4"],
    "formula_peel.json": ["formula", "peel", "--dprime", "3", "--field", "gf(5)",
                          "--formula",
                          "(x1 + x2*x3) * (x2 + x1*x3) * x3 + x1*x2"],
    "sym_build_gf4.json": ["sym", "build", "--quadratic", "x1*x2 + x3^2",
                           "--field", "gf(4)"],
    "border_demo_gf4.json": ["border", "demo", "--target", "x1*x2",
                             "--field", "gf(4)"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden(capsys, name):
    code, body = run_json(capsys, *GOLDEN_CASES[name])
    assert code == 0
    expected = json.loads((GOLDEN_DIR / name).read_text())
    assert body == expected


def test_reports_are_deterministic(capsys):
    _, first = run_json(capsys, "v2", "witness", "--p", "3", "--d", "2",
                        "--seed", "4", "--field", "gf(9)")
    _, second = run_json(capsys, "v2", "witness", "--p", "3", "--d", "2",
                         "--seed", "4", "--field", "gf(9)")
    assert first == second


# -- exit codes ---------------------------------------------------------------

def test_nonmember_certificate_exits_zero(capsys):
    code, body = run_json(capsys, "certify", "--p", "2", "--ell", "2")
    assert code == 0
    assert body["verdict"] == "nonmember"


def test_inconclusive_certificate_exits_two(capsys, tmp_path):
    from esym.certificate import random_member
    member = random_member(1, 2, 2, seed=5)
    poly_file = tmp_path / "member.txt"
    poly_file.write_text(str(member) + "\n")
    code, body = run_json(capsys, "certify", "--p", "2",
                          "--poly", str(poly_file))
    assert code == 2
    assert body["verdict"] == "inconclusive"


def test_errors_exit_one(capsys):
    code, out, err = run(capsys, "esp", "--n", "4", "--d", "9")
    assert code == 1
    assert out == ""
    assert "error:" in err
    code, _, err = run(capsys, "certify", "--p", "4", "--ell", "2")
    assert code == 1
    code, _, err = run(capsys, "--field", "gf(6)", "esp", "--n", "3", "--d", "1")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["certify", "--p", "2"],
    ["sym", "build", "--field", "q", "--quadratic", "1/0*x1^2"],
    ["sym", "verify", "--rep", '{"degree": 2}'],
    ["sym", "verify", "--rep", "[1]"],
    ["sym", "verify", "--rep", '{"field": "gf(2)", "degree": 2, "forms": 5}'],
    ["v2", "witness", "--p", "2", "--d", "2", "--trials", "0"],
    ["v2", "witness", "--p", "2", "--d", "2", "--trials", "-5"],
    ["v2", "witness", "--p", "2", "--d", "1"],
    ["identities", "--all", "--max-n", "0"],
    ["sym", "verify", "--rep", '{"field": "gf(3)", "degree": true, "forms": [[1, 2], [1, 0]]}'],
    ["sym", "verify", "--rep", '{"field": "gf(3)", "degree": 2, "forms": [[true, 2], [1, false]]}'],
    ["certify", "--p", "2", "--poly", "x1^99999999999999"],
    ["certify", "--p", "2", "--poly", "x1000000000 + x1"],
    ["border", "demo", "--field", "gf(4)", "--target", "x1*x2", "--T", "1000000000000"],
    ["sym", "verify", "--rep", json.dumps({"field": "gf(2)", "degree": 1,
                                           "forms": [[0] * 199_999 + [1]]})],
    ["formula", "peel", "--field", "gf(5)", "--dprime", "3", "--formula", ""],
    ["formula", "peel", "--field", "gf(5)", "--dprime", "3", "--formula", "()"],
    ["formula", "peel", "--field", "gf(5)", "--dprime", "3", "--formula", "(x1+x2)^2"],
    ["formula", "peel", "--field", "gf(5)", "--dprime", "3", "--formula", "x1**x2"],
    ["certify", "--p", "2", "--poly", "3()"],
    ["sym", "build", "--field", "gf(4)", "--quadratic", "*t*x1*x2"],
    ["sym", "verify", "--rep", '{"field": "gf(4)", "degree": 1, "forms": [[[true, 1]]]}'],
    ["sym", "verify", "--rep", '{"field": "gf(4)", "degree": 1, "forms": [[[0, 1], 1]]}'],
    ["esp", "--n", "2049", "--d", "1"],
    ["esp", "--n", "2049", "--d", "0"],
    ["esp", "--n", "18446744073709551616", "--d", "7"],
    ["esp", "--n", "1999", "--d", "2"],
    ["v2", "witness", "--p", "2", "--d", "18446744073709551616", "--trials", "3"],
    ["v2", "witness", "--p", "2", "--d", "3", "--trials", "18446744073709551616"],
], ids=["certify-no-ell", "zero-denominator", "rep-no-field", "rep-list", "rep-forms-int",
        "witness-zero-trials", "witness-negative-trials", "witness-d-one", "identities-max-n-zero",
        "rep-bool-degree", "rep-bool-coefficient", "exponent-past-packed-bound",
        "variable-index-past-bound", "truncation-past-bound", "rep-row-past-index-bound",
        "formula-empty", "formula-empty-parens", "formula-power", "formula-double-star",
        "poly-empty-call", "quadratic-leading-star", "rep-nested-bool-digits",
        "rep-nested-digits", "esp-past-variable-bound", "esp-0-past-variable-bound",
        "esp-n-past-ssize", "esp-past-key-byte-guard", "witness-d-past-variable-bound",
        "witness-trials-past-step-cap"])
def test_bad_input_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_deeply_nested_formula_is_parsed(capsys):
    code, body = run_json(capsys, "formula", "peel", "--field", "gf(5)", "--dprime", "3",
                          "--formula", "(" * 2000 + "x1" + ")" * 2000)
    assert code == 0
    assert body["residual"] == "x1" and body["identity_holds"] is True


def test_formula_peel_strips_extension_field_constants(capsys):
    code, body = run_json(capsys, "formula", "peel", "--field", "gf(4)", "--dprime", "3",
                          "--formula", "(x3 + t) * (x1 + 1) * (x1 + t)")
    assert code == 0 and body["identity_holds"] is True
    assert body["pairs"] == [["x1^2 + (t+1)*x1", "x3"]]


def _nested(text, depth=3000):
    return "(" * depth + text + ")" * depth


def test_deeply_nested_polynomials_are_parsed(capsys):
    code, body = run_json(capsys, "certify", "--p", "2", "--poly", _nested("x1*x2*x3"))
    assert code == 0 and body["polynomial"] == "x1*x2*x3"
    code, body = run_json(capsys, "sym", "build", "--field", "gf(4)",
                          "--quadratic", _nested("x1*x2"))
    assert code == 0 and body["target"] == "x1*x2" and body["verified"] is True
    rep = json.dumps(body["representation"])
    code, body = run_json(capsys, "sym", "verify", "--rep", rep, "--target", _nested("x1*x2"))
    assert code == 0 and body["verified"] is True
    code, body = run_json(capsys, "border", "demo", "--field", "gf(4)",
                          "--target", _nested("x1*x2"))
    assert code == 0 and body["principal_matches_target"] is True


def test_sym_verify_and_decompose_a_built_representation(capsys):
    code, body = run_json(capsys, "sym", "build", "--field", "gf(4)",
                          "--quadratic", "x1*x2 + x3^2")
    rep = json.dumps(body["representation"])
    code, body = run_json(capsys, "sym", "verify", "--rep", rep, "--target", "x1*x2 + x3")
    assert code == 2 and body["verified"] is False
    cubic = '{"field": "gf(2)", "degree": 3, "forms": [[1, 0], [0, 1], [1, 1], [1]]}'
    code, body = run_json(capsys, "sym", "decompose", "--rep", cubic)
    assert code == 0 and body["reassembly_exact"] is True


def test_border_demo_reports_the_series_truncation(capsys):
    code, body = run_json(capsys, "border", "demo", "--field", "gf(4)",
                          "--target", "x1*x2", "--T", "9")
    assert code == 0 and body["T"] == 9


def test_sym_verify_degree_above_form_count_is_immediate(capsys):
    rep = '{"field": "gf(2)", "degree": 1000000000, "forms": [["1"]]}'
    code, body = run_json(capsys, "sym", "verify", "--rep", rep)
    assert code == 0
    assert body["verified"] is True and body["target"] == "0"


def test_ben_or_check_needs_no_expansion(capsys):
    # 2^16 intermediate terms if expanded; the weight check is O(n^2)
    code, body = run_json(capsys, "formula", "ben-or", "--n", "16", "--d", "5",
                          "--field", "gf(17)")
    assert code == 0
    assert body["computes_esp"] is True


def test_v2_dim_counts_a_six_step_tower(capsys):
    # 6q^2 - 5q points of V2(e_3^6) over GF(2^k): degree d-1 in q
    code, body = run_json(capsys, "v2", "dim", "--p", "2", "--n", "6", "--d", "3",
                          "--kmax", "6")
    assert code == 0
    assert body["counts"] == [[1, 14], [2, 76], [3, 344], [4, 1456], [5, 5984], [6, 24256]]
    assert body["slope_rounded"] == 2


@pytest.mark.parametrize("p,kmax", [("2", "7"), ("3", "5"), ("5", "3"), ("7", "2")])
def test_v2_dim_reaches_every_tabled_extension(capsys, p, kmax):
    code, body = run_json(capsys, "v2", "dim", "--p", p, "--n", "3", "--d", "2",
                          "--kmax", kmax)
    assert code == 0
    assert [k for k, _ in body["counts"]] == list(range(1, int(kmax) + 1))


def test_v2_cap_names_what_it_bounds(capsys):
    # the listing bound counts coordinates, points * n, and is checked
    # before any point is built; counting builds none and answers
    code, out, err = run(capsys, "v2", "scan", "--field", "gf(2)", "--n", "18", "--d", "18")
    assert (code, out, err) == (1, "", "error: 262125 points of 18 coordinates exceed "
                                "the fixed bound of 1048576 listed coordinates\n")
    code, body = run_json(capsys, "v2", "dim", "--p", "2", "--n", "18", "--d", "18",
                          "--kmax", "2")
    assert code == 0 and body["counts"][0] == [1, 262125]
    code, out, err = run(capsys, "v2", "dim", "--p", "2", "--n", "2048", "--d", "4")
    assert (code, out, err) == (1, "", "error: 2049 or more strata of 2048 coordinates "
                                "to degree 4 exceed the fixed bound of 16777216 sweep and "
                                "scaling steps\n")
    code, out, err = run(capsys, "v2", "scan", "--field", "gf(2)", "--n", "1000000000",
                         "--d", "2")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "exceed the fixed bound" in err


def test_ben_or_leaf_bound_is_one_error_line(capsys):
    # n(n+1) leaves are bounded before any is built, over any large field
    code, out, err = run(capsys, "formula", "ben-or", "--n", "70000", "--d", "3",
                         "--field", "gf(2147483647)")
    assert (code, out, err) == (1, "", "error: 4900070000 leaves for n = 70000 exceed "
                                "the fixed bound of 4194304 Ben-Or leaves\n")
    code, out, err = run(capsys, "formula", "ben-or", "--n", "2048", "--d", "3",
                         "--field", "q")
    assert code == 1 and out == "" and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv,message", [
    # gf(2^1..2^6) are within the bound, gf(2^7) is not
    (["--p", "2", "--n", "200", "--d", "3", "--kmax", "7"],
     "error: 25275 or more strata of 200 coordinates to degree 3 exceed the fixed "
     "bound of 16777216 sweep and scaling steps\n"),
    (["--p", "2", "--n", "3", "--d", "2", "--kmax", "8"],
     "error: no built-in modulus for gf(2^8); supply one as gf(2^8;c0,c1,...)\n"),
])
def test_v2_dim_refuses_a_tower_before_counting(capsys, monkeypatch, argv, message):
    def no_count(*args):
        raise AssertionError("a field was counted before the whole tower was checked")

    monkeypatch.setattr("esym.v2space._accepted_strata", no_count)
    assert run(capsys, "v2", "dim", *argv) == (1, "", message)


@pytest.mark.parametrize("kmax", ["1", "0", "-3"])
def test_v2_dim_refuses_kmax_below_two_before_any_field(capsys, monkeypatch, kmax):
    # a slope needs two extension degrees; nothing is built or counted first
    def forbidden(*args):
        raise AssertionError("a field was built or counted")

    monkeypatch.setattr("esym.cli.make_field", forbidden)
    monkeypatch.setattr("esym.v2space.count_v2_tower", forbidden)
    assert run(capsys, "v2", "dim", "--p", "2", "--n", "5", "--d", "2", "--kmax", kmax) == (
        1, "", f"error: --kmax must be at least 2 for a slope, got {kmax}\n")


@pytest.mark.parametrize("argv", [
    ["v2", "scan", "--n", "4", "--d", "2", "--cap-points", "5"],
    ["v2", "dim", "--p", "2", "--n", "4", "--d", "2", "--cap-points", "5"],
    ["esp", "--n", "3", "--d", "2", "--cap-points", "7"],
])
def test_v2_guards_take_no_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap-points" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["v2", "witness", "--p", "2", "--d", "\u0663"],
    ["formula", "bound", "--n", "1_0", "--d", "4"],
    ["esp", "--n", "+4", "--d", "2"],
    ["esp", "--n", "4", "--d", "2.0"],
    ["--seed", "0x1", "esp", "--n", "4", "--d", "2"],
])
def test_integer_options_take_ascii_digits_only(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err


def test_integer_options_keep_sign_and_leading_zeros(capsys):
    _, a = run_json(capsys, "--seed", "-3", "esp", "--n", "004", "--d", "02")
    _, b = run_json(capsys, "--seed", "-3", "esp", "--n", "4", "--d", "2")
    assert a == b and a["n"] == 4


# -- argument conventions --------------------------------------------------------

def test_global_flags_work_on_either_side(capsys):
    _, a = run_json(capsys, "--field", "gf(4)", "v2", "scan", "--n", "4", "--d", "2")
    _, b = run_json(capsys, "v2", "scan", "--n", "4", "--d", "2", "--field", "gf(4)")
    assert a == b


def test_poly_argument_accepts_file_or_literal(capsys, tmp_path):
    poly_file = tmp_path / "poly.txt"
    poly_file.write_text("x1*x2*x3 + x4*x5*x6\n")
    _, from_file = run_json(capsys, "certify", "--p", "2", "--poly", str(poly_file))
    _, literal = run_json(capsys, "certify", "--p", "2",
                          "--poly", "x1*x2*x3 + x4*x5*x6")
    assert from_file == literal


# -- other formats -----------------------------------------------------------------

def test_text_format(capsys):
    code, out, err = run(capsys, "esp", "--n", "3", "--d", "2",
                         "--format", "text")
    assert code == 0
    assert "polynomial: x1*x2 + x1*x3 + x2*x3" in out


def test_csv_format(capsys):
    code, out, _ = run(capsys, "esp", "--n", "3", "--d", "2", "--format", "csv")
    assert code == 0
    rows = {row["key"]: row["value"] for row in csv.DictReader(io.StringIO(out))}
    assert rows["polynomial"] == "x1*x2 + x1*x3 + x2*x3"
    assert rows["terms"] == "3"


def test_text_format_nests_dicts_and_lists(capsys):
    code, out, _ = run(capsys, "sym", "build", "--quadratic", "x1*x2", "--field", "gf(4)",
                       "--format", "text")
    assert code == 0
    assert out == (
        "command: sym build\nform_count: 3\nrepresentation:\n  degree: 2\n"
        "  field: gf(2^2)\n  forms:\n    -:\n      - t\n      - t+1\n    -:\n"
        "      - t+1\n      - t\n    -:\n      - 1\n      - 1\n"
        "target: x1*x2\nverified: True\n")


def test_csv_format_writes_nested_values_as_json(capsys):
    argv = ["v2", "scan", "--n", "4", "--d", "3", "--field", "gf(2)"]
    _, body = run_json(capsys, *argv)
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = {row["key"]: row["value"] for row in csv.DictReader(io.StringIO(out))}
    assert json.loads(rows["points"]) == body["points"] and len(body["points"]) > 1
    assert rows["count"] == str(body["count"])


def test_json_keys_are_sorted(capsys):
    _, out, _ = run(capsys, "esp", "--n", "3", "--d", "2")
    keys = list(json.loads(out))
    assert keys == sorted(keys)


def _fresh(*argv):
    """Exit code and stdout of a new interpreter running the esym imported
    here, whether or not PYTHONPATH names its directory."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "esym", *argv], capture_output=True,
                          text=True, env={**os.environ, "COLUMNS": "80", "PYTHONPATH": path})
    return proc.returncode, proc.stdout


def test_module_entry_point():
    code, out = _fresh("esp", "--n", "3", "--d", "1")
    assert code == 0
    assert json.loads(out)["polynomial"] == "x1 + x2 + x3"


def _in_process(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:   # argparse exits on --help and on bad flags
        code = exc.code
    return code, capsys.readouterr().out


def _untimed(out):
    body = json.loads(out)
    body.pop("timestamp")
    return body


def test_one_process_runs_commands_back_to_back(capsys, monkeypatch):
    # main builds its parser once per process; runs that share it print
    # what fresh processes print
    monkeypatch.setenv("COLUMNS", "80")
    commands = [["esp", "--n", "4", "--d", "2", "--field", "gf(3)"],
                ["sym", "build", "--quadratic", "x1*x2 + x3^2", "--field", "gf(4)"],
                ["certify", "--p", "2", "--ell", "2"],
                ["esp", "--n", "3", "--d", "1", "--format", "text"]]
    for argv in commands + commands[::-1]:
        code, out = _in_process(capsys, *argv)
        want_code, want_out = _fresh(*argv)
        assert code == want_code
        if "--format" in argv:
            assert out == want_out
        else:
            assert _untimed(out) == _untimed(want_out)
    assert _in_process(capsys, "esp", "--n", "3")[0] == 2
    for argv in (["--help"], ["sym", "build", "--help"], ["border", "demo", "--help"]):
        code, out = _in_process(capsys, *argv)
        assert (code, out) == _fresh(*argv)
        assert code == 0 and out.startswith("usage: esym")
    assert _in_process(capsys, "--help")[1] == build_parser().format_help()


# -- command registry ----------------------------------------------------------------

_CUBIC = '{"field": "gf(2)", "degree": 3, "forms": [[1, 0], [0, 1], [1, 1], [1]]}'
LEAF_ARGS = {
    "identities": ["--max-n", "2"],
    "esp": ["--n", "3", "--d", "2"],
    "sym build": ["--quadratic", "x1*x2", "--field", "gf(4)"],
    "sym verify": ["--rep", _CUBIC],
    "sym decompose": ["--rep", _CUBIC],
    "certify": ["--p", "2", "--ell", "1"],
    "v2 scan": ["--n", "3", "--d", "2", "--field", "gf(2)"],
    "v2 witness": ["--p", "2", "--d", "2", "--trials", "2"],
    "v2 dim": ["--p", "2", "--n", "3", "--d", "2", "--kmax", "2"],
    "formula peel": ["--formula", "x1*x2", "--dprime", "3", "--field", "gf(5)"],
    "formula ben-or": ["--n", "3", "--d", "2", "--field", "gf(5)"],
    "formula bound": ["--n", "5", "--d", "3"],
    "border demo": ["--target", "x1*x2", "--field", "gf(4)"],
}


def _leaves(parser, words=()):
    """The argv words of every subcommand that takes no further subcommand."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield " ".join(words)
    for group in groups:
        for name, sub in group.choices.items():
            yield from _leaves(sub, words + (name,))


def test_every_report_names_its_command(capsys):
    assert sorted(_leaves(build_parser())) == sorted(LEAF_ARGS)
    for words, args in LEAF_ARGS.items():
        code, body = run_json(capsys, *words.split(), *args)
        assert code == 0 and body["command"] == words


# -- refusals ------------------------------------------------------------------------

@pytest.mark.parametrize("sub", ["verify", "decompose"])
@pytest.mark.parametrize("from_file", [False, True], ids=["literal", "file"])
def test_deeply_nested_rep_is_one_error_line(capsys, tmp_path, sub, from_file):
    rep = "[" * 2000 + "]" * 2000
    if from_file:
        (tmp_path / "rep.json").write_text(rep)
        rep = str(tmp_path / "rep.json")
    assert run(capsys, "sym", sub, "--rep", rep) == (
        1, "", "error: --rep JSON is nested too deeply to decode\n")


def test_identities_refuses_max_n_past_the_cap_before_any_check(capsys, monkeypatch):
    with pytest.raises(ValueError) as refusal:
        symfunc.verify_identity("newton", {"n": 17, "d": 1}, make_field("gf(2)"))

    def forbidden(*args):
        raise AssertionError("an identity was checked")

    monkeypatch.setattr(symfunc, "verify_identity", forbidden)
    assert run(capsys, "identities", "--max-n", "17", "--kind", "newton") == (
        1, "", f"error: {refusal.value}\n")


def test_identity_grid_reaches_max_n_exactly(capsys, monkeypatch):
    # the up-front refusal of --max-n above the cap relies on this
    totals = []

    def recording(kind, params, field):
        totals.append(params["n"] + params.get("m", 0))
        return types.SimpleNamespace(to_json=lambda: {"holds": True})

    monkeypatch.setattr(symfunc, "verify_identity", recording)
    code, body = run_json(capsys, "identities", "--all", "--max-n", "16")
    assert code == 0 and body["checked"] == len(totals) and max(totals) == 16


def test_v2_witness_refuses_a_field_of_another_characteristic(capsys):
    assert run(capsys, "v2", "witness", "--p", "2", "--d", "3", "--field", "gf(9)") == (
        1, "", "error: --field gf(9) has characteristic 3, expected 2\n")


def test_v2_witness_refuses_past_the_step_cap_before_any_work(capsys, monkeypatch):
    def work(*args):
        raise AssertionError("work done past the cap")

    cap = v2space.TRIAL_STEP_CAP
    with monkeypatch.context() as m:
        m.setattr(symfunc, "gen_esp", work)
        m.setattr(v2space, "is_order2_zero", work)
        # a trial on e_3 in the family's 6 variables sweeps 6 * 3 = 18 steps
        trials = cap // 18 + 1
        assert run(capsys, "v2", "witness", "--p", "2", "--d", "3", "--trials", str(trials)) == (
            1, "", f"error: --trials {trials} times the 18 sweep steps of a trial exceeds "
                   f"the cap of {cap}\n")
    # the cap is inclusive: e_5 over gf(5) takes 29 * 5 = 145 steps a trial
    monkeypatch.setattr(v2space, "TRIAL_STEP_CAP", 145 * 3)
    code, body = run_json(capsys, "v2", "witness", "--p", "5", "--d", "5", "--trials", "3")
    assert code == 0 and (body["n"], body["trials"], body["all_pass"]) == (29, 3, True)
    assert run(capsys, "v2", "witness", "--p", "5", "--d", "5", "--trials", "4")[0] == 1


def test_v2_witness_reports_failing_trials(capsys, monkeypatch):
    monkeypatch.setattr(v2space, "is_order2_zero", lambda f, point: False)
    code, body = run_json(capsys, "v2", "witness", "--p", "2", "--d", "3", "--field", "gf(8)",
                          "--trials", "5")
    assert code == 1
    assert (body["failures"], body["all_pass"]) == (5, False)
