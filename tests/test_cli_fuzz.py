"""A seeded, bounded fuzz of the command line.

Argument lists drawn from a small grammar over every leaf command run
in-process through cli.main, each under a short alarm.  Every run must end
with exit 0, 1 or 2 (argparse's usage exit is 2), and an exit 1 must print
exactly one `error:` line.  Sizes stay small; the only large integers are
boundary values that are refused before any work: negative, 2049 (one past
the variable-index bound) and 2^64.  Half of the `formula peel` draws run
over an extension field, whose constants are not prime-subfield ints, and
half of the `formula ben-or` draws name a field of their own, so that its
interpolation solve runs on each kind's Horner kernel.
"""

import json
import signal

import pytest

from esym.cli import main
from esym.rng import SplitMix64

RUNS = 300
ALARM_S = 5

FIELDS = ["q", "gf(2)", "gf(3)", "gf(5)", "gf(4)", "gf(8)", "gf(9)", "gf(25)",
          "gf(2^8;1,0,1,1,1,0,0,0,1)"]
BAD_FIELDS = ["gf(6)", "gf(2^9)", "gf(", "x", ""]
CHAR2 = ["gf(2)", "gf(4)", "gf(8)"]
EXTENSIONS = ["gf(4)", "gf(8)", "gf(9)", "gf(25)"]
BOUNDARY = ["-1", "2049", str(2**64)]
JUNK_INTEGERS = ["", "x", "1_0", "+4", "1.5", "٣", "--"]
POLY_ATOMS = ["x1", "x2", "x3", "x12", "t", "2", "1/2", "0", "-", "+", "*", "^2", "^",
              "(", ")", " ", "x2049"]


class Alarm(BaseException):
    """Raised by the alarm; a BaseException, so no handler in cli.main takes it."""


def _pick(rng, items):
    return items[rng.below(len(items))]


def _integer(rng, lo, hi):
    """Mostly a small integer in lo..hi; sometimes a boundary value or text
    that is not an integer option."""
    r = rng.below(12)
    if r == 0:
        return _pick(rng, BOUNDARY)
    if r == 1:
        return _pick(rng, JUNK_INTEGERS)
    return str(lo + rng.below(hi - lo + 1))


def _field(rng, fields=FIELDS):
    return _pick(rng, BAD_FIELDS) if rng.below(8) == 0 else _pick(rng, fields)


def _poly_text(rng):
    """A quadratic over x1..x3, or a short run of tokens, often malformed."""
    if rng.below(4):
        return " + ".join(f"{1 + rng.below(3)}*x{1 + rng.below(3)}*x{1 + rng.below(3)}"
                          for _ in range(1 + rng.below(4)))
    return "".join(_pick(rng, POLY_ATOMS) for _ in range(rng.below(9)))


def _rep_text(rng):
    """A representation JSON object with small parts, some of the wrong type
    or missing; sometimes text that is not JSON."""
    if rng.below(8) == 0:
        return _pick(rng, ["", "[1]", "{", "null", '"x"', "[" * 50])
    coefficients = [0, 1, 2, -1] if rng.below(2) else [0, 1, "t", "t+1", "1/2", True, [0, 1], None]
    rep = {"field": _field(rng, ["gf(2)", "gf(3)", "gf(4)", "q"]),
           "degree": _pick(rng, [1, 2, 3, 2, 3, 0, -1, True, "2", 2049]),
           "forms": [[_pick(rng, coefficients) for _ in range(rng.below(4))]
                     for _ in range(rng.below(6))]}
    for key in ("field", "degree", "forms"):
        if rng.below(10) == 0:
            del rep[key]
    return json.dumps(rep)


def _formula_text(rng):
    if rng.below(2):
        factors = [f"(x{1 + rng.below(3)} + {_pick(rng, ['x2', 'x3*x1', '1', 't'])})"
                   for _ in range(1 + rng.below(4))]
        return "*".join(factors) + _pick(rng, ["", " + x1*x2", " + 3"])
    return "".join(_pick(rng, POLY_ATOMS) for _ in range(rng.below(9)))


def _leaf(rng):
    """The words and options of one leaf command."""
    small = lambda lo, hi: _integer(rng, lo, hi)   # noqa: E731
    prime = lambda: _integer(rng, 2, 5)             # noqa: E731
    kind = rng.below(13)
    if kind == 0:
        argv = ["identities"]
        if rng.below(2):
            argv.append("--all")
        if rng.below(3) == 0:
            argv += ["--kind", _pick(rng, ["split", "newton", "euler", "generating_function",
                                           "partial_derivative", "bogus"])]
        return argv + ["--max-n", small(0, 5)]
    if kind == 1:
        return ["esp", "--n", small(0, 8), "--d", small(0, 8)]
    if kind == 2:
        return ["sym", "build", "--quadratic", _poly_text(rng), "--field", _field(rng, CHAR2)]
    if kind == 3:
        argv = ["sym", "verify", "--rep", _rep_text(rng)]
        return argv + (["--target", _poly_text(rng)] if rng.below(2) else [])
    if kind == 4:
        return ["sym", "decompose", "--rep", _rep_text(rng)]
    if kind == 5:
        argv = ["certify", "--p", prime()]
        r = rng.below(5)
        return argv + (["--poly", _poly_text(rng)] if r == 0 else
                       [] if r == 1 else ["--ell", small(0, 3)])
    if kind == 6:
        return ["v2", "scan", "--n", small(0, 6), "--d", small(0, 4),
                "--field", _field(rng, FIELDS[1:])]
    if kind == 7:
        return ["v2", "witness", "--p", prime(), "--d", small(0, 4), "--trials", small(0, 5)]
    if kind == 8:
        argv = ["v2", "dim", "--p", _integer(rng, 2, 3), "--n", small(0, 5), "--d", small(0, 4)]
        return argv + (["--kmax", small(0, 3)] if rng.below(2) else [])
    if kind == 9:
        argv = ["formula", "peel", "--formula", _formula_text(rng), "--dprime", small(0, 4)]
        return argv + (["--field", _pick(rng, EXTENSIONS)] if rng.below(2) else [])
    if kind == 10:
        argv = ["formula", "ben-or", "--n", small(0, 8), "--d", small(0, 8)]
        return argv + (["--field", _field(rng)] if rng.below(2) else [])
    if kind == 11:
        argv = ["formula", "bound", "--n", small(0, 12), "--d", small(0, 6)]
        return argv + (["--dim", small(0, 5)] if rng.below(2) else [])
    argv = ["border", "demo", "--target", _poly_text(rng), "--field", _field(rng, CHAR2)]
    return argv + (["--T", small(0, 8)] if rng.below(2) else [])


def _argv(rng):
    """A leaf command with the common flags on either side of its words, and
    now and then a flag no parser knows or a required option dropped."""
    leaf, common = _leaf(rng), []
    if rng.below(3) == 0:
        common += ["--field", _field(rng)]
    if rng.below(4) == 0:
        common += ["--format", _pick(rng, ["json", "text", "csv", "xml"])]
    if rng.below(4) == 0:
        common += ["--seed", _integer(rng, 0, 99)]
    if rng.below(20) == 0:
        common.append("--bogus")
    if rng.below(20) == 0 and len(leaf) > 2:
        leaf = leaf[:-2]
    return common + leaf if rng.below(2) else leaf + common


def _run(capsys, argv):
    def ring(signum, frame):
        raise Alarm

    old = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, ALARM_S)
    try:
        code = main(argv)
    except SystemExit as exc:   # argparse: usage errors exit 2, --help 0
        code = exc.code
    except Alarm:
        code = "alarm"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    out = capsys.readouterr()
    return code, out.err


@pytest.mark.parametrize("seed", [0, 1])
def test_cli_fuzz_exits_cleanly(capsys, seed):
    rng = SplitMix64(seed)
    for _ in range(RUNS // 2):
        argv = _argv(rng)
        code, err = _run(capsys, argv)
        assert code in (0, 1, 2), (argv, code)
        if code == 1:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
