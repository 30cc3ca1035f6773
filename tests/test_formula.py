"""Formula trees: parsing, degree vertices, peeling, Ben-Or interpolation."""

import gc
import hashlib
import json
import re
import signal
from collections import Counter
from fractions import Fraction

import pytest

import esym.formula as formula_mod
from esym.field import QQ, FieldError, make_field
from esym.formula import (
    Formula,
    FormulaError,
    Gate,
    Leaf,
    _interpolation_terms,
    _interpolation_weights,
    _operands,
    ben_or,
    computes_esp,
    find_degree_vertex,
    lower_bound_report,
    parse_formula,
    peel_decompose,
    random_formula,
    replace_with_constant,
    split_linear,
)
from esym.poly import LinearForm, Polynomial, parse_polynomial
from esym.rng import SplitMix64
from esym.symfunc import gen_esp

GF5 = make_field("gf(5)")
GF7 = make_field("gf(7)")
GF11 = make_field("gf(11)")
GF16 = make_field("gf(16)")
GF27 = make_field("gf(27)")
GF1009 = make_field("gf(1009)")


def f(text, field=GF5):
    return parse_formula(text, field)


# -- construction and basic structure ----------------------------------------

def test_parse_evaluates_like_polynomials():
    cases = [
        "x1*x2 + x3",
        "(x1 + 2) * (x2 + 3*x3)",
        "x1*x2*x3 + 4",
        "-x1 + x2",
        "x1 - 2*x2",
    ]
    for text in cases:
        assert f(text).poly() == parse_polynomial(text, GF5)


def test_size_counts_only_variable_leaves():
    phi = f("(x1 + 2) * (x2 + 3)")
    assert phi.size == 2
    assert f("4 * 2").size == 0
    assert f("x1 * x1 + x1").size == 3


def test_formal_degree_bounds_actual_degree():
    phi = f("(x1 + x2) * (x1 + 3) + x2")
    assert phi.formal_degree() == 2
    assert phi.poly().degree() <= phi.formal_degree()
    # formal degree can strictly exceed the computed degree
    psi = f("x1*x2 - x1*x2 + x3")
    assert psi.formal_degree() == 2
    assert psi.poly().degree() == 1


def test_str_parse_round_trip():
    rng = SplitMix64(7)
    for _ in range(40):
        phi = random_formula(rng, GF5, max_size=12, nvars=4)
        again = parse_formula(str(phi), GF5)
        assert again.poly() == phi.poly()
        assert again.size == phi.size
        assert again.formal_degree() == phi.formal_degree()


def test_leaves_must_be_affine():
    with pytest.raises(FormulaError):
        Formula(Leaf(parse_polynomial("x1^2", GF5)), GF5)


def test_a_leaf_gives_back_its_label_as_a_plain_polynomial():
    labels = [parse_polynomial("x1 + 3", GF5), parse_polynomial("2*x3", GF5),
              Polynomial.constant(GF5, 2, nvars=4), Polynomial.zero(GF5, 3),
              Polynomial.variable(GF5, 7), parse_polynomial("1/2*x2 - 3", QQ),
              LinearForm(GF5, [1, 0, 2, 0])]
    for label in labels:
        leaf = Leaf(label)
        got = leaf.label
        assert got == label and got.nvars == label.nvars == leaf.nvars
        assert type(got) is Polynomial        # a LinearForm label comes back plain
        assert str(got) == str(label)
        assert (leaf.fdeg, leaf.size) == (max(label.degree(), 0), int(label.degree() == 1))
        if label.field is GF5:
            assert not gc.is_tracked(leaf.terms)


@pytest.mark.parametrize("text, message", [
    ("", "empty formula or parentheses in ''"),
    ("  ", "empty formula or parentheses in '  '"),
    ("()", "empty formula or parentheses in '()'"),
    ("(x1+x2)^2", "bad factor '(x1+x2)^2'"),
    ("(x1)x2", "bad factor '(x1)x2'"),
    ("(x1)(x2)", "unbalanced parentheses in 'x1)(x2'"),
    ("x1**x2", "dangling '*' in 'x1**x2'"),
    ("+x1", "dangling '+' in '+x1'"),
    ("x1 +", "dangling '+' in 'x1+'"),
    ("x1 - - x2", "dangling sign in 'x1 - - x2'"),
    ("x1*-x2", "dangling '*' in 'x1*'"),
    ("x1*x2^2", "leaf literal 'x2^2' has degree > 1"),
    ("x1(x2)", "bad element literal 'x1(x2)' for gf(5)"),
    ("(x1", "unbalanced parentheses in '(x1'"),
])
def test_parse_refuses_malformed_text(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        f(text)


def test_a_term_may_open_with_minus_after_plus():
    # the polynomial grammar's rule; the tree is the one of "x1 - x2*x3"
    assert str(f("x1+-x2*x3")) == str(f("x1 - x2*x3")) == "(x1 + (4 * (x2 * x3)))"
    assert str(f("-(x1 + 1) * x2 + -3")) == "((4 * ((x1 + 1) * x2)) + 2)"


# -- degree vertices -----------------------------------------------------------

def test_find_degree_vertex_window():
    rng = SplitMix64(99)
    hits = 0
    for _ in range(150):
        phi = random_formula(rng, GF5, max_size=18, nvars=4)
        d = phi.formal_degree()
        for t in range(1, d // 2 + 1):
            path = find_degree_vertex(phi, t)
            fd = phi.subtree(path).formal_degree()
            assert t <= fd <= 2 * t - 1
            hits += 1
    assert hits > 100


def test_find_degree_vertex_requires_window():
    phi = f("x1 * x2")
    with pytest.raises(FormulaError):
        find_degree_vertex(phi, 0)
    with pytest.raises(FormulaError):
        find_degree_vertex(phi, 2)  # 2t > formal degree


def test_split_linear_identity():
    # walking to a vertex v writes phi = h * g + f with g the subtree at v
    rng = SplitMix64(123)
    for _ in range(80):
        phi = random_formula(rng, GF5, max_size=15, nvars=3)
        d = phi.formal_degree()
        if d < 2:
            continue
        path = find_degree_vertex(phi, d // 2)
        h, rest = split_linear(phi, path)
        g = phi.subtree(path).poly()
        assert phi.poly() == h * g + rest


def ref_split_linear(phi, path):
    """The two-accumulator fold: walking up from the vertex, a sum gate adds
    its sibling to f and a product gate multiplies both h and f by it."""
    siblings = []
    node = phi.root
    for step in path:
        if not isinstance(node, Gate):
            raise FormulaError(f"path {path} leaves the tree")
        siblings.append((node.op, node.right if step == 0 else node.left))
        node = node.left if step == 0 else node.right
    h = Polynomial.constant(phi.field, 1)
    rest = Polynomial.zero(phi.field)
    for op, sib in reversed(siblings):
        s = Formula(sib, phi.field).poly()
        if op == "+":
            rest = rest + s
        else:
            h, rest = h * s, rest * s
    return h, rest


@pytest.mark.parametrize("spec", ["gf(4)", "gf(5)", "gf(11)"])
def test_split_linear_matches_the_fold_on_every_path(spec):
    field = make_field(spec)
    rng = SplitMix64(99)
    through_sum = 0
    for i in range(60):
        phi = random_formula(rng, field, max_size=3 + i % 14, nvars=1 + i % 4)
        for path, _ in phi.paths():
            assert split_linear(phi, path) == ref_split_linear(phi, path)
            gates = [phi.node_at(path[:j]) for j in range(len(path))]
            through_sum += any(gate.op == "+" for gate in gates)
    assert through_sum > 100


def test_split_linear_rejects_a_path_through_a_leaf():
    phi = f("(x1 + x2) * x3")
    for bad in ((1, 0), [0, 1, 1]):
        message = f"path {bad} leaves the tree"
        with pytest.raises(FormulaError, match=re.escape(message)):
            split_linear(phi, bad)
        with pytest.raises(FormulaError, match=re.escape(message)):
            ref_split_linear(phi, bad)


def test_multiplier_expands_only_product_siblings(monkeypatch):
    phi = f("((x1*x2 + x3) * x2 + x1) * (x3 + 1) + x1*x3*x2")
    real = formula_mod._expand
    expanded = []
    monkeypatch.setattr(formula_mod, "_expand",
                        lambda node, *memo: expanded.append(node) or real(node, *memo))
    for path, _ in phi.paths():
        expanded.clear()
        formula_mod._multiplier(formula_mod._descend(phi.root, path)[0], phi.field)
        siblings = []
        for j, step in enumerate(path):
            gate = phi.node_at(path[:j])
            if gate.op == "*":
                siblings.append(gate.right if step == 0 else gate.left)
        assert expanded == siblings[::-1]


def test_multiplier_stops_once_h_is_zero(monkeypatch):
    phi = f("(x1 * 0) * (x2 + 1) * (x3 + 1) * (x1 + x2)")
    path = find_degree_vertex(phi, 1)
    assert path == (0, 0, 0, 0)
    real_expand, real_product = formula_mod._expand, formula_mod._product
    expanded, products = [], []
    monkeypatch.setattr(formula_mod, "_expand",
                        lambda node, *memo: expanded.append(node) or real_expand(node, *memo))
    monkeypatch.setattr(formula_mod, "_product",
                        lambda F, a, b, fdeg: products.append(b) or real_product(F, a, b, fdeg))
    h = formula_mod._multiplier(formula_mod._descend(phi.root, path)[0], phi.field, {})
    assert not h
    assert expanded == [phi.node_at((0, 0, 0, 1))]     # the 0; nothing above it
    assert products == []                              # the first sibling is h
    monkeypatch.undo()
    assert peel_bullets_hold(phi, 3).k == 0


def test_peel_forms_no_rest(monkeypatch):
    def forbidden(*args):
        raise AssertionError("peel_decompose formed f")

    monkeypatch.setattr(formula_mod, "split_linear", forbidden)
    dec = peel_decompose(f("(x1 + x2*x3) * (x2 + x1*x3) * x3 + x1*x2"), 3)
    assert dec.k >= 1 and dec.identity_holds()


def test_replace_with_constant():
    phi = f("(x1 + x2) * x3 + x1")
    path = (0, 0)  # the left factor x1 + x2
    psi = replace_with_constant(phi, path, GF5.element(2))
    assert psi.poly() == parse_polynomial("2*x3 + x1", GF5)


# -- peeling ---------------------------------------------------------------------

def peel_bullets_hold(phi, d_prime):
    dec = peel_decompose(phi, d_prime)
    assert dec.identity_holds()
    for lo, hi in dec.pairs:
        assert lo.is_constant_free() and hi.is_constant_free()
    assert dec.residual.formal_degree() < d_prime
    assert dec.k * Fraction(d_prime, 3) <= phi.size
    return dec


def test_peel_small_grid():
    rng = SplitMix64(2024)
    done = 0
    for _ in range(60):
        phi = random_formula(rng, GF5, max_size=20, nvars=5)
        for d_prime in (3, 4, 5):
            peel_bullets_hold(phi, d_prime)
            done += 1
    assert done == 180


def test_peel_on_a_known_formula():
    phi = f("(x1 + x2*x3) * (x2 + x1*x3) * x3 + x1*x2")
    dec = peel_decompose(phi, 3)
    assert dec.k >= 1
    assert dec.identity_holds()
    assert dec.residual.formal_degree() < 3


@pytest.mark.parametrize("spec", ["gf(4)", "gf(9)"])
def test_peel_strips_extension_field_constants(spec):
    # alpha and beta are elements off the prime subfield, so h - alpha and
    # g - beta must keep the whole constant, not its prime-subfield residue
    field = make_field(spec)
    peel_bullets_hold(random_formula(SplitMix64(12), field, 6, 3), 3)
    for seed in range(100):
        peel_bullets_hold(random_formula(SplitMix64(seed), field, 8, 3), 3)
    dec = peel_bullets_hold(parse_formula("(x3 + t) * (x1 + 1) * (x1 + t)", field), 3)
    assert dec.k == 1


def test_peel_requires_d_prime_at_least_one():
    with pytest.raises(FormulaError):
        peel_decompose(f("x1"), 0)


# -- Ben-Or ------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 7))
def test_ben_or_equals_esp(n):
    for d in range(1, n + 1):
        phi = ben_or(n, d, GF11)
        assert phi.poly() == gen_esp(n, d, GF11)
        assert phi.size <= (n + 1) * n


def test_ben_or_needs_enough_field_elements():
    with pytest.raises(FormulaError):
        ben_or(5, 2, GF5)  # needs n+1 = 6 distinct interpolation nodes


@pytest.mark.parametrize("n", [2000, 2047])
def test_ben_or_within_the_leaf_bound_goes_on_to_solve(monkeypatch, n):
    def solve(*args):
        raise LookupError("solving")

    monkeypatch.setattr(formula_mod, "_interpolation_weights", solve)
    with pytest.raises(LookupError):
        ben_or(n, 3, QQ)


@pytest.mark.parametrize("n, spec", [(2048, "q"), (70000, "gf(2147483647)")])
def test_ben_or_refuses_past_the_leaf_bound_before_any_work(monkeypatch, n, spec):
    def forbidden(*args):
        raise AssertionError("ben_or worked before checking its leaf bound")

    monkeypatch.setattr(formula_mod, "_interpolation_weights", forbidden)
    field = make_field(spec)
    monkeypatch.setattr(type(field), "element_at", forbidden)
    assert n * (n + 1) > formula_mod.MAX_BEN_OR_LEAVES == 1 << 22
    message = (f"{n * (n + 1)} leaves for n = {n} exceed the fixed bound of "
               f"4194304 Ben-Or leaves")
    with pytest.raises(FormulaError, match=f"^{message}$"):
        ben_or(n, 3, field)


def test_ben_or_over_rationals():
    assert ben_or(4, 2, QQ).poly() == gen_esp(4, 2, QQ)


# -- lower bound reports --------------------------------------------------------------

def test_lower_bound_values():
    assert lower_bound_report(10, 4) == Fraction(4 * (10 - 3), 6)
    assert lower_bound_report(10, 4, dim_v2=2) == Fraction(4 * 8, 6)
    with pytest.raises(FormulaError):
        lower_bound_report(5, 2)


def test_lower_bound_stays_below_ben_or_size():
    for n in range(3, 8):
        for d in range(3, n + 1):
            assert lower_bound_report(n, d) <= ben_or(n, d, GF11).size


# -- deterministic fuzz source ---------------------------------------------------------

def test_random_formula_is_deterministic():
    a = random_formula(SplitMix64(5), GF5, max_size=10, nvars=3)
    b = random_formula(SplitMix64(5), GF5, max_size=10, nvars=3)
    assert str(a) == str(b)
    assert a.size <= 10
    # the seeded stream fixes the tree: seeds reproduce across versions
    assert str(a) == ("(x2 + ((((4*x2 + 4) + ((4*x1 + 4) + ((4*x3) + (2*x2)))) * "
                      "(((2*x2 + 3) * (x1 + 4)) * 2)) + (2*x1 + 1)))")


def ref_random_formula(rng, field, max_size, nvars):
    """random_formula's generator on Polynomial labels: the oracle for its
    draws and trees, call for call."""
    q = field.order

    def random_leaf():
        if rng.below(6) == 0:
            return Leaf(Polynomial.constant(field, field.element_at(rng.below(q))))
        v = 1 + rng.below(nvars)
        coeff = field.element_at(1 + rng.below(q - 1))
        label = Polynomial.variable(field, v).scale(coeff)
        if rng.below(2):
            label = label + Polynomial.constant(field, field.element_at(rng.below(q)))
        return Leaf(label)

    tasks, built = [1 + rng.below(max_size)], []
    while tasks:
        task = tasks.pop()
        if isinstance(task, str):
            right = built.pop()
            built.append(Gate(task, built.pop(), right))
        elif task == 1:
            built.append(random_leaf())
        else:
            k1 = 1 + rng.below(task - 1)
            tasks += ["+" if rng.below(2) else "*", task - k1, k1]
    return Formula(built[0], field)


def _drawn(generate, seed, *args):
    """(text of the tree or of the error, rng state after) of one call."""
    rng = SplitMix64(seed)
    try:
        text = str(generate(rng, *args))
    except ValueError as error:
        text = f"{type(error).__name__}: {error}"
    return text, rng.state


@pytest.mark.parametrize("spec", ["gf(2)", "gf(5)", "gf(4)", "gf(9)", "gf(1009)"])
def test_random_formula_keeps_the_draws_of_polynomial_labels(spec):
    field = make_field(spec)
    for seed in range(60):
        args = (field, 1 + seed % 25, 1 + seed % 6)
        assert _drawn(random_formula, seed, *args) == _drawn(ref_random_formula, seed, *args)
        leaves = [[(node.terms, node.nvars, node.fdeg, node.size) for _, node in phi.paths()
                   if isinstance(node, Leaf)]
                  for phi in (random_formula(SplitMix64(seed), *args),
                              ref_random_formula(SplitMix64(seed), *args))]
        assert leaves[0] == leaves[1]


def test_random_formula_checks_a_variable_index_after_the_same_draws():
    # x_v past MAX_VARIABLE_INDEX raises where Polynomial.variable raised
    raised = 0
    for seed in range(30):
        got = _drawn(random_formula, seed, GF5, 1 + seed % 4, 1 << 40)
        assert got == _drawn(ref_random_formula, seed, GF5, 1 + seed % 4, 1 << 40)
        raised += got[0].startswith("ValueError: variable index")
    assert raised > 20


def test_random_formula_needs_a_finite_field_before_any_draw():
    rng = SplitMix64(9)
    with pytest.raises(FormulaError, match=r"^random_formula needs a finite field, not q$"):
        random_formula(rng, make_field("q"), 5, 2)
    assert rng.state == SplitMix64(9).state


# -- oracles for the cached metadata and the bottom-up vertex pick ------------

def ref_fdeg(node):
    if isinstance(node, Leaf):
        return max(node.label.degree(), 0)
    a, b = ref_fdeg(node.left), ref_fdeg(node.right)
    return max(a, b) if node.op == "+" else a + b


def ref_size(node):
    if isinstance(node, Leaf):
        return 1 if node.label.degree() >= 1 else 0
    return ref_size(node.left) + ref_size(node.right)


def ref_degree_vertex(phi, t):
    """Every path, key (-len(path), path): deepest first, then leftmost."""
    hits = [path for path, node in phi.paths() if t <= ref_fdeg(node) <= 2 * t - 1]
    return min(hits, key=lambda path: (-len(path), path))


def seeded_trees(count=300):
    rng = SplitMix64(4242)
    for i in range(count):
        yield random_formula(rng, GF5, max_size=4 + i % 28, nvars=1 + i % 6)


def test_cached_metadata_and_vertex_pick_match_reference_walks():
    picks = 0
    for i, phi in enumerate(seeded_trees()):
        cur = phi
        while True:
            for _, node in cur.paths():
                assert node.fdeg == ref_fdeg(node)
                assert node.size == ref_size(node)
            assert cur.formal_degree() == ref_fdeg(cur.root)
            assert cur.size == ref_size(cur.root)
            d = cur.formal_degree()
            if d < 2:
                break
            for t in range(1, d // 2 + 1):
                assert find_degree_vertex(cur, t) == ref_degree_vertex(cur, t)
                picks += 1
            # descend as a peel would: cut out a deepest window vertex
            path = find_degree_vertex(cur, max(1, d // 3))
            cur = replace_with_constant(cur, path, GF5.element(i % 5))
    assert picks > 1000


# -- malformed nodes are refused where they are built --------------------------

def _bury(bad):
    """A valid tree over GF(5) with `bad` three levels down on the right;
    bad is a callable, so the node it builds is built inside the tree."""
    x1 = Leaf(parse_polynomial("x1 + 1", GF5))
    x2 = Leaf(parse_polynomial("2*x2", GF5))
    return Gate("+", Gate("*", x1, x2), Gate("*", x2, Gate("+", x1, bad())))


@pytest.mark.parametrize("make_bad, error, message", [
    (lambda: Leaf(parse_polynomial("x1", GF11)), FieldError,
     "mixed fields in a formula gate: gf(5) and gf(11)"),
    (lambda: Leaf(parse_polynomial("x1*x2", GF5)), FormulaError,
     "leaf label x1*x2 has degree > 1"),
    (lambda: Gate("-", Leaf(parse_polynomial("x3", GF5)), Leaf(parse_polynomial("x4", GF5))),
     FormulaError, "unknown gate op '-'"),
    (lambda: parse_polynomial("x3", GF5), FormulaError,
     "not a formula node: <poly x3 over gf(5)>"),
], ids=["mixed-field", "degree-2-leaf", "unknown-op", "non-node-child"])
def test_malformed_trees_raise_the_walks_message(make_bad, error, message):
    # the messages a whole-tree walk in Formula(...) once gave; now the bad
    # node's own constructor gives them, before any tree holds it
    with pytest.raises(error) as info:
        _bury(make_bad)
    assert str(info.value) == message


def test_formula_refuses_a_root_over_another_field_or_a_non_node():
    phi = parse_formula("x1*x2 + 3", GF5)
    with pytest.raises(FormulaError, match=r"^leaf over gf\(5\) in a formula over gf\(7\)$"):
        Formula(phi.root, GF7)
    with pytest.raises(FormulaError, match=r"^not a formula node: <poly x1 over gf\(5\)>$"):
        Formula(parse_polynomial("x1", GF5), GF5)
    with pytest.raises(FormulaError, match=r"^leaf label 3 is not a Polynomial$"):
        Leaf(3)
    with pytest.raises(FieldError, match=r"^mixed fields in a formula gate: gf\(5\) and gf\(7\)$"):
        phi + Formula(Leaf(Polynomial.variable(GF7, 1)), GF7)
    assert Formula(phi.root, GF5).nvars == 2


# -- the O(n^2) interpolation solve against Gaussian elimination ---------------

def _solve_linear(rows, rhs, F):
    """Gaussian elimination on raw values; the matrix must be square and
    nonsingular."""
    n = len(rows)
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != F.zero_raw), None)
        if pivot is None:
            raise FormulaError("singular interpolation system")
        m[col], m[pivot] = m[pivot], m[col]
        inv = F.inv_raw(m[col][col])
        m[col] = [F.mul_raw(x, inv) for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != F.zero_raw:
                factor = m[r][col]
                m[r] = [F.sub_raw(x, F.mul_raw(factor, y))
                        for x, y in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


@pytest.mark.parametrize("field", [GF11, GF1009, QQ, GF16, GF27], ids=str)
def test_interpolation_weights_match_gaussian_elimination(field):
    # GF(27): odd characteristic in an extension, where some k*P_k of the
    # derivative vanish mod 3
    for n in range(0, 13):
        if field.order is not None and field.order < n + 1:
            break
        nodes = [field.element_at(j).raw for j in range(n + 1)]
        for d in range(n + 1):
            rows = [[field.pow_raw(a, n - k) for a in nodes] for k in range(n + 1)]
            rhs = [field.one_raw if k == d else field.zero_raw for k in range(n + 1)]
            assert _interpolation_weights(nodes, n - d, field) == _solve_linear(rows, rhs, field)


# -- checking Ben-Or without the 2^n expansion ---------------------------------

def _perturb(phi, change, i=0):
    """phi with leaf i of its middle summand relabelled change(label); leaf
    0 carries the summand's c_j."""
    summands = _operands(phi.root, "+")
    j = len(summands) // 2
    factors = _operands(summands[j], "*")
    factors[i] = Leaf(change(factors[i].label))
    new = factors[0]
    for leaf in factors[1:]:
        new = Gate("*", new, leaf)
    summands[j] = new
    root = summands[0]
    for s in summands[1:]:
        root = Gate("+", root, s)
    return Formula(root, phi.field)


def test_computes_esp_agrees_with_expansion():
    for n in range(1, 9):
        for d in range(0, n + 1):
            phi = ben_or(n, d, GF11)
            assert _interpolation_terms(phi, n) is not None
            assert computes_esp(phi, n, d) is True
            assert phi.poly() == gen_esp(n, d, GF11)
            for other in {(d + 1) % (n + 1), (d + n) % (n + 1)} - {d}:
                assert computes_esp(phi, n, other) is False
                assert phi.poly() != gen_esp(n, other, GF11)
            bad = _perturb(phi, lambda label: label.scale(3))
            assert _interpolation_terms(bad, n) is not None
            assert computes_esp(bad, n, d) is False
            assert bad.poly() != gen_esp(n, d, GF11)


def test_computes_esp_expands_a_ben_or_tree_with_a_tampered_later_leaf(monkeypatch):
    # x_n + a_j + 1 in place of x_n + a_j is off ben_or's shape, so the
    # tree is expanded against gen_esp, and it no longer computes e_d
    expanded = []
    monkeypatch.setattr(formula_mod, "gen_esp",
                        lambda *args: expanded.append(args) or gen_esp(*args))
    for n in range(2, 7):
        for d in range(n + 1):
            bad = _perturb(ben_or(n, d, GF11), lambda label: label + 1, n - 1)
            assert _interpolation_terms(bad, n) is None
            assert computes_esp(bad, n, d) is False
            assert expanded[-1] == (n, d, GF11)


def test_computes_esp_sees_every_coefficient_of_a_sum_of_ben_or_trees():
    # the summands of ben_or(n, d) and ben_or(n, d2) in one chain compute
    # e_d + e_d2, still in ben_or's shape; d2 = 0 moves only the constant
    for n in range(1, 6):
        for d in range(n + 1):
            for d2 in range(n + 1):
                parts = (_operands(ben_or(n, d, GF11).root, "+")
                         + _operands(ben_or(n, d2, GF11).root, "+"))
                root = parts[0]
                for part in parts[1:]:
                    root = Gate("+", root, part)
                phi = Formula(root, GF11)
                assert _interpolation_terms(phi, n) is not None
                for target in (d, d2):
                    assert computes_esp(phi, n, target) is False
                    assert phi.poly() != gen_esp(n, target, GF11)


def test_computes_esp_expands_other_shapes():
    assert computes_esp(f("x1*x2 + x1*x3 + x2*x3"), 3, 2)
    assert not computes_esp(f("x1*x2 + x1*x3"), 3, 2)
    assert computes_esp(f("x1 * x2"), 2, 2)          # one summand, c = 1, a = 0
    assert not computes_esp(f("3 * x2"), 2, 1)        # no x1 in the first leaf
    # ben_or's tree with its summands swapped is no longer its shape
    phi = ben_or(3, 2, GF11)
    swapped = Formula(Gate("+", phi.root.right, phi.root.left), GF11)
    assert _interpolation_terms(swapped, 3) is None
    assert computes_esp(swapped, 3, 2)
    assert computes_esp(ben_or(0, 0, GF11), 0, 0)


# -- no recursion: deep trees under a small stack ---------------------------------

def test_deep_trees_need_no_recursion(recursion_limit):
    nested = "(" * 2000 + "x1" + ")" * 2000
    chain = "*".join(["(x1+x2)"] * 1500)
    short_chain = "*".join(["(x1+x2)"] * 200)
    with recursion_limit():
        phi = parse_formula(nested, GF5)
        assert (phi.formal_degree(), phi.size, str(phi)) == (1, 1, "x1")
        psi = parse_formula(chain, GF5)
        assert (psi.formal_degree(), psi.size) == (1500, 3000)
        assert str(psi) == "(" * 1499 + "(x1 + x2) * " + " * ".join(["(x1 + x2))"] * 1499)
        assert psi.poly() == parse_polynomial("x1 + x2", GF5) ** 1500
        deep = (0,) * 1499
        assert psi.subtree(deep).formal_degree() == 1
        assert replace_with_constant(psi, deep, GF5.element(1)).formal_degree() == 1499
        dec = peel_decompose(parse_formula(short_chain, GF5), 3)
        assert dec.identity_holds()
        tree = random_formula(SplitMix64(1), GF5, max_size=3000, nvars=4)
        again = parse_formula(str(tree), GF5)
        assert (again.size, again.formal_degree()) == (tree.size, tree.formal_degree())
        big = ben_or(150, 3, GF1009)
        assert (big.formal_degree(), big.size) == (150, 151 * 150)
        assert str(big).count("x150") == 151
        assert computes_esp(big, 150, 3)


# -- peel rounds on cells: the rebuilding peel as the oracle ------------------

def preorder_degree_vertex(phi, t):
    """The pick as one preorder walk, left before right, so the first vertex
    met at the greatest depth is the leftmost there; a subtree whose root is
    below t holds no candidate and is skipped."""
    hi = 2 * t - 1
    best, best_depth = None, -1
    stack = [(phi.root, ())]
    while stack:
        node, path = stack.pop()
        if node.fdeg <= hi and len(path) > best_depth:
            best, best_depth = path, len(path)
        if isinstance(node, Gate):
            if node.right.fdeg >= t:
                stack.append((node.right, path + (1,)))
            if node.left.fdeg >= t:
                stack.append((node.left, path + (0,)))
    return best


def ref_peel_decompose(phi, d_prime):
    """The peel as a loop over immutable formulas, nothing memoized: each
    round picks with find_degree_vertex, checked against the preorder walk,
    and builds the next formula with replace_with_constant.  Returns the
    decomposition and the picks, one per round."""
    t = -(-d_prime // 3)
    cur, pairs, picks = phi, [], []
    extras = Polynomial.zero(phi.field)
    while cur.formal_degree() >= d_prime:
        v = find_degree_vertex(cur, t)
        assert v == preorder_degree_vertex(cur, t)
        picks.append(v)
        steps, node = formula_mod._descend(cur.root, v)
        h = formula_mod._multiplier(steps, cur.field)
        g = Formula(node, cur.field).poly()
        alpha, beta = h.constant_term(), g.constant_term()
        h0, g0 = h - alpha, g - beta
        if h0 and g0:
            pairs.append((h0, g0))
        if not alpha.is_zero and g0:
            extras = extras + g0.scale(alpha)
        cur = replace_with_constant(cur, v, beta)
    residual = cur if extras.is_zero else cur + formula_mod._poly_to_formula(extras)
    return formula_mod.PeelDecomposition(phi, residual, pairs, d_prime), picks


def recorded_picks(monkeypatch):
    """Wrap the library peel's per-round pick; returns the list that each
    pick is appended to, as a path."""
    real = formula_mod._follow_pick
    made = []

    def recorded(top, picks):
        steps, vertex = real(top, picks)
        made.append(tuple(step for _, step in steps))
        return steps, vertex

    monkeypatch.setattr(formula_mod, "_follow_pick", recorded)
    return made


def peel_as_reference(phi, d_prime, made):
    """Peel phi both ways under recorded_picks; the picks agree round by
    round and the outputs agree.  Returns the decomposition and the picks."""
    ref, picks = ref_peel_decompose(phi, d_prime)
    made.clear()                # find_degree_vertex reads its pick the same way
    dec = peel_decompose(phi, d_prime)
    assert made == picks
    assert dec.to_json() == ref.to_json()
    assert [(g.nvars, h.nvars) for g, h in dec.pairs] == [(g.nvars, h.nvars) for g, h in ref.pairs]
    return dec, picks


def oracle_trees(spec, count):
    """Seeded trees over spec's field, or over q with gf(7)'s shapes and
    coefficients."""
    rng = SplitMix64(5150)
    field = GF7 if spec == "q" else make_field(spec)
    for i in range(count):
        phi = random_formula(rng, field, max_size=6 + i % 34, nvars=1 + i % 5)
        yield _copy(phi.root, QQ) if spec == "q" else phi


def _copy(root, field=None):
    """The tree rebuilt with fresh gates, so it shares no gate with root;
    over field, each leaf label is read again from its text."""
    built, stack = [], [(root, False)]
    while stack:
        node, ready = stack.pop()
        if isinstance(node, Leaf):
            built.append(node if field is None else Leaf(parse_polynomial(str(node.label), field)))
        elif ready:
            right = built.pop()
            built.append(Gate(node.op, built.pop(), right))
        else:
            stack += [(node, True), (node.right, False), (node.left, False)]
    return Formula(built[0], field or root.field)


@pytest.mark.parametrize("spec", ["gf(5)", "gf(7)", "q", "gf(4)", "gf(9)"])
def test_every_memoized_pick_matches_the_preorder_walk(monkeypatch, spec):
    made = recorded_picks(monkeypatch)
    picks = []
    for phi in oracle_trees(spec, 80):
        for d_prime in range(3, 7):
            dec, round_picks = peel_as_reference(phi, d_prime, made)
            assert dec.identity_holds()
            picks += round_picks
    assert len(picks) > 300
    assert len(set(picks)) > 20


@pytest.mark.parametrize("op", ["+", "*"])
def test_shared_subtrees_peel_as_their_unshared_copies(monkeypatch, op):
    made = recorded_picks(monkeypatch)
    picks = []
    for phi in oracle_trees("gf(5)", 24):
        shared = Formula(Gate(op, phi.root, phi.root), GF5)
        for d_prime in range(3, 7):
            dec, round_picks = peel_as_reference(shared, d_prime, made)
            picks += round_picks
            assert dec.to_json() == peel_decompose(_copy(shared.root), d_prime).to_json()
    assert len(picks) > 200
    # half the rounds run in the right-hand copy of the shared subtree
    assert sum(path[0] == 1 for path in picks) > 50


def test_a_pick_memo_reused_with_another_t_gives_no_stale_path():
    phi = f("(x1 * x2 * x3) * (x1 + x2)")
    # the root's pick for t = 1 is x1, of formal degree 1, outside [2, 3]
    assert find_degree_vertex(phi, 1) == (0, 0, 0)
    assert find_degree_vertex(phi, 2) == (0, 0)
    assert find_degree_vertex(phi, 1) == (0, 0, 0)
    rng = SplitMix64(808)
    checked = 0
    for i in range(80):
        phi = random_formula(rng, GF5, max_size=8 + i % 30, nvars=3)
        ts = list(range(1, phi.formal_degree() // 2 + 1))
        for t in ts + ts[::-1]:
            assert find_degree_vertex(phi, t) == preorder_degree_vertex(phi, t)
            checked += 1
    assert checked > 200


def doubling_dag(levels):
    """Gate("+", S, S) stacked levels deep over the leaf x4 + 1: formal
    degree 1, 2^levels paths, levels + 1 distinct nodes."""
    node = Leaf(parse_polynomial("x4 + 1", GF5))
    for _ in range(levels):
        node = Gate("+", node, node)
    return node


def test_a_shared_dag_below_t_is_neither_copied_nor_walked_per_path():
    def ring(signum, frame):
        raise TimeoutError("the peel walked the shared DAG path by path")

    dag = doubling_dag(40)
    old = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        low = peel_decompose(Formula(Gate("*", f("x1").root, dag), GF5), 3)
        high = peel_decompose(Formula(Gate("*", f("x1*x2*x3").root, dag), GF5), 4)
        # Formula.poly() expands each distinct gate once, so the identity
        # is checked in time; the residual's text would be 2^40 leaves long
        assert low.identity_holds() and high.identity_holds()
        with pytest.raises(FormulaError, match=r"^the formula renders \d+ leaves, past the "
                                               r"fixed bound of 4194304$"):
            high.to_json()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert (low.k, low.pairs) == (0, [])
    assert high.k == 1
    assert high.pairs == [(parse_polynomial("x3*x4 + x3", GF5), parse_polynomial("x1*x2", GF5))]



def test_split_linear_expands_a_shared_sibling_once_per_gate():
    def ring(signum, frame):
        raise TimeoutError("the multiplier expanded the shared DAG path by path")

    # the sibling of x1*x2*x3 has 2^40 paths over 41 distinct nodes
    phi = Formula(Gate("*", f("x1*x2*x3").root, doubling_dag(40)), GF5)
    old = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        h, rest = split_linear(phi, (0,))
        assert phi.poly() == h * parse_polynomial("x1*x2*x3", GF5) + rest
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    # 2^40 = 1 mod 5
    assert h == parse_polynomial("x4 + 1", GF5)
    assert not rest


def test_a_shared_dag_above_t_costs_its_distinct_gates():
    def ring(signum, frame):
        raise TimeoutError("the pick copied the shared DAG path by path")

    # S: 40 levels of Gate("+", S, S) over x5*x6, formal degree 2 >= t = 2,
    # beside a deeper left side whose pick the one round takes
    s = f("x5*x6").root
    for _ in range(40):
        s = Gate("+", s, s)
    deep = f("x3*x4").root
    for _ in range(100):
        deep = Gate("+", f("2").root, deep)
    phi = Formula(Gate("+", Gate("*", f("x1").root, Gate("*", f("x2").root, deep)), s), GF5)
    old = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        path = find_degree_vertex(phi, 2)
        dec = peel_decompose(phi, 4)
        assert dec.identity_holds()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert path == (0, 1, 1) + (1,) * 100
    assert dec.k == 1
    assert dec.pairs == [(parse_polynomial("x1*x2", GF5), parse_polynomial("x3*x4", GF5))]
    assert dec.residual.root.right is s


def random_dag(rng, gates):
    """A DAG over GF(5) whose every gate takes two random earlier nodes, so
    that gates are shared; the last gate is the root."""
    nodes = [f(text).root for text in ("x1 + 1", "2*x2", "3", "x3")]
    for _ in range(gates):
        a, b = nodes[rng.below(len(nodes))], nodes[rng.below(len(nodes))]
        nodes.append(Gate("+" if rng.below(2) else "*", a, b))
    return nodes[-1]


def test_sharing_matches_a_walk_of_every_path():
    # the parents and leaves _sharing counts over distinct gates, against a
    # walk of every root-to-leaf path; poly() against the memo-free _expand
    rng = SplitMix64(17)
    for gates in (1, 2, 5, 9, 14):
        for _ in range(10):
            root = random_dag(rng, gates)
            phi = Formula(root, GF5)
            distinct = {node for _, node in phi.paths() if isinstance(node, Gate)}
            parents = Counter(child for gate in distinct for child in (gate.left, gate.right)
                              if isinstance(child, Gate))
            shared, leaves = formula_mod._sharing(root)
            assert shared == {gate for gate, k in parents.items() if k > 1}
            assert leaves == sum(isinstance(node, Leaf) for _, node in phi.paths())
            assert phi.poly()._terms == formula_mod._expand(root)
    # a child met first from the root but expanded under a later sibling:
    # r = b + x with b = x * w must finish x before b
    x = f("x1*x2 + 3").root
    b = Gate("*", x, f("x3").root)
    assert formula_mod._sharing(Gate("+", b, x)) == ({x}, 7)
    assert formula_mod._sharing(f("x1").root) == (set(), 1)
    tree = ben_or(6, 3, GF11)
    assert formula_mod._sharing(tree.root) == (set(), tree.size)


def test_str_refuses_past_the_render_bound_before_any_text(monkeypatch):
    assert formula_mod.MAX_RENDER_LEAVES >= formula_mod.MAX_BEN_OR_LEAVES

    def forbidden(*args):
        raise AssertionError("str built text past the render bound")

    monkeypatch.setattr(formula_mod, "MAX_RENDER_LEAVES", 8)
    text = "(x4 + 1)"
    for _ in range(3):
        text = f"({text} + {text})"
    assert str(Formula(doubling_dag(3), GF5)) == text          # 8 leaves: at the bound
    monkeypatch.setattr(formula_mod, "_render", forbidden)
    with pytest.raises(FormulaError, match=r"^the formula renders 16 leaves, past the "
                                           r"fixed bound of 8$"):
        str(Formula(doubling_dag(4), GF5))


# -- output identity: digests of the outputs before the peel memos -------------

PEEL_DIGEST = "d7df79760ed32b2ad8f92a5055e43fa751a077c9bb68ec2b8b51d8ee31d5ca14"
BEN_OR_DIGEST = "cd8f633676efccf6792b10dc5dac1a1c506f4202d0cfd683eb63be7099227a7e"


def test_peel_outputs_match_the_pinned_digest():
    digest = hashlib.sha256()
    rng = SplitMix64(2718)
    for i in range(200):
        phi = random_formula(rng, GF5, max_size=6 + i % 30, nvars=1 + i % 5)
        for d_prime in range(3, 7):
            text = json.dumps(peel_decompose(phi, d_prime).to_json(), sort_keys=True)
            digest.update(text.encode())
    assert digest.hexdigest() == PEEL_DIGEST


def formula_corpus(rng, count):
    """Seeded formula texts over gf(5), gf(4) and q: random trees spelled
    with spare parentheses, spacing, and '-' where a sum may open."""
    literals = {"gf(5)": ["x1", "x2", "x3", "2*x1", "3", "0", "x2^1", " 4 ", "x1^0"],
                "gf(4)": ["x1", "x2", "t", "(t+1)", "t*x2", "1", "x3", "(t)"],
                "q": ["x1", "x2", "1/2", "3", "x3", "1/3*x1", "0", "(-2)"]}
    specs = list(literals)
    corpus = []
    for _ in range(count):
        spec = specs[rng.below(3)]
        pool = literals[spec]
        built, tasks = [], [1 + rng.below(5)]
        while tasks:
            task = tasks.pop()
            if isinstance(task, str):
                right = built.pop()
                text = built.pop() + task + right
                if rng.below(3) == 0:
                    text = "(" + ("-" if rng.below(3) == 0 else "") + text + ")"
                built.append(text)
            elif task == 0 or rng.below(4) == 0:
                lit = pool[rng.below(len(pool))]
                built.append(lit if rng.below(4) else "(" + lit + ")")
            else:
                tasks += [["+", "-", "*", " * ", " + ", " - "][rng.below(6)], task - 1, task - 1]
        text = built[0]
        corpus.append((("-" if rng.below(5) == 0 else "") + text, spec))
    return corpus


# the trees of the one-frame-per-parenthesis parser that preceded _parse_nested
PARSE_DIGEST = "f4ca2c84d5496108a901b0592fd490feffc8fde521e712d9bd70749a4d5bb256"


def test_parse_outputs_match_the_pinned_digest():
    digest = hashlib.sha256()
    for text, spec in formula_corpus(SplitMix64(1618), 3000):
        digest.update(f"{spec} {text!r} {parse_formula(text, make_field(spec))}\n".encode())
    assert digest.hexdigest() == PARSE_DIGEST


def test_ben_or_outputs_match_the_pinned_digest():
    digest = hashlib.sha256()
    for n in range(13):
        for d in range(n + 1):
            digest.update(str(ben_or(n, d, GF1009)).encode())
    assert digest.hexdigest() == BEN_OR_DIGEST


# -- work bound: a round works along its path only ---------------------------

def test_peel_multiplies_a_bounded_number_of_times_per_round(monkeypatch):
    chain = parse_formula("*".join(["(x1+x2)"] * 300), GF5)
    counts = Counter()
    real_product = formula_mod._product

    def counted_product(*args):
        counts["multiplies"] += 1
        return real_product(*args)

    made = recorded_picks(monkeypatch)
    monkeypatch.setattr(formula_mod, "_product", counted_product)
    dec = peel_decompose(chain, 3)
    monkeypatch.undo()
    # the re-expanding peel made 178,204 multiplies here, about depth per round
    assert len(made) == 596
    assert counts["multiplies"] <= 3 * len(made)
    assert dec.identity_holds()


def test_peel_builds_each_residual_node_once(monkeypatch):
    chain = parse_formula("*".join(["(x1+x2)"] * 300), GF5)
    counts = Counter()
    real_gate, real_leaf = Gate.__init__, formula_mod._leaf
    real_fold = formula_mod._poly_to_formula

    def counted_gate(self, *args):
        counts["gates"] += 1
        real_gate(self, *args)

    def counted_leaf(*args):    # Leaf(label) builds through _leaf too
        counts["leaves"] += 1
        return real_leaf(*args)

    def counted_fold(poly):
        folded = real_fold(poly)
        counts["folded leaves"] += sum(isinstance(node, Leaf) for _, node in folded.paths())
        return folded

    made = recorded_picks(monkeypatch)
    monkeypatch.setattr(Gate, "__init__", counted_gate)
    monkeypatch.setattr(formula_mod, "_leaf", counted_leaf)
    monkeypatch.setattr(formula_mod, "_poly_to_formula", counted_fold)
    dec = peel_decompose(chain, 3)
    monkeypatch.undo()
    # the peel that rebuilt its path each round made 90,888 gates here
    gates = sum(isinstance(node, Gate) for _, node in dec.residual.paths())
    assert counts["gates"] <= gates
    assert counts["leaves"] <= len(made) + counts["folded leaves"]
    assert dec.to_json() == ref_peel_decompose(chain, 3)[0].to_json()


# -- term dicts inside the module: the degree guard and the objects held -------

def squaring_chain(base, levels=32):
    """Gate("*", S, S) stacked levels deep over base, each gate shared by
    its parent's two children: formal degree 2^levels times base's."""
    node = base
    for _ in range(levels):
        node = Gate("*", node, node)
    return node


def test_the_degree_guard_fires_as_polynomial_mul_does():
    def ring(signum, frame):
        raise TimeoutError("the squaring chain was expanded path by path")

    message = r"^total degree 4294967296 exceeds the packed-monomial bound 2\^32 - 1$"
    x1 = f("x1").root
    vanishing = Gate("+", x1, f("-x1").root)      # formal degree 1, value 0
    old = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        # as Polynomial.__mul__ does on x1^(2^31) * x1^(2^31)
        with pytest.raises(ValueError, match=message):
            Formula(squaring_chain(x1), GF5).poly()
        zero = squaring_chain(vanishing)
        assert zero.fdeg >= formula_mod.DEGREE_LIMIT
        assert not Formula(zero, GF5).poly()
        # the multiplier's product of two siblings x1^(2^31), and of zeros
        half = squaring_chain(x1, 31)
        with pytest.raises(ValueError, match=message):
            split_linear(Formula(Gate("*", Gate("*", f("x2").root, half), half), GF5), (0, 0))
        half = squaring_chain(vanishing, 31)
        h, rest = split_linear(Formula(Gate("*", Gate("*", f("x2").root, half), half), GF5),
                               (0, 0))
        assert not h and not rest
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_a_ben_or_tree_holds_one_object_per_node_and_no_polynomial():
    def census():
        return Counter(Polynomial if isinstance(o, Polynomial) else type(o)
                       for o in gc.get_objects())

    gc.collect()
    before = census()
    phi = ben_or(8, 3, GF11)
    held = census()
    nodes = Counter(type(node) for _, node in phi.paths())
    assert nodes[Leaf] == phi.size and nodes[Gate] == phi.size - 1
    assert held[Leaf] - before[Leaf] == nodes[Leaf]
    assert held[Gate] - before[Gate] == nodes[Gate]
    assert held[Polynomial] == before[Polynomial]
    assert not any(gc.is_tracked(node.terms) for _, node in phi.paths()
                   if isinstance(node, Leaf))
