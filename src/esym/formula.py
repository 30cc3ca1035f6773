"""Formula IR: binary +/* trees with affine leaves, formal-degree and size
accounting, the degree-window vertex pick, peel/decompose, the interpolation
construction of e_d as a depth-3 formula, and the matching lower-bound
arithmetic.

Size counts leaves with non-constant labels.  Formal degree is syntactic:
a leaf contributes its label's degree, a sum gate the max of its children,
a product gate the sum; it upper-bounds the degree of the computed
polynomial.  Nodes are addressed by paths: tuples of 0 (left) and 1
(right) from the root.

A node is checked where it is built (an affine Polynomial label; op + or *
over two nodes of one field) and caches its formal degree, size, nvars and
field in O(1) from its children: formal_degree() and size read one
attribute, and Formula(...) checks only its root, never walking the tree.
No function here recurses: walks use explicit stacks, so tree depth is
bounded by memory, not by the interpreter's recursion limit.

peel_decompose repeatedly splits off a product pair around a vertex v whose
formal degree lies in a window [t, 2t-1], t = ceil(d'/3): for
Phi = h*Phi_v + f it emits the constant-free parts of (h, poly(Phi_v)) and
goes on with v replaced by the constant beta of Phi_v, so f is never
formed.  Each round deletes v's subtree, so k rounds obey k*d'/3 <= size,
and Phi = residual + sum f_i*g_i exactly, the residual below d'.  Picks
are set once per distinct gate; a round copies the gates on its path into
mutable cells and rewrites them in place, and the residual is built last.

parse_formula reads the polynomial text grammar with no '^' after a ')' and
every other factor one leaf literal of degree <= 1, on poly's splitter and
explicit-stack driver.

ben_or solves its transposed Vandermonde system in O(n^2) field
operations through the Lagrange basis: with P = prod_j (x - a_j) built once,
c_j is the Horner value at a_j of P's coefficients above x^(n-d) over
P'(a_j), two calls of the field's horner_raw kernel per j.  It builds each
leaf from one packed term dict over keys shared by every leaf;
computes_esp checks a tree of its shape without the 2^n expansion.

Values inside the module are packed term dicts (poly's keys and raws): a
leaf keeps its label's dict, and _leaf builds one from a dict with Leaf's
checks (ben_or, random_formula, the peel's constants).  _expand expands a
tree on dicts, + as a copy and _merge, * as the field's mul_terms, and a
Polynomial is made only where a value leaves: poly(), h, the peel's pairs,
Leaf.label.  Polynomial.__mul__'s degree guard is kept, read only at a *
gate whose formal degree reaches DEGREE_LIMIT: below it, it cannot fire.

Formula.poly() and str count each distinct gate's parents in one walk
(_sharing): poly() keeps the expansions of shared gates only, so a DAG
costs its distinct gates and a tree keeps no memo, and str refuses more
than MAX_RENDER_LEAVES leaves, counted with multiplicity, before any text.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from fractions import Fraction

from .field import FieldDescriptor, FieldError
from .poly import (DEGREE_LIMIT, Polynomial, _check_degree, _check_index, _degree, _merge,
                   _parse_nested, _split_top, _variable_key, _variable_keys, parse_polynomial)
from .rng import SplitMix64
from .symfunc import gen_esp


# ben_or's leaf count n(n+1) may not pass this; at about 500 bytes a leaf
# it keeps a Ben-Or tree near 2 GB at most, and ben_or(2000) within reach
MAX_BEN_OR_LEAVES = 1 << 22
# str(Formula) renders at most this many leaves, counted with multiplicity,
# so that every tree ben_or admits prints and no shared-gate DAG's
# exponentially long text is ever built
MAX_RENDER_LEAVES = MAX_BEN_OR_LEAVES


class FormulaError(ValueError):
    """Raised on malformed trees, bad paths, or violated preconditions."""


class Leaf:
    """A leaf with an affine label; immutable by convention.

    Keeps the label's packed term dict, shared, as terms (over a finite
    field a dict of ints, which the collector does not track); label builds
    a plain Polynomial over it on each read, so a LinearForm comes back as
    one.  Caches fdeg (formal degree), size (1 for a non-constant label),
    nvars and field.  FormulaError unless the label is a Polynomial of
    degree <= 1.
    """

    __slots__ = ("terms", "fdeg", "size", "nvars", "field")

    def __init__(self, label: Polynomial):
        if not isinstance(label, Polynomial):
            raise FormulaError(f"leaf label {label!r} is not a Polynomial")
        _leaf(label.field, label._terms, label.nvars, self)

    @property
    def label(self) -> Polynomial:
        return Polynomial._of(self.field, self.terms, self.nvars)


def _leaf(field: FieldDescriptor, terms: dict, nvars: int, leaf=None) -> Leaf:
    """leaf, or a new Leaf, over a zero-free packed term dict, kept as is;
    FormulaError unless every term has degree <= 1, the Polynomial built
    only to word it."""
    deg = _degree(terms)
    if deg > 1:
        raise FormulaError(f"leaf label {Polynomial._of(field, terms, nvars)} has degree > 1")
    if leaf is None:
        leaf = object.__new__(Leaf)
    leaf.terms = terms
    leaf.fdeg = deg if deg > 0 else 0
    leaf.size = 1 if deg == 1 else 0
    leaf.nvars = nvars
    leaf.field = field
    return leaf


class Gate:
    """A +/* gate over two nodes of one field; immutable by convention.

    Caches fdeg, size, nvars and field from its children.  FormulaError
    for another op or a child that is not a node, FieldError for children
    over different fields.
    """

    __slots__ = ("op", "left", "right", "fdeg", "size", "nvars", "field")

    def __init__(self, op: str, left, right):
        if op != "*" and op != "+":
            raise FormulaError(f"unknown gate op {op!r}")
        if not isinstance(left, _NODES):
            raise FormulaError(f"not a formula node: {left!r}")
        if not isinstance(right, _NODES):
            raise FormulaError(f"not a formula node: {right!r}")
        field = left.field
        if field is not right.field:
            raise FieldError(f"mixed fields in a formula gate: {field} and {right.field}")
        self.op = op
        self.left = left
        self.right = right
        a, b = left.fdeg, right.fdeg
        self.fdeg = (a if a > b else b) if op == "+" else a + b
        self.size = left.size + right.size
        a, b = left.nvars, right.nvars
        self.nvars = a if a > b else b
        self.field = field


_NODES = (Leaf, Gate)


class Formula:
    """An immutable +/* tree over one field; leaves carry affine labels."""

    __slots__ = ("root", "field", "nvars")

    def __init__(self, root, field: FieldDescriptor):
        if not isinstance(root, (Leaf, Gate)):
            raise FormulaError(f"not a formula node: {root!r}")
        if root.field is not field:
            raise FormulaError(f"leaf over {root.field} in a formula over {field}")
        self.root = root
        self.field = field
        self.nvars = root.nvars

    # -- constructors --------------------------------------------------------

    @classmethod
    def combine(cls, op: str, a: "Formula", b: "Formula") -> "Formula":
        return cls(Gate(op, a.root, b.root), a.field)

    def __add__(self, other: "Formula"):
        return Formula.combine("+", self, other)

    def __mul__(self, other: "Formula"):
        return Formula.combine("*", self, other)

    # -- accounting ----------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of leaves whose label is not constant."""
        return self.root.size

    def formal_degree(self) -> int:
        return self.root.fdeg

    def poly(self) -> Polynomial:
        """The computed polynomial, expanded exactly: each distinct gate
        once, as only the gates with more than one parent keep theirs."""
        return Polynomial._of(self.field, _expand(self.root, {}, _sharing(self.root)[0]),
                              self.nvars)

    # -- node addressing -----------------------------------------------------

    def paths(self):
        """Yield (path, node) pairs in preorder."""
        yield from _walk(self.root)

    def node_at(self, path):
        return _descend(self.root, path)[1]

    def subtree(self, path) -> "Formula":
        return Formula(self.node_at(path), self.field)

    def __str__(self):
        leaves = _sharing(self.root)[1]
        if leaves > MAX_RENDER_LEAVES:
            raise FormulaError(f"the formula renders {leaves} leaves, past the fixed bound "
                               f"of {MAX_RENDER_LEAVES}")
        return _render(self.root)

    def __repr__(self):
        return f"<Formula size={self.size} fdeg={self.formal_degree()} over {self.field}>"


def _walk(root):
    stack = [((), root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        if isinstance(node, Gate):
            stack.append((path + (1,), node.right))
            stack.append((path + (0,), node.left))


def _descend(root, path):
    """([(gate, step), ...] from the root down, node at path); FormulaError
    when the path leaves the tree."""
    steps, node = [], root
    for step in path:
        if not isinstance(node, Gate):
            raise FormulaError(f"path {path} leaves the tree")
        steps.append((node, step))
        node = node.left if step == 0 else node.right
    return steps, node


def _sharing(root):
    """(shared, leaves): the set of distinct gates under root with more than
    one parent, and the number of leaves under root counted with
    multiplicity, the leaves str renders.  One walk over the distinct gates:
    a gate is expanded once, counting one parent per child gate, and a child
    still waiting on the stack is pushed again, so in a DAG every child is
    finished before its parent."""
    parents, leaves, stack = {}, {}, [(root, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            leaves[node] = leaves.get(node.left, 1) + leaves.get(node.right, 1)
        elif isinstance(node, Gate) and node not in leaves:
            stack.append((node, True))
            for child in (node.right, node.left):
                if isinstance(child, Gate):
                    parents[child] = parents.get(child, 0) + 1
                    if child not in leaves:
                        stack.append((child, False))
    return {gate for gate, k in parents.items() if k > 1}, leaves.get(root, 1)


def _expand(root, memo=None, shared=None) -> dict:
    """The packed term dict of the polynomial the tree computes, each gate
    combining left with right: + is a copy of the left and _merge, * is
    _product.  No dict is written once made, so the leaves' terms and the
    memo's expansions are shared, never copied.

    memo, when given, maps gates to their expansions: a gate found there is
    read, not walked, and every gate expanded here is added to it, or only
    those in shared when that is given.
    """
    field = root.field
    values = []
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if type(node) is Leaf:
            values.append(node.terms)
        elif ready:
            b, a = values.pop(), values.pop()
            if node.op == "*":
                values.append(_product(field, a, b, node.fdeg))
            else:
                a = dict(a)
                _merge(a, b, field)
                values.append(a)
            if memo is not None and (shared is None or node in shared):
                memo[node] = values[-1]
        elif memo is not None and node in memo:
            values.append(memo[node])
        else:
            stack += [(node, True), (node.right, False), (node.left, False)]
    return values[0]


def _product(field: FieldDescriptor, a: dict, b: dict, fdeg: int) -> dict:
    """a * b for term dicts whose formal degrees add up to fdeg, guarded as
    Polynomial.__mul__ is; formal degree bounds degree, so the degrees are
    read only once fdeg reaches DEGREE_LIMIT."""
    if not a or not b:
        return {}
    if fdeg >= DEGREE_LIMIT:
        _check_degree(_degree(a) + _degree(b))
    return field.mul_terms(a, b)


def _render(root) -> str:
    """Fully parenthesized text; a gate's left spine is walked in place."""
    out = []
    stack = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        while isinstance(item, Gate):
            out.append("(")
            stack += [")", item.right, f" {item.op} "]
            item = item.left
        s = str(item.label)
        out.append(f"({s})" if "+" in s or "-" in s or "*" in s else s)
    return "".join(out)


# ---------------------------------------------------------------------------
# vertex pick and linear split

def find_degree_vertex(phi: Formula, t: int):
    """Path of a vertex with formal degree in [t, 2t-1].

    Requires 1 <= t <= formal_degree/2.  Among qualifying vertices the
    deepest is chosen, ties broken leftmost.

    Formal degree never rises from a parent to a child, so only subtrees
    whose root reaches t hold a candidate, and each such subtree holds one:
    a node below 2t has itself, and a node at 2t or above has a child at t
    or above.  The path follows the picks (_picks) down from the root.
    """
    d = phi.formal_degree()
    if t < 1 or 2 * t > d:
        raise FormulaError(f"t = {t} outside [1, {d}/2]")
    picks = _picks(phi.root, t)
    return tuple(step for _, step in _follow_pick(_Cell(phi.root, picks), picks)[0])


class _Cell:
    """A gate's mutable copy made on a round's path; _expand walks it as one."""

    __slots__ = ("op", "left", "right", "fdeg", "nvars", "field", "depth", "step")

    def __init__(self, gate, picks: dict):
        self.op, self.left, self.right, self.fdeg = gate.op, gate.left, gate.right, gate.fdeg
        self.nvars, self.field = gate.nvars, gate.field
        self.depth, self.step = picks[gate]


def _pick(a, b, t: int, picks: dict):
    """(depth, step) of a gate over a and b: the deeper child pick, the left
    on a tie, else the gate itself (0, None); step is the first one down."""
    da = (a.depth if type(a) is _Cell else picks.get(a, (0,))[0]) + 1 if a.fdeg >= t else 0
    db = (b.depth if type(b) is _Cell else picks.get(b, (0,))[0]) + 1 if b.fdeg >= t else 0
    return (db, 1) if db > da else (da, 0) if da else (0, None)


def _picks(root, t: int) -> dict:
    """The picks of root and of each distinct gate below it reaching t."""
    picks, stack = {}, [(root, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            picks[node] = _pick(node.left, node.right, t, picks)
        elif node not in picks:
            stack.append((node, True))
            stack += [(child, False) for child in (node.right, node.left)
                      if isinstance(child, Gate) and child.fdeg >= t]
    return picks


def _follow_pick(top: _Cell, picks: dict):
    """([(cell, step), ...] from top down its picks, the vertex); a gate
    passed through becomes a cell in its parent's place.  Once a round."""
    steps, node = [], top
    while type(node) is _Cell and node.step is not None:
        steps.append((node, node.step))
        child = node.right if node.step else node.left
        if type(child) is Gate and picks[child][1] is not None:
            child = _Cell(child, picks)
            setattr(node, "right" if node.step else "left", child)
        node = child
    return steps, node


def split_linear(phi: Formula, path):
    """(h, f) with phi = h * poly(subtree at path) + f, exactly.

    phi is affine in the value of any one subtree v, so f = phi[v := 0],
    the tree with v replaced by 0, and h is the product of the siblings at
    the * gates on the path.  Like poly(), both expand each distinct gate
    once, keeping the expansions of the shared gates only.
    """
    h = _multiplier(_descend(phi.root, path)[0], phi.field, {}, _sharing(phi.root)[0])
    return h, replace_with_constant(phi, path, 0).poly()


def _multiplier(steps, field: FieldDescriptor, memo=None, shared=None) -> Polynomial:
    """h of split_linear from _descend's steps: the product of the siblings
    at the * gates on the path, multiplied in from the vertex upward, so the
    constants that earlier peel rounds leave near the vertex meet h while it
    is small; the first sibling is h, not 1 times it.  Siblings at + gates
    are never expanded, and once h is 0 no further sibling is.  memo and
    shared are passed on to _expand."""
    h, fdeg, nvars = None, 0, 0
    for gate, step in reversed(steps):
        if gate.op == "*":
            node = gate.right if step == 0 else gate.left
            sibling = _expand(node, memo, shared)
            fdeg += node.fdeg
            nvars = max(nvars, node.nvars)
            h = sibling if h is None else _product(field, h, sibling, fdeg)
            if not h:
                break
    return Polynomial.constant(field, 1) if h is None else Polynomial._of(field, h, nvars)


def replace_with_constant(phi: Formula, path, value) -> Formula:
    """New formula with the subtree at path replaced by a constant leaf.

    The replacement drops every non-constant leaf of the subtree, so the
    size falls by exactly the subtree's size.
    """
    node = Leaf(Polynomial.constant(phi.field, value))
    for gate, step in reversed(_descend(phi.root, tuple(path))[0]):
        node = (Gate(gate.op, node, gate.right) if step == 0
                else Gate(gate.op, gate.left, node))
    return Formula(node, phi.field)


# ---------------------------------------------------------------------------
# peel / decompose

@dataclass
class PeelDecomposition:
    """source = residual + sum of f_i * g_i, with constant-free pairs."""

    source: Formula
    residual: Formula
    pairs: list
    d_prime: int

    @property
    def k(self) -> int:
        return len(self.pairs)

    def _expansions(self):
        """The expansions of source and of residual + sum f_i*g_i."""
        rhs = self.residual.poly()
        for f, g in self.pairs:
            rhs = rhs + f * g
        return self.source.poly(), rhs

    def identity_holds(self) -> bool:
        lhs, rhs = self._expansions()
        return lhs == rhs

    def to_json(self) -> dict:
        lhs, rhs = self._expansions()
        return {
            "d_prime": self.d_prime,
            "k": self.k,
            "residual": str(self.residual),
            "residual_formal_degree": self.residual.formal_degree(),
            "pairs": [[str(f), str(g)] for f, g in self.pairs],
            "source_expansion": str(lhs),
            "decomposition_expansion": str(rhs),
            "identity_holds": lhs == rhs,
        }


def peel_decompose(phi: Formula, d_prime: int) -> PeelDecomposition:
    """Rewrite phi as residual + sum f_i g_i with formal degree of the
    residual below d_prime.

    One round: pick v with formal degree in [t, 2t-1] for t = ceil(d'/3),
    take the multiplier h of phi = h*poly(Phi_v) + f, strip constants
    h = h' + alpha and poly(Phi_v) = g' + beta, emit the pair (h', g'), and
    continue on phi with beta substituted at v, which computes h*beta + f.
    The leftover alpha*g' has degree < d' and is folded into the residual
    at the end.  Each round deletes size(Phi_v) >= t leaves, so k*d'/3 <= s.
    A round follows the picks down (_follow_pick), copying the gates it
    passes into mutable cells, and rewrites that path in place.
    """
    if d_prime < 3:
        raise FormulaError("d_prime must be at least 3")
    t, F = -(-d_prime // 3), phi.field
    residual, pairs, extras = phi, [], {}
    if phi.formal_degree() >= d_prime:
        picks, expansions = _picks(phi.root, t), {}
        top = _Cell(phi.root, picks)
        mul = F.mul_raw
        while top.fdeg >= d_prime:
            steps, v = _follow_pick(top, picks)
            h = _multiplier(steps, F, expansions)
            g = _expand(v, expansions)
            alpha, beta = h._terms.get(0), g.get(0)
            h0 = h._terms if alpha is None else {k: c for k, c in h._terms.items() if k}
            g0 = g if beta is None else {k: c for k, c in g.items() if k}
            if h0 and g0:
                pairs.append((Polynomial._of(F, h0, h.nvars), Polynomial._of(F, g0, v.nvars)))
            if alpha is not None and g0:
                _merge(extras, {k: mul(c, alpha) for k, c in g0.items()}, F)
            cell, step = steps[-1]
            leaf = _leaf(F, {} if beta is None else {0: beta}, 0)
            setattr(cell, "right" if step else "left", leaf)
            expansions.pop(v, None)
            for cell, _ in reversed(steps):
                a, b = cell.left, cell.right
                fa, fb = a.fdeg, b.fdeg
                cell.fdeg = (fa if fa > fb else fb) if cell.op == "+" else fa + fb
                fa, fb = a.nvars, b.nvars
                cell.nvars = fa if fa > fb else fb
                cell.depth, cell.step = _pick(a, b, t, picks)
                expansions.pop(cell, None)
        residual = Formula(_freeze(top), F)
    if extras:
        residual = Formula.combine("+", residual, _poly_to_formula(Polynomial._of(F, extras, 0)))
    return PeelDecomposition(source=phi, residual=residual, pairs=pairs, d_prime=d_prime)


def _freeze(top: _Cell):
    """A checked Gate for each cell under top; every other node is kept."""
    order, built = [top], {}
    for cell in order:          # walked as it grows, parents first
        order += [c for c in (cell.left, cell.right) if type(c) is _Cell]
    for cell in reversed(order):
        a, b = cell.left, cell.right
        built[cell] = Gate(cell.op, built.get(a, a), built.get(b, b))
    return built[top]


def _poly_to_formula(poly: Polynomial) -> Formula:
    """A formula computing the nonzero constant-free polynomial: sum of
    products of affine leaves.

    Formal degree equals the polynomial's degree, so folding a low-degree
    polynomial into a residual cannot raise its formal degree.
    """
    field = poly.field
    acc = None
    for mono, coeff in poly.terms():
        variables = [i + 1 for i, e in enumerate(mono) for _ in range(e)]
        term = Leaf(Polynomial.variable(field, variables[0]).scale(coeff))
        for v in variables[1:]:
            term = Gate("*", term, Leaf(Polynomial.variable(field, v)))
        acc = term if acc is None else Gate("+", acc, term)
    return Formula(acc, field)


# ---------------------------------------------------------------------------
# interpolation construction of e_d and the lower-bound arithmetic

def ben_or(n: int, d: int, F: FieldDescriptor) -> Formula:
    """Depth-3 formula for e_d in n variables by interpolation.

    Expands sum_j c_j * prod_i (x_i + a_j) over the first n+1 canonical
    field elements a_j, with c solving the Vandermonde system that picks
    out e_d from prod_i (y + x_i).  Size is at most (n+1)*n, and n(n+1)
    may not pass MAX_BEN_OR_LEAVES, checked before any work.
    """
    if not 0 <= d <= n:
        raise FormulaError(f"need 0 <= d <= n, got d={d}, n={n}")
    if n * (n + 1) > MAX_BEN_OR_LEAVES:
        raise FormulaError(f"{n * (n + 1)} leaves for n = {n} exceed the fixed bound "
                           f"of {MAX_BEN_OR_LEAVES} Ben-Or leaves")
    if F.order is not None and F.order < n + 1:
        raise FormulaError(
            f"field of size {F.order} is too small for {n + 1} interpolation nodes")
    alphas = [F.element_at(j).raw for j in range(n + 1)]
    coeffs = _interpolation_weights(alphas, n - d, F)

    keys = _variable_keys(range(1, n + 1))
    acc = None
    for c, a in zip(coeffs, alphas):
        if c == F.zero_raw:
            continue
        if n == 0:
            term = _leaf(F, {0: c}, 0)
        else:
            labels = _factor_terms(keys, c, a, F)
            term = _leaf(F, labels[0], 1)
            for i in range(1, n):
                term = Gate("*", term, _leaf(F, labels[i], i + 1))
        acc = term if acc is None else Gate("+", acc, term)
    return Formula(acc, F)       # some c_j is nonzero: they solve a nonsingular system


def _interpolation_weights(nodes, m: int, F: FieldDescriptor):
    """Raw c with sum_j c_j a_j^k = [k == m] for k = 0..len(nodes)-1, the
    a_j distinct.

    This transposed Vandermonde system is solved by c_j = [x^m] L_j(x) for
    the Lagrange basis L_j = prod_{i != j} (x - a_i)/(a_j - a_i): summing
    L_j(x) a_j^k over j interpolates x^k.  P = prod (x - a_j) is built
    once.  Per j, two calls of the field's Horner kernel: [x^m] of
    P / (x - a_j) is the value of P's coefficients above x^m at a_j, and
    the denominator prod_{i != j} (a_j - a_i) is P'(a_j), nonzero in every
    characteristic because P is squarefree.  The solve costs
    O(len(nodes)^2) field operations.
    """
    mul, horner = F.mul_raw, F.horner_raw
    # P = sum_j e_j(-a) x^(len - j): its coefficients are the e_j backwards
    P = F.esp_raw([F.neg_raw(a) for a in nodes], len(nodes))[::-1]
    high = P[m + 1:]
    dP = [mul(F.coerce_raw(k), P[k]) for k in range(1, len(P))]   # P' = sum k P_k x^(k-1)
    return [mul(horner(high, a), F.inv_raw(horner(dP, a))) for a in nodes]


def computes_esp(phi: Formula, n: int, d: int) -> bool:
    """Whether phi computes e_d in n variables, exactly.

    A tree of ben_or's shape, sum_j c_j * prod_{i=1..n} (x_i + a_j), is
    checked without expanding it: it equals sum_k (sum_j c_j a_j^(n-k)) e_k
    and the e_k are linearly independent, so it computes e_d exactly when
    sum_j c_j a_j^m = [m == n-d] for m = 0..n.  That costs O(n) leaf
    comparisons and field operations per term.  Any other tree is expanded
    and compared with gen_esp.
    """
    terms = _interpolation_terms(phi, n)
    if terms is None:
        return phi.poly() == gen_esp(n, d, phi.field)
    F = phi.field
    add, mul = F.add_raw, F.mul_raw
    weights = [c for c, _ in terms]          # c_j a_j^m, from m = 0
    for m in range(n + 1):
        total = F.zero_raw
        for w in weights:
            total = add(total, w)
        if total != (F.one_raw if m == n - d else F.zero_raw):
            return False
        weights = [mul(w, a) for w, (_, a) in zip(weights, terms)]
    return True


def _interpolation_terms(phi: Formula, n: int):
    """Raw pairs (c_j, a_j) when phi is a left-nested sum of left-nested
    products of leaves over _factor_terms(c_j, a_j), the shape ben_or
    builds for n >= 1; else None."""
    if n < 1:
        return None
    F = phi.field
    keys = None
    terms = []
    for summand in _operands(phi.root, "+"):
        factors = _operands(summand, "*")
        if len(factors) != n or not all(isinstance(leaf, Leaf) for leaf in factors):
            return None
        first = factors[0].terms
        c = first.get(_variable_key(1))
        if c is None:
            return None
        a = F.mul_raw(first.get(0, F.zero_raw), F.inv_raw(c))
        keys = keys or _variable_keys(range(1, n + 1))    # once a summand has shown n factors
        if [leaf.terms for leaf in factors] != _factor_terms(keys, c, a, F):
            return None
        terms.append((c, a))
    return terms


def _factor_terms(keys, c, a, F: FieldDescriptor):
    """The packed term dicts of one ben_or summand's leaves, c*(x_1 + a),
    x_2 + a, ..., x_n + a, for raw c != 0 and a, over the shared keys."""
    one = F.one_raw
    if a == F.zero_raw:
        return [{keys[0]: c}] + [{key: one} for key in keys[1:]]
    return [{keys[0]: c, 0: F.mul_raw(c, a)}] + [{key: one, 0: a} for key in keys[1:]]


def _operands(node, op: str) -> list:
    """Operands, left to right, of the left-nested chain of op gates at node."""
    out = []
    while isinstance(node, Gate) and node.op == op:
        out.append(node.right)
        node = node.left
    out.append(node)
    return out[::-1]


def lower_bound_report(n: int, d: int, dim_v2: int | None = None) -> Fraction:
    """The size bound d*(n - dim_v2)/6 for formulas computing a degree-d
    polynomial whose order-2 zero space has the given dimension.

    dim_v2 defaults to d-1, the general bound for e_d.  Requires d >= 3.
    """
    if d < 3:
        raise FormulaError("the bound needs degree d >= 3")
    if dim_v2 is None:
        dim_v2 = d - 1
    if not 0 <= dim_v2 <= n:
        raise FormulaError(f"dim_v2 = {dim_v2} outside [0, {n}]")
    return Fraction(d * (n - dim_v2), 6)


# ---------------------------------------------------------------------------
# fuzz generator and text parsing

def random_formula(rng: SplitMix64, field: FieldDescriptor, max_size: int,
                   nvars: int) -> Formula:
    """Seed-deterministic random tree with at most max_size leaves."""
    if max_size < 1 or nvars < 1:
        raise FormulaError("need max_size >= 1 and nvars >= 1")
    q = field.order
    if q is None:
        raise FormulaError(f"random_formula needs a finite field, not {field}")

    def random_leaf():
        # each draw is a raw (element_at(i).raw is i); v is checked once c is drawn
        if rng.below(6) == 0:
            b = rng.below(q)
            return _leaf(field, {0: b} if b else {}, 0)
        v = 1 + rng.below(nvars)
        c = 1 + rng.below(q - 1)
        _check_index(v)
        terms = {_variable_key(v): c}
        if rng.below(2) and (b := rng.below(q)):
            terms[0] = b
        return _leaf(field, terms, v)

    # Draws in preorder, so a seed always gives the same tree: a gate of k
    # leaves draws its split and op, then its left subtree, then its right.
    # An op string on the stack joins the two subtrees built above it.
    tasks = [1 + rng.below(max_size)]
    built = []
    while tasks:
        task = tasks.pop()
        if isinstance(task, str):
            right = built.pop()
            built.append(Gate(task, built.pop(), right))
        elif task == 1:
            built.append(random_leaf())
        else:
            k1 = 1 + rng.below(task - 1)
            op = "+" if rng.below(2) else "*"
            tasks += [op, task - k1, k1]
    return Formula(built[0], field)


def parse_formula(text: str, field: FieldDescriptor) -> Formula:
    """Parse formula text (see the module docstring) into the tree it
    spells: sums and products nest to the left, and a term that opens with
    '-' is negated as a whole.  Nesting depth is bounded by memory only."""
    return Formula(_parse_nested(text, partial(_parse_sum, text, field)), field)


def _parse_sum(text, field, s, lo, hi, closes, top):
    """The _parse_nested parse_sum of the formula grammar: the tree of s[lo:hi]."""
    if lo == hi:
        raise FormulaError(f"empty formula or parentheses in {text!r}")
    expr = None
    for a, b in _split_top(s, lo, hi, "+-", closes):
        negate = s[a] == "-"
        if a + negate == b:
            raise FormulaError(f"dangling sign in {text if top else s[lo:hi]!r}")
        term = None
        for fa, fb in _split_top(s, a + negate, b, "*", closes):
            if s[fa] != "(":
                label = parse_polynomial(s[fa:fb], field)
                if label.degree() > 1:
                    raise FormulaError(f"leaf literal {s[fa:fb]!r} has degree > 1")
                atom = Leaf(label)
            elif s[fb - 1] == ")":
                atom = yield fa + 1, fb - 1
            else:
                raise FormulaError(f"bad factor {s[fa:fb]!r}")
            term = atom if term is None else Gate("*", term, atom)
        term = _negate(term, field) if negate else term
        expr = term if expr is None else Gate("+", expr, term)
    return expr


def _negate(node, field):
    if isinstance(node, Leaf):
        return Leaf(-node.label)
    return Gate("*", Leaf(Polynomial.constant(field, -1)), node)
