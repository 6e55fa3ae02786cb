import collections
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidlab import jets as jt
from rigidlab import surfaces as sf
from rigidlab.expressions import (UNARY_FUNCTIONS, Binary, ExpressionError,
                                  Num, Pow, Unary, Var, _fold, evaluate_jet,
                                  parse_expression, to_text)
from rigidlab.geometry import Immersion, interior_points
from rigidlab.jets import Jet


def test_parse_product_of_trig():
    tree = parse_expression("sin(x1)*cos(x2)", 2)
    assert tree == Binary("*", Unary("sin", Var(1)), Unary("cos", Var(2)))


def test_parse_square_plus_literal():
    tree = parse_expression("x1^2 + 1", 1)
    assert tree == Binary("+", Pow(Var(1), 2), Num(1.0))


def test_unbalanced_paren_offset():
    with pytest.raises(ExpressionError) as err:
        parse_expression("sin(x1", 1)
    assert err.value.offset == 7


def test_unknown_identifier():
    with pytest.raises(ExpressionError, match="unknown identifier"):
        parse_expression("sin(q)", 1)


def test_variable_index_exceeds_dim():
    with pytest.raises(ExpressionError, match="exceeds chart dimension"):
        parse_expression("x3 + 1", 2)


def test_fractional_exponent_rejected():
    with pytest.raises(ExpressionError):
        parse_expression("x1^1.5", 1)


def test_deep_expressions_print_and_evaluate_without_recursion():
    # left-deep sums and products 5000 operations deep
    for text, want in ((" + ".join(["x1"] * 5001), 5001.0 * 0.5),
                       (" * ".join(["x1"] * 5001), 0.0)):
        tree = parse_expression(text, 1)
        assert to_text(tree) == text
        assert evaluate_jet(tree, np.array([0.5]), order=1).value == \
            pytest.approx(want)
    # 5000 nested parentheses, 5000 leading minus signs, 1000 nested sines
    nested_sine = np.full(1, 0.5)     # np.sin on an array, as the jets call it
    for _ in range(1000):
        nested_sine = np.sin(nested_sine)
    for text, want in (("(" * 5000 + "x1" + ")" * 5000, 0.5),
                       ("-" * 5000 + "x1", 0.5),
                       ("sin(" * 1000 + "x1" + ")" * 1000, nested_sine[0])):
        tree = parse_expression(text, 1)
        printed = to_text(tree)
        # trees compared through the printer: the dataclass == recurses
        assert to_text(parse_expression(printed, 1)) == printed
        jet = evaluate_jet(tree, np.array([0.5]), order=3)
        assert jet.value == want
        assert np.all(np.isfinite(jet.third))


class _RecursiveParser:
    """The recursive-descent parser that the loop of parse_expression
    replaced, kept as its oracle."""

    def __init__(self, text, dim):
        self.text = text
        self.dim = dim
        self.pos = 0

    def error(self, message):
        raise ExpressionError(message, offset=self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected '{ch}'")
        self.pos += 1

    def parse(self):
        node = self.parse_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected character {self.text[self.pos]!r}")
        return node

    def parse_expr(self):
        node = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            node = Binary(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            node = Binary(op, node, self.parse_factor())
        return node

    def parse_factor(self):
        node = self.parse_base()
        while self.peek() == "^":
            self.pos += 1
            node = Pow(node, self.parse_integer())
        return node

    def parse_base(self):
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            return Unary("neg", self.parse_base())
        return self.parse_atom()

    def parse_integer(self):
        self.skip_ws()
        start = self.pos
        if self.peek() in ("+", "-"):
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        chunk = self.text[start:self.pos]
        if not chunk or chunk in "+-":
            self.pos = start
            self.error("expected an integer exponent")
        self.refuse_non_decimal(start, chunk)
        return int(chunk)

    def refuse_non_decimal(self, start, chunk):
        for k, ch in enumerate(chunk):
            if ch.isdigit() and not ch.isdecimal():
                self.pos = start + k
                self.error(f"non-decimal digit {ch!r}")

    def parse_atom(self):
        ch = self.peek()
        if ch == "":
            self.error("unexpected end of input")
        if ch == "(":
            self.pos += 1
            node = self.parse_expr()
            self.expect(")")
            return node
        if ch.isdigit() or ch == ".":
            return self.parse_number()
        if ch.isalpha() or ch == "_":
            return self.parse_identifier()
        self.error(f"unexpected character {ch!r}")

    def parse_number(self):
        start = self.pos
        text = self.text
        n = len(text)
        while self.pos < n and text[self.pos].isdigit():
            self.pos += 1
        if self.pos < n and text[self.pos] == ".":
            self.pos += 1
            while self.pos < n and text[self.pos].isdigit():
                self.pos += 1
        if self.pos < n and text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < n and text[self.pos] in "+-":
                self.pos += 1
            if self.pos < n and text[self.pos].isdigit():
                while self.pos < n and text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # not an exponent suffix, leave it
        chunk = text[start:self.pos]
        try:
            return Num(float(chunk))
        except ValueError:
            self.pos = start
            self.error(f"bad numeric literal {chunk!r}")

    def parse_identifier(self):
        start = self.pos
        text = self.text
        while self.pos < len(text) and (text[self.pos].isalnum() or text[self.pos] == "_"):
            self.pos += 1
        name = text[start:self.pos]
        if name[0] == "x" and name[1:].isdigit():
            self.refuse_non_decimal(start + 1, name[1:])
            index = int(name[1:])
            if not 1 <= index <= self.dim:
                self.pos = start
                self.error(f"variable {name} exceeds chart dimension {self.dim}")
            return Var(index)
        if name in UNARY_FUNCTIONS and name != "neg":
            if self.peek() != "(":
                self.error(f"function {name} requires parentheses")
            self.pos += 1
            arg = self.parse_expr()
            self.expect(")")
            return Unary(name, arg)
        self.pos = start
        self.error(f"unknown identifier {name!r}")


_FUZZ_ALPHABET = "x12+-*/^().e sincoglqrt"


def _random_text_tree(rng, dim, depth):
    """Random tree over every node type and function, for its printed text."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Var(rng.randint(1, dim))
        return Num(rng.choice([0.0, 1.0, 0.5, 2.5e10, 1e-7,
                               round(rng.uniform(0, 9), 3)]))
    kind = rng.randrange(3)
    if kind == 0:
        return Unary(rng.choice(["neg", "sin", "cos", "tan", "exp", "log",
                                 "sqrt"]),
                     _random_text_tree(rng, dim, depth - 1))
    if kind == 1:
        return Pow(_random_text_tree(rng, dim, depth - 1), rng.randint(-3, 3))
    return Binary(rng.choice("+-*/"), _random_text_tree(rng, dim, depth - 1),
                  _random_text_tree(rng, dim, depth - 1))


def _parity_corpus():
    """Catalog texts, fuzz-alphabet strings, printed random trees and three
    one-character mutations of each: over 20000 texts, derandomized."""
    rng = random.Random(25)
    texts = [text for build in sf.catalog().values()
             for text in sf.surface_to_dict(build())["components"]]
    texts += ["".join(rng.choices(_FUZZ_ALPHABET, k=rng.randint(0, 16)))
              for _ in range(10000)]
    characters = _FUZZ_ALPHABET + "0123456789E_x\t\u00b2\u00e9"
    for _ in range(2500):
        text = to_text(_random_text_tree(rng, 2, rng.randint(0, 5)))
        texts.append(text)
        for _ in range(3):
            at = rng.randint(0, len(text))
            edit = rng.randrange(3)           # insert, replace, delete
            texts.append(text[:at] + (rng.choice(characters) if edit < 2
                                      else "") + text[at + (edit > 0):])
    return texts


def _postorder(tree):
    """Node labels of ``tree`` in post-order, literals by float.hex: equal
    lists for equal trees, built without recursion."""
    labels = []

    def label(node, parent, args):
        labels.append(node.value.hex() if isinstance(node, Num) else
                      (type(node),) + tuple(getattr(node, field, None) for
                                            field in ("op", "exponent",
                                                      "index")))
    _fold(tree, label)
    return labels


def _outcome(parse, text, dim):
    try:
        return "tree", _postorder(parse(text, dim))
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


def test_parser_loop_is_the_recursive_parser():
    corpus = _parity_corpus()
    assert len(corpus) > 20000
    kinds = collections.Counter()
    for text in corpus:
        for dim in (1, 2):
            try:
                want = _outcome(
                    lambda t, d: _RecursiveParser(t, d).parse(), text, dim)
            except RecursionError:
                continue
            assert _outcome(parse_expression, text, dim) == want, (text, dim)
            kinds[want[0]] += 1
    # both sides of the grammar are exercised
    assert kinds["tree"] > 5000 and kinds[ExpressionError] > 5000


def test_jet_of_square():
    jet = evaluate_jet(parse_expression("x1^2", 1), [3.0], order=2)
    assert jet.value == pytest.approx(9.0)
    assert jet.grad == pytest.approx(np.array([6.0]))
    assert jet.hess == pytest.approx(np.array([[2.0]]))


def test_jet_of_sine_at_zero():
    jet = evaluate_jet(parse_expression("sin(x1)", 1), [0.0], order=3)
    assert jet.value == pytest.approx(0.0)
    assert jet.grad == pytest.approx(np.array([1.0]))
    assert jet.hess == pytest.approx(np.array([[0.0]]))
    assert jet.third == pytest.approx(np.array([[[-1.0]]]))


def test_gradient_matches_central_differences():
    ast = parse_expression("sin(x1)*cos(x2)", 2)
    p = np.array([0.3, 0.7])
    jet = evaluate_jet(ast, p, order=1)
    h = 1e-5

    def f(q):
        return np.sin(q[0]) * np.cos(q[1])

    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (f(p + e) - f(p - e)) / (2 * h)
        assert abs(jet.grad[i] - fd) < 1e-8


# -- random ASTs ------------------------------------------------------------

def _leaf(dim):
    return st.one_of(
        st.integers(1, dim).map(Var),
        st.floats(0.0, 1.5, allow_nan=False).map(lambda v: Num(round(v, 3))),
    )


def _total_ops(children):
    unary = st.sampled_from(["neg", "sin", "cos", "exp"])
    binary = st.sampled_from(["+", "-", "*"])
    return st.one_of(
        st.tuples(unary, children).map(lambda t: Unary(*t)),
        st.tuples(binary, children, children).map(lambda t: Binary(*t)),
        st.tuples(children, st.integers(0, 3)).map(lambda t: Pow(*t)),
    )


def ast_strategy(dim=2, depth=6):
    return st.recursive(_leaf(dim), _total_ops, max_leaves=2 ** depth)


@settings(max_examples=120, deadline=None)
@given(ast_strategy())
def test_round_trip_through_canonical_printer(tree):
    assert parse_expression(to_text(tree), 2) == tree


@settings(max_examples=60, deadline=None)
@given(ast_strategy(depth=6), st.floats(-0.8, 0.8), st.floats(-0.8, 0.8))
def test_jet_matches_finite_differences(tree, px, py):
    p = np.array([px, py])
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite value is skipped below
        jet = evaluate_jet(tree, p, order=2)
    if not np.all(np.isfinite(jet.value)) or abs(jet.value) > 1e3 \
            or np.max(np.abs(jet.hess)) > 1e3:
        return
    h = 1e-5

    def f(q):
        return evaluate_jet(tree, q, order=0).value

    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (f(p + e) - f(p - e)) / (2 * h)
        scale = max(1.0, abs(jet.grad[i]))
        assert abs(jet.grad[i] - fd) / scale < 1e-6
    hh = 1e-4
    for i in range(2):
        e = np.zeros(2)
        e[i] = hh
        fd2 = (f(p + e) - 2 * f(p) + f(p - e)) / hh ** 2
        scale = max(1.0, abs(jet.hess[i, i]))
        assert abs(jet.hess[i, i] - fd2) / scale < 1e-5


# -- chart programs against the tree walk -----------------------------------

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}


def _tree_walk(node, pts, order):
    """One expression's jet by the recursive walk the chart programs
    replace.  Coordinate jets lose their mark, so every power of an
    increment comes from products, and sin and cos each take their own
    np.sin and np.cos."""
    n = pts.shape[-1]
    if isinstance(node, Num):
        return Jet.constant(node.value, n, order, pts.shape[:-1])
    if isinstance(node, Var):
        x = Jet.variable(pts[..., node.index - 1], node.index - 1, n, order)
        return Jet(x.coef, n, order, x.batch_shape)
    if isinstance(node, Unary):
        arg = _tree_walk(node.arg, pts, order)
        return -arg if node.op == "neg" else getattr(jt, node.op)(arg)
    if isinstance(node, Pow):
        return _tree_walk(node.base, pts, order) ** node.exponent
    # a literal next to a non-literal enters as a plain number
    left, right = (a.value if isinstance(a, Num) and not isinstance(b, Num)
                   else _tree_walk(a, pts, order)
                   for a, b in ((node.left, node.right),
                                (node.right, node.left)))
    return _BINARY[node.op](left, right)


def _parts(jet):
    return [jet.value, jet.grad, jet.hess, jet.third][:jet.order + 1]


def _assert_program_is_the_tree_walk(components, pts, order):
    jets = evaluate_jet(components, pts, order=order)
    assert len(jets) == len(components)
    for comp, jet in zip(components, jets):
        for a, b in zip(_parts(jet), _parts(_tree_walk(comp, pts, order)),
                        strict=True):
            # bytes, so signed zeros and NaN payloads count
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


_ROTATION = np.linalg.qr(np.random.default_rng(11).normal(size=(3, 3)))[0]


def _oracle_charts():
    charts = {name: build() for name, build in sf.catalog().items()}
    for name in ("sphere", "ellipsoid", "quartic_cap_polar"):
        # a -0.0 translation keeps a signed-zero literal in the program
        charts[f"{name}-moved"] = sf.rigid_motion(
            charts[name], _ROTATION, (0.3, -0.0, 1.5))
    # repeated subtrees, every function of a bare coordinate, literals on
    # both sides of an operator and under a function
    charts["repeated"] = sf.load_surface({
        "name": "repeated", "dim": 2,
        "components": ["sin(x1*x2)^2 + cos(x1*x2)*sin(x1*x2) - sin(2)*x1",
                       "exp(x1)*exp(x1) - log(x2) + sqrt(x1) + tan(x2)",
                       "x2^-3 + 1/x1 - 2*3 + -2*x2 + x1^0 + x1 - 0.0"],
        "domain": [[0.3, 1.2], [0.3, 1.2]], "periodic": [False, False]})
    # 0.0 == -0.0, yet they are different literals: -0.0 + 0.0 is 0.0
    minus_zero = Binary("*", Num(0.0), Unary("neg", Var(1)))   # -0.0 here
    charts["signed-zeros"] = Immersion(
        "signed_zeros", 2, tuple(Binary(op, Num(zero), minus_zero)
                                 for op, zero in (("+", -0.0), ("+", 0.0),
                                                  ("-", 0.0))),
        ((0.3, 1.2), (0.3, 1.2)), (False, False))
    return charts


@pytest.mark.parametrize("batch", [1, 64, 4096])
@pytest.mark.parametrize("name", sorted(_oracle_charts()))
def test_chart_program_is_bitwise_the_tree_walk(name, batch):
    chart = _oracle_charts()[name]
    lo, hi = np.array(chart.domain).T
    pts = lo + (hi - lo) * np.random.default_rng(batch).uniform(
        0.05, 0.95, (batch, 2))
    for order in range(4):
        _assert_program_is_the_tree_walk(chart.components, pts, order)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(ast_strategy(depth=4), ast_strategy(depth=4), st.integers(0, 3))
def test_programs_of_random_charts_are_the_tree_walk(a, b, order):
    components = (a, Binary("*", a, b), Unary("sin", Binary("+", b, a)))
    pts = np.random.default_rng(3).uniform(-0.8, 0.8, (5, 2))
    with np.errstate(all="ignore"):
        _assert_program_is_the_tree_walk(components, pts, order)


def test_a_repeated_subtree_is_composed_once(monkeypatch):
    composed = []
    compose = jt._compose

    def counted(u, taylor):
        composed.append(u)
        return compose(u, taylor)

    monkeypatch.setattr(jt, "_compose", counted)
    components = tuple(parse_expression(text, 2) for text in (
        "sin(x1*x2) + x1", "x2*sin(x1*x2)", "cos(x1*x2)^2"))
    pts = np.random.default_rng(2).uniform(-1.0, 1.0, (16, 2))
    for order in range(4):
        composed.clear()
        evaluate_jet(components, pts, order=order)
        # sin and cos of the one product jet, then the square of the cosine
        assert len(composed) == 3
        assert composed[0] is composed[1]


def test_moved_ellipsoid_jets_do_not_depend_on_the_batch(
        assert_batch_invariant):
    chart = sf.rigid_motion(sf.ellipsoid(), _ROTATION, (0.3, -0.2, 1.5))
    # more points than one block of a product
    pts = interior_points(chart, 4096, np.random.default_rng(4))
    assert_batch_invariant(
        lambda p: tuple(part for jet in evaluate_jet(chart.components, p, 3)
                        for part in _parts(jet)), pts)
