"""Scalar expression DSL: parsing, canonical printing, jet evaluation.

Expressions are written in chart variables ``x1 .. xn`` with the grammar
(documented in the README):

    expr   := term { ("+" | "-") term }
    term   := factor { ("*" | "/") factor }
    factor := base { "^" integer }
    base   := "-" base | atom
    atom   := number | variable | function "(" expr ")" | "(" expr ")"

Functions: sin, cos, tan, exp, log, sqrt.  The power operator takes a
literal (possibly signed) integer exponent only; fractional powers must be
spelled with exp/log.  Error positions are 1-based byte offsets.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import jets
from .jets import Jet, RigidlabError

__all__ = [
    "Var",
    "Num",
    "Unary",
    "Binary",
    "Pow",
    "ExpressionError",
    "parse_expression",
    "to_text",
    "evaluate_jet",
    "UNARY_FUNCTIONS",
]

UNARY_FUNCTIONS = ("neg", "sin", "cos", "tan", "exp", "log", "sqrt")


class ExpressionError(RigidlabError):
    """Parse or validation failure; ``offset`` is a 1-based byte position."""

    def __init__(self, message, offset=None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)


@dataclass(frozen=True)
class Var:
    index: int  # 1-based, as written in the source text


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Unary:
    op: str
    arg: "Node"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


Node = object
_OPERANDS = {Binary: ("left", "right"), Unary: ("arg",), Pow: ("base",)}


# ---------------------------------------------------------------------------
# parser: one loop over a stack of open groups
# ---------------------------------------------------------------------------

def _digits(text, pos):
    """End of the run of digits (``str.isdigit``) from ``pos``."""
    while text[pos:pos + 1].isdigit():
        pos += 1
    return pos


class _Scanner:
    """Position in the text of an expression and the tokens read there."""

    def __init__(self, text, dim):
        self.text, self.dim, self.pos = text, dim, 0

    def error(self, message, at=None):
        """Raise ``message`` at 0-based position ``at``, by default here."""
        raise ExpressionError(message,
                              offset=(self.pos if at is None else at) + 1)

    def peek(self):
        """The next character past whitespace, "" at the end."""
        text, pos = self.text, self.pos
        while text[pos:pos + 1].isspace():
            pos += 1
        self.pos = pos
        return text[pos:pos + 1]

    def operand(self, ch):
        """The number or variable at ``ch``, the next character, or the
        group that opens there: "(" or a function name, its "(" read."""
        if ch == "(":
            self.pos += 1
            return ch
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha() or ch == "_":
            return self.identifier()
        self.error(f"unexpected character {ch!r}" if ch
                   else "unexpected end of input")

    def number(self):
        """The numeric literal at the position."""
        text, start = self.text, self.pos
        pos = _digits(text, start)
        if text[pos:pos + 1] == ".":
            pos = _digits(text, pos + 1)
        if text[pos:pos + 1] in ("e", "E"):  # a suffix only with a digit
            digits = pos + 1 + (text[pos + 1:pos + 2] in ("+", "-"))
            end = _digits(text, digits)
            pos = end if end > digits else pos
        self.pos = pos
        try:
            return Num(float(text[start:pos]))
        except ValueError:
            self.error(f"bad numeric literal {text[start:pos]!r}", start)

    def identifier(self):
        """The variable at the position, or the function name there, its
        "(" read."""
        text, start = self.text, self.pos
        pos = start
        while text[pos:pos + 1].isalnum() or text[pos:pos + 1] == "_":
            pos += 1
        self.pos, name = pos, text[start:pos]
        if name[0] == "x" and name[1:].isdigit():
            index = self.decimal(start + 1, pos)
            if not 1 <= index <= self.dim:
                self.error(f"variable {name} exceeds chart dimension "
                           f"{self.dim}", start)
            return Var(index)
        if name in UNARY_FUNCTIONS and name != "neg":
            if self.peek() != "(":
                self.error(f"function {name} requires parentheses")
            self.pos += 1
            return name
        self.error(f"unknown identifier {name!r}", start)

    def integer(self):
        """The exponent after "^": an integer literal, maybe signed."""
        self.peek()
        text, start = self.text, self.pos
        digits = start + (text[start:start + 1] in ("+", "-"))
        self.pos = _digits(text, digits)
        if self.pos == digits:
            self.error("expected an integer exponent", start)
        return self.decimal(start, self.pos)

    def decimal(self, start, end):
        """The integer in ``text[start:end]``: digits (``str.isdigit``),
        maybe signed.  A digit that ``int`` cannot read, such as a
        superscript, is refused at its offset."""
        chunk = self.text[start:end]
        try:
            return int(chunk)
        except ValueError:
            at = next(k for k, ch in enumerate(chunk)
                      if ch.isdigit() and not ch.isdecimal())
            self.error(f"non-decimal digit {chunk[at]!r}", start + at)


def parse_expression(text, dim):
    """Parse ``text`` into an AST over variables x1..x{dim}.

    One loop over an explicit stack of open groups (Dijkstra's operator-
    precedence scheme): the whole text, a parenthesis or a function call.
    Each group holds its operands, its pending binary operators, which
    reduce by the printer's ``_PRECEDENCE``, and the negations pending on
    its next operand, which bind tighter than "^".
    """
    if dim < 1:
        raise ValueError("chart dimension must be positive")
    scan = _Scanner(text, dim)
    outer = []                    # the enclosing groups, innermost last
    group, operands, operators, negations = None, [], [], 0
    while True:
        ch = scan.peek()
        if ch == "-":
            scan.pos += 1
            negations += 1
            continue
        node = scan.operand(ch)
        if isinstance(node, str):         # "(" or a function name
            outer.append((group, operands, operators, negations))
            group, operands, operators, negations = node, [], [], 0
            continue
        while True:               # ``node`` ends an operand, maybe a group
            while negations:
                node = Unary("neg", node)
                negations -= 1
            ch = scan.peek()
            while ch == "^":
                scan.pos += 1
                node = Pow(node, scan.integer())
                ch = scan.peek()
            # one character: only a binary operator has a precedence
            precedence = _PRECEDENCE.get(ch, 0)
            operands.append(node)
            while operators and _PRECEDENCE[operators[-1]] >= precedence:
                right = operands.pop()
                operands.append(Binary(operators.pop(), operands.pop(),
                                       right))
            if precedence:
                scan.pos += 1
                operators.append(ch)
                break
            node, = operands
            if group is None:
                if ch:
                    scan.error(f"unexpected character {ch!r}")
                return node
            if ch != ")":
                scan.error("expected ')'")
            scan.pos += 1
            if group != "(":
                node = Unary(group, node)
            group, operands, operators, negations = outer.pop()


# ---------------------------------------------------------------------------
# canonical printer
# ---------------------------------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "pow": 3, "neg": 4, "atom": 5}


def _prec(node):
    if isinstance(node, (Var, Num)):
        return _PRECEDENCE["atom"]
    if isinstance(node, Pow):
        return _PRECEDENCE["pow"]
    if isinstance(node, Unary):
        return _PRECEDENCE["neg"] if node.op == "neg" else _PRECEDENCE["atom"]
    return _PRECEDENCE[node.op]


def _wrap(node, text, parent_prec, strict=False):
    p = _prec(node)
    if p < parent_prec or (strict and p == parent_prec):
        return f"({text})"
    return text


def _fold(root, visit):
    """``visit(node, parent, operand_values)`` at each node of ``root`` in
    post-order (left operand first) from a stack; returns the root's."""
    results, stack = [], [(root, None, False)]
    while stack:
        node, parent, ready = stack.pop()
        kids = [getattr(node, name) for name in _OPERANDS.get(type(node), ())]
        if kids and not ready:
            stack.append((node, parent, True))
            stack.extend((kid, node, False) for kid in reversed(kids))
        else:
            split = len(results) - len(kids)
            results[split:] = [visit(node, parent, results[split:])]
    return results[0]


def to_text(node):
    """Canonical textual form; ``parse_expression(to_text(t), dim) == t``."""
    return _fold(node, _text)


def _text(node, parent, args):
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Unary):
        if node.op == "neg":
            return "-" + _wrap(node.arg, args[0], _PRECEDENCE["neg"],
                               strict=True)
        return f"{node.op}({args[0]})"
    if isinstance(node, Pow):
        base = _wrap(node.base, args[0], _PRECEDENCE["pow"], strict=True)
        return f"{base}^{node.exponent}"
    if isinstance(node, Binary):
        left = _wrap(node.left, args[0], _prec(node))
        # parenthesize equal-precedence right operands so the left-associa-
        # tive reparse reproduces the tree exactly
        right = _wrap(node.right, args[1], _prec(node), strict=True)
        return f"{left} {node.op} {right}"
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# evaluation: one straight-line program per tuple of expressions
# ---------------------------------------------------------------------------

_STEPS = {
    "neg": operator.neg,
    "sin": jets.sin,
    "cos": jets.cos,
    "tan": jets.tan,
    "exp": jets.exp,
    "log": jets.log,
    "sqrt": jets.sqrt,
    "^": operator.pow,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}

# compiled programs by id of the expression or tuple they were compiled
# from; each entry holds that object, so its id cannot be reused while the
# entry lives
_PROGRAMS = {}
_PROGRAM_CACHE = 256


def evaluate_jet(ast, point, order=3):
    """Evaluate ``ast`` at ``point`` with derivatives up to ``order``.

    ``ast`` is one expression, giving one :class:`Jet`, or a tuple of
    expressions such as a chart's components, giving a list of jets from
    one run of their program.  ``point`` has shape (..., n); the jets carry
    the same batch shape.  Derivatives are exact to rounding (no finite
    differences).
    """
    pts = np.asarray(point, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1)
    out = _program(ast).run(pts, order)
    return out if isinstance(ast, tuple) else out[0]


def _program(ast):
    """The compiled program of ``ast`` (a node or a tuple, immutable both),
    compiled on its first evaluation."""
    hit = _PROGRAMS.get(id(ast))
    if hit is not None:
        return hit[1]
    program = _Program(ast if isinstance(ast, tuple) else (ast,))
    if len(_PROGRAMS) >= _PROGRAM_CACHE:
        _PROGRAMS.clear()
    _PROGRAMS[id(ast)] = (ast, program)
    return program


class _Program:
    """Straight-line program of a tuple of expressions.  Equal subtrees
    share one slot, evaluated once, at their first occurrence in post-order
    (left operand before right); a jet is dropped after its last use.  Each
    step is one jet operation on its operand slots, in the operand order
    the expression writes, so a jet depends only on its own subtree: it is
    bitwise the same whatever else the program holds.  A literal next to a
    non-literal enters as a plain number (the jet arithmetic applies it to
    the coefficients directly, bitwise what a constant jet gives), any
    other literal as a constant jet."""

    def __init__(self, components):
        self.slots = {}        # structural key -> slot
        self.literals = []     # per slot: plain-number operand, else None
        self.variables = []    # (slot, 1-based index), first use first
        self.constants = []    # (slot, value) of constant jets
        self.steps = []        # (slot, function, operand slots)
        self.outputs = [_fold(c, self._visit) for c in components]
        last = {a: k for k, (_, _, args) in enumerate(self.steps)
                for a in args}
        dead = [[] for _ in self.steps]
        for a, k in last.items():
            if self.literals[a] is None and a not in self.outputs:
                dead[k].append(a)
        self.steps = [step + (tuple(d),) for step, d in zip(self.steps, dead)]

    def _slot(self, key, literal=None):
        """Slot of ``key`` and whether it is new."""
        slot = self.slots.get(key)
        if slot is not None:
            return slot, False
        slot = self.slots[key] = len(self.literals)
        self.literals.append(literal)
        return slot, True

    def _step(self, key, *args):
        slot, new = self._slot(key)
        if new:
            self.steps.append((slot, _STEPS[key[0]], args))
        return slot

    def _visit(self, node, parent, args):
        if isinstance(node, Num):
            value = float(node.value)
            key = value.hex()           # 0.0 and -0.0 are different literals
            if isinstance(parent, Binary) and not isinstance(
                    parent.right if node is parent.left else parent.left, Num):
                return self._slot(("number", key), value)[0]
            slot, new = self._slot(("constant", key))
            if new:
                self.constants.append((slot, value))
            return slot
        if isinstance(node, Var):
            slot, new = self._slot(("x", node.index))
            if new:
                self.variables.append((slot, node.index))
            return slot
        if isinstance(node, Unary):
            arg, = args
            return self._step((node.op, arg), arg)
        if isinstance(node, Pow):
            base, = args
            exponent = self._slot(("int", node.exponent), node.exponent)[0]
            return self._step(("^", base, exponent), base, exponent)
        if isinstance(node, Binary):
            left, right = args
            return self._step((node.op, left, right), left, right)
        raise TypeError(f"not an expression node: {node!r}")

    def run(self, pts, order):
        """Jets of the components at ``pts`` (..., n), as a list."""
        n = pts.shape[-1]
        values = list(self.literals)
        for slot, index in self.variables:
            if index > n:
                raise ExpressionError(
                    f"variable x{index} exceeds point dimension {n}")
            values[slot] = Jet.variable(pts[..., index - 1], index - 1, n,
                                        order)
        for slot, value in self.constants:
            values[slot] = Jet.constant(value, n, order,
                                        batch_shape=pts.shape[:-1])
        for slot, function, args, dead in self.steps:
            values[slot] = function(*[values[a] for a in args])
            for a in dead:
                values[a] = None
        return [values[s] for s in self.outputs]
