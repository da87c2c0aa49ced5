"""Tiny expression language for model definitions.

Supports real literals, named parameters, the unary functions
``sqrt``, ``log``, ``exp``, ``abs``, ``neg`` and the binary operators
``+ - * / ^``.  Expressions are parsed into immutable trees.  Each operator
is one entry of the table ``_UNARY`` or ``_BINARY``: its scalar rule, which
defines its value in IEEE double precision and its domain errors, and its
array rule.  There is one evaluator: :func:`compile_expr` turns a tree into
one closure over a (k, n) array of points that gives each point its value by
the scalar rules with its exact first and second partial derivatives
(second-order forward mode), marks the points where the value or a
derivative is undefined and returns, next to that mask, a function that
names the reason.

Precedence is the table ``_PRECEDENCE``, which the parser and the printer
both read: ``^`` > unary minus > ``* /`` > ``+ -``, and all binary operators
associate to the left.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Sequence

import numpy as np

from ._value import Value

__all__ = [
    "Expr",
    "Literal",
    "Param",
    "Unary",
    "Binary",
    "ExprError",
    "ParseError",
    "DomainError",
    "parse_expr",
    "compile_expr",
    "first_failure",
    "format_expr",
    "collect_params",
]


class ExprError(Exception):
    """Base class for expression-language errors."""


class ParseError(ExprError):
    """Syntax error; carries the character offset where parsing failed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class DomainError(ExprError):
    """Evaluation left the admissible domain (e.g. log of a non-positive value).

    Carries the offending sub-expression so callers can report it; the
    optimizer treats this as an infeasible-point signal, not a crash.
    """

    def __init__(self, message: str, expr: "Expr"):
        super().__init__(f"{message} in '{format_expr(expr)}'")
        self.expr = expr


class Expr(Value):
    """Abstract base node."""

    def __str__(self) -> str:
        return format_expr(self)


class Literal(Expr):
    _fields = ("value",)

    def __init__(self, value: float):
        self.__dict__["value"] = value


class Param(Expr):
    _fields = ("name",)

    def __init__(self, name: str):
        self.__dict__["name"] = name


class Unary(Expr):
    _fields = ("op", "arg")

    def __init__(self, op: str, arg: Expr):  # op: a key of _UNARY
        self.__dict__.update(op=op, arg=arg)


class Binary(Expr):
    _fields = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):  # op: a key of _BINARY
        self.__dict__.update(op=op, left=left, right=right)


# how tightly each operator binds, read by the parser and the printer; the
# right operand of ^ binds at 5, as tightly as a number, name or call
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
# the deepest parenthesis nesting (a call counts) and the highest tree, in
# operators above a leaf, that parse_expr accepts: the parser and every tree
# walker recurse once or twice per level
_MAX_DEPTH = 200


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self._skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take(self) -> None:
        """Step past the character that :meth:`peek` just returned."""
        self.pos += 1

    def take_number(self) -> float:
        self._skip_ws()
        start = self.pos
        t = self.text
        n = len(t)
        i = self.pos
        while i < n and (t[i].isdigit() or t[i] == "."):
            i += 1
        if i < n and t[i] in "eE":
            j = i + 1
            if j < n and t[j] in "+-":
                j += 1
            if j < n and t[j].isdigit():
                i = j
                while i < n and t[i].isdigit():
                    i += 1
        token = t[start:i]
        try:
            value = float(token)
        except ValueError:
            raise ParseError(f"invalid number '{token}'", start) from None
        if not math.isfinite(value):  # format_expr would print it as a name
            raise ParseError(f"number out of range '{token}'", start)
        self.pos = i
        return value

    def take_name(self) -> str:
        self._skip_ws()
        start = self.pos
        t = self.text
        while self.pos < len(t) and (t[self.pos].isalnum() or t[self.pos] == "_"):
            self.pos += 1
        return t[start : self.pos]


def parse_expr(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises :class:`ParseError` with the offending position on bad syntax, on
    unknown function names and on nesting past ``_MAX_DEPTH``.  Parameter
    names are not validated here; that happens when the expression is bound
    to a model.
    """
    tok = _Tokenizer(text)
    expr, _ = _parse(tok, 1, 0, 0)
    if tok.peek() is not None:
        raise ParseError(f"unexpected trailing input '{tok.peek()}'", tok.pos)
    return expr


def _parse(tok: _Tokenizer, level: int, depth: int, parens: int) -> tuple[Expr, int]:
    """Parse the operators whose ``_PRECEDENCE`` is at least ``level``; each
    right operand takes only tighter ones, so binary operators associate to
    the left.  ``depth`` nodes and ``parens`` parentheses enclose the result,
    which comes back with its height."""
    if level <= _PRECEDENCE["neg"] and tok.peek() == "-":
        _take_nested(tok, depth + 1)
        arg, height = _parse(tok, _PRECEDENCE["neg"], depth + 1, parens)
        left, height = Unary("neg", arg), height + 1
    else:
        left, height = _parse_primary(tok, depth, parens)
    while _PRECEDENCE.get(op := tok.peek(), 0) >= level:
        _take_nested(tok, depth + height + 1)
        right, right_height = _parse(tok, _PRECEDENCE[op] + 1, depth + 1, parens)
        left, height = Binary(op, left, right), max(height, right_height) + 1
    return left, height


def _parse_primary(tok: _Tokenizer, depth: int, parens: int) -> tuple[Expr, int]:
    ch = tok.peek()
    if ch is None:
        raise ParseError("unexpected end of input", tok.pos)
    if ch.isdigit() or ch == ".":
        return Literal(tok.take_number()), 0
    name = None
    if ch.isalpha() or ch == "_":
        start = tok.pos
        name = tok.take_name()
        if tok.peek() != "(":
            return Param(name), 0
        if name not in _UNARY:
            raise ParseError(f"unknown function '{name}'", start)
        depth += 1  # the call's node encloses its argument
    elif ch != "(":
        raise ParseError(f"unexpected character '{ch}'", tok.pos)
    _take_nested(tok, max(depth, parens + 1))
    inner, height = _parse(tok, 1, depth, parens + 1)
    if tok.peek() != ")":
        raise ParseError("expected ')'", tok.pos)
    tok.take()
    if name is None:
        return inner, height
    return Unary(name, inner), height + 1


def _take_nested(tok: _Tokenizer, levels: int) -> None:
    """Take the next token, which nests the tree or the parentheses ``levels``
    deep, or raise at it when that is past ``_MAX_DEPTH``."""
    if levels > _MAX_DEPTH:
        raise ParseError(f"expression nested deeper than {_MAX_DEPTH} levels", tok.pos)
    tok.take()


# ---------------------------------------------------------------------------
# Printing (parse -> print -> parse is the identity on trees)
# ---------------------------------------------------------------------------


def format_expr(e: Expr) -> str:
    """Render ``e`` as parseable text with minimal parentheses."""
    text, _ = _format(e)
    return text


def _format(e: Expr) -> tuple[str, int]:
    if isinstance(e, Literal):
        return repr(e.value), 5
    if isinstance(e, Param):
        return e.name, 5
    if isinstance(e, Unary):
        if e.op == "neg":
            arg, prec = _format(e.arg)
            if prec < _PRECEDENCE["neg"]:
                arg = f"({arg})"
            return f"-{arg}", _PRECEDENCE["neg"]
        arg, _ = _format(e.arg)
        return f"{e.op}({arg})", 5
    if isinstance(e, Binary):
        prec = _PRECEDENCE[e.op]
        left, lp = _format(e.left)
        right, rp = _format(e.right)
        if lp < prec:
            left = f"({left})"
        # left-associative: right operand needs parens at equal precedence
        if rp <= prec:
            right = f"({right})"
        return f"{left} {e.op} {right}", prec
    raise TypeError(f"not an expression node: {e!r}")


def collect_params(e: Expr) -> set[str]:
    """Names of all parameters referenced by ``e``."""
    if isinstance(e, Param):
        return {e.name}
    if isinstance(e, Unary):
        return collect_params(e.arg)
    if isinstance(e, Binary):
        return collect_params(e.left) | collect_params(e.right)
    return set()


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

RowsFn = Callable[..., tuple]
# a compiled node: (points, infeasible, tests) -> (values, gradients,
# Hessians); it marks the rows where its value or a derivative is undefined
# in ``infeasible``, in place, and, where some row fails, appends to
# ``tests`` a pair: the mask of the rows it leaves feasible and a function
# that names why row i fails
_NodeFn = Callable[[np.ndarray, np.ndarray, list], tuple]


def compile_expr(e: Expr, order: Sequence[str]) -> RowsFn:
    """Compile ``e`` into one closure over many points, with gradients,
    Hessians and the reasons why points are infeasible.

    The closure takes a (k, n) array, one point per row laid out like
    ``order``, and returns ``(values, gradients, hessians, feasible, why)``:
    values (k,), gradients (k, n), Hessians (k, n, n), a boolean mask (k,)
    and a function ``why(i)`` that gives the message of the
    :class:`DomainError` or ``OverflowError`` that says why row i is
    infeasible (None for a feasible row).  A reason is worked out only when
    asked for, from a copy of the points taken by the call.  A parameter of
    ``e`` missing from ``order`` raises ``KeyError`` at compile time.

    Each row is second-order forward mode (Griewank & Walther, *Evaluating
    Derivatives*, 2nd ed., 2008): a node takes its value, gradient and
    Hessian from its operands' by the chain rule, and its value is that of
    the scalar rules bit for bit (signed zeros included).  The derivatives
    of ``abs`` at 0 are 0.  A row is infeasible where a node's value is
    undefined, which is where a scalar rule raises, or its derivative is
    (``^`` at a base that is not positive, see ``_power_minus_one``); the
    row's other results then mean nothing.  Nodes run left operand, right
    operand, node, and a row's reason is that of the first node that marks
    it: the error a walk of the tree by these rules raises first.

    Every node is numpy array operations, which IEEE 754 rounds as Python's
    float arithmetic does; entries (i, j) and (j, i) of a Hessian differ
    only in the order of a product's or a sum's two terms, so each matrix is
    exactly symmetric.  Only the scalar values run per element, through
    Python: those of ``log`` and ``exp`` and, for ``^``, a^b, log a and
    a^(b - 1), because numpy's ``log``, ``exp`` and ``power`` may differ
    from ``math``'s in the last bit.
    """
    node = _compile(e, {name: i for i, name in enumerate(order)}, len(order))

    def rows(points):
        points = np.array(points, dtype=float)  # the reasons read this copy
        infeasible = np.zeros(len(points), dtype=bool)
        tests = []
        with np.errstate(all="ignore"):  # infeasible rows compute garbage
            values, grads, hessians = node(points, infeasible, tests)
        return values, grads, hessians, ~infeasible, first_failure(tests)

    return rows


def first_failure(tests: list) -> Callable[[int], "str | None"]:
    """The function that names why point i is infeasible: the reason of the
    first (mask, reason) pair of ``tests`` whose mask is False at i, or None
    where every mask is True."""
    return lambda i: next((reason(i) for mask, reason in tests if not mask[i]), None)


def _outer(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p_i * q_j at (i, j) of each row's n x n matrix."""
    return p[:, :, None] * q[:, None, :]


def _compile(e: Expr, index: dict[str, int], n: int) -> _NodeFn:
    if isinstance(e, Literal):
        value = e.value

        def literal(x, bad, tests):
            k = len(x)
            return np.full(k, value), np.zeros((k, n)), np.zeros((k, n, n))

        return literal
    if isinstance(e, Param):
        i = index[e.name]

        def param(x, bad, tests):
            unit = np.zeros((len(x), n))
            unit[:, i] = 1.0
            return x[:, i], unit, np.zeros((len(x), n, n))

        return param
    if not isinstance(e, (Unary, Binary)):
        raise TypeError(f"not an expression node: {e!r}")
    table = _UNARY if isinstance(e, Unary) else _BINARY
    if e.op not in table:
        raise ValueError(f"unknown operator {e.op!r}")
    rule = table[e.op][1]
    if isinstance(e, Unary):
        arg = _compile(e.arg, index, n)

        def unary(x, bad, tests):
            return rule(e, *arg(x, bad, tests), bad, tests)

        return unary
    left, right = _compile(e.left, index, n), _compile(e.right, index, n)

    def binary(x, bad, tests):
        return rule(e, *left(x, bad, tests), *right(x, bad, tests), bad, tests)

    return binary


def _mark(bad: np.ndarray, tests: list, fails: np.ndarray, rule: Callable) -> None:
    """Mark the rows of the mask ``fails`` infeasible, each for the error
    that ``rule(i)``, the node's scalar rule at row i, raises."""

    def reason(i):
        try:
            rule(i)
        except (DomainError, OverflowError) as exc:
            return str(exc)

    tests.append((~fails, reason))
    bad |= fails


def _scalar_rows(rows: np.ndarray, bad: np.ndarray, tests: list, rule: Callable,
                 *operands: np.ndarray) -> np.ndarray:
    """``rule`` on the operands' entries at each row of the mask ``rows`` that
    is feasible, NaN elsewhere; a row where it raises is marked infeasible."""
    out = np.full(len(bad), math.nan)
    at = np.flatnonzero(rows & ~bad)
    values, fails = [], []
    for i, args in zip(at.tolist(), zip(*[v[at].tolist() for v in operands])):
        try:
            values.append(rule(*args))
        except (DomainError, OverflowError):
            values.append(math.nan)
            fails.append(i)
    out[at] = values
    if fails:
        mask = np.zeros(len(bad), dtype=bool)
        mask[fails] = True
        _mark(bad, tests, mask, lambda i: rule(*[v[i].item() for v in operands]))
    return out


# ---------------------------------------------------------------------------
# Operators.  A scalar rule gives a node's value from its operands' values,
# or raises the DomainError that says why it has none.  An array rule takes
# the node, each operand's values, gradients and Hessians, the infeasible
# mask and the tests, and gives the node's by the chain rule on every row
# ---------------------------------------------------------------------------


def _sqrt_value(e: Unary, x: float) -> float:
    if x <= 0.0:
        raise DomainError(f"sqrt of non-positive value {x!r}", e)
    return math.sqrt(x)


def _log_value(e: Unary, x: float) -> float:
    if x <= 0.0:
        raise DomainError(f"log of non-positive value {x!r}", e)
    return math.log(x)


def _divide_value(e: Binary, a: float, b: float) -> float:
    if b == 0.0:
        raise DomainError("division by zero", e)
    return a / b


def _power_value(e: Binary, base: float, exponent: float) -> float:
    if base > 0.0:
        return base**exponent
    if base == 0.0:
        if exponent > 0.0:
            return 0.0
        if exponent == 0.0:
            return 1.0
        raise DomainError("zero raised to a negative power", e)
    # negative base: only integer exponents stay real
    if float(exponent).is_integer():
        return base**exponent
    raise DomainError(f"negative base {base!r} with non-integer exponent {exponent!r}", e)


def _power_minus_one(e: Binary, base: float, exponent: float, exponent_varies: bool) -> float:
    """The a^(b - 1) that the derivatives of a^b take at a base a that is not
    positive, NaN included; raises where those derivatives are undefined."""
    if exponent_varies:
        raise DomainError(f"non-positive base {base!r} with parameter-dependent exponent", e)
    if base == 0.0 and exponent < 1.0:
        raise DomainError("derivative of power undefined at zero base", e)
    return base ** (exponent - 1.0)


def _neg_rows(e, v, g, h, bad, tests):
    return -v, -g, -h


def _sqrt_rows(e, v, g, h, bad, tests):
    _mark(bad, tests, v <= 0.0, lambda i: _sqrt_value(e, v[i].item()))
    r = np.sqrt(v)
    d = 2.0 * r
    dr = g / d[:, None]
    return r, dr, (h - 2.0 * _outer(dr, dr)) / d[:, None, None]


def _log_rows(e, v, g, h, bad, tests):
    dr = g / v[:, None]
    return (_scalar_rows(~bad, bad, tests, partial(_log_value, e), v), dr,
            h / v[:, None, None] - _outer(dr, dr))


def _exp_rows(e, v, g, h, bad, tests):
    r = _scalar_rows(~bad, bad, tests, math.exp, v)
    return r, r[:, None] * g, r[:, None, None] * (h + _outer(g, g))


def _abs_rows(e, v, g, h, bad, tests):
    sign = np.where(v == 0.0, 0.0, np.copysign(1.0, v))
    return np.abs(v), sign[:, None] * g, sign[:, None, None] * h


def _add_rows(e, a, ga, ha, b, gb, hb, bad, tests):
    return a + b, ga + gb, ha + hb


def _subtract_rows(e, a, ga, ha, b, gb, hb, bad, tests):
    return a - b, ga - gb, ha - hb


def _multiply_rows(e, a, ga, ha, b, gb, hb, bad, tests):
    return (a * b, a[:, None] * gb + b[:, None] * ga,
            a[:, None, None] * hb + b[:, None, None] * ha + (_outer(ga, gb) + _outer(gb, ga)))


def _divide_rows(e, a, ga, ha, b, gb, hb, bad, tests):
    _mark(bad, tests, b == 0.0, lambda i: _divide_value(e, a[i].item(), b[i].item()))
    value = a / b
    # with f = a/b: f_i = (a_i b - a b_i) / b^2, which is +-inf or nan
    # where b^2 underflows to zero
    den = b * b
    num = ga * b[:, None] - a[:, None] * gb
    grad = np.where((den == 0.0)[:, None], num * math.inf, num / den[:, None])
    # f_ij = (a_ij - f b_ij - (f_i b_j + f_j b_i)) / b
    hess = (ha - value[:, None, None] * hb
            - (_outer(grad, gb) + _outer(gb, grad))) / b[:, None, None]
    return value, grad, hess


def _power_rows(e, a, ga, ha, b, gb, hb, bad, tests):
    value = _scalar_rows(~bad, bad, tests, partial(_power_value, e), a, b)
    pos, zero, varies = a > 0.0, a == 0.0, (gb != 0.0).any(axis=1)
    log_a = _scalar_rows(pos, bad, tests, math.log, a)
    # a <= 0: a^(b - 2) is taken as a^(b - 1) / a, which cannot overflow
    # where the gradient does not
    c = _scalar_rows(~pos, bad, tests, partial(_power_minus_one, e), a, b, varies)
    # a > 0: a^b = exp(u), u = b log a: d(a^b) = a^b du, d2(a^b) = a^b (d2u + du du')
    du = b[:, None] * ga / a[:, None]
    du = np.where(varies[:, None], du + log_a[:, None] * gb, du)
    one = (b == 1.0)[:, None]
    grad = np.where(pos[:, None], value[:, None] * du, np.where(
        zero[:, None], np.where(one, ga, 0.0), (b * c)[:, None] * ga))
    a3, b3, c3 = a[:, None, None], b[:, None, None], c[:, None, None]
    gg = _outer(ga, ga)
    h_pos = value[:, None, None] * (
        (b3 * (ha - gg / a3) + (_outer(ga, gb) + _outer(gb, ga))) / a3
        + log_a[:, None, None] * hb + _outer(du, du))
    # a = 0, b >= 1: b (b - 1) a^(b - 2) is 2 at b = 2, 0 above, unbounded below
    k = np.where(b3 == 2.0, 2.0, np.where(b3 > 2.0, 0.0, math.inf))
    h_zero = np.where(one[:, :, None], ha, k * gg)
    h_neg = b3 * ((b3 - 1.0) * c3 / a3 * gg + c3 * ha)
    hess = np.where(pos[:, None, None], h_pos, np.where(zero[:, None, None], h_zero, h_neg))
    return value, grad, hess


# each operator: (scalar rule, array rule); the parser takes the function
# names from _UNARY, and _PRECEDENCE ranks neg and every binary operator
_UNARY = {
    "sqrt": (_sqrt_value, _sqrt_rows),
    "log": (_log_value, _log_rows),
    "exp": (lambda e, x: math.exp(x), _exp_rows),
    "abs": (lambda e, x: abs(x), _abs_rows),
    "neg": (lambda e, x: -x, _neg_rows),
}
_BINARY = {
    "+": (lambda e, a, b: a + b, _add_rows),
    "-": (lambda e, a, b: a - b, _subtract_rows),
    "*": (lambda e, a, b: a * b, _multiply_rows),
    "/": (_divide_value, _divide_rows),
    "^": (_power_value, _power_rows),
}
