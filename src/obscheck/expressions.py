"""Tiny expression language for model definitions.

Supports real literals, named parameters, the unary functions
``sqrt``, ``log``, ``exp``, ``abs``, ``neg`` and the binary operators
``+ - * / ^``.  Expressions are parsed into immutable trees.  The scalar
rules (``_apply_unary``, ``_apply_binary``, ``_power_value``) define the
language's values in IEEE double precision and its domain errors.  There is
one evaluator: :func:`compile_expr` turns a tree into one closure over a
(k, n) array of points that gives each point its value by those rules with
its exact first and, when asked, second partial derivatives (second-order
forward mode), marks the points where the value or a derivative is
undefined and, when asked, names the reason.

Precedence is ``^`` > unary minus > ``* /`` > ``+ -``; all binary
operators associate to the left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

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


@dataclass(frozen=True)
class Expr:
    """Abstract base node."""

    def __str__(self) -> str:
        return format_expr(self)


@dataclass(frozen=True)
class Literal(Expr):
    value: float


@dataclass(frozen=True)
class Param(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # sqrt | log | exp | abs | neg
    arg: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # + - * / ^
    left: Expr
    right: Expr


_FUNCTIONS = ("sqrt", "log", "exp", "abs", "neg")


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

    def take(self) -> str:
        ch = self.peek()
        if ch is None:
            raise ParseError("unexpected end of input", self.pos)
        self.pos += 1
        return ch

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

    Raises :class:`ParseError` with the offending position on bad syntax and
    on unknown function names.  Parameter names are not validated here; that
    happens when the expression is bound to a model.
    """
    tok = _Tokenizer(text)
    expr = _parse_sum(tok)
    if tok.peek() is not None:
        raise ParseError(f"unexpected trailing input '{tok.peek()}'", tok.pos)
    return expr


def _parse_sum(tok: _Tokenizer) -> Expr:
    left = _parse_term(tok)
    while tok.peek() in ("+", "-"):
        op = tok.take()
        right = _parse_term(tok)
        left = Binary(op, left, right)
    return left


def _parse_term(tok: _Tokenizer) -> Expr:
    left = _parse_unary(tok)
    while tok.peek() in ("*", "/"):
        op = tok.take()
        right = _parse_unary(tok)
        left = Binary(op, left, right)
    return left


def _parse_unary(tok: _Tokenizer) -> Expr:
    if tok.peek() == "-":
        tok.take()
        return Unary("neg", _parse_unary(tok))
    return _parse_power(tok)


def _parse_power(tok: _Tokenizer) -> Expr:
    left = _parse_primary(tok)
    while tok.peek() == "^":
        tok.take()
        right = _parse_primary(tok)
        left = Binary("^", left, right)
    return left


def _parse_primary(tok: _Tokenizer) -> Expr:
    ch = tok.peek()
    if ch is None:
        raise ParseError("unexpected end of input", tok.pos)
    if ch == "(":
        tok.take()
        inner = _parse_sum(tok)
        if tok.peek() != ")":
            raise ParseError("expected ')'", tok.pos)
        tok.take()
        return inner
    if ch.isdigit() or ch == ".":
        return Literal(tok.take_number())
    if ch.isalpha() or ch == "_":
        start = tok.pos
        name = tok.take_name()
        if tok.peek() == "(":
            if name not in _FUNCTIONS:
                raise ParseError(f"unknown function '{name}'", start)
            tok.take()
            arg = _parse_sum(tok)
            if tok.peek() != ")":
                raise ParseError("expected ')'", tok.pos)
            tok.take()
            return Unary(name, arg)
        return Param(name)
    raise ParseError(f"unexpected character '{ch}'", tok.pos)


# ---------------------------------------------------------------------------
# Printing (parse -> print -> parse is the identity on trees)
# ---------------------------------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


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
            # unary minus binds looser than ^ and tighter than * /
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
# Scalar rules: the value of a node from its operands' values, or the
# DomainError that says why it has none
# ---------------------------------------------------------------------------


def _apply_unary(e: Unary, x: float) -> float:
    op = e.op
    if op == "neg":
        return -x
    if op == "sqrt":
        if x <= 0.0:
            raise DomainError(f"sqrt of non-positive value {x!r}", e)
        return math.sqrt(x)
    if op == "log":
        if x <= 0.0:
            raise DomainError(f"log of non-positive value {x!r}", e)
        return math.log(x)
    if op == "exp":
        return math.exp(x)
    if op == "abs":
        return abs(x)
    raise ValueError(f"unknown unary op {op!r}")


def _apply_binary(e: Binary, a: float, b: float) -> float:
    op = e.op
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0.0:
            raise DomainError("division by zero", e)
        return a / b
    if op == "^":
        return _power_value(e, a, b)
    raise ValueError(f"unknown binary op {op!r}")


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
    raise DomainError(
        f"negative base {base!r} with non-integer exponent {exponent!r}", e
    )


def _sym(n: int, entry: Callable[[int, int], float]) -> list[list[float]]:
    """The symmetric n x n matrix with ``entry(i, j)`` at (i, j) and (j, i), i <= j."""
    h = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            h[i][j] = h[j][i] = entry(i, j)
    return h


def _power_rule(e: Binary, a: float, ga, ha, b: float, gb, hb, value: float):
    """Gradient and Hessian of ``value = a ^ b`` from the derivatives of the
    base ``a`` and the exponent ``b``; the Hessian is None when ``ha`` is."""
    n = len(ga)
    sym = (lambda entry: None) if ha is None else (lambda entry: _sym(n, entry))
    exponent_varies = any([q != 0.0 for q in gb])
    if a > 0.0:
        # a^b = exp(u), u = b log a: d(a^b) = a^b du, d2(a^b) = a^b (d2u + du du')
        du = [b * p / a for p in ga]
        if exponent_varies:
            log_a = math.log(a)
            du = [t + log_a * q for t, q in zip(du, gb)]
        return tuple([value * t for t in du]), sym(lambda i, j: value * (
            (b * (ha[i][j] - ga[i] * ga[j] / a) + (ga[i] * gb[j] + ga[j] * gb[i])) / a
            + math.log(a) * hb[i][j] + du[i] * du[j]))
    if exponent_varies:
        raise DomainError(f"non-positive base {a!r} with parameter-dependent exponent", e)
    if a == 0.0:
        if b == 1.0:
            return tuple(ga), ha
        if b > 1.0:
            # b (b - 1) a^(b - 2) at a = 0: 2 at b = 2, 0 above, unbounded below
            k = 2.0 if b == 2.0 else 0.0 if b > 2.0 else math.inf
            return (0.0,) * n, sym(lambda i, j: k * (ga[i] * ga[j]))
        raise DomainError("derivative of power undefined at zero base", e)
    # negative base, integer exponent; a^(b - 2) is taken as a^(b - 1) / a,
    # which cannot overflow where the gradient does not
    c = a ** (b - 1.0)
    return tuple([b * c * p for p in ga]), sym(lambda i, j: b * (
        (b - 1.0) * c / a * (ga[i] * ga[j]) + c * ha[i][j]))


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

RowsFn = Callable[..., tuple]
# a compiled node: (points, infeasible, hessian, reasons) -> (values,
# gradients, Hessians); it marks the rows where its value or a derivative
# is undefined in ``infeasible``, in place, and, when ``reasons`` is a list,
# puts the error message at each row it is the first to mark; its Hessians
# are None unless ``hessian``
_NodeFn = Callable[[np.ndarray, np.ndarray, bool, "list | None"], tuple]


def compile_expr(e: Expr, order: Sequence[str]) -> RowsFn:
    """Compile ``e`` into one closure over many points, with gradients and,
    when asked, Hessians and the reasons why points are infeasible.

    The closure takes a (k, n) array, one point per row laid out like
    ``order``, and returns ``(values, gradients, feasible)``: values (k,),
    gradients (k, n) and a boolean mask (k,).  With ``hessian=True`` the
    Hessians (k, n, n) come before the mask.  With ``reasons=True`` a list
    follows the mask: for each infeasible row the message of the
    :class:`DomainError` or ``OverflowError`` that says why, None for each
    feasible row.  A parameter of ``e`` missing from ``order`` raises
    ``KeyError`` at compile time.

    Each row is second-order forward mode (Griewank & Walther, *Evaluating
    Derivatives*, 2nd ed., 2008): a node takes its value, gradient and
    Hessian from its operands' by the chain rule, and its value is that of
    the scalar rules bit for bit (signed zeros included).  The derivatives
    of ``abs`` at 0 are 0.  A row is infeasible where a node's value is
    undefined, which is where a scalar rule raises, or its derivative is
    (``^`` at a base that is not positive, see
    ``_power_rule``); the row's other results then mean nothing.  Nodes run
    left operand, right operand, node, and a row's reason is that of the
    first node that marks it: the error a walk of the tree by these rules
    raises first.

    Literals, parameters, ``neg``, ``abs``, ``sqrt`` and ``+ - * /`` are
    numpy array operations, which IEEE 754 rounds as Python's float
    arithmetic does; entries (i, j) and (j, i) of a Hessian differ only in
    the order of a product's or a sum's two terms, so each matrix is exactly
    symmetric.  The values of ``log`` and ``exp`` and everything of ``^``
    run per row through the scalar rules themselves: numpy's
    ``log``, ``exp`` and ``power`` may differ from ``math``'s in the last
    bit.
    """
    node = _compile(e, {name: i for i, name in enumerate(order)}, len(order))

    def rows(points, hessian=False, reasons=False):
        points = np.asarray(points, dtype=float)
        infeasible = np.zeros(len(points), dtype=bool)
        why = [None] * len(points) if reasons else None
        with np.errstate(all="ignore"):  # infeasible rows compute garbage
            values, grads, hessians = node(points, infeasible, hessian, why)
        out = (values, grads, hessians) if hessian else (values, grads)
        return (*out, ~infeasible, why) if reasons else (*out, ~infeasible)

    return rows


def _outer(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p_i * q_j at (i, j) of each row's n x n matrix."""
    return p[:, :, None] * q[:, None, :]


def _compile(e: Expr, index: dict[str, int], n: int) -> _NodeFn:
    # Each rule below is a node's forward-mode rule applied to every row; the
    # Hessian is computed only when asked (h is None otherwise).
    if isinstance(e, Literal):
        value = e.value

        def literal(x, bad, hessian, why):
            k = len(x)
            return np.full(k, value), np.zeros((k, n)), np.zeros((k, n, n)) if hessian else None

        return literal
    if isinstance(e, Param):
        i = index[e.name]

        def param(x, bad, hessian, why):
            unit = np.zeros((len(x), n))
            unit[:, i] = 1.0
            return x[:, i], unit, np.zeros((len(x), n, n)) if hessian else None

        return param
    if isinstance(e, Unary):
        return _compile_unary(e, _compile(e.arg, index, n))
    if isinstance(e, Binary):
        return _compile_binary(e, _compile(e.left, index, n), _compile(e.right, index, n))
    raise TypeError(f"not an expression node: {e!r}")


def _mark(bad: np.ndarray, fails: np.ndarray, why: list | None, rule: Callable) -> None:
    """Mark the rows of the mask ``fails`` infeasible.  With ``why`` a list,
    each row that no earlier node has marked gets the message of the error
    that ``rule(i)``, the node's scalar rule at row i, raises."""
    if why is not None:
        for i in np.flatnonzero(fails & ~bad).tolist():
            try:
                rule(i)
            except (DomainError, OverflowError) as exc:
                why[i] = str(exc)
    bad |= fails


def _scalar_rows(e: Unary, v: np.ndarray, bad: np.ndarray, why: list | None) -> np.ndarray:
    """``_apply_unary(e, .)`` on each feasible entry of ``v``; an entry where it
    raises marks its row infeasible, with the error's message in ``why``."""
    out = np.full(len(v), math.nan)
    for i, (a, skip) in enumerate(zip(v.tolist(), bad.tolist())):
        if not skip:
            try:
                out[i] = _apply_unary(e, a)
            except (DomainError, OverflowError) as exc:
                bad[i] = True
                if why is not None:
                    why[i] = str(exc)
    return out


def _compile_unary(e: Unary, arg: _NodeFn) -> _NodeFn:
    op = e.op
    if op == "neg":

        def neg(x, bad, hessian, why):
            v, g, h = arg(x, bad, hessian, why)
            return -v, -g, None if h is None else -h

        return neg
    if op == "sqrt":

        def sqrt(x, bad, hessian, why):
            v, g, h = arg(x, bad, hessian, why)
            _mark(bad, v <= 0.0, why, lambda i: _apply_unary(e, v[i].item()))
            r = np.sqrt(v)
            d = 2.0 * r
            dr = g / d[:, None]
            if h is not None:
                h = (h - 2.0 * _outer(dr, dr)) / d[:, None, None]
            return r, dr, h

        return sqrt
    if op == "log":

        def log(x, bad, hessian, why):
            v, g, h = arg(x, bad, hessian, why)
            dr = g / v[:, None]
            if h is not None:
                h = h / v[:, None, None] - _outer(dr, dr)
            return _scalar_rows(e, v, bad, why), dr, h

        return log
    if op == "exp":

        def exp(x, bad, hessian, why):
            v, g, h = arg(x, bad, hessian, why)
            r = _scalar_rows(e, v, bad, why)
            if h is not None:
                h = r[:, None, None] * (h + _outer(g, g))
            return r, r[:, None] * g, h

        return exp
    if op == "abs":

        def abs_(x, bad, hessian, why):
            v, g, h = arg(x, bad, hessian, why)
            sign = np.where(v == 0.0, 0.0, np.copysign(1.0, v))
            return np.abs(v), sign[:, None] * g, None if h is None else sign[:, None, None] * h

        return abs_
    raise ValueError(f"unknown unary op {op!r}")


def _compile_binary(e: Binary, left: _NodeFn, right: _NodeFn) -> _NodeFn:
    op = e.op
    if op == "+":

        def add(x, bad, hessian, why):
            (a, ga, ha), (b, gb, hb) = left(x, bad, hessian, why), right(x, bad, hessian, why)
            return a + b, ga + gb, None if ha is None else ha + hb

        return add
    if op == "-":

        def sub(x, bad, hessian, why):
            (a, ga, ha), (b, gb, hb) = left(x, bad, hessian, why), right(x, bad, hessian, why)
            return a - b, ga - gb, None if ha is None else ha - hb

        return sub
    if op == "*":

        def mul(x, bad, hessian, why):
            (a, ga, ha), (b, gb, hb) = left(x, bad, hessian, why), right(x, bad, hessian, why)
            if ha is not None:
                ha = (a[:, None, None] * hb + b[:, None, None] * ha
                      + (_outer(ga, gb) + _outer(gb, ga)))
            return a * b, a[:, None] * gb + b[:, None] * ga, ha

        return mul
    if op == "/":

        def div(x, bad, hessian, why):
            (a, ga, ha), (b, gb, hb) = left(x, bad, hessian, why), right(x, bad, hessian, why)
            _mark(bad, b == 0.0, why, lambda i: _apply_binary(e, a[i].item(), b[i].item()))
            value = a / b
            # with f = a/b: f_i = (a_i b - a b_i) / b^2, which is +-inf or nan
            # where b^2 underflows to zero
            den = b * b
            num = ga * b[:, None] - a[:, None] * gb
            grad = np.where((den == 0.0)[:, None], num * math.inf, num / den[:, None])
            if ha is not None:
                # f_ij = (a_ij - f b_ij - (f_i b_j + f_j b_i)) / b
                ha = (ha - value[:, None, None] * hb
                      - (_outer(grad, gb) + _outer(gb, grad))) / b[:, None, None]
            return value, grad, ha

        return div
    if op == "^":

        def power(x, bad, hessian, why):
            (a, ga, ha), (b, gb, hb) = left(x, bad, hessian, why), right(x, bad, hessian, why)
            value, grad = np.full(len(a), math.nan), np.full(ga.shape, math.nan)
            hess = np.full(ha.shape, math.nan) if hessian else None
            rows = zip(a.tolist(), ga.tolist(), b.tolist(), gb.tolist(), bad.tolist())
            for i, (ai, gai, bi, gbi, skip) in enumerate(rows):
                if skip:
                    continue
                try:
                    value[i] = vi = _power_value(e, ai, bi)
                    if hessian:
                        grad[i], hess[i] = _power_rule(
                            e, ai, gai, ha[i].tolist(), bi, gbi, hb[i].tolist(), vi)
                    else:
                        grad[i] = _power_rule(e, ai, gai, None, bi, gbi, None, vi)[0]
                except (DomainError, OverflowError) as exc:
                    bad[i] = True
                    if why is not None:
                        why[i] = str(exc)
            return value, grad, hess

        return power
    raise ValueError(f"unknown binary op {op!r}")
