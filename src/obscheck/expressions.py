"""Tiny expression language for model definitions.

Supports real literals, named parameters, the unary functions
``sqrt``, ``log``, ``exp``, ``abs``, ``neg`` and the binary operators
``+ - * / ^``.  Expressions are parsed into immutable trees that can be
evaluated in IEEE double precision, either plainly or together with their
exact first and second partial derivatives (second-order forward mode).
The tree walkers :func:`eval_expr` and :func:`eval_hessian` serve one-shot
evaluation; :func:`compile_expr` turns a tree into one value-and-gradient
closure over Python floats for repeated evaluation, with the walker's
value and gradient bit for bit.

Precedence is ``^`` > unary minus > ``* /`` > ``+ -``; all binary
operators associate to the left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

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
    "eval_expr",
    "eval_hessian",
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
# Evaluation
# ---------------------------------------------------------------------------


def eval_expr(e: Expr, params: dict[str, float]) -> float:
    """Evaluate ``e`` at the named parameter values.

    Raises :class:`DomainError` on sqrt/log of a non-positive value, division
    by zero, or an inadmissible power, and ``KeyError`` for a parameter that
    is not supplied.
    """
    if isinstance(e, Literal):
        return e.value
    if isinstance(e, Param):
        return params[e.name]
    if isinstance(e, Unary):
        x = eval_expr(e.arg, params)
        return _apply_unary(e, x)
    if isinstance(e, Binary):
        a = eval_expr(e.left, params)
        b = eval_expr(e.right, params)
        return _apply_binary(e, a, b)
    raise TypeError(f"not an expression node: {e!r}")


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


def eval_hessian(
    e: Expr, params: dict[str, float], order: Sequence[str]
) -> tuple[float, tuple[float, ...], list[list[float]]]:
    """Evaluate ``e`` with its exact gradient and Hessian by second-order
    forward mode (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., 2008).

    ``order`` lays out the gradient and the Hessian's rows and columns.  Value
    and gradient are bit-identical to :func:`compile_expr`'s, and so are the
    errors; the Hessian, exactly symmetric, raises none of its own.  The
    derivatives of ``abs`` at 0 are defined as 0.
    """
    return _jet(e, params, {name: i for i, name in enumerate(order)}, len(order))


def _sym(n: int, entry: Callable[[int, int], float]) -> list[list[float]]:
    """The symmetric n x n matrix with ``entry(i, j)`` at (i, j) and (j, i), i <= j."""
    h = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            h[i][j] = h[j][i] = entry(i, j)
    return h


def _jet(e: Expr, params: dict[str, float], index: dict[str, int], n: int):
    if isinstance(e, Literal):
        return e.value, (0.0,) * n, _sym(n, lambda i, j: 0.0)
    if isinstance(e, Param):
        k = index[e.name]
        unit = tuple(1.0 if j == k else 0.0 for j in range(n))
        return params[e.name], unit, _sym(n, lambda i, j: 0.0)
    if isinstance(e, Unary):
        v, g, h = _jet(e.arg, params, index, n)
        r = _apply_unary(e, v)
        op = e.op
        if op == "neg":
            return r, tuple([-p for p in g]), _sym(n, lambda i, j: -h[i][j])
        if op == "sqrt":
            d = 2.0 * r
            dr = tuple([p / d for p in g])
            return r, dr, _sym(n, lambda i, j: (h[i][j] - 2.0 * (dr[i] * dr[j])) / d)
        if op == "log":
            dr = tuple([p / v for p in g])
            return r, dr, _sym(n, lambda i, j: h[i][j] / v - dr[i] * dr[j])
        if op == "exp":
            return r, tuple([r * p for p in g]), _sym(n, lambda i, j: r * (h[i][j] + g[i] * g[j]))
        if op == "abs":
            sign = 0.0 if v == 0.0 else math.copysign(1.0, v)
            return r, tuple([sign * p for p in g]), _sym(n, lambda i, j: sign * h[i][j])
        raise ValueError(f"unknown unary op {op!r}")
    if isinstance(e, Binary):
        a, ga, ha = _jet(e.left, params, index, n)
        b, gb, hb = _jet(e.right, params, index, n)
        value = _apply_binary(e, a, b)
        op = e.op
        if op == "+":
            grad = tuple([p + q for p, q in zip(ga, gb)])
            return value, grad, _sym(n, lambda i, j: ha[i][j] + hb[i][j])
        if op == "-":
            grad = tuple([p - q for p, q in zip(ga, gb)])
            return value, grad, _sym(n, lambda i, j: ha[i][j] - hb[i][j])
        if op == "*":
            grad = tuple([a * q + b * p for p, q in zip(ga, gb)])
            return value, grad, _sym(n, lambda i, j: (
                a * hb[i][j] + b * ha[i][j] + (ga[i] * gb[j] + ga[j] * gb[i])))
        if op == "/":
            # with f = a/b: f_ij = (a_ij - f b_ij - (f_i b_j + f_j b_i)) / b
            grad = _quotient_grad(a, ga, b, gb)
            return value, grad, _sym(n, lambda i, j: (
                ha[i][j] - value * hb[i][j] - (grad[i] * gb[j] + grad[j] * gb[i])) / b)
        if op == "^":
            return (value, *_power_rule(e, a, ga, ha, b, gb, hb, value))
        raise ValueError(f"unknown binary op {op!r}")
    raise TypeError(f"not an expression node: {e!r}")


def _quotient_grad(a: float, ga, b: float, gb) -> tuple[float, ...]:
    """The gradient of a / b, b != 0; where b*b underflows to zero, each
    component is +-inf or nan, as a numpy division gives, not an error."""
    den = b * b
    if den == 0.0:
        return tuple([(p * b - a * q) * math.inf for p, q in zip(ga, gb)])
    return tuple([(p * b - a * q) / den for p, q in zip(ga, gb)])


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

DualFn = Callable[[Sequence[float]], tuple[float, tuple[float, ...]]]


def compile_expr(e: Expr, order: Sequence[str]) -> DualFn:
    """Compile ``e`` into one value-plus-gradient closure.

    The closure takes the parameter values as a sequence of Python floats
    laid out like ``order`` and returns ``(value, gradient)``, the gradient
    a tuple laid out like ``order``.  It performs the value and gradient
    operations of :func:`eval_hessian` in the same order, so value and
    gradient are bit-identical to that walker's (signed zeros included; the
    value is :func:`eval_expr`'s), and it raises the walker's errors with
    the same messages.  A parameter of ``e`` missing from ``order`` raises
    ``KeyError`` at compile time.
    """
    return _compile_dual(e, {name: i for i, name in enumerate(order)}, len(order))


def _compile_dual(e: Expr, index: dict[str, int], n: int) -> DualFn:
    # Each rule below is the value-and-gradient part of the matching rule
    # of _jet.
    if isinstance(e, Literal):
        constant = (e.value, (0.0,) * n)
        return lambda x: constant
    if isinstance(e, Param):
        i = index[e.name]
        unit = tuple(1.0 if j == i else 0.0 for j in range(n))
        return lambda x: (x[i], unit)
    if isinstance(e, Unary):
        return _compile_dual_unary(e, _compile_dual(e.arg, index, n))
    if isinstance(e, Binary):
        return _compile_dual_binary(
            e, _compile_dual(e.left, index, n), _compile_dual(e.right, index, n)
        )
    raise TypeError(f"not an expression node: {e!r}")


def _compile_dual_unary(e: Unary, arg: DualFn) -> DualFn:
    op = e.op
    if op == "neg":

        def neg(x):
            v, g = arg(x)
            return -v, tuple([-p for p in g])

        return neg
    if op == "sqrt":

        def sqrt(x):
            v, g = arg(x)
            if v <= 0.0:
                _apply_unary(e, v)
            r = math.sqrt(v)
            d = 2.0 * r
            return r, tuple([p / d for p in g])

        return sqrt
    if op == "log":

        def log(x):
            v, g = arg(x)
            if v <= 0.0:
                _apply_unary(e, v)
            return math.log(v), tuple([p / v for p in g])

        return log
    if op == "exp":

        def exp(x):
            v, g = arg(x)
            r = math.exp(v)
            return r, tuple([r * p for p in g])

        return exp
    if op == "abs":

        def abs_(x):
            v, g = arg(x)
            sign = 0.0 if v == 0.0 else math.copysign(1.0, v)
            return abs(v), tuple([sign * p for p in g])

        return abs_
    raise ValueError(f"unknown unary op {op!r}")


def _compile_dual_binary(e: Binary, left: DualFn, right: DualFn) -> DualFn:
    op = e.op
    if op == "+":

        def add(x):
            a, ga = left(x)
            b, gb = right(x)
            return a + b, tuple([p + q for p, q in zip(ga, gb)])

        return add
    if op == "-":

        def sub(x):
            a, ga = left(x)
            b, gb = right(x)
            return a - b, tuple([p - q for p, q in zip(ga, gb)])

        return sub
    if op == "*":

        def mul(x):
            a, ga = left(x)
            b, gb = right(x)
            return a * b, tuple([a * q + b * p for p, q in zip(ga, gb)])

        return mul
    if op == "/":

        def div(x):
            a, ga = left(x)
            b, gb = right(x)
            if b == 0.0:
                _apply_binary(e, a, b)
            return a / b, _quotient_grad(a, ga, b, gb)

        return div
    if op == "^":

        def power(x):
            a, ga = left(x)
            b, gb = right(x)
            value = _power_value(e, a, b)
            return value, _power_rule(e, a, ga, None, b, gb, None, value)[0]

        return power
    raise ValueError(f"unknown binary op {op!r}")
