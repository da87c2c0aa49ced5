"""Tiny expression language for model definitions.

Supports real literals, named parameters, the unary functions
``sqrt``, ``log``, ``exp``, ``abs``, ``neg`` and the binary operators
``+ - * / ^``.  Expressions are parsed into immutable trees that can be
evaluated in IEEE double precision, either plainly or together with exact
first partial derivatives (forward-mode dual numbers).  The tree walkers
:func:`eval_expr` and :func:`eval_grad` serve one-shot evaluation;
:func:`compile_expr` turns a tree into closures over Python floats for
repeated evaluation at the same bit-level results.

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
    "eval_expr",
    "eval_grad",
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


class _Dual:
    """Value plus gradient vector for forward-mode differentiation.

    Arithmetic mirrors :func:`eval_expr` operation for operation so the value
    component is bit-identical to a plain evaluation.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value: float, grad: np.ndarray):
        self.value = value
        self.grad = grad


def eval_grad(
    e: Expr, params: dict[str, float], order: tuple[str, ...] | list[str]
) -> tuple[float, np.ndarray]:
    """Evaluate ``e`` and its exact first partial derivatives.

    ``order`` fixes the layout of the returned gradient vector.  The value
    component equals :func:`eval_expr` bit for bit.  The derivative of
    ``abs`` at 0 is defined as 0.
    """
    index = {name: i for i, name in enumerate(order)}
    out = _eval_dual(e, params, index, len(order))
    return out.value, out.grad


def _eval_dual(
    e: Expr, params: dict[str, float], index: dict[str, int], n: int
) -> _Dual:
    if isinstance(e, Literal):
        return _Dual(e.value, np.zeros(n))
    if isinstance(e, Param):
        g = np.zeros(n)
        if e.name in index:
            g[index[e.name]] = 1.0
        return _Dual(params[e.name], g)
    if isinstance(e, Unary):
        x = _eval_dual(e.arg, params, index, n)
        value = _apply_unary(e, x.value)
        op = e.op
        if op == "neg":
            return _Dual(value, -x.grad)
        if op == "sqrt":
            return _Dual(value, x.grad / (2.0 * value))
        if op == "log":
            return _Dual(value, x.grad / x.value)
        if op == "exp":
            return _Dual(value, value * x.grad)
        if op == "abs":
            sign = 0.0 if x.value == 0.0 else math.copysign(1.0, x.value)
            return _Dual(value, sign * x.grad)
        raise ValueError(f"unknown unary op {op!r}")
    if isinstance(e, Binary):
        a = _eval_dual(e.left, params, index, n)
        b = _eval_dual(e.right, params, index, n)
        value = _apply_binary(e, a.value, b.value)
        op = e.op
        if op == "+":
            return _Dual(value, a.grad + b.grad)
        if op == "-":
            return _Dual(value, a.grad - b.grad)
        if op == "*":
            return _Dual(value, a.value * b.grad + b.value * a.grad)
        if op == "/":
            return _Dual(value, (a.grad * b.value - a.value * b.grad) / (b.value * b.value))
        if op == "^":
            return _Dual(value, _power_grad(e, a, b, value))
        raise ValueError(f"unknown binary op {op!r}")
    raise TypeError(f"not an expression node: {e!r}")


def _power_grad(e: Binary, a: _Dual, b: _Dual, value: float) -> np.ndarray:
    exponent_varies = bool(np.any(b.grad != 0.0))
    if a.value > 0.0:
        # d(u^v) = u^v * (v' ln u + v u'/u)
        term = b.value * a.grad / a.value
        if exponent_varies:
            term = term + math.log(a.value) * b.grad
        return value * term
    if exponent_varies:
        raise DomainError(
            f"non-positive base {a.value!r} with parameter-dependent exponent", e
        )
    p = b.value
    if a.value == 0.0:
        if p > 1.0:
            return np.zeros_like(a.grad)
        if p == 1.0:
            return a.grad.copy()
        raise DomainError("derivative of power undefined at zero base", e)
    # negative base, integer exponent
    return p * a.value ** (p - 1.0) * a.grad


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

ValueFn = Callable[[Sequence[float]], float]
DualFn = Callable[[Sequence[float]], tuple[float, tuple[float, ...]]]


def compile_expr(e: Expr, order: Sequence[str]) -> tuple[ValueFn, DualFn]:
    """Compile ``e`` into a value closure and a value-plus-gradient closure.

    Both take the parameter values as a sequence of Python floats laid out
    like ``order``.  The first returns what :func:`eval_expr` returns; the
    second returns ``(value, gradient)`` with the gradient a tuple laid out
    like ``order``.  Each closure performs the tree walkers' floating-point
    operations in the same order, so values and gradients are bit-identical
    to :func:`eval_expr` and :func:`eval_grad` (signed zeros included), and
    every error they raise carries the same message.  A parameter of ``e``
    missing from ``order`` raises ``KeyError`` at compile time.
    """
    index = {name: i for i, name in enumerate(order)}
    return _compile_value(e, index), _compile_dual(e, index, len(order))


def _compile_value(e: Expr, index: dict[str, int]) -> ValueFn:
    if isinstance(e, Literal):
        value = e.value
        return lambda x: value
    if isinstance(e, Param):
        i = index[e.name]
        return lambda x: x[i]
    if isinstance(e, Unary):
        arg = _compile_value(e.arg, index)
        op = e.op
        if op == "neg":
            return lambda x: -arg(x)
        if op == "exp":
            return lambda x: math.exp(arg(x))
        if op == "abs":
            return lambda x: abs(arg(x))
        if op in ("sqrt", "log"):
            fn = math.sqrt if op == "sqrt" else math.log

            def checked(x):
                v = arg(x)
                if v <= 0.0:
                    _apply_unary(e, v)  # raises the walker's DomainError
                return fn(v)

            return checked
        raise ValueError(f"unknown unary op {op!r}")
    if isinstance(e, Binary):
        left = _compile_value(e.left, index)
        right = _compile_value(e.right, index)
        op = e.op
        if op == "+":
            return lambda x: left(x) + right(x)
        if op == "-":
            return lambda x: left(x) - right(x)
        if op == "*":
            return lambda x: left(x) * right(x)
        if op == "/":

            def divide(x):
                a = left(x)
                b = right(x)
                if b == 0.0:
                    _apply_binary(e, a, b)  # raises the walker's DomainError
                return a / b

            return divide
        if op == "^":
            return lambda x: _power_value(e, left(x), right(x))
        raise ValueError(f"unknown binary op {op!r}")
    raise TypeError(f"not an expression node: {e!r}")


def _compile_dual(e: Expr, index: dict[str, int], n: int) -> DualFn:
    # Each rule below is the matching rule of _eval_dual with the numpy
    # array operations written out per component.
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
            den = b * b
            if den == 0.0:
                # b*b underflowed: numpy divides to +-inf or nan where a
                # Python float division would raise
                grad = (np.array(ga) * b - a * np.array(gb)) / den
                return a / b, tuple(grad.tolist())
            return a / b, tuple([(p * b - a * q) / den for p, q in zip(ga, gb)])

        return div
    if op == "^":

        def power(x):
            a, ga = left(x)
            b, gb = right(x)
            value = _power_value(e, a, b)
            if not a > 0.0:
                # non-positive base: rare, so the walker's rule runs as is
                grad = _power_grad(e, _Dual(a, np.array(ga)), _Dual(b, np.array(gb)), value)
                return value, tuple(grad.tolist())
            term = [b * p / a for p in ga]
            if any([q != 0.0 for q in gb]):
                log_a = math.log(a)
                term = [t + log_a * q for t, q in zip(term, gb)]
            return value, tuple([value * t for t in term])

        return power
    raise ValueError(f"unknown binary op {op!r}")
