"""The second-order tree walker: the reference for ``compile_expr``.

:func:`eval_hessian` evaluates an expression with its exact gradient and
Hessian by second-order forward mode (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., 2008), one rule per node on Python floats.  The
compiled closures must give each point its value, gradient and Hessian bit
for bit, and must mark a point infeasible exactly where this raises, with
the message it raises.  :func:`eval_expr` is its value alone.  It shares the scalar rules of
:mod:`obscheck.expressions` (``_apply_unary``, ``_apply_binary``,
``_power_rule``), which the compiled closures run as well.
"""

import math
from typing import Sequence

from obscheck.expressions import (
    Binary,
    Expr,
    Literal,
    Param,
    Unary,
    _apply_binary,
    _apply_unary,
    _power_rule,
    _sym,
)


def eval_hessian(
    e: Expr, params: dict[str, float], order: Sequence[str]
) -> tuple[float, tuple[float, ...], list[list[float]]]:
    """Value, gradient and Hessian of ``e`` at ``params``; ``order`` lays out
    the gradient and the Hessian's rows and columns.  Raises ``DomainError``
    or ``OverflowError`` where the value or a derivative is undefined; the
    Hessian, exactly symmetric, raises no error of its own.  The derivatives
    of ``abs`` at 0 are defined as 0."""
    return _jet(e, params, {name: i for i, name in enumerate(order)}, len(order))


def eval_expr(e: Expr, params: dict[str, float]) -> float:
    """The value of ``e`` at the named parameter values, where
    :func:`eval_hessian` gives one; ``KeyError`` for a parameter of ``e`` that
    ``params`` lacks."""
    return eval_hessian(e, params, list(params))[0]


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
