import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obscheck.expressions import (
    Binary,
    DomainError,
    Literal,
    Param,
    ParseError,
    Unary,
    collect_params,
    compile_expr,
    format_expr,
    parse_expr,
)

from conftest import _POINTS, _expr_strategy, central_difference_hessian
from tree_walker import eval_expr, eval_hessian


class TestParsing:
    def test_function_call(self):
        assert parse_expr("sqrt(b)") == Unary("sqrt", Param("b"))

    def test_precedence_div_before_add(self):
        assert parse_expr("a/b + 1") == Binary(
            "+", Binary("/", Param("a"), Param("b")), Literal(1.0)
        )

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse_expr("-b^2") == Unary("neg", Binary("^", Param("b"), Literal(2.0)))

    def test_unary_minus_binds_tighter_than_mul(self):
        assert parse_expr("-a*b") == Binary("*", Unary("neg", Param("a")), Param("b"))

    def test_left_associativity(self):
        assert parse_expr("a - b - c") == Binary(
            "-", Binary("-", Param("a"), Param("b")), Param("c")
        )
        assert parse_expr("a^b^c") == Binary(
            "^", Binary("^", Param("a"), Param("b")), Param("c")
        )

    def test_parentheses_override(self):
        assert parse_expr("a - (b - c)") == Binary(
            "-", Param("a"), Binary("-", Param("b"), Param("c"))
        )

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_expr("a +")
        assert err.value.position == 3

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function 'sin'"):
            parse_expr("sin(a)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expr("a b")

    def test_scientific_notation(self):
        assert parse_expr("1.5e-3") == Literal(1.5e-3)


class TestEval:
    def test_sqrt(self):
        assert eval_expr(parse_expr("sqrt(b)"), {"b": 0.64}) == pytest.approx(0.8)

    def test_ratio(self):
        assert eval_expr(parse_expr("a/b"), {"a": 0.6, "b": 0.4}) == pytest.approx(1.5)

    def test_log_of_zero_is_domain_error(self):
        with pytest.raises(DomainError):
            eval_expr(parse_expr("log(b)"), {"b": 0.0})

    def test_sqrt_of_negative_is_domain_error(self):
        with pytest.raises(DomainError):
            eval_expr(parse_expr("sqrt(b)"), {"b": -1.0})

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            eval_expr(parse_expr("1/w"), {"w": 0.0})

    def test_negative_base_fractional_power(self):
        with pytest.raises(DomainError):
            eval_expr(parse_expr("a^0.5"), {"a": -2.0})

    def test_negative_base_integer_power(self):
        assert eval_expr(parse_expr("a^2"), {"a": -3.0}) == 9.0

    def test_missing_parameter(self):
        with pytest.raises(KeyError):
            eval_expr(parse_expr("a + b"), {"a": 1.0})


def _at_one_point(text, params, order):
    """Value, gradient and Hessian that the compiled closure of ``text``
    gives at the one point ``params``, as Python floats and lists."""
    point = np.array([[params[name] for name in order]])
    values, grads, hessians, feasible = compile_expr(parse_expr(text), order)(point, hessian=True)
    assert feasible[0]
    return values[0].item(), grads[0].tolist(), hessians[0].tolist()


class TestGradient:
    def test_sqrt_derivative(self):
        value, grad, hess = _at_one_point("sqrt(b)", {"b": 0.64}, ("b",))
        assert value == pytest.approx(0.8)
        assert grad[0] == pytest.approx(0.625)  # 1/(2 sqrt(b))
        assert hess[0][0] == pytest.approx(-1.0 / (4.0 * 0.512))  # -1/(4 b^(3/2))

    def test_product_gradient(self):
        _, grad, hess = _at_one_point("a*b", {"a": 0.6, "b": 0.4}, ("a", "b"))
        assert grad == pytest.approx([0.4, 0.6])
        assert hess == [[0.0, 1.0], [1.0, 0.0]]

    def test_abs_derivative_at_zero(self):
        _, grad, hess = _at_one_point("abs(a)", {"a": 0.0}, ("a",))
        assert grad[0] == 0.0
        assert hess[0][0] == 0.0

    def test_power_with_param_exponent(self):
        value, grad, hess = _at_one_point("a^b", {"a": 2.0, "b": 3.0}, ("a", "b"))
        log2 = math.log(2.0)
        assert value == pytest.approx(8.0)
        assert grad[0] == pytest.approx(12.0)  # b a^(b-1)
        assert grad[1] == pytest.approx(8.0 * log2)
        assert hess[0][0] == pytest.approx(12.0)  # b (b-1) a^(b-2)
        assert hess[0][1] == pytest.approx(4.0 * (1.0 + 3.0 * log2))  # a^(b-1) (1 + b log a)
        assert hess[1][1] == pytest.approx(8.0 * log2**2)

    @pytest.mark.parametrize("text,base,hess", [
        ("a^3", -2.0, -12.0), ("a^1", 0.0, 0.0), ("a^2", 0.0, 2.0), ("a^3", 0.0, 0.0),
    ])
    def test_power_of_non_positive_base(self, text, base, hess):
        assert _at_one_point(text, {"a": base}, ("a",))[2] == [[hess]]


BUNDLED_EXPRESSIONS = [
    "sqrt(b)",
    "a",
    "a/b",
    "sqrt(a*b)",
    "sqrt(a/b)",
    "a*b",
    "a + b",
    "exp(a - b^2) + log(a + 3)",
    "a*b + sqrt(a)/b - 2.5",
]


@pytest.mark.parametrize("text", BUNDLED_EXPRESSIONS)
@given(a=st.floats(0.1, 3.0), b=st.floats(0.1, 3.0))
def test_gradient_matches_finite_differences(text, a, b):
    expr = parse_expr(text)
    params = {"a": a, "b": b}
    order = ("a", "b")
    _, grad, _ = _at_one_point(text, params, order)
    for j, name in enumerate(order):
        h = 1e-6 * max(1.0, abs(params[name]))
        up = dict(params, **{name: params[name] + h})
        dn = dict(params, **{name: params[name] - h})
        fd = (eval_expr(expr, up) - eval_expr(expr, dn)) / (2.0 * h)
        assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("text", BUNDLED_EXPRESSIONS)
@given(a=st.floats(0.05, 5.0), b=st.floats(0.05, 5.0))
def test_eval_grad_value_bit_equals_eval(text, a, b):
    params = {"a": a, "b": b}
    value, _, _ = _at_one_point(text, params, ("a", "b"))
    assert value == eval_expr(parse_expr(text), params)


@given(_expr_strategy())
def test_parse_print_parse_round_trip(expr):
    assert parse_expr(format_expr(expr)) == expr


def _walker_outcome(expr, point, order):
    """Value and gradient of the walker at ``point`` as raw bytes, or
    ("infeasible", message) where it raises the errors that mark a point
    infeasible."""
    try:
        value, grad, _ = eval_hessian(expr, dict(zip(order, point)), order)
    except (DomainError, OverflowError) as exc:
        return "infeasible", str(exc)
    return np.float64(value).tobytes(), np.asarray(grad, dtype=float).tobytes()


def _compiled_outcomes(expr, points, order):
    """:func:`_walker_outcome` of each point, from one compiled evaluation of
    all of them; the evaluation asked for reasons gives the same values,
    gradients and mask."""
    compiled = compile_expr(expr, order)
    points = np.array(points, dtype=float)
    values, grads, feasible = compiled(points)
    assert values.shape == (len(points),) and grads.shape == (len(points), len(order))
    *again, reasons = compiled(points, reasons=True)
    assert [a.tobytes() for a in again] == [a.tobytes() for a in (values, grads, feasible)]
    return [
        (values[i].tobytes(), grads[i].tobytes()) if feasible[i] else ("infeasible", reasons[i])
        for i in range(len(points))
    ]


@given(_expr_strategy(), st.lists(st.tuples(_POINTS, _POINTS, _POINTS), min_size=1, max_size=4))
@settings(max_examples=400)
def test_compiled_closures_bit_equal_tree_walkers(expr, points):
    # several points in one evaluation: a row the walker rejects must not
    # disturb the others
    order = ("a", "b", "c")
    assert _compiled_outcomes(expr, points, order) == [
        _walker_outcome(expr, point, order) for point in points
    ]


@given(_expr_strategy(), st.lists(st.tuples(_POINTS, _POINTS, _POINTS), min_size=1, max_size=4))
@settings(max_examples=400)
def test_compiled_hessians_bit_equal_tree_walkers(expr, points):
    # the closure asked for Hessians gives the walker's value, gradient,
    # Hessian and reason, and the value, gradient, mask and reason of the
    # closure not asked
    order = ("a", "b", "c")
    values, grads, hessians, feasible, reasons = compile_expr(expr, order)(
        np.array(points, dtype=float), hessian=True, reasons=True)
    assert hessians.shape == (len(points), 3, 3)
    want = []
    for point in points:
        try:
            want.append(np.asarray(eval_hessian(expr, dict(zip(order, point)), order)[2]).tobytes())
        except (DomainError, OverflowError) as exc:
            want.append(("infeasible", str(exc)))
    got = [hessians[i].tobytes() if feasible[i] else ("infeasible", reasons[i])
           for i in range(len(points))]
    assert got == want
    got = [(values[i].tobytes(), grads[i].tobytes()) if feasible[i] else ("infeasible", reasons[i])
           for i in range(len(points))]
    assert got == _compiled_outcomes(expr, points, order)


@pytest.mark.parametrize("text", BUNDLED_EXPRESSIONS)
@given(st.lists(st.tuples(st.floats(0.05, 5.0), st.floats(0.05, 5.0)), min_size=1, max_size=4))
def test_compiled_closures_bit_equal_tree_walkers_in_domain(text, points):
    expr = parse_expr(text)
    order = ("a", "b")
    assert _compiled_outcomes(expr, points, order) == [
        _walker_outcome(expr, point, order) for point in points
    ]


@pytest.mark.parametrize("text", BUNDLED_EXPRESSIONS)
@given(a=st.floats(0.1, 3.0), b=st.floats(0.1, 3.0))
def test_hessian_matches_central_differences(text, a, b):
    expr = parse_expr(text)
    order = ("a", "b")
    compiled = compile_expr(expr, order)
    hess = np.array(_at_one_point(text, {"a": a, "b": b}, order)[2])
    assert np.array_equal(hess, hess.T)
    fd = central_difference_hessian(lambda x: compiled(np.array([x]))[1][0], [a, b])
    assert np.max(np.abs(hess - fd)) <= 1e-6 * max(1.0, np.max(np.abs(hess)))


@given(_expr_strategy(), st.tuples(_POINTS, _POINTS, _POINTS))
def test_hessian_is_exactly_symmetric(expr, point):
    _, _, hessians, feasible = compile_expr(expr, ("a", "b", "c"))(np.array([point]), hessian=True)
    if feasible[0]:
        assert hessians[0].tobytes() == hessians[0].T.tobytes()


def test_compile_requires_every_parameter():
    with pytest.raises(KeyError):
        compile_expr(parse_expr("a + d"), ("a", "b"))


def test_collect_params():
    assert collect_params(parse_expr("a/b + sqrt(a)")) == {"a", "b"}
    assert collect_params(parse_expr("1 + 2")) == set()
