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
    eval_expr,
    eval_hessian,
    format_expr,
    parse_expr,
)

from conftest import central_difference_hessian


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


class TestGradient:
    def test_sqrt_derivative(self):
        value, grad, hess = eval_hessian(parse_expr("sqrt(b)"), {"b": 0.64}, ("b",))
        assert value == pytest.approx(0.8)
        assert grad[0] == pytest.approx(0.625)  # 1/(2 sqrt(b))
        assert hess[0][0] == pytest.approx(-1.0 / (4.0 * 0.512))  # -1/(4 b^(3/2))

    def test_product_gradient(self):
        _, grad, hess = eval_hessian(parse_expr("a*b"), {"a": 0.6, "b": 0.4}, ("a", "b"))
        assert grad == pytest.approx([0.4, 0.6])
        assert hess == [[0.0, 1.0], [1.0, 0.0]]

    def test_abs_derivative_at_zero(self):
        _, grad, hess = eval_hessian(parse_expr("abs(a)"), {"a": 0.0}, ("a",))
        assert grad[0] == 0.0
        assert hess[0][0] == 0.0

    def test_power_with_param_exponent(self):
        value, grad, hess = eval_hessian(parse_expr("a^b"), {"a": 2.0, "b": 3.0}, ("a", "b"))
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
        assert eval_hessian(parse_expr(text), {"a": base}, ("a",))[2] == [[hess]]


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
    _, grad, _ = eval_hessian(expr, params, order)
    for j, name in enumerate(order):
        h = 1e-6 * max(1.0, abs(params[name]))
        up = dict(params, **{name: params[name] + h})
        dn = dict(params, **{name: params[name] - h})
        fd = (eval_expr(expr, up) - eval_expr(expr, dn)) / (2.0 * h)
        assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("text", BUNDLED_EXPRESSIONS)
@given(a=st.floats(0.05, 5.0), b=st.floats(0.05, 5.0))
def test_eval_grad_value_bit_equals_eval(text, a, b):
    expr = parse_expr(text)
    params = {"a": a, "b": b}
    value, _, _ = eval_hessian(expr, params, ("a", "b"))
    assert value == eval_expr(expr, params)


def _expr_strategy():
    leaves = st.one_of(
        st.floats(0.1, 9.9).map(lambda v: Literal(float(v))),
        st.sampled_from(["a", "b", "c"]).map(Param),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(["sqrt", "log", "exp", "abs", "neg"]), children).map(
                lambda t: Unary(*t)
            ),
            st.tuples(st.sampled_from(["+", "-", "*", "/", "^"]), children, children).map(
                lambda t: Binary(t[0], t[1], t[2])
            ),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@given(_expr_strategy())
def test_parse_print_parse_round_trip(expr):
    assert parse_expr(format_expr(expr)) == expr


def _outcome(fn):
    """What ``fn()`` returns as raw bytes, or the type and text of what it
    raises; of a (value, gradient, ...) tuple, only value and gradient count."""
    try:
        value = fn()
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(value, tuple):
        return np.float64(value[0]).tobytes(), np.asarray(value[1], dtype=float).tobytes()
    return np.float64(value).tobytes()


# signed zeros, values whose square underflows, and points off the domain
_POINTS = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, -0.0, 1e-200, -1e-200, 1e200]),
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(_expr_strategy(), st.tuples(_POINTS, _POINTS, _POINTS))
@settings(max_examples=400)
def test_compiled_closures_bit_equal_tree_walkers(expr, point):
    order = ("a", "b", "c")
    params = dict(zip(order, point))
    dual_fn = compile_expr(expr, order)
    assert _outcome(lambda: dual_fn(point)) == _outcome(lambda: eval_hessian(expr, params, order))


@pytest.mark.parametrize("text", BUNDLED_EXPRESSIONS)
@given(a=st.floats(0.05, 5.0), b=st.floats(0.05, 5.0))
def test_compiled_closures_bit_equal_tree_walkers_in_domain(text, a, b):
    expr = parse_expr(text)
    params = {"a": a, "b": b}
    dual_fn = compile_expr(expr, ("a", "b"))
    assert _outcome(lambda: dual_fn((a, b))) == _outcome(
        lambda: eval_hessian(expr, params, ("a", "b"))
    )


@pytest.mark.parametrize("text", BUNDLED_EXPRESSIONS)
@given(a=st.floats(0.1, 3.0), b=st.floats(0.1, 3.0))
def test_hessian_matches_central_differences(text, a, b):
    expr = parse_expr(text)
    order = ("a", "b")
    compiled = compile_expr(expr, order)
    hess = np.array(eval_hessian(expr, {"a": a, "b": b}, order)[2])
    assert np.array_equal(hess, hess.T)
    fd = central_difference_hessian(lambda x: compiled(x)[1], [a, b])
    assert np.max(np.abs(hess - fd)) <= 1e-6 * max(1.0, np.max(np.abs(hess)))


@given(_expr_strategy(), st.tuples(_POINTS, _POINTS, _POINTS))
def test_hessian_is_exactly_symmetric(expr, point):
    try:
        _, _, hess = eval_hessian(expr, dict(zip("abc", point)), ("a", "b", "c"))
    except (DomainError, OverflowError):
        return
    hess = np.array(hess)
    assert hess.tobytes() == hess.T.tobytes()


def test_compile_requires_every_parameter():
    with pytest.raises(KeyError):
        compile_expr(parse_expr("a + d"), ("a", "b"))


def test_collect_params():
    assert collect_params(parse_expr("a/b + sqrt(a)")) == {"a", "b"}
    assert collect_params(parse_expr("1 + 2")) == set()
