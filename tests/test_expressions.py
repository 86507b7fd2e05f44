"""Parser and symbolic-derivative tests."""

import math
import re

import numpy as np
import pytest

from helix4.expressions import EvalError, ParseError, parse_expr, scalar_jet_from_exprs


def test_polynomial_derivative():
    e = parse_expr("x^2 + x*0.5")
    assert e.diff("x").eval(x=1.0) == pytest.approx(2.5)


def test_mixed_partial_of_sin():
    e = parse_expr("sin(x*y)")
    assert e.diff("x").diff("y").eval(0.0, 0.0) == pytest.approx(1.0)


def test_syntax_error_offset():
    with pytest.raises(ParseError) as exc:
        parse_expr("x +")
    assert exc.value.span == 3


@pytest.mark.parametrize("src, message", [
    ("x $ y", "unexpected character '$'"),      # no token starts here
    ("x y", "unexpected 'y'"),                   # a token left after the sum
])
def test_syntax_errors_name_the_token_and_its_offset(src, message):
    with pytest.raises(ParseError, match=re.escape(f"{message} (at offset 2)")) as exc:
        parse_expr(src)
    assert exc.value.span == 2


def test_unknown_identifier():
    with pytest.raises(ParseError):
        parse_expr("x + w")


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse_expr("sin(x")
    with pytest.raises(ParseError):
        parse_expr("(x + 1")


def test_precedence_and_associativity():
    assert parse_expr("-x^2").eval(x=2.0) == pytest.approx(-4.0)
    assert parse_expr("2^3^2").eval() == pytest.approx(512.0)
    assert parse_expr("2^-2").eval() == pytest.approx(0.25)
    assert parse_expr("1 - 2 - 3").eval() == pytest.approx(-4.0)
    assert parse_expr("6 / 2 / 3").eval() == pytest.approx(1.0)
    assert parse_expr("1 + 2 * 3").eval() == pytest.approx(7.0)


def test_eval_errors_carry_spans():
    with pytest.raises(EvalError) as exc:
        parse_expr("1/(x-1)").eval(x=1.0)
    assert exc.value.span == 1  # offset of the '/' operator
    with pytest.raises(EvalError):
        parse_expr("sqrt(x)").eval(x=-2.0)


def test_folding_depends_on_the_value_not_the_offset():
    # a literal 0 folds the product wherever it sits in the source
    assert str(parse_expr("0*sqrt(x-2)")) == "0"
    e = parse_expr("y + 0*sqrt(x-2)")
    assert str(e) == "y"
    assert e.eval(0.0, 3.0) == 3.0
    assert parse_expr("x + 1") == parse_expr("  x+1")


def test_division_by_one_and_power_zero_fold():
    assert parse_expr("x/1") == parse_expr("x")
    assert str(parse_expr("x^0")) == "1"


def test_str_brackets_every_compound_node():
    assert str(parse_expr("-x")) == "(-x)"
    assert str(parse_expr("exp(-x)")) == "exp((-x))"
    assert str(parse_expr("x*y^2")) == "(x * (y ^ 2))"


@pytest.mark.parametrize("src, x, span", [
    ("y + sqrt(x+1)", -1.0, 4),     # the '/' of 0.5/sqrt(x+1)
    ("y + 1/x", 0.0, 5),            # the '/' of -1/x^2
])
def test_derivative_errors_carry_the_span_of_their_node(src, x, span):
    with pytest.raises(EvalError) as exc:
        parse_expr(src).diff("x").eval(x, 0.0)
    assert exc.value.span == span


def test_scientific_literals():
    assert parse_expr("1e-3 + 2.5E2").eval() == pytest.approx(250.001)


@pytest.mark.parametrize("src", [
    "x^3 - 2*x*y + y^2",
    "sin(x)*cos(y) + exp(0.3*x*y)",
    "tan(0.4*x) + sqrt(1 + x^2 + y^2)",
    "x / (2 + sin(y))",
])
def test_symbolic_derivatives_match_central_differences(src):
    e = parse_expr(src)
    dx, dy = e.diff("x"), e.diff("y")
    rng = np.random.default_rng(31)
    h = 1e-5
    for _ in range(20):
        x, y = rng.uniform(-0.8, 0.8, size=2)
        fd_x = (e.eval(x + h, y) - e.eval(x - h, y)) / (2 * h)
        fd_y = (e.eval(x, y + h) - e.eval(x, y - h)) / (2 * h)
        scale = max(1.0, abs(fd_x), abs(fd_y))
        assert abs(dx.eval(x, y) - fd_x) < 1e-6 * scale
        assert abs(dy.eval(x, y) - fd_y) < 1e-6 * scale


def _random_expr(rng, depth: int) -> str:
    """Random expression over the safe part of the grammar."""
    if depth == 0:
        return rng.choice(["x", "y", f"{rng.uniform(-2, 2):.3f}"])
    kind = rng.choice(["bin", "call", "neg", "pow"])
    if kind == "bin":
        op = rng.choice(["+", "-", "*"])
        return f"({_random_expr(rng, depth - 1)} {op} {_random_expr(rng, depth - 1)})"
    if kind == "call":
        fn = rng.choice(["sin", "cos", "exp"])
        return f"{fn}(0.5*{_random_expr(rng, depth - 1)})"
    if kind == "neg":
        return f"-({_random_expr(rng, depth - 1)})"
    return f"({_random_expr(rng, depth - 1)})^{rng.integers(1, 4)}"


def test_random_expressions_derivatives_match_fd():
    rng = np.random.default_rng(1234)
    h = 1e-5
    for _ in range(40):
        e = parse_expr(_random_expr(rng, 3))
        dx = e.diff("x")
        for _ in range(5):
            x, y = rng.uniform(-0.7, 0.7, size=2)
            fd = (e.eval(x + h, y) - e.eval(x - h, y)) / (2 * h)
            assert abs(dx.eval(x, y) - fd) < 1e-6 * max(1.0, abs(fd))


def test_scalar_jet_second_derivatives():
    jet = scalar_jet_from_exprs(parse_expr("x^2*y + sin(y)"))
    v, vx, vy, vxx, vxy, vyy = jet(0.5, 0.3)
    assert v == pytest.approx(0.25 * 0.3 + math.sin(0.3))
    assert vx == pytest.approx(2 * 0.5 * 0.3)
    assert vy == pytest.approx(0.25 + math.cos(0.3))
    assert vxx == pytest.approx(0.6)
    assert vxy == pytest.approx(1.0)
    assert vyy == pytest.approx(-math.sin(0.3))


def test_constant_exponent_required_for_power_derivative():
    with pytest.raises(ParseError):
        parse_expr("x^y").diff("x")
