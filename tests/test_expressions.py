"""Parser and symbolic-derivative tests."""

import math
import random
import re

import numpy as np
import pytest

from helix4.expressions import (EvalError, Expr, ParseError, _tokenize, parse_expr,
                                scalar_jet_from_exprs)

import make_cli_ledger
import test_config_fuzz


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


# -- the grammar and derivative rules as they were written out case by case,
# kept as an oracle for the table-driven module: same trees, spans and errors

ORACLE_FUNCTIONS = ("sin", "cos", "tan", "exp", "sqrt")


class OracleParser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.next()

    def parse(self) -> Expr:
        e = self.sum()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return e

    def sum(self) -> Expr:
        e = self.product()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                e = Expr.binary(text, e, self.product(), pos)
            else:
                return e

    def product(self) -> Expr:
        e = self.unary()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                e = Expr.binary(text, e, self.unary(), pos)
            else:
                return e

    def unary(self) -> Expr:
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.next()
            return Expr.neg(self.unary(), pos)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.next()
            return Expr.binary("^", base, self.unary(), pos)
        return base

    def atom(self) -> Expr:
        kind, text, pos = self.next()
        if kind == "num":
            return Expr.num(float(text), pos)
        if kind == "name":
            if text in ORACLE_FUNCTIONS:
                self.expect_op("(")
                arg = self.sum()
                self.expect_op(")")
                return Expr.call(text, arg, pos)
            if text in ("x", "y"):
                return Expr.var(text, pos)
            raise ParseError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            e = self.sum()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input",
                         pos)


def oracle_parse(src: str) -> Expr:
    return OracleParser(src).parse()


def oracle_diff(e: Expr, var: str) -> Expr:
    k, sp = e.kind, e.span
    if k == "num":
        return Expr.num(0.0)
    if k == "var":
        return Expr.num(1.0 if e.name == var else 0.0)
    if k == "neg":
        return Expr.neg(oracle_diff(e.args[0], var), sp)
    if k in "+-":
        return Expr.binary(k, oracle_diff(e.args[0], var), oracle_diff(e.args[1], var), sp)
    if k == "*":
        a, b = e.args
        return Expr.binary("+",
                           Expr.binary("*", oracle_diff(a, var), b, sp),
                           Expr.binary("*", a, oracle_diff(b, var), sp), sp)
    if k == "/":
        a, b = e.args
        num = Expr.binary("-",
                          Expr.binary("*", oracle_diff(a, var), b, sp),
                          Expr.binary("*", a, oracle_diff(b, var), sp), sp)
        return Expr.binary("/", num, Expr.binary("^", b, Expr.num(2, sp), sp), sp)
    if k == "^":
        a, b = e.args
        if b.kind == "num":
            return Expr.binary("*",
                               Expr.binary("*", b, Expr.binary(
                                   "^", a, Expr.num(b.value - 1, sp), sp), sp),
                               oracle_diff(a, var), sp)
        raise ParseError("derivative of a^b needs a constant exponent", sp)
    if k == "call":
        a = e.args[0]
        da = oracle_diff(a, var)
        if e.name == "sin":
            outer = Expr.call("cos", a, sp)
        elif e.name == "cos":
            outer = Expr.neg(Expr.call("sin", a, sp), sp)
        elif e.name == "tan":
            outer = Expr.binary("/", Expr.num(1, sp), Expr.binary(
                "^", Expr.call("cos", a, sp), Expr.num(2, sp), sp), sp)
        elif e.name == "exp":
            outer = Expr.call("exp", a, sp)
        elif e.name == "sqrt":
            outer = Expr.binary("/", Expr.num(0.5, sp), Expr.call("sqrt", a, sp), sp)
        else:
            raise ParseError(f"unknown function {e.name}", sp)
        return Expr.binary("*", outer, da, sp)
    raise AssertionError(k)


def _config_sources(documents):
    """The expressions of CLI config documents: graph f and g, phi and psi."""
    for doc in documents:
        for holder, key in ((doc.get("graph", {}), "f"), (doc.get("graph", {}), "g"),
                            (doc, "phi"), (doc, "psi")):
            if key in holder:
                yield holder[key]


# the sources of this file's tests, of the config fuzzer and of the CLI ledger
HAND_SOURCES = [
    "x^2 + x*0.5", "sin(x*y)", "x +", "x $ y", "x y", "x + w", "sin(x", "(x + 1", "-x^2",
    "2^3^2", "2^-2", "1 - 2 - 3", "6 / 2 / 3", "1 + 2 * 3", "1/(x-1)", "sqrt(x)",
    "0*sqrt(x-2)", "y + 0*sqrt(x-2)", "x + 1", "  x+1", "x/1", "x", "x^0", "-x", "exp(-x)",
    "x*y^2", "y + sqrt(x+1)", "y + 1/x", "1e-3 + 2.5E2", "x^3 - 2*x*y + y^2",
    "sin(x)*cos(y) + exp(0.3*x*y)", "tan(0.4*x) + sqrt(1 + x^2 + y^2)", "x / (2 + sin(y))",
    "x^2*y + sin(y)", "x^y",
    *test_config_fuzz.BAD_EXPRESSIONS,
    *_config_sources([doc for _, doc in test_config_fuzz.BASES]),
    *_config_sources([doc for _, _, doc in make_cli_ledger.COMMANDS if doc]),
]
# x and y on a grid through 0 and negative values, where /, sqrt and ^ fail
GRID = np.meshgrid(np.linspace(-2, 2, 9), np.linspace(-2, 2, 5), indexing="ij")


def _outcome(fn, *args):
    """``fn(*args)``, or the ParseError, EvalError or RecursionError it raises."""
    try:
        return fn(*args)
    except (ParseError, EvalError, RecursionError) as exc:
        return exc


def _difference(new, old) -> str | None:
    """How two outcomes differ: a node's kind, value bits, name, span or
    arity, an error's type, message or span, or the bytes of two arrays;
    None when they agree.  Two RecursionErrors agree."""
    if isinstance(new, BaseException) or isinstance(old, BaseException):
        same = type(new) is type(old) and (isinstance(new, RecursionError)
                                           or (str(new), new.span) == (str(old), old.span))
        return None if same else f"{new!r} != {old!r}"
    if isinstance(new, np.ndarray):
        return None if new.tobytes() == old.tobytes() else "values differ"
    stack = [("$", new, old)]
    while stack:   # iterative: a long sum is a deep tree
        path, a, b = stack.pop()
        key_a, key_b = ((e.kind, type(e.value), float.hex(e.value), e.name, e.span, len(e.args))
                        for e in (a, b))
        if key_a != key_b:
            return f"{path}: {key_a} != {key_b}"
        stack += [(f"{path}.{i}", *pair) for i, pair in enumerate(zip(a.args, b.args))]
    return None


def oracle_outcomes(src: str):
    """(what, module's outcome, oracle's outcome) for the parse of ``src``,
    its first and second derivatives as a 2-jet takes them, and the values
    or EvalError of each of these trees on ``GRID``."""
    trees = {"f": (_outcome(parse_expr, src), _outcome(oracle_parse, src))}
    for name, base, var in (("fx", "f", "x"), ("fy", "f", "y"), ("fxx", "fx", "x"),
                            ("fxy", "fx", "y"), ("fyy", "fy", "y")):
        new, old = trees.get(base, (None, None))
        if isinstance(new, Expr) and isinstance(old, Expr):
            trees[name] = (_outcome(Expr.diff, new, var), _outcome(oracle_diff, old, var))
    for name, (new, old) in trees.items():
        yield name, new, old
        if isinstance(new, Expr) and isinstance(old, Expr):
            yield f"{name} on the grid", _outcome(new.eval, *GRID), _outcome(old.eval, *GRID)


def _corpus(name: str) -> list:
    if name == "hand":
        return HAND_SOURCES
    if name == "prefixes":
        return [src[:k] for src in HAND_SOURCES if src not in test_config_fuzz.DEEP_EXPRESSIONS
                for k in range(len(src))]
    rng = random.Random(4417)
    return [test_config_fuzz.grammar_source(rng, 5) for _ in range(500)]


@pytest.mark.parametrize("corpus", ["hand", "prefixes", "random"])
def test_trees_spans_and_errors_match_the_oracle(corpus):
    sources = _corpus(corpus)
    differences, seen = [], set()
    for src in sources:
        for what, new, old in oracle_outcomes(src):
            seen.add((what.endswith("grid"), type(new).__name__))
            why = _difference(new, old)
            if why:
                differences.append(f"{src!r} {what}: {why}")
    assert not differences, "\n".join(differences[:20])
    if corpus == "random":
        tokens = {text for src in sources for _, text, _ in _tokenize(src)}
        assert {*test_config_fuzz.FUNCTIONS, *"+-*/^()", "0", "1", "0.5", "1e-3"} <= tokens
        # trees, ParseErrors of non-constant exponents, values and EvalErrors
        assert {(False, "Expr"), (False, "ParseError"), (True, "ndarray"),
                (True, "EvalError")} <= seen
