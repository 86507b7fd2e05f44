"""Arithmetic expressions over x, y with exact symbolic derivatives.

Grammar (precedence low to high): ``+ -`` < ``* /`` < unary ``-`` < ``^``
(right associative), with parentheses, float literals, the variables x and y,
and the functions sin, cos, tan, exp, sqrt.  Parse and evaluation errors
carry the byte offset of the offending token, so the CLI can point at it.

Derivative trees are produced symbolically (with light constant folding) up
to the second order needed for surface jets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = ["Expr", "ParseError", "EvalError", "parse_expr", "scalar_jet_from_exprs"]

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
""", re.VERBOSE)

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "sqrt": np.sqrt,
}


class ParseError(ValueError):
    def __init__(self, message: str, span: int):
        super().__init__(f"{message} (at offset {span})")
        self.span = span


class EvalError(ArithmeticError):
    def __init__(self, message: str, span: int):
        super().__init__(f"{message} (at offset {span})")
        self.span = span


@dataclass(frozen=True)
class Expr:
    """Expression node: a constant, variable, unary/binary operation, or call."""

    kind: str                    # "num" | "var" | "neg" | "call" | one of "+-*/^"
    value: float = 0.0
    name: str = ""
    args: tuple = ()
    span: int = 0

    # -- construction helpers (with constant folding) --

    @staticmethod
    def num(v: float, span: int = 0) -> "Expr":
        return Expr("num", value=float(v), span=span)

    @staticmethod
    def var(name: str, span: int = 0) -> "Expr":
        return Expr("var", name=name, span=span)

    @staticmethod
    def binary(op: str, a: "Expr", b: "Expr", span: int = 0) -> "Expr":
        if a.kind == "num" and b.kind == "num":
            try:
                return Expr.num(Expr(op, args=(a, b), span=span).eval(), span)
            except EvalError:
                pass
        if op == "+":
            if a == _ZERO:
                return b
            if b == _ZERO:
                return a
        elif op == "-":
            if b == _ZERO:
                return a
            if a == _ZERO:
                return Expr.neg(b, span)
        elif op == "*":
            if a == _ZERO or b == _ZERO:
                return _ZERO
            if a == _ONE:
                return b
            if b == _ONE:
                return a
        elif op == "/":
            if a == _ZERO and not (b == _ZERO):
                return _ZERO
            if b == _ONE:
                return a
        elif op == "^":
            if b == _ONE:
                return a
            if b == _ZERO:
                return _ONE
        return Expr(op, args=(a, b), span=span)

    @staticmethod
    def neg(a: "Expr", span: int = 0) -> "Expr":
        if a.kind == "num":
            return Expr.num(-a.value, span)
        if a.kind == "neg":
            return a.args[0]
        return Expr("neg", args=(a,), span=span)

    @staticmethod
    def call(fn: str, a: "Expr", span: int = 0) -> "Expr":
        return Expr("call", name=fn, args=(a,), span=span)

    # -- evaluation --

    def eval(self, x=0.0, y=0.0):
        """Value at (x, y): scalars give a float, arrays (broadcast against
        each other) an array of that shape.

        A failing node raises EvalError with its span; on arrays the error is
        the one the first failing element (row-major) raises on its own.
        """
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        bad = np.zeros(x.shape, dtype=bool)
        with np.errstate(all="ignore"):
            value = self._eval(x, y, bad)
            if bad.any():
                k = np.unravel_index(np.argmax(bad), bad.shape)
                self._eval(x[k], y[k], None)
        value = np.broadcast_to(value, x.shape).astype(float)
        return value if value.ndim else float(value)

    def _eval(self, x, y, bad):
        """Values at (x, y); a node failing at some element marks it in
        ``bad``, or raises EvalError when ``bad`` is None."""
        k = self.kind
        if k == "num":
            return self.value
        if k == "var":
            return x if self.name == "x" else y
        if k == "neg":
            return -self.args[0]._eval(x, y, bad)
        if k == "call":
            v = self.args[0]._eval(x, y, bad)
            if self.name == "sqrt":
                self._check(v < 0, bad, lambda: f"sqrt of negative value {float(v):.6g}")
            r = _FUNCTIONS[self.name](v)
            # as in math: a NaN result from a non-NaN argument is a domain
            # error, an infinite one from a finite argument a range error
            self._check(np.isnan(r) & ~np.isnan(v) | np.isinf(r) & np.isfinite(v), bad,
                        lambda: f"{self.name}: math {'range' if np.isinf(r) else 'domain'} error")
            return r
        a = self.args[0]._eval(x, y, bad)
        b = self.args[1]._eval(x, y, bad)
        if k == "/":
            self._check(b == 0.0, bad, lambda: "division by zero")
        r = _APPLY[k](a, b)
        if k == "^":
            self._check(~np.isfinite(r), bad,
                        lambda: f"({float(a):.6g})^({float(b):.6g}) is not a finite real number")
        return r

    def _check(self, failed, bad, message) -> None:
        if np.any(failed):
            if bad is None:
                raise EvalError(message(), self.span)
            bad |= failed

    # -- differentiation --

    def diff(self, var: str) -> "Expr":
        k = self.kind
        if k == "num":
            return _ZERO
        if k == "var":
            return _ONE if self.name == var else _ZERO
        if k == "neg":
            return Expr.neg(self.args[0].diff(var))
        if k == "+":
            return Expr.binary("+", self.args[0].diff(var), self.args[1].diff(var))
        if k == "-":
            return Expr.binary("-", self.args[0].diff(var), self.args[1].diff(var))
        if k == "*":
            a, b = self.args
            return Expr.binary("+",
                               Expr.binary("*", a.diff(var), b),
                               Expr.binary("*", a, b.diff(var)))
        if k == "/":
            a, b = self.args
            num = Expr.binary("-",
                              Expr.binary("*", a.diff(var), b),
                              Expr.binary("*", a, b.diff(var)))
            return Expr.binary("/", num, Expr.binary("^", b, Expr.num(2)))
        if k == "^":
            a, b = self.args
            if b.kind == "num":
                # d/dv a^n = n a^(n-1) a'
                return Expr.binary("*",
                                   Expr.binary("*", b, Expr.binary(
                                       "^", a, Expr.num(b.value - 1), self.span)),
                                   a.diff(var))
            raise ParseError("derivative of a^b needs a constant exponent",
                             self.span)
        if k == "call":
            a = self.args[0]
            da = a.diff(var)
            if self.name == "sin":
                outer = Expr.call("cos", a)
            elif self.name == "cos":
                outer = Expr.neg(Expr.call("sin", a))
            elif self.name == "tan":
                outer = Expr.binary("/", _ONE,
                                    Expr.binary("^", Expr.call("cos", a), Expr.num(2)))
            elif self.name == "exp":
                outer = Expr.call("exp", a)
            elif self.name == "sqrt":
                outer = Expr.binary("/", Expr.num(0.5), Expr.call("sqrt", a))
            else:  # pragma: no cover - the parser only admits known names
                raise ParseError(f"unknown function {self.name}", self.span)
            return Expr.binary("*", outer, da)
        raise AssertionError(k)

    def variables(self) -> set[str]:
        if self.kind == "var":
            return {self.name}
        out: set[str] = set()
        for a in self.args:
            out |= a.variables()
        return out

    def __str__(self) -> str:
        k = self.kind
        if k == "num":
            return f"{self.value:g}"
        if k == "var":
            return self.name
        if k == "neg":
            return f"(-{self.args[0]})"
        if k == "call":
            return f"{self.name}({self.args[0]})"
        return f"({self.args[0]} {k} {self.args[1]})"


_ZERO = Expr("num", value=0.0)
_ONE = Expr("num", value=1.0)
_APPLY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
          "^": np.power}


def _tokenize(src: str):
    pos = 0
    out = []
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(("end", "", len(src)))
    return out


class _Parser:
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
            if text in _FUNCTIONS:
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


def parse_expr(src: str) -> Expr:
    """Parse an expression over x, y.  Raises :class:`ParseError` with the
    byte offset on malformed input."""
    return _Parser(src).parse()


def scalar_jet_from_exprs(f: Expr):
    """2-jet provider (v, vx, vy, vxx, vxy, vyy) with symbolic derivatives;
    x, y may be scalars or arrays (see ``Expr.eval``)."""
    fx, fy = f.diff("x"), f.diff("y")
    parts = (f, fx, fy, fx.diff("x"), fx.diff("y"), fy.diff("y"))
    return lambda x, y: tuple(e.eval(x, y) for e in parts)
