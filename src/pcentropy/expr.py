"""Arithmetic expression AST for map branches, with a small text parser.

The grammar covers constants, the variable ``x``, the four operations, unary
minus, integer powers, and ``abs``/``min``/``max`` calls.  Two extra node
kinds exist only internally (never produced by the parser): a piecewise
affine interpolant, used to conjugate maps by piecewise-linear
homeomorphisms, and function composition, used to build iterates without
blowing up the tree.

``compile_expr`` is the only evaluator, for floats and ndarrays alike.  Its
generated source nests as deep as the tree, so a tree nested more than about
200 levels deep fails to compile with ``SyntaxError`` or ``RecursionError``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ExprParseError


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * /
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Call(Expr):
    fn: str  # abs | min | max
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class PiecewiseAffine(Expr):
    """Piecewise-linear interpolant applied to an inner expression."""

    arg: Expr
    xs: tuple[float, ...]
    ys: tuple[float, ...]


@dataclass(frozen=True)
class Compose(Expr):
    """outer(inner(x)); keeps iterated maps linear-size."""

    outer: Expr
    inner: Expr


def as_affine(e: Expr) -> tuple[float, float] | None:
    """Return (a, b) with e(x) = a*x + b when the tree is affine, else None."""
    if isinstance(e, Num):
        return (0.0, e.value)
    if isinstance(e, Var):
        return (1.0, 0.0)
    if isinstance(e, Neg):
        r = as_affine(e.arg)
        return None if r is None else (-r[0], -r[1])
    if isinstance(e, BinOp):
        l, r = as_affine(e.left), as_affine(e.right)
        if l is None or r is None:
            return None
        if e.op == "+":
            return (l[0] + r[0], l[1] + r[1])
        if e.op == "-":
            return (l[0] - r[0], l[1] - r[1])
        if e.op == "*":
            if l[0] == 0.0:
                return (l[1] * r[0], l[1] * r[1])
            if r[0] == 0.0:
                return (r[1] * l[0], r[1] * l[1])
            return None
        if r[0] == 0.0 and r[1] != 0.0:
            return (l[0] / r[1], l[1] / r[1])
        return None
    if isinstance(e, Pow):
        r = as_affine(e.base)
        if e.exponent == 0:
            return (0.0, 1.0)
        if e.exponent == 1:
            return r
        if r is not None and r[0] == 0.0:
            power = math.prod([r[1]] * abs(e.exponent))  # the same products as compile_expr
            return (0.0, power if e.exponent > 0 else 1 / power)
        return None
    if isinstance(e, Compose):
        outer, inner = as_affine(e.outer), as_affine(e.inner)
        if outer is None or inner is None:
            return None
        return (outer[0] * inner[0], outer[0] * inner[1] + outer[1])
    return None


def _to_py(e: Expr, var_src: str, env: dict) -> str:
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return var_src
    if isinstance(e, Neg):
        return f"(-{_to_py(e.arg, var_src, env)})"
    if isinstance(e, BinOp):
        return f"({_to_py(e.left, var_src, env)}{e.op}{_to_py(e.right, var_src, env)})"
    if isinstance(e, Pow):
        # a chain of products, so that a float and an ndarray take the same
        # IEEE operations (C pow and numpy's power differ in the last ulp);
        # the base is bound once, as for Compose
        if e.exponent == 0:
            return f"({_to_py(e.base, var_src, env)}**0)"
        chain = "*".join(["_p"] * abs(e.exponent))
        body = chain if e.exponent > 0 else f"1/({chain})"
        return f"(lambda _p: {body})({_to_py(e.base, var_src, env)})"
    if isinstance(e, Call):
        args = [_to_py(a, var_src, env) for a in e.args]
        if e.fn == "abs":
            return f"_abs({args[0]})"
        src = args[0]
        for a in args[1:]:
            src = f"_{e.fn}({src},{a})"
        return src
    if isinstance(e, PiecewiseAffine):
        key = f"_pw{len(env)}"
        env[key + "x"] = np.asarray(e.xs)
        env[key + "y"] = np.asarray(e.ys)
        return f"_interp({_to_py(e.arg, var_src, env)},{key}x,{key}y)"
    if isinstance(e, Compose):
        key = f"_fn{len(env)}"
        env[key] = compile_expr(e.inner)
        vname = f"_v{len(env)}"
        # bind the inner value through a lambda so it is evaluated exactly once
        return f"(lambda {vname}: {_to_py(e.outer, vname, env)})({key}({var_src}))"
    raise TypeError(f"unknown node {e!r}")


def compile_expr(e: Expr):
    """Compile the tree into a callable accepting a float or an ndarray; on
    Python floats the helpers return Python floats, so a division by zero raises."""
    env = {
        "_abs": lambda v: float(np.abs(v)) if type(v) is float else np.abs(v),
        "_min": lambda a, b: float(np.minimum(a, b)) if type(a) is type(b) is float else np.minimum(a, b),
        "_max": lambda a, b: float(np.maximum(a, b)) if type(a) is type(b) is float else np.maximum(a, b),
        "_interp": lambda v, xp, fp: float(np.interp(v, xp, fp)) if type(v) is float else np.interp(v, xp, fp),
    }
    return eval(f"lambda x: {_to_py(e, 'x', env)}", env)  # source generated from our own AST


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)

_FUNCS = {"abs": 1, "min": 2, "max": 2}  # name -> minimum arity


class _Tokens:
    def __init__(self, text: str, line: int = 1, col_offset: int = 0):
        self.text = text
        self.line = line
        self.col_offset = col_offset
        self.toks: list[tuple[str, str, int]] = []  # (kind, value, column)
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                if text[pos:].strip() == "":
                    break
                bad = text[pos:].lstrip()
                col = col_offset + len(text) - len(bad) + 1
                raise ExprParseError(f"unexpected character {bad[0]!r}", line, col)
            kind = m.lastgroup
            self.toks.append((kind, m.group(kind), col_offset + m.start(kind) + 1))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None, self.col_offset + len(self.text) + 1)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, col = self.next()
        if kind != "op" or val != op:
            raise ExprParseError(f"expected {op!r}, found {val!r}", self.line, col)


def _parse_additive(t: _Tokens) -> Expr:
    node = _parse_multiplicative(t)
    while True:
        kind, val, _ = t.peek()
        if kind == "op" and val in "+-":
            t.next()
            node = BinOp(val, node, _parse_multiplicative(t))
        else:
            return node


def _parse_multiplicative(t: _Tokens) -> Expr:
    node = _parse_unary(t)
    while True:
        kind, val, _ = t.peek()
        if kind == "op" and val in "*/":
            t.next()
            node = BinOp(val, node, _parse_unary(t))
        else:
            return node


def _parse_unary(t: _Tokens) -> Expr:
    kind, val, _ = t.peek()
    if kind == "op" and val == "-":
        t.next()
        return Neg(_parse_unary(t))
    return _parse_power(t)


def _parse_power(t: _Tokens) -> Expr:
    node = _parse_primary(t)
    while True:
        kind, val, _ = t.peek()
        if kind == "op" and val == "^":
            t.next()
            sign = 1
            kind, val, col = t.next()
            if kind == "op" and val == "-":
                sign = -1
                kind, val, col = t.next()
            if kind != "num" or not val.isdigit():
                raise ExprParseError("exponent must be an integer", t.line, col)
            node = Pow(node, sign * int(val))
        else:
            return node


def _parse_primary(t: _Tokens) -> Expr:
    kind, val, col = t.next()
    if kind == "num":
        value = float(val)
        if not math.isfinite(value):
            raise ExprParseError(f"number {val!r} is out of range", t.line, col)
        return Num(value)
    if kind == "name":
        if val == "x":
            return Var()
        if val in _FUNCS:
            t.expect_op("(")
            args = [_parse_additive(t)]
            while True:
                k, v, _ = t.peek()
                if k == "op" and v == ",":
                    t.next()
                    args.append(_parse_additive(t))
                else:
                    break
            t.expect_op(")")
            if len(args) < _FUNCS[val]:
                raise ExprParseError(f"{val} needs at least {_FUNCS[val]} argument(s)", t.line, col)
            if val == "abs" and len(args) != 1:
                raise ExprParseError("abs takes exactly one argument", t.line, col)
            return Call(val, tuple(args))
        raise ExprParseError(f"unknown name {val!r}", t.line, col)
    if kind == "op" and val == "(":
        node = _parse_additive(t)
        t.expect_op(")")
        return node
    raise ExprParseError(f"expected a value, found {val!r}", t.line, col)


def parse_expression(text: str, line: int = 1, col_offset: int = 0) -> Expr:
    t = _Tokens(text, line, col_offset)
    node = _parse_additive(t)
    kind, val, col = t.peek()
    if kind is not None:
        raise ExprParseError(f"trailing input {val!r}", line, col)
    return node


def parse_constant(text: str, line: int = 1, col_offset: int = 0) -> float:
    """Parse a constant expression (used for bounds like ``1/3``)."""
    e = parse_expression(text, line, col_offset)
    aff = as_affine(e)
    if aff is None or aff[0] != 0.0:
        raise ExprParseError("expected a constant expression", line, col_offset + 1)
    return aff[1]
