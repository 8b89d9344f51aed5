"""Scalar functions of t as expression trees with exact third-order jets.

The time-dependent coefficients of every solution family are functions of a
single variable t.  What the solution evaluators actually consume is not the
function alone but the jet (f, f', f'', f''') at a point, because the
mean-flow field involves up to three derivatives of the coefficient
functions.  Trees are parsed from a small expression grammar:

    numbers, t, + - * / ^, parentheses, exp, ln, sin, cos, sinh, cosh

Exponents are restricted to integer and half-integer constants, which covers
every coefficient expression this package constructs (e.g. square roots of a
positive slope).  Derivatives are propagated through the tree by truncated
Taylor (jet) arithmetic, so they are exact to roundoff; no symbolic
differentiation and no finite differencing is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, DSError, ParseError

__all__ = ["Jet", "TimeFunction", "parse_timefn", "jet_arrays", "constant"]


# ---------------------------------------------------------------------------
# Jet arithmetic: value and first three derivatives at a point.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Jet:
    """f(t) and its first three t-derivatives: floats at one point, or
    arrays over many points (see ``jet_arrays``)."""

    f: float
    d1: float
    d2: float
    d3: float

    def __add__(self, other: "Jet") -> "Jet":
        return Jet(self.f + other.f, self.d1 + other.d1,
                   self.d2 + other.d2, self.d3 + other.d3)

    def __sub__(self, other: "Jet") -> "Jet":
        return Jet(self.f - other.f, self.d1 - other.d1,
                   self.d2 - other.d2, self.d3 - other.d3)

    def __neg__(self) -> "Jet":
        return Jet(-self.f, -self.d1, -self.d2, -self.d3)

    def __mul__(self, other: "Jet") -> "Jet":
        # Leibniz rule through order 3.
        return Jet(
            self.f * other.f,
            self.d1 * other.f + self.f * other.d1,
            self.d2 * other.f + 2.0 * self.d1 * other.d1 + self.f * other.d2,
            self.d3 * other.f + 3.0 * self.d2 * other.d1
            + 3.0 * self.d1 * other.d2 + self.f * other.d3,
        )

    @staticmethod
    def const(c: float) -> "Jet":
        return Jet(float(c), 0.0, 0.0, 0.0)


def _chain(w0: float, w1: float, w2: float, w3: float, g: Jet) -> Jet:
    """Faa di Bruno to order 3: outer derivatives w_k at g.f, inner jet g."""
    return Jet(
        w0,
        w1 * g.d1,
        w2 * g.d1 * g.d1 + w1 * g.d2,
        w3 * g.d1 ** 3 + 3.0 * w2 * g.d1 * g.d2 + w1 * g.d3,
    )


def _recip(g: Jet, where: str) -> Jet:
    if g.f == 0.0:
        raise DomainError(f"division by zero in '{where}'")
    r = 1.0 / g.f
    return _chain(r, -r * r, 2.0 * r ** 3, -6.0 * r ** 4, g)


# ---------------------------------------------------------------------------
# Expression tree nodes.
# ---------------------------------------------------------------------------

class _Node:
    def jet(self, t: float) -> Jet:
        raise NotImplementedError

    def is_constant(self) -> bool:
        raise NotImplementedError


class _Const(_Node):
    def __init__(self, value: float):
        self.value = float(value)

    def jet(self, t):
        return Jet.const(self.value)

    def is_constant(self):
        return True

    def __str__(self):
        return repr(self.value)


class _Var(_Node):
    def jet(self, t):
        return Jet(float(t), 1.0, 0.0, 0.0)

    def is_constant(self):
        return False

    def __str__(self):
        return "t"


class _Neg(_Node):
    def __init__(self, child: _Node):
        self.child = child

    def jet(self, t):
        return -self.child.jet(t)

    def is_constant(self):
        return self.child.is_constant()

    def __str__(self):
        return f"-({self.child})"


class _Binary(_Node):
    op = "?"

    def __init__(self, lhs: _Node, rhs: _Node):
        self.lhs = lhs
        self.rhs = rhs

    def is_constant(self):
        return self.lhs.is_constant() and self.rhs.is_constant()

    def __str__(self):
        return f"({self.lhs}{self.op}{self.rhs})"


class _Add(_Binary):
    op = "+"

    def jet(self, t):
        return self.lhs.jet(t) + self.rhs.jet(t)


class _Sub(_Binary):
    op = "-"

    def jet(self, t):
        return self.lhs.jet(t) - self.rhs.jet(t)


class _Mul(_Binary):
    op = "*"

    def jet(self, t):
        return self.lhs.jet(t) * self.rhs.jet(t)


class _Div(_Binary):
    op = "/"

    def jet(self, t):
        return self.lhs.jet(t) * _recip(self.rhs.jet(t), str(self))


class _Pow(_Node):
    """base ^ r with r a fixed integer or half-integer."""

    def __init__(self, base: _Node, exponent: float):
        self.base = base
        self.exponent = float(exponent)

    def is_constant(self):
        return self.base.is_constant()

    def __str__(self):
        return f"({self.base}^{self.exponent:g})"

    def jet(self, t):
        g = self.base.jet(t)
        r = self.exponent
        n = int(round(r))
        if r == n:
            if n >= 0:
                out = Jet.const(1.0)
                for _ in range(n):
                    out = out * g
                return out
            out = Jet.const(1.0)
            for _ in range(-n):
                out = out * g
            return _recip(out, str(self))
        # Half-integer exponent: require a positive base so all derivatives
        # of the branch are real and finite.
        if g.f <= 0.0:
            raise DomainError(
                f"fractional power of non-positive value in '{self}'")
        w0 = g.f ** r
        w1 = r * g.f ** (r - 1.0)
        w2 = r * (r - 1.0) * g.f ** (r - 2.0)
        w3 = r * (r - 1.0) * (r - 2.0) * g.f ** (r - 3.0)
        return _chain(w0, w1, w2, w3, g)


class _Call(_Node):
    def __init__(self, name: str, child: _Node):
        self.name = name
        self.child = child

    def is_constant(self):
        return self.child.is_constant()

    def __str__(self):
        return f"{self.name}({self.child})"

    def jet(self, t):
        g = self.child.jet(t)
        x = g.f
        if self.name == "exp":
            e = math.exp(x)
            return _chain(e, e, e, e, g)
        if self.name == "ln":
            if x <= 0.0:
                raise DomainError(f"ln of non-positive value in '{self}'")
            r = 1.0 / x
            return _chain(math.log(x), r, -r * r, 2.0 * r ** 3, g)
        if self.name == "sin":
            s, c = math.sin(x), math.cos(x)
            return _chain(s, c, -s, -c, g)
        if self.name == "cos":
            s, c = math.sin(x), math.cos(x)
            return _chain(c, -s, -c, s, g)
        if self.name == "sinh":
            s, c = math.sinh(x), math.cosh(x)
            return _chain(s, c, s, c, g)
        if self.name == "cosh":
            s, c = math.sinh(x), math.cosh(x)
            return _chain(c, s, c, s, g)
        raise ParseError(f"unknown function '{self.name}'")


_FUNCTIONS = ("exp", "ln", "sin", "cos", "sinh", "cosh")


# ---------------------------------------------------------------------------
# TimeFunction: immutable tree plus an optional validity interval.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeFunction:
    """An evaluable function of t with exact derivatives to order 3.

    ``domain`` restricts where the function may be evaluated; outside of it
    ``jet`` raises DomainError instead of extrapolating.
    """

    root: _Node
    source: str
    domain: tuple | None = None

    def jet(self, t: float) -> Jet:
        if self.domain is not None:
            lo, hi = self.domain
            if not (lo <= t <= hi):
                raise DomainError(
                    f"t={t} outside validity interval [{lo}, {hi}] "
                    f"of '{self.source}'")
        return self.root.jet(float(t))

    def __call__(self, t: float) -> float:
        return self.jet(t).f

    def is_constant(self) -> bool:
        return self.root.is_constant()

    def _combine_domain(self, other: "TimeFunction"):
        if self.domain is None:
            return other.domain
        if other.domain is None:
            return self.domain
        lo = max(self.domain[0], other.domain[0])
        hi = min(self.domain[1], other.domain[1])
        return (lo, hi)

    def __add__(self, other):
        other = _promote(other)
        return TimeFunction(_Add(self.root, other.root),
                            f"({self.source})+({other.source})",
                            self._combine_domain(other))

    def __sub__(self, other):
        other = _promote(other)
        return TimeFunction(_Sub(self.root, other.root),
                            f"({self.source})-({other.source})",
                            self._combine_domain(other))

    def __mul__(self, other):
        other = _promote(other)
        return TimeFunction(_Mul(self.root, other.root),
                            f"({self.source})*({other.source})",
                            self._combine_domain(other))

    __rmul__ = __mul__
    __radd__ = __add__


def _promote(value) -> TimeFunction:
    if isinstance(value, TimeFunction):
        return value
    return constant(float(value))


def constant(c: float) -> TimeFunction:
    return TimeFunction(_Const(c), f"{float(c):g}")


def jet_arrays(f: TimeFunction, t):
    """Jets of f at every entry of t, each distinct t evaluated once.

    Returns ``(jet, ok)``: a Jet whose four fields are float arrays shaped
    like t, and a bool mask that is False where ``f.jet`` raised a DSError
    (those entries of the jet are NaN).
    """
    t = np.asarray(t, dtype=float)
    distinct, inverse = np.unique(t, return_inverse=True)
    table = np.full((len(distinct), 4), np.nan)
    ok = np.ones(len(distinct), dtype=bool)
    for i, ti in enumerate(distinct.tolist()):
        try:
            j = f.jet(ti)
        except DSError:
            ok[i] = False
            continue
        table[i] = (j.f, j.d1, j.d2, j.d3)
    inverse = inverse.reshape(t.shape)
    cols = table[inverse]
    return Jet(cols[..., 0], cols[..., 1], cols[..., 2], cols[..., 3]), \
        ok[inverse]


# ---------------------------------------------------------------------------
# Parser: recursive descent over a hand-rolled token stream.
# ---------------------------------------------------------------------------

class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        self._scan()
        self.index = 0

    def _scan(self):
        text, n = self.text, len(self.text)
        i = 0
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
                j = i
                while j < n and (text[j].isdigit() or text[j] == "."):
                    j += 1
                if j < n and text[j] in "eE":
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        j = k
                        while j < n and text[j].isdigit():
                            j += 1
                try:
                    value = float(text[i:j])
                except ValueError:
                    raise ParseError(f"bad number '{text[i:j]}'", i)
                self.tokens.append(("num", value, i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("name", text[i:j], i))
                i = j
                continue
            if ch in "+-*/^()":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            raise ParseError(f"unexpected character '{ch}'", i)
        self.tokens.append(("end", None, n))

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self.index += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected '{kind}', found "
                             f"{'end of input' if tok[0] == 'end' else repr(tok[1])}",
                             tok[2])
        return tok


class _Parser:
    """expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := ('+'|'-') unary | power
    power  := atom ('^' unary)?          (right-associative)
    atom   := number | 't' | name '(' expr ')' | '(' expr ')'
    """

    def __init__(self, text: str):
        self.toks = _Tokenizer(text)

    def parse(self) -> _Node:
        node = self.expr()
        tok = self.toks.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {repr(tok[1])}", tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.toks.peek()[0] in "+-":
            op = self.toks.next()[0]
            rhs = self.term()
            node = _Add(node, rhs) if op == "+" else _Sub(node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.toks.peek()[0] in "*/":
            op = self.toks.next()[0]
            rhs = self.unary()
            node = _Mul(node, rhs) if op == "*" else _Div(node, rhs)
        return node

    def unary(self):
        tok = self.toks.peek()
        if tok[0] == "-":
            self.toks.next()
            return _Neg(self.unary())
        if tok[0] == "+":
            self.toks.next()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.toks.peek()[0] == "^":
            pos = self.toks.next()[2]
            exponent = self.unary()
            return _Pow(base, self._constant_exponent(exponent, pos))
        return base

    def _constant_exponent(self, node: _Node, pos: int) -> float:
        if not node.is_constant():
            raise ParseError("exponent must be a constant", pos)
        value = node.jet(0.0).f
        if abs(2.0 * value - round(2.0 * value)) > 1e-12:
            raise ParseError(
                f"exponent {value:g} is not an integer or half-integer", pos)
        return round(2.0 * value) / 2.0

    def atom(self):
        tok = self.toks.next()
        kind, value, pos = tok
        if kind == "num":
            return _Const(value)
        if kind == "name":
            if value == "t":
                return _Var()
            if value in _FUNCTIONS:
                self.toks.expect("(")
                inner = self.expr()
                self.toks.expect(")")
                return _Call(value, inner)
            raise ParseError(f"unknown identifier '{value}'", pos)
        if kind == "(":
            inner = self.expr()
            self.toks.expect(")")
            return inner
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected {repr(value)}", pos)


def parse_timefn(text: str, domain: tuple | None = None) -> TimeFunction:
    """Parse an expression string into a TimeFunction.

    Whitespace-insensitive.  Raises ParseError with the character position
    on malformed input or unknown identifiers.
    """
    root = _Parser(text).parse()
    if domain is not None:
        lo, hi = float(domain[0]), float(domain[1])
        if not lo < hi:
            raise ParseError(f"empty validity interval [{lo}, {hi}]")
        domain = (lo, hi)
    return TimeFunction(root, text.strip(), domain)
