"""Functions of t as expression trees with exact third-order jets.

The time-dependent coefficients of every solution family are functions of a
single variable t.  What the solution evaluators actually consume is not the
function alone but the jet (f, f', f'', f''') at a point, because the
mean-flow field involves up to three derivatives of the coefficient
functions.  Trees are parsed from a small expression grammar:

    numbers, t, + - * / ^, parentheses, exp, ln, sin, cos, sinh, cosh

Exponents are restricted to integer and half-integer constants of magnitude
at most 64, which covers every coefficient expression this package
constructs (e.g. square roots of a positive slope).  Derivatives are
propagated through the tree by truncated Taylor (jet) arithmetic, so they
are exact to roundoff; no symbolic differentiation and no finite
differencing is involved.

The tree is walked once per call over a whole array of t.  A domain failure
(ln of x <= 0, division by zero, a half-integer power of x <= 0, t outside
the validity interval) becomes a mask, as does a jet that overflows, so such
points are invalid; ``TimeFunction.jet`` raises DomainError at a single t.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError

__all__ = ["Jet", "TimeFunction", "parse_timefn", "jet_arrays"]

_ZERO = np.float64(0.0)
_ONE = np.float64(1.0)


# ---------------------------------------------------------------------------
# Jet arithmetic: value and first three derivatives.
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
        return Jet(np.float64(c), _ZERO, _ZERO, _ZERO)


def _chain(w0, w1, w2, w3, g: Jet) -> Jet:
    """Faa di Bruno to order 3: outer derivatives w_k at g.f, inner jet g."""
    return Jet(
        w0,
        w1 * g.d1,
        w2 * g.d1 * g.d1 + w1 * g.d2,
        w3 * g.d1 ** 3 + 3.0 * w2 * g.d1 * g.d2 + w1 * g.d3,
    )


def _recip(g: Jet, node, fails) -> Jet:
    fails.append((g.f == 0.0, "division by zero", node))
    r = 1.0 / g.f
    return _chain(r, -r * r, 2.0 * r ** 3, -6.0 * r ** 4, g)


# ---------------------------------------------------------------------------
# Expression tree nodes.  ``jet(t, fails)`` evaluates over the 1-D float
# array t; a node that leaves its domain appends (mask, reason, node) to
# ``fails`` and carries on, leaving inf or NaN at the masked entries.
# ---------------------------------------------------------------------------

class _Node:
    def jet(self, t, fails: list) -> Jet:
        raise NotImplementedError


class _Const(_Node):
    def __init__(self, value: float):
        self.value = float(value)

    def jet(self, t, fails):
        return Jet.const(self.value)

    def __str__(self):
        return repr(self.value)


class _Var(_Node):
    def jet(self, t, fails):
        return Jet(t, _ONE, _ZERO, _ZERO)

    def __str__(self):
        return "t"


class _Neg(_Node):
    def __init__(self, child: _Node):
        self.child = child

    def jet(self, t, fails):
        return -self.child.jet(t, fails)

    def __str__(self):
        return f"-({self.child})"


class _Binary(_Node):
    """lhs op rhs for op one of + - * /."""

    def __init__(self, op: str, lhs: _Node, rhs: _Node):
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def __str__(self):
        return f"({self.lhs}{self.op}{self.rhs})"

    def jet(self, t, fails):
        a, b = self.lhs.jet(t, fails), self.rhs.jet(t, fails)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        return a * (b if self.op == "*" else _recip(b, self, fails))


class _Pow(_Node):
    """base ^ r with r a fixed integer or half-integer."""

    def __init__(self, base: _Node, exponent: float):
        self.base = base
        self.exponent = float(exponent)

    def __str__(self):
        return f"({self.base}^{self.exponent:g})"

    def jet(self, t, fails):
        g = self.base.jet(t, fails)
        r = self.exponent
        n = int(round(r))
        if r == n:
            out = Jet.const(1.0)
            for _ in range(abs(n)):
                out = out * g
            return out if n >= 0 else _recip(out, self, fails)
        # Half-integer exponent: require a positive base so all derivatives
        # of the branch are real and finite.
        fails.append((g.f <= 0.0, "fractional power of non-positive value",
                      self))
        w0 = g.f ** r
        w1 = r * g.f ** (r - 1.0)
        w2 = r * (r - 1.0) * g.f ** (r - 2.0)
        w3 = r * (r - 1.0) * (r - 2.0) * g.f ** (r - 3.0)
        return _chain(w0, w1, w2, w3, g)


class _Call(_Node):
    def __init__(self, name: str, child: _Node):
        self.name = name
        self.child = child

    def __str__(self):
        return f"{self.name}({self.child})"

    def jet(self, t, fails):
        g = self.child.jet(t, fails)
        x = g.f
        if self.name == "exp":
            e = np.exp(x)
            return _chain(e, e, e, e, g)
        if self.name == "ln":
            fails.append((x <= 0.0, "ln of non-positive value", self))
            r = 1.0 / x
            return _chain(np.log(x), r, -r * r, 2.0 * r ** 3, g)
        # sin and sinh with their derivatives; cos and cosh start one later.
        if self.name in ("sin", "cos"):
            s, c = np.sin(x), np.cos(x)
            w = (s, c, -s, -c, s)
        else:
            s, c = np.sinh(x), np.cosh(x)
            w = (s, c, s, c, s)
        k = self.name in ("cos", "cosh")
        return _chain(*w[k:k + 4], g)


_FUNCTIONS = ("exp", "ln", "sin", "cos", "sinh", "cosh")


# ---------------------------------------------------------------------------
# TimeFunction: immutable tree plus an optional validity interval.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeFunction:
    """An evaluable function of t with exact derivatives to order 3.

    ``domain`` restricts where the function may be evaluated; outside of it
    ``jet`` raises DomainError instead of extrapolating, and ``jet_arrays``
    marks the point invalid.
    """

    root: _Node
    source: str
    domain: tuple | None = None

    def _walk(self, t):
        """The jet over the 1-D float array t, and the domain failures as
        (mask, reason, subexpression) in evaluation order."""
        fails = []
        if self.domain is not None:
            lo, hi = self.domain
            fails.append((~((lo <= t) & (t <= hi)),
                          f"t outside validity interval [{lo}, {hi}]",
                          self.source))
        with np.errstate(all="ignore"):
            return self.root.jet(t, fails), fails

    def jet(self, t: float) -> Jet:
        """The jet at one t, as floats.  Raises DomainError naming the first
        subexpression that fails there; an overflow gives inf, not an
        error."""
        j, fails = self._walk(np.array([float(t)]))
        for bad, reason, where in fails:
            if np.any(bad):
                raise DomainError(f"{reason} in '{where}' at t={t}")
        return Jet(*(float(np.ravel(c)[0]) for c in (j.f, j.d1, j.d2, j.d3)))


def jet_arrays(f: TimeFunction, t):
    """Jets of f at every entry of t, in one walk of the tree over the array.

    Returns read-only arrays shaped like t: ``(jet, ok)``, a Jet of four
    float arrays and a bool mask that is False where ``f.jet`` raises
    DomainError or where a jet entry is not finite (an overflow); those
    entries of the jet are NaN.
    """
    t = np.asarray(t, dtype=float)
    flat = t.reshape(-1)
    # A field sampled at one time repeats one t at every point: walk it once.
    repeated = flat.size > 1 and (flat == flat[0]).all()
    if repeated:
        flat = flat[:1]
    j, fails = f._walk(flat)
    cols = np.empty((4, flat.size))
    cols[0], cols[1], cols[2], cols[3] = j.f, j.d1, j.d2, j.d3
    ok = np.isfinite(cols).all(axis=0)
    for bad, _, _ in fails:
        ok &= ~bad
    if not ok.all():
        cols[:, ~ok] = np.nan
    cols.flags.writeable = ok.flags.writeable = False
    if repeated:
        cols = np.broadcast_to(cols, (4, t.size))
        ok = np.broadcast_to(ok, t.size)
    return Jet(*cols.reshape((4,) + t.shape)), ok.reshape(t.shape)


# ---------------------------------------------------------------------------
# Parser: recursive descent over the tokens of one regular expression.
# ---------------------------------------------------------------------------

# A number is digits and dots, with an exponent only where digits follow
# it; a name is a word character that is not a decimal digit, then word
# characters.
_TOKEN = re.compile(r"""(?P<blank>\s+)
    |(?P<num>\.?\d[\d.]*(?:[eE][+-]?\d+)?)
    |(?P<name>[^\W\d]\w*)
    |(?P<op>[-+*/^()])
    |(?P<bad>.)""", re.VERBOSE)

# Largest |exponent|: an integer power is that many jet products.
_MAX_EXPONENT = 64


def _tokens(text: str) -> list:
    """(kind, value, position) triples of ``text``, ending in ("end", None,
    len(text)); an operator's kind is itself, a number's value a float."""
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, value, pos = match.lastgroup, match.group(), match.start()
        if kind == "bad":
            raise ParseError(f"unexpected character '{value}'", pos)
        if kind == "num":
            try:
                value = float(value)
            except ValueError:
                raise ParseError(f"bad number '{value}'", pos) from None
        if kind != "blank":
            tokens.append((value if kind == "op" else kind, value, pos))
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := ('+'|'-') unary | power
    power  := atom ('^' unary)?          (right-associative)
    atom   := number | 't' | name '(' expr ')' | '(' expr ')'
    """

    def __init__(self, text: str):
        self.tokens = _tokens(text)
        self.index = 0

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
            found = "end of input" if tok[0] == "end" else repr(tok[1])
            raise ParseError(f"expected '{kind}', found {found}", tok[2])
        return tok

    def parse(self) -> _Node:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {repr(tok[1])}", tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in "+-":
            node = _Binary(self.next()[0], node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in "*/":
            node = _Binary(self.next()[0], node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok[0] == "-":
            self.next()
            return _Neg(self.unary())
        if tok[0] == "+":
            self.next()
            return self.unary()
        return self.power()

    def power(self):
        """``atom ^ unary`` with the exponent evaluated here: it must not
        contain t and must be an integer or half-integer of magnitude at
        most _MAX_EXPONENT."""
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        pos = self.next()[2]
        start = self.index
        exponent = self.unary()
        if ("name", "t") in (tok[:2] for tok in self.tokens[start:self.index]):
            raise ParseError("exponent must be a constant", pos)
        j, ok = jet_arrays(TimeFunction(exponent, ""), 0.0)
        if not ok:
            raise ParseError("exponent is undefined or overflows", pos)
        value = float(j.f)
        if abs(2.0 * value - round(2.0 * value)) > 1e-12:
            raise ParseError(
                f"exponent {value:g} is not an integer or half-integer", pos)
        if abs(value) > _MAX_EXPONENT:
            raise ParseError(f"exponent {value:g} exceeds {_MAX_EXPONENT} "
                             f"in magnitude", pos)
        return _Pow(base, round(2.0 * value) / 2.0)

    def atom(self):
        kind, value, pos = self.next()
        if kind == "num":
            return _Const(value)
        if kind == "name":
            if value == "t":
                return _Var()
            if value in _FUNCTIONS:
                self.expect("(")
                inner = self.expr()
                self.expect(")")
                return _Call(value, inner)
            raise ParseError(f"unknown identifier '{value}'", pos)
        if kind == "(":
            inner = self.expr()
            self.expect(")")
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
