"""Functions of t compiled once into exact third-order jets.

The time-dependent coefficients of every solution family are functions of a
single variable t.  What the solution evaluators actually consume is not the
function alone but the jet (f, f', f'', f''') at a point, because the
mean-flow field involves up to three derivatives of the coefficient
functions.  Expressions of at most 200 tokens are parsed from the grammar

    numbers, t, + - * / ^, parentheses, exp, ln, sin, cos, sinh, cosh

An exponent is a whole number from -64 to 64 (x^r for any other r is written
exp(r*ln(x))): a power is that many jet products.  The parser compiles each
subexpression into a function that carries truncated Taylor (jet)
arithmetic, so derivatives are exact to roundoff; no symbolic
differentiation and no finite differencing is involved.

The compiled function runs once per call over a whole array of t.  A domain
failure (ln of x <= 0, division by zero) becomes a mask, as does a jet that
overflows; ``TimeFunction.jet`` raises ConfigError at a single t, naming the
failing subexpression as written."""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParseError, real

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


def _recip(g: Jet, text, fails) -> Jet:
    fails.append((g.f == 0.0, "division by zero", text))
    r = 1.0 / g.f
    return _chain(r, -r * r, 2.0 * r ** 3, -6.0 * r ** 4, g)


# ---------------------------------------------------------------------------
# Compiled expressions: one function ``jet(t, fails)`` per subexpression,
# over the 1-D float array t.  One that leaves its domain appends (mask,
# reason, text) to ``fails``, ``text`` being its source as written, and
# carries on, leaving inf or NaN at the masked entries.
# ---------------------------------------------------------------------------

def _binary(op: str, lhs, rhs, text: str):
    """lhs op rhs for op one of + - * /."""
    combine = {"+": Jet.__add__, "-": Jet.__sub__, "*": Jet.__mul__}.get(op)

    def jet(t, fails):
        a, b = lhs(t, fails), rhs(t, fails)
        return combine(a, b) if combine else a * _recip(b, text, fails)
    return jet


def _power(base, n: int, text: str):
    """base ^ n for a fixed whole n: |n| jet products."""
    def jet(t, fails):
        g = base(t, fails)
        out = Jet.const(1.0)
        for _ in range(abs(n)):
            out = out * g
        return out if n >= 0 else _recip(out, text, fails)
    return jet


def _call(name: str, child, text: str):
    def jet(t, fails):
        g = child(t, fails)
        x = g.f
        if name == "exp":
            e = np.exp(x)
            return _chain(e, e, e, e, g)
        if name == "ln":
            fails.append((x <= 0.0, "ln of non-positive value", text))
            r = 1.0 / x
            return _chain(np.log(x), r, -r * r, 2.0 * r ** 3, g)
        # sin and sinh with their derivatives; cos and cosh start one later.
        if name in ("sin", "cos"):
            s, c = np.sin(x), np.cos(x)
            w = (s, c, -s, -c, s)
        else:
            s, c = np.sinh(x), np.cosh(x)
            w = (s, c, s, c, s)
        k = name in ("cos", "cosh")
        return _chain(*w[k:k + 4], g)
    return jet


_FUNCTIONS = ("exp", "ln", "sin", "cos", "sinh", "cosh")


# ---------------------------------------------------------------------------
# TimeFunction: a compiled expression and its source text.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeFunction:
    """An evaluable function of t with exact derivatives to order 3."""

    compiled: Callable[[np.ndarray, list], Jet]
    source: str

    def _walk(self, t):
        """The jet over the 1-D float array t, and the domain failures as
        (mask, reason, subexpression) in evaluation order."""
        fails = []
        with np.errstate(all="ignore"):
            return self.compiled(t, fails), fails

    def jet(self, t: float) -> Jet:
        """The jet at one t, as floats.  Raises ConfigError naming the first
        subexpression that fails there; an overflow gives inf, not an
        error."""
        j, fails = self._walk(np.array([real(t, "t")]))
        for bad, reason, where in fails:
            if np.any(bad):
                raise ConfigError(f"{reason} in '{where}' at t={t}")
        return Jet(*(float(np.ravel(c)[0]) for c in (j.f, j.d1, j.d2, j.d3)))


def jet_arrays(f: TimeFunction, t):
    """Jets of f at every entry of t, in one walk of f over the array.

    Returns read-only arrays shaped like t: ``(jet, ok)``, a Jet of four
    float arrays and a bool mask that is False where ``f.jet`` raises
    ConfigError or where a jet entry is not finite (an overflow); those
    entries of the jet are NaN.  Each entry is walked, repeated or not.
    """
    t = np.asarray(t, dtype=float)
    j, fails = f._walk(t.reshape(-1))
    cols = np.empty((4, t.size))
    cols[0], cols[1], cols[2], cols[3] = j.f, j.d1, j.d2, j.d3
    ok = np.isfinite(cols).all(axis=0)
    for bad, _, _ in fails:
        ok &= ~bad
    if not ok.all():
        cols[:, ~ok] = np.nan
    cols.flags.writeable = ok.flags.writeable = False
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

# Largest |exponent|: a power is that many jet products.
_MAX_EXPONENT = 64
# Most tokens in one expression: keeps the recursion of parsing and of
# evaluation (99 nested parentheses, 199 unary minuses) well inside Python's.
_MAX_TOKENS = 200


def _tokens(text: str) -> list:
    """(kind, value, position) triples of ``text``, ending in ("end", None,
    len(text)); an operator's kind is itself, a number's value a float."""
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, value, pos = match.lastgroup, match.group(), match.start()
        if kind == "blank":
            continue
        if len(tokens) == _MAX_TOKENS:
            raise ParseError(f"expression longer than {_MAX_TOKENS} tokens",
                             pos)
        if kind == "bad":
            raise ParseError(f"unexpected character '{value}'", pos)
        if kind == "num":
            try:
                value = float(value)
            except ValueError:
                raise ParseError(f"bad number '{value}'", pos) from None
        tokens.append((value if kind == "op" else kind, value, pos))
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := ('+'|'-') unary | power
    power  := atom ('^' '-'? number)?    (number whole, at most 64)
    atom   := number | 't' | name '(' expr ')' | '(' expr ')'

    Each rule returns its subexpression compiled to ``jet(t, fails)``.
    """

    def __init__(self, text: str):
        self.text = text
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

    def since(self, start: int) -> str:
        """The source text of the tokens from ``start`` to the next one."""
        return self.text[self.tokens[start][2]:self.peek()[2]].rstrip()

    def parse(self):
        jet = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {repr(tok[1])}", tok[2])
        return jet

    def expr(self):
        start, jet = self.index, self.term()
        while self.peek()[0] in "+-":
            op = self.next()[0]
            jet = _binary(op, jet, self.term(), self.since(start))
        return jet

    def term(self):
        start, jet = self.index, self.unary()
        while self.peek()[0] in "*/":
            op = self.next()[0]
            jet = _binary(op, jet, self.unary(), self.since(start))
        return jet

    def unary(self):
        tok = self.peek()
        if tok[0] == "-":
            self.next()
            child = self.unary()
            return lambda t, fails: -child(t, fails)
        if tok[0] == "+":
            self.next()
            return self.unary()
        return self.power()

    def power(self):
        """``atom ^ ['-'] n`` with n a whole number token <= _MAX_EXPONENT."""
        start, base = self.index, self.atom()
        if self.peek()[0] != "^":
            return base
        pos = self.next()[2]
        negative = self.peek()[0] == "-"
        if negative:
            self.next()
        kind, n, _ = self.next()
        if (kind != "num" or n % 1 or n > _MAX_EXPONENT
                or self.peek()[0] == "^"):
            raise ParseError(f"exponent must be a whole number from "
                             f"-{_MAX_EXPONENT} to {_MAX_EXPONENT} (write x^r "
                             f"for other r as exp(r*ln(x)))", pos)
        return _power(base, int(-n if negative else n), self.since(start))

    def atom(self):
        start = self.index
        kind, value, pos = self.next()
        if kind == "num":
            if value == np.inf:  # 1e400 reads as inf; 1e-400 reads as 0
                raise ParseError("number past the double range", pos)
            c = Jet.const(value)
            return lambda t, fails: c
        if kind == "name":
            if value == "t":
                return lambda t, fails: Jet(t, _ONE, _ZERO, _ZERO)
            if value in _FUNCTIONS:
                self.expect("(")
                inner = self.expr()
                self.expect(")")
                return _call(value, inner, self.since(start))
            raise ParseError(f"unknown identifier '{value}'", pos)
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected {repr(value)}", pos)


def parse_timefn(text: str) -> TimeFunction:
    """Parse an expression string into a TimeFunction.

    Whitespace-insensitive.  Raises ParseError with the character position
    on malformed input or unknown identifiers.
    """
    if not isinstance(text, str):
        raise ConfigError(f"text: expected a string, got {text!r}")
    return TimeFunction(_Parser(text).parse(), text.strip())
