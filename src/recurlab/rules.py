"""Tiny expression language for index-dependent rules.

Weight sequences, diagonal rotation angles, series terms: anything that maps
an index ``n`` to a scalar is written as a plain-text expression so run
configs can carry it.  Grammar (usual precedence, ``^`` binds tightest and is
right-associative with integer exponents)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ['-'] base ('^' factor)?
    base   := NUMBER | 'n' | '(' expr ')' | 'sqrt' '(' expr ')'

Numbers are integers or decimal literals; both become exact Fractions.
``sqrt`` of a non-square deliberately degrades the result to float: that is
how irrational rotation angles enter the system.

A rule is evaluated by walking its syntax tree, one n at a time.
``Rule.values`` evaluates a whole range at once: an integer-coefficient
rational function of n runs as int64 numerator and denominator arrays,
anything else through the per-n walk.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

import numpy as np

Scalar = Union[Fraction, float]

_TOKENS = ("+", "-", "*", "/", "^", "(", ")")


class RuleSyntaxError(ValueError):
    pass


def _tokenize(text: str) -> list[str]:
    out, i = [], 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in _TOKENS:
            out.append(c)
            i += 1
        elif c.isdigit() or c == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "."):
                j += 1
            out.append(text[i:j])
            i = j
        elif c.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            out.append(text[i:j])
            i = j
        else:
            raise RuleSyntaxError(f"unexpected character {c!r} in rule {text!r}")
    return out


class _Parser:
    def __init__(self, tokens: list[str], source: str):
        self.toks = tokens
        self.pos = 0
        self.source = source

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise RuleSyntaxError(f"malformed rule {self.source!r} near token {tok!r}")
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise RuleSyntaxError(f"trailing tokens in rule {self.source!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = (op, node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            node = (op, node, rhs)
        return node

    def factor(self):
        if self.peek() == "-":
            self.take()
            return ("neg", self.factor())
        node = self.base()
        if self.peek() == "^":
            self.take()
            exponent = self.factor()
            node = ("^", node, exponent)
        return node

    def base(self):
        tok = self.take()
        if tok == "(":
            node = self.expr()
            self.take(")")
            return node
        if tok == "n":
            return ("n",)
        if tok == "sqrt":
            self.take("(")
            node = self.expr()
            self.take(")")
            return ("sqrt", node)
        if tok[0].isdigit() or tok[0] == ".":
            return ("const", Fraction(tok))
        raise RuleSyntaxError(f"unexpected token {tok!r} in rule {self.source!r}")


def _eval(node, n: int) -> Scalar:
    kind = node[0]
    if kind == "const":
        return node[1]
    if kind == "n":
        return Fraction(n)
    if kind == "neg":
        return -_eval(node[1], n)
    if kind == "sqrt":
        v = _eval(node[1], n)
        if v < 0:
            raise ValueError(f"square root of a negative number at n={n}")
        if isinstance(v, Fraction):
            r = math.isqrt(v.numerator)
            s = math.isqrt(v.denominator)
            if r * r == v.numerator and s * s == v.denominator:
                return Fraction(r, s)
        return math.sqrt(float(v))
    a = _eval(node[1], n)
    b = _eval(node[2], n)
    if kind == "+":
        return _combine(a, b, lambda x, y: x + y)
    if kind == "-":
        return _combine(a, b, lambda x, y: x - y)
    if kind == "*":
        return _combine(a, b, lambda x, y: x * y)
    if kind == "/":
        if b == 0:
            raise ZeroDivisionError(f"rule divides by zero at n={n}")
        return _combine(a, b, lambda x, y: x / y)
    if kind == "^":
        if a == 0 and b < 0:
            raise ZeroDivisionError(f"rule divides by zero at n={n}")
        if isinstance(b, Fraction) and b.denominator == 1:
            e = int(b)
            if isinstance(a, Fraction):
                return a ** e
            return float(a) ** e
        v = float(a) ** float(b)
        if isinstance(v, complex):
            raise ValueError(f"negative base to a fractional power at n={n}")
        return v
    raise AssertionError(kind)


def _integer_valued(node) -> bool:
    """Does the node evaluate to an integer at every integer n?"""
    kind = node[0]
    if kind == "const":
        return node[1].denominator == 1
    if kind in ("neg", "+", "-", "*"):
        return all(_integer_valued(c) for c in node[1:])
    return kind == "n"


# Rule.values' exact path: numerator and denominator arrays below 2^53 are
# exact in float64, so one division per n rounds as float(Fraction) does.
_EXACT_BOUND = 1 << 53


class _NotRational(Exception):
    """The node is not an integer-coefficient rational function of n, or
    its integers may reach 2^53."""


def _int_exponent(node) -> int:
    sign = 1
    while node[0] == "neg":
        node, sign = node[1], -sign
    if node[0] != "const" or node[1].denominator != 1:
        raise _NotRational
    return sign * node[1].numerator


def _ratio(node, n: np.ndarray, m: int, vanish: list):
    """``(num, den, num_bound, den_bound)`` of the node over the indices n:
    int64 arrays (or Python ints where constant) with magnitudes below the
    bounds, which are Python ints computed from ``|n| <= m``.  Each divisor
    appends its "is zero" mask to vanish."""
    kind = node[0]
    if kind == "const":
        q = node[1]
        out = q.numerator, q.denominator, abs(q.numerator), q.denominator
    elif kind == "n":
        out = n, 1, m, 1
    elif kind == "neg":
        a, b, ba, bb = _ratio(node[1], n, m, vanish)
        out = -a, b, ba, bb
    elif kind == "^":
        k = _int_exponent(node[2])
        a, b, ba, bb = _ratio(node[1], n, m, vanish)
        if k < 0:
            vanish.append(a == 0)
            a, b, ba, bb, k = b, a, bb, ba, -k
        if k >= 53:                 # a bound >= 2 reaches 2^53; skip the huge power
            raise _NotRational
        out = a ** k, b ** k, ba ** k, bb ** k
    elif kind in ("+", "-", "*", "/"):
        a, b, ba, bb = _ratio(node[1], n, m, vanish)
        c, d, bc, bd = _ratio(node[2], n, m, vanish)
        if kind == "*":
            out = a * c, b * d, ba * bc, bb * bd
        elif kind == "/":
            vanish.append(c == 0)
            out = a * d, b * c, ba * bd, bb * bc
        else:
            num = a * d + c * b if kind == "+" else a * d - c * b
            out = num, b * d, ba * bd + bc * bb, bb * bd
    else:
        raise _NotRational          # sqrt
    if out[2] >= _EXACT_BOUND or out[3] >= _EXACT_BOUND:
        raise _NotRational
    return out


def _combine(a: Scalar, b: Scalar, op) -> Scalar:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return op(a, b)
    return op(float(a), float(b))


class Rule:
    """A parsed ``n -> scalar`` rule with its source text.  A call walks the
    syntax tree for one n; ``values`` evaluates a range."""

    __slots__ = ("source", "_ast")

    def __init__(self, source: str):
        self.source = source.strip()
        self._ast = _Parser(_tokenize(self.source), self.source).parse()

    def __call__(self, n: int) -> Scalar:
        try:
            return _eval(self._ast, n)
        except ValueError as err:
            raise ValueError(f"rule {self.source!r}: {err}") from None

    def values(self, lo: int, hi: int) -> np.ndarray:
        """``float(self(n))`` for n = lo..hi (inclusive) as one float64 array,
        equal bit for bit, raising what the first failing n raises.

        An integer-coefficient rational function of n (constants, n, ``+ -
        * /`` and integer constant exponents) whose integers stay below 2^53
        runs exactly in int64 arrays; any other rule is called once per n.
        """
        n = np.arange(lo, hi + 1, dtype=np.int64)
        vanish: list = []
        try:
            num, den, _, _ = _ratio(self._ast, n, max(abs(lo), abs(hi)), vanish)
        except _NotRational:
            return np.fromiter((float(self(k)) for k in range(lo, hi + 1)),
                               np.float64, len(n))
        hit = np.zeros(len(n), dtype=bool)
        for mask in vanish:
            hit |= mask
        if hit.any():
            raise ZeroDivisionError(f"rule divides by zero at n={lo + int(np.argmax(hit))}")
        out = np.empty(len(n))
        np.divide(num, den, out=out)
        out += 0.0          # 0 over a negative denominator is -0.0; float(Fraction(0)) is 0.0
        return out

    @property
    def is_exact(self) -> bool:
        """True when the rule never leaves rational arithmetic."""
        def scan(node) -> bool:
            if node[0] == "sqrt":
                v = node[1]
                if v[0] == "const":
                    r = math.isqrt(v[1].numerator)
                    s = math.isqrt(v[1].denominator)
                    return r * r == v[1].numerator and s * s == v[1].denominator
                return False
            if node[0] == "^" and not _integer_valued(node[2]):
                return False        # a non-integer exponent evaluates in floats
            return all(scan(c) for c in node[1:] if isinstance(c, tuple))
        return scan(self._ast)

    @property
    def uses_n(self) -> bool:
        """True when the expression mentions ``n``."""
        return "n" in _tokenize(self.source)

    def __eq__(self, other):
        return isinstance(other, Rule) and self.source == other.source

    def __hash__(self):
        return hash(("Rule", self.source))

    def __repr__(self):
        return f"Rule({self.source!r})"
