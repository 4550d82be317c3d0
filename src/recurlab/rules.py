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
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

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
        if isinstance(v, Fraction) and v >= 0:
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
        if isinstance(b, Fraction) and b.denominator == 1:
            e = int(b)
            if isinstance(a, Fraction):
                return a ** e
            return float(a) ** e
        return float(a) ** float(b)
    raise AssertionError(kind)


def _integer_valued(node) -> bool:
    """Does the node evaluate to an integer at every integer n?"""
    kind = node[0]
    if kind == "const":
        return node[1].denominator == 1
    if kind in ("neg", "+", "-", "*"):
        return all(_integer_valued(c) for c in node[1:])
    return kind == "n"


def _combine(a: Scalar, b: Scalar, op) -> Scalar:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return op(a, b)
    return op(float(a), float(b))


class Rule:
    """A compiled ``n -> scalar`` rule with its source text."""

    __slots__ = ("source", "_ast")

    def __init__(self, source: str):
        self.source = source.strip()
        self._ast = _Parser(_tokenize(self.source), self.source).parse()

    def __call__(self, n: int) -> Scalar:
        return _eval(self._ast, n)

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
