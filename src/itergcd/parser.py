"""Recursive-descent parser for polynomial expressions.

Grammar (whitespace ignored, offsets are byte positions in the source):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*    '/' needs a constant divisor
    unary  := '-' unary | power
    power  := atom ('^' nat)?               exponent: nonnegative integer
    atom   := nat | var | '(' expr ')'

A single lowercase letter names the variable; mixing two different letters
in one expression is an error.  parse_poly(render_poly(f)) == f.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import LIMITS, ParseError, check_bits, check_degree
from .polys import Poly


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.var: str | None = None
        self.exponent = False   # the last power parsed has its exponent

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def fail(self, expected):
        got = self.peek() or "end of input"
        raise ParseError("unexpected %r" % got, self.pos, expected)

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail(("integer",))
        return int(self.text[start:self.pos])


def _atom(s: _Scanner) -> Poly:
    ch = s.peek()
    if ch == "(":
        s.take()
        inner = _expr(s)
        if s.peek() != ")":
            s.fail((")",))
        s.take()
        return inner
    if ch.isdigit():
        return Poly.const(s.nat())
    if ch.isalpha() and ch.islower():
        if s.var is None:
            s.var = ch
        elif s.var != ch:
            raise ParseError("second variable %r (already using %r)"
                             % (ch, s.var), s.pos, (s.var,))
        s.take()
        return Poly.x()
    s.fail(("integer", "variable", "("))


def _power(s: _Scanner) -> Poly:
    base = _atom(s)
    s.exponent = s.peek() == "^"
    if s.exponent:
        s.take()
        if s.peek() == "-":
            raise ParseError("exponent must be a nonnegative integer",
                             s.pos, ("integer",))
        e = s.nat()
        check_degree(max(base.degree, 0) * e)
        # the lowest and the leading nonzero coefficient of base^e are those
        # of base to the e, with n^e and d^e of e * (bits - 1) + 1 bits or
        # more: refuse before powering only what surely passes the cap.  The
        # integer form bounds those bits; reduce the ends only past the cap
        nums, den = base.int_form()
        bits = max(map(int.bit_length, nums), default=0) + den.bit_length()
        if e * (bits - 2) + 2 > LIMITS.max_coeff_bits:
            ends = (next(a for a in base.coeffs if a), base.leading())
            bits = max(a.numerator.bit_length() + a.denominator.bit_length()
                       for a in ends)
            check_bits(e * (bits - 2) + 2)
        power = base ** e
        check_bits(power.max_coeff_bits())
        return power
    return base


def _unary(s: _Scanner) -> Poly:
    if s.peek() == "-":
        s.take()
        return -_unary(s)
    return _power(s)


def _term(s: _Scanner) -> Poly:
    acc = _unary(s)
    while True:
        ch = s.peek()
        if ch == "*":
            s.take()
            acc = acc * _unary(s)
        elif ch == "/":
            at = s.pos
            s.take()
            div = _unary(s)
            if not div.is_constant():
                raise ParseError("divisor must be constant", at, ("constant",))
            if div.is_zero():
                raise ParseError("division by zero", at, ("nonzero constant",))
            acc = acc * Poly.const(Fraction(1) / div[0])
        else:
            return acc


def _expr(s: _Scanner) -> Poly:
    acc = _term(s)
    while True:
        ch = s.peek()
        if ch == "+":
            s.take()
            acc = acc + _term(s)
        elif ch == "-":
            s.take()
            acc = acc - _term(s)
        else:
            return acc


def parse_poly(text: str) -> Poly:
    """Parse an expression in one variable into an exact Poly."""
    s = _Scanner(text)
    out = _expr(s)
    if s.peek() != "":
        power = () if s.exponent else ("^",)
        s.fail(("+", "-", "*", "/", *power, "end of input"))
    return out
