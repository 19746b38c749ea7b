"""Polynomial expression parser: signed decimals, x, ^, + - * and parentheses.

Expressions are expanded to dense coefficient form in exact rational
arithmetic; conversion to float happens once, at the very end, so nested
products like (x^2+0.01)*((x-3)^2+0.01) come out correctly rounded.
"""

import re
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .newton import PolynomialProblem


class PolynomialSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class DegreeZeroError(ValueError):
    pass


# Exponents and the degree of every product are capped before expansion,
# which keeps parsing a short expression fast (exact expansion of
# (x+1)^k costs O(k^2) rational operations) and bounds its memory.
MAX_DEGREE = 100

# A number literal's decimal exponent is bounded before any Fraction is
# built: Fraction(Decimal("1e999999")) builds a million-digit integer, so
# an unbounded exponent means unbounded time.  Every finite double,
# subnormals included, lies within 10^-324 .. 10^309.
MAX_LITERAL_EXPONENT = 400

# A number literal's length is bounded too, checked before Decimal sees
# it: converting a literal of k digits to a Fraction costs superlinear
# time in k (a million digits took 38 s).  The cap still admits the exact
# positional expansion of every double (at most 1076 characters, for the
# smallest subnormal).
MAX_LITERAL_LENGTH = 1100

# A whole expression's length is capped before tokenizing: parsing costs
# about 12 us a term, so the cap bounds it to well under a second.
MAX_POLY_LENGTH = 65536


_TOKEN_RE = re.compile(
    r"(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<x>x)"
    r"|(?P<op>[-+*^()])"
)
_SPACE_RE = re.compile(r"\s*")


def _tokenize(text: str):
    tokens = []
    pos = _SPACE_RE.match(text).end()
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PolynomialSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind, value = m.lastgroup, m.group()
        tokens.append((value if kind == "op" else kind, value, pos))
        pos = _SPACE_RE.match(text, m.end()).end()
    tokens.append(("end", "", len(text)))
    return tokens


# polynomials are lists of Fractions, ascending degree


def _padd(a, b):
    n = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    ]


def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _check_degree(degree: int, pos: int):
    if degree > MAX_DEGREE:
        raise PolynomialSyntaxError(f"degree {degree} exceeds the cap of {MAX_DEGREE}", pos)


def _literal(text: str, pos: int) -> Fraction:
    if len(text) > MAX_LITERAL_LENGTH:
        raise PolynomialSyntaxError(
            f"number literal of {len(text)} characters exceeds the cap of {MAX_LITERAL_LENGTH}",
            pos,
        )
    try:
        number = Decimal(text)
        in_range = abs(number.adjusted()) <= MAX_LITERAL_EXPONENT
    except InvalidOperation:  # an exponent beyond even Decimal's range
        in_range = False
    if not in_range:
        bound = MAX_LITERAL_EXPONENT
        raise PolynomialSyntaxError(
            f"number {text!r} has a decimal exponent outside -{bound}..{bound}", pos
        )
    return Fraction(number)


def _ppow(a, k: int):
    out = [Fraction(1)]
    for _ in range(k):
        out = _pmul(out, a)
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message: str):
        raise PolynomialSyntaxError(message, self.peek()[2])

    def parse(self):
        poly = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            self.fail(f"unexpected {value!r}")
        return poly

    def expr(self):
        poly = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            if op == "-":
                rhs = [-c for c in rhs]
            poly = _padd(poly, rhs)
        return poly

    def term(self):
        poly = self.unary()
        while self.peek()[0] == "*":
            pos = self.advance()[2]
            rhs = self.unary()
            _check_degree((len(poly) - 1) + (len(rhs) - 1), pos)
            poly = _pmul(poly, rhs)
        return poly

    def unary(self):
        sign = 1
        while self.peek()[0] in ("+", "-"):
            if self.advance()[0] == "-":
                sign = -sign
        poly = self.postfix()
        return [sign * c for c in poly] if sign < 0 else poly

    def postfix(self):
        poly = self.primary()
        if self.peek()[0] == "^":
            self.advance()
            kind, value, pos = self.peek()
            if kind != "number" or not value.isdigit():
                raise PolynomialSyntaxError("expected a non-negative integer exponent", pos)
            self.advance()
            exponent = int(value)
            if exponent > MAX_DEGREE:
                raise PolynomialSyntaxError(f"exponent {exponent} exceeds the cap of {MAX_DEGREE}", pos)
            _check_degree((len(poly) - 1) * exponent, pos)
            poly = _ppow(poly, exponent)
        return poly

    def primary(self):
        kind, value, pos = self.advance()
        if kind == "number":
            return [_literal(value, pos)]
        if kind == "x":
            return [Fraction(0), Fraction(1)]
        if kind == "(":
            poly = self.expr()
            kind, value, pos = self.peek()
            if kind != ")":
                self.fail("expected ')'")
            self.advance()
            return poly
        raise PolynomialSyntaxError(
            f"expected a number, 'x' or '(', got {value!r}" if value else "unexpected end of input",
            pos,
        )


def parse_polynomial(text: str) -> PolynomialProblem:
    """Parse and exactly expand an expression into a PolynomialProblem."""
    if len(text) > MAX_POLY_LENGTH:
        raise PolynomialSyntaxError(
            f"expression of {len(text)} characters exceeds the cap of {MAX_POLY_LENGTH}", MAX_POLY_LENGTH
        )
    if not text.strip():
        raise PolynomialSyntaxError("empty expression", 0)
    coeffs = _Parser(text).parse()
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        raise DegreeZeroError("expression reduces to a constant; need degree >= 1")
    return PolynomialProblem(tuple(float(c) for c in coeffs))


def pretty_polynomial(problem: PolynomialProblem) -> str:
    """Canonical text form; parse_polynomial round-trips it bit-exactly."""
    parts = []
    for power in range(problem.degree, -1, -1):
        c = problem.coefficients[power]
        if c == 0.0:
            continue
        mag = abs(c)
        if power == 0:
            body = repr(mag)
        elif power == 1:
            body = "x" if mag == 1.0 else f"{mag!r}*x"
        else:
            body = f"x^{power}" if mag == 1.0 else f"{mag!r}*x^{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
