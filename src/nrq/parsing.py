"""Polynomial expression parser: signed decimals, x, ^, + - * and parentheses.

One loop reads the tokens left to right and keeps the open parentheses on
a list, so they nest to any depth within ``MAX_POLY_LENGTH``.  Expressions
are expanded to dense coefficient form in exact rational arithmetic;
conversion to float happens once, at the very end, so nested products
like (x^2+0.01)*((x-3)^2+0.01) come out correctly rounded.
"""

import re
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .newton import MAX_DEGREE, PolynomialProblem


class PolynomialSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class DegreeZeroError(ValueError):
    pass


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
    # exponents and the degree of every product are capped before expansion,
    # which keeps parsing a short expression fast (exact expansion of
    # (x+1)^k costs O(k^2) rational operations) and bounds its memory
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


def _expand(tokens) -> list:
    """Expand ``_tokenize``'s list, read left to right in one pass.

    Each factor (a number, x or a closed group) takes its optional ^, then
    the pending sign, then joins the pending product at the '*' before it.
    A '(' saves the sum, product, '*' offset and sign around it on a list
    and starts an empty sum; its ')' restores them with the group's sum as
    the factor, so nesting costs no recursion.  A '+' or '-' between terms
    is the next term's sign, exact in rationals.
    """
    tokens = iter(tokens)
    groups = []
    total, product, star, sign = None, None, 0, 1
    while True:
        kind, value, pos = next(tokens)
        if kind in ("+", "-"):
            if kind == "-":
                sign = -sign
            continue
        if kind == "(":
            groups.append((total, product, star, sign))
            total, product, sign = None, None, 1
            continue
        if kind == "number":
            factor = [_literal(value, pos)]
        elif kind == "x":
            factor = [Fraction(0), Fraction(1)]
        else:
            raise PolynomialSyntaxError(
                f"expected a number, 'x' or '(', got {value!r}" if value else "unexpected end of input",
                pos,
            )
        kind, value, pos = next(tokens)
        while True:
            if kind == "^":
                kind, value, pos = next(tokens)
                if kind != "number" or not value.isdigit():
                    raise PolynomialSyntaxError("expected a non-negative integer exponent", pos)
                exponent = int(value)
                if exponent > MAX_DEGREE:
                    raise PolynomialSyntaxError(f"exponent {exponent} exceeds the cap of {MAX_DEGREE}", pos)
                _check_degree((len(factor) - 1) * exponent, pos)
                factor = _ppow(factor, exponent)
                kind, value, pos = next(tokens)
            if sign < 0:
                factor = [-c for c in factor]
            if product is not None:
                _check_degree((len(product) - 1) + (len(factor) - 1), star)
                factor = _pmul(product, factor)
            if kind != ")" or not groups:
                break
            if total is not None:
                factor = _padd(total, factor)
            total, product, star, sign = groups.pop()
            kind, value, pos = next(tokens)
        if kind == "*":
            product, star, sign = factor, pos, 1
            continue
        total = factor if total is None else _padd(total, factor)
        if kind in ("+", "-"):
            product, sign = None, -1 if kind == "-" else 1
            continue
        if kind != "end" or groups:
            raise PolynomialSyntaxError("expected ')'" if groups else f"unexpected {value!r}", pos)
        return total


def parse_polynomial(text: str) -> PolynomialProblem:
    """Parse and exactly expand an expression into a PolynomialProblem, which
    rounds each exact coefficient to a float once."""
    if len(text) > MAX_POLY_LENGTH:
        raise PolynomialSyntaxError(
            f"expression of {len(text)} characters exceeds the cap of {MAX_POLY_LENGTH}", MAX_POLY_LENGTH
        )
    if not text.strip():
        raise PolynomialSyntaxError("empty expression", 0)
    coeffs = _expand(_tokenize(text))
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        raise DegreeZeroError("expression reduces to a constant; need degree >= 1")
    return PolynomialProblem(coeffs)


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
