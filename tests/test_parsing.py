"""Grammar, exact expansion, error positions, and exact float literals."""

import re
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nrq import (
    DegreeZeroError,
    PolynomialProblem,
    PolynomialSyntaxError,
    parse_polynomial,
)
from nrq.parsing import (
    MAX_DEGREE,
    MAX_LITERAL_LENGTH,
    MAX_POLY_LENGTH,
    _check_degree,
    _expand,
    _literal,
    _padd,
    _pmul,
    _ppow,
    _tokenize,
)


def test_simple_quadratics():
    assert parse_polynomial("x^2+1").coefficients == (1.0, 0.0, 1.0)
    assert parse_polynomial("x^2-2").coefficients == (-2.0, 0.0, 1.0)
    assert parse_polynomial("(x-3)^2").coefficients == (9.0, -6.0, 1.0)


def test_interference_quartic_matches_cas_expansion():
    import sympy

    x = sympy.Symbol("x")
    d = sympy.Rational(1, 100)
    expanded = sympy.Poly(sympy.expand((x**2 + d) * ((x - 3) ** 2 + d)), x)
    oracle = tuple(float(c) for c in reversed(expanded.all_coeffs()))
    parsed = parse_polynomial("(x^2+0.01)*((x-3)^2+0.01)")
    assert parsed.coefficients == oracle == (0.0901, -0.06, 9.02, -6.0, 1.0)


def test_unary_and_precedence():
    assert parse_polynomial("-x^2").coefficients == (0.0, 0.0, -1.0)
    assert parse_polynomial("--x").coefficients == (0.0, 1.0)
    assert parse_polynomial("3 - -x").coefficients == (3.0, 1.0)
    assert parse_polynomial("x+2*x^2").coefficients == (0.0, 1.0, 2.0)
    assert parse_polynomial("2*x*x").coefficients == (0.0, 0.0, 2.0)
    assert parse_polynomial(" ( x - 3 ) * ( x + 3 ) ").coefficients == (-9.0, 0.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**9), min_size=1, max_size=8),
    st.fractions(min_value=1, max_value=10**6, max_denominator=10**9),
)
def test_a_problem_from_fractions_equals_one_from_their_floats(lower, lead):
    # parse_polynomial hands its exact coefficients over; the problem rounds
    # each once, as float() before construction would
    coeffs = [*lower, lead]
    exact = PolynomialProblem(coeffs)
    rounded = PolynomialProblem([float(c) for c in coeffs])
    assert exact == rounded
    assert exact.coefficients == tuple(float(c) for c in coeffs)
    xs = [-2.5, -0.3, 0.7, 3.0]
    assert exact.step_array(xs).tobytes() == rounded.step_array(xs).tobytes()


def test_decimal_and_scientific_coefficients():
    assert parse_polynomial("1e-2*x^2 + .5*x + 2.25").coefficients == (2.25, 0.5, 0.01)


def test_syntax_error_positions():
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial("x^+2")
    assert err.value.position == 2
    cases = {
        "x^": 2,
        "x^2.5": 2,
        "2x": 1,
        "(x+1": 4,
        "x$2": 1,
        "*x": 0,
        "": 0,
        "   ": 0,
    }
    for text, position in cases.items():
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial(text)
        assert err.value.position == position, text


def test_degree_zero_rejected():
    for text in ("5", "x-x", "0*x", "(x+1)-(x+1)+3"):
        with pytest.raises(DegreeZeroError):
            parse_polynomial(text)


def test_degree_cap():
    assert parse_polynomial(f"x^{MAX_DEGREE}").degree == MAX_DEGREE
    assert parse_polynomial(f"(x+1)^{MAX_DEGREE // 2}*(x-1)^{MAX_DEGREE // 2}").degree == MAX_DEGREE
    cases = {
        f"x^{MAX_DEGREE + 1}": 2,
        f"2^{MAX_DEGREE + 1}": 2,
        f"(x^2+1)^{MAX_DEGREE // 2 + 1}": 8,
        f"x^{MAX_DEGREE}*x": len(f"x^{MAX_DEGREE}"),
        f"((x+1)^{MAX_DEGREE})^2": len(f"((x+1)^{MAX_DEGREE})^"),
    }
    for text, position in cases.items():
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial(text)
        assert err.value.position == position, text


@pytest.mark.parametrize(
    "text, position",
    [("1e999999*x+1", 0), ("x+1e-99999999*x", 2), ("x-1e99999999999999999999", 2)],
)
def test_literal_exponent_bound_fails_fast(text, position):
    started = time.perf_counter()
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial(text)
    assert time.perf_counter() - started < 0.1
    assert err.value.position == position


def test_literal_length_bound_fails_fast():
    long_literal = "1." + "0" * 60_000 + "1"  # over the literal cap, within MAX_POLY_LENGTH
    started = time.perf_counter()
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial(f"x^2 + {long_literal}*x")
    assert time.perf_counter() - started < 0.1
    assert err.value.position == 6
    assert "exceeds the cap" in str(err.value)


def test_literals_within_the_length_bound_parse():
    assert parse_polynomial("1." + "0" * 50 + "1" + "*x^2+1").coefficients == (1.0, 0.0, 1.0)
    # the exact positional expansion of the smallest subnormal, 2^-1074
    tiny = format(Decimal(5e-324), "f")
    assert len(tiny) == 1076 <= MAX_LITERAL_LENGTH
    assert parse_polynomial(f"{tiny}*x^2+1").coefficients == (1.0, 0.0, 5e-324)


def test_literals_within_the_exponent_bound_parse():
    assert parse_polynomial("1e308*x + 1e-320").coefficients == (1e-320, 1e308)
    assert parse_polynomial("2.5e-3*x^2 + x").coefficients == (0.0, 1.0, 0.0025)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=6))
def test_repr_literals_parse_exactly(coeffs):
    # repr gives the shortest decimal that rounds back to the double, so the
    # parser's one rounding must return every finite coefficient exactly
    if coeffs[-1] == 0.0:
        coeffs[-1] = 1.0
    text = " + ".join(f"({c!r})*x^{i}" for i, c in enumerate(coeffs))
    assert parse_polynomial(text).coefficients == tuple(coeffs)


_RESCANNING_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<x>x)"
    r"|(?P<op>[-+*^()]))"
)


def rescanning_tokenize(text):
    """Reference tokenizer: strips the whole remaining text before every
    token (quadratic in the length), with the same token tuples and the
    same error position."""
    tokens, pos = [], 0
    while pos < len(text):
        if not text[pos:].strip():
            break
        m = _RESCANNING_TOKEN_RE.match(text, pos)
        if m is None:
            at = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise PolynomialSyntaxError(f"unexpected character {text[at]!r}", at)
        kind = next(k for k in ("number", "x", "op") if m.group(k) is not None)
        value = m.group(kind)
        tokens.append((value if kind == "op" else kind, value, m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except PolynomialSyntaxError as exc:
        return ("error", str(exc), exc.position)


pieces = st.sampled_from(
    ["x", "2", "3.5", ".25", "1e-3", "+", "-", "*", "^", "(", ")", " ", "  ", "\t", "\n",
     "\u00a0", "\u2003", "\x1c", "$", "y", "e"]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(pieces, max_size=30).map("".join))
def test_tokenize_matches_the_rescanning_reference(text):
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(rescanning_tokenize, text)


@pytest.mark.parametrize(
    "text",
    ["  x ^ 2 \t+\n 1  ", "x +   $", " \u00a0\u2003(x-3)^2 ", "x+1 \u2003 y", "\t\n", "1.5 e2", "x  2"],
)
def test_tokenize_whitespace_heavy_inputs(text):
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(rescanning_tokenize, text)
    if "$" in text:
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial(text)
        assert err.value.position == text.index("$")


def test_expression_length_cap():
    # the longest accepted sum of x's, padded to exactly the cap
    text = "+".join(["x"] * (MAX_POLY_LENGTH // 2)) + " "
    assert len(text) == MAX_POLY_LENGTH
    assert parse_polynomial(text).coefficients == (0.0, MAX_POLY_LENGTH // 2)
    started = time.perf_counter()
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial(text + "1")
    assert time.perf_counter() - started < 0.1
    assert "exceeds the cap" in str(err.value)


def _recursive_reference(tokens):
    """Reference expansion: a recursive descent over ``_tokenize``'s list,
    five frames a parenthesis, with the same coefficient lists and the same
    errors as ``_expand`` wherever the recursion limit allows."""
    i = 0

    def peek():
        return tokens[i]

    def advance():
        nonlocal i
        i += 1
        return tokens[i - 1]

    def expr():
        poly = term()
        while peek()[0] in ("+", "-"):
            op = advance()[0]
            rhs = term()
            if op == "-":
                rhs = [-c for c in rhs]
            poly = _padd(poly, rhs)
        return poly

    def term():
        poly = unary()
        while peek()[0] == "*":
            pos = advance()[2]
            rhs = unary()
            _check_degree((len(poly) - 1) + (len(rhs) - 1), pos)
            poly = _pmul(poly, rhs)
        return poly

    def unary():
        sign = 1
        while peek()[0] in ("+", "-"):
            if advance()[0] == "-":
                sign = -sign
        poly = postfix()
        return [sign * c for c in poly] if sign < 0 else poly

    def postfix():
        poly = primary()
        if peek()[0] == "^":
            advance()
            kind, value, pos = peek()
            if kind != "number" or not value.isdigit():
                raise PolynomialSyntaxError("expected a non-negative integer exponent", pos)
            advance()
            exponent = int(value)
            if exponent > MAX_DEGREE:
                raise PolynomialSyntaxError(f"exponent {exponent} exceeds the cap of {MAX_DEGREE}", pos)
            _check_degree((len(poly) - 1) * exponent, pos)
            poly = _ppow(poly, exponent)
        return poly

    def primary():
        kind, value, pos = advance()
        if kind == "number":
            return [_literal(value, pos)]
        if kind == "x":
            return [Fraction(0), Fraction(1)]
        if kind == "(":
            poly = expr()
            if peek()[0] != ")":
                raise PolynomialSyntaxError("expected ')'", peek()[2])
            advance()
            return poly
        raise PolynomialSyntaxError(
            f"expected a number, 'x' or '(', got {value!r}" if value else "unexpected end of input",
            pos,
        )

    poly = expr()
    kind, value, pos = peek()
    if kind != "end":
        raise PolynomialSyntaxError(f"unexpected {value!r}", pos)
    return poly


def _expansion_or_error(expand, text):
    """The exact coefficient list, or the error's (type, message, offset)."""
    try:
        return expand(_tokenize(text))
    except ValueError as exc:
        return (type(exc), str(exc), getattr(exc, "position", None))


soup_pieces = st.sampled_from(
    ["x", "2", "3.5", ".25", "1e-3", "0", "+", "-", "*", "^", "^2", "^3", "^50", "^101",
     "(", ")", "$", "1e999", " "]
)


@settings(max_examples=2000, deadline=None)
@given(st.lists(soup_pieces, max_size=30).map("".join))
def test_expand_matches_the_recursive_reference(text):
    assert _expansion_or_error(_expand, text) == _expansion_or_error(_recursive_reference, text)


@pytest.mark.parametrize(
    "text",
    ["-(x-3)^2*-2 - -x", "((x+1)^2)^3 - (x)^0*x", "2*(x+.25)*(3.5-x)^2", "(x^50)*(x^50)*x",
     "((x+1)^50)^2*x", "(x+(x*(x-2)))", "x+-+-x", "()", "(x))", "(x)2", "((x)", "x^2^3"],
)
def test_expand_matches_the_recursive_reference_on_chosen_inputs(text):
    assert _expansion_or_error(_expand, text) == _expansion_or_error(_recursive_reference, text)


_DEPTH = 10_000


def test_deep_nesting_parses():
    text = "(" * _DEPTH + "x" + ")" * _DEPTH + "^2+1"
    assert parse_polynomial(text).coefficients == parse_polynomial("x^2+1").coefficients


def test_deep_unbalanced_nesting_is_a_syntax_error():
    with pytest.raises(PolynomialSyntaxError, match=re.escape("expected ')'")) as err:
        parse_polynomial("(" * _DEPTH + "x")
    assert err.value.position == _DEPTH + 1
