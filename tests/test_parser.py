"""Expression grammar, error positions, and printer round-trips."""

from fractions import Fraction

import pytest

from lefschetz import Form, ParseError, format_form, parse_polynomial
from lefschetz.sampling import rng_for

XYZ = ["x0", "x1", "x2"]


def test_basic_terms():
    f = parse_polynomial("x0^3 - 3*x0*x1*x2", XYZ)
    assert f.degree == 3
    assert f.terms == {(3, 0, 0): 1, (1, 1, 1): -3}


def test_rational_coefficient_preserved():
    f = parse_polynomial("1/2*x0^2*x1 + x2^3", XYZ)
    assert f.terms.get((2, 1, 0), 0) == Fraction(1, 2)
    assert f.terms.get((0, 0, 3), 0) == 1


def test_star_is_optional():
    # names are greedy, so adjacent factors need a separator the tokenizer sees
    assert parse_polynomial("2x0^2", XYZ) == parse_polynomial("2*x0^2", XYZ)
    assert parse_polynomial("x0 x1", XYZ) == parse_polynomial("x0*x1", XYZ)
    assert parse_polynomial("3 x0 x1^2", XYZ) == parse_polynomial("3*x0*x1^2", XYZ)


def test_leading_sign_and_cancellation():
    f = parse_polynomial("-x0^2 + x0^2", XYZ, expected_degree=2)
    assert f.is_zero
    assert f.degree == 2
    g = parse_polynomial("+x1^2", XYZ)
    assert g.terms == {(0, 2, 0): 1}


def test_repeated_variables_multiply():
    f = parse_polynomial("x0*x0*x0", XYZ)
    assert f.terms == {(3, 0, 0): 1}
    g = parse_polynomial("x0^2*x0", XYZ)
    assert g.terms == {(3, 0, 0): 1}


def test_inhomogeneous_rejected_with_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x0^2 + x1", XYZ)
    assert "inhomogeneous" in str(err.value)
    assert err.value.position == 8
    # a cancelled term must not constrain the degree
    f = parse_polynomial("x0^2 + 0*x1", XYZ)
    assert f.terms == {(2, 0, 0): 1}


def test_unknown_variable_and_syntax_errors():
    with pytest.raises(ParseError, match="unknown variable"):
        parse_polynomial("x0 + w", XYZ)
    with pytest.raises(ParseError, match="empty"):
        parse_polynomial("   ", XYZ)
    with pytest.raises(ParseError, match="exponent"):
        parse_polynomial("x0^", XYZ)
    with pytest.raises(ParseError, match="denominator"):
        parse_polynomial("1/x0", XYZ)
    with pytest.raises(ParseError, match="zero denominator"):
        parse_polynomial("1/0*x0", XYZ)
    with pytest.raises(ParseError, match="unexpected character"):
        parse_polynomial("x0 @ x1", XYZ)
    with pytest.raises(ParseError, match="expected a term"):
        parse_polynomial("x0 + + x1", XYZ)


def test_only_decimal_digits_are_numbers():
    # "²" is a digit to str.isdigit but not one int() reads: it is an
    # unexpected character with its position, not a bare int() error
    with pytest.raises(ParseError, match="unexpected character '²'") as err:
        parse_polynomial("x^²", ["x", "y"])
    assert err.value.position == 3
    # "٣" is a decimal digit, so int() reads it as 3
    assert parse_polynomial("٣*x", ["x", "y"]) == parse_polynomial("3*x", ["x", "y"])


def test_expected_degree_mismatch():
    with pytest.raises(ParseError, match="degree 2 polynomial where degree 3"):
        parse_polynomial("x0^2", XYZ, expected_degree=3)


def test_greedy_names():
    # "xy" is one identifier, not x*y
    with pytest.raises(ParseError, match="unknown variable 'xy'"):
        parse_polynomial("xy", ["x", "y"])


def test_format_known():
    f = Form(2, 2, {(1, 1, 0): Fraction(-1, 2), (0, 0, 2): 3})
    assert format_form(f, XYZ) == "-1/2*x0*x1 + 3*x2^2"
    assert format_form(Form(2, 4), XYZ) == "0"
    assert format_form(Form.monomial((1, 0, 1)), XYZ) == "x0*x2"


def test_round_trip_random_forms():
    rng = rng_for(0, "parser-roundtrip")
    exponents = [(3, 0, 0), (2, 1, 0), (1, 1, 1), (0, 2, 1), (0, 0, 3), (2, 0, 1)]
    for trial in range(100):
        terms = {}
        for e in exponents:
            if rng.random() < 0.5:
                num = rng.randrange(-30, 31)
                den = rng.randrange(1, 7)
                if num:
                    terms[e] = Fraction(num, den)
        f = Form(2, 3, terms)
        assert parse_polynomial(format_form(f, XYZ), XYZ, 3) == f
