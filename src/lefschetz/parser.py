"""Parsing and printing of homogeneous polynomial expressions.

Grammar (whitespace insignificant):

    expr  := sign? term (sign term)*          sign := '+' | '-'
    term  := coeff ('*'? factor)* | factor ('*'? factor)*
    factor:= name ('^' nat)?
    coeff := integer ('/' positive-integer)?

Variable names are supplied by the caller (an ordered list); identifiers are
matched greedily, so with variables ["x", "y"] the input "xy" is an unknown
name, not a product.  Parsed polynomials must be homogeneous.  The printer
emits a canonical string (terms in descending lex order of exponent) and
``parse_polynomial(format_form(f, names), names) == f`` for every form.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Form


class ParseError(ValueError):
    """Syntax or semantic error, carrying a 1-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


_TOKEN_INT = "int"
_TOKEN_NAME = "name"
_TOKEN_OP = "op"
_TOKEN_END = "end"


def _tokenize(text: str):
    tokens = []
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():  # the digits int() reads; "²" is not one
            start = i
            while i < length and text[i].isdecimal():
                i += 1
            tokens.append((_TOKEN_INT, text[start:i], start + 1))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < length and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append((_TOKEN_NAME, text[start:i], start + 1))
            continue
        if ch in "+-*/^":
            tokens.append((_TOKEN_OP, ch, i + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i + 1)
    tokens.append((_TOKEN_END, "", length + 1))
    return tokens


def is_variable_name(text: str) -> bool:
    """Whether ``text`` reads back as one name: a single name token."""
    try:
        tokens = _tokenize(text)
    except ParseError:
        return False
    return [token[:2] for token in tokens] == [(_TOKEN_NAME, text), (_TOKEN_END, "")]


class _Parser:
    def __init__(self, text: str, variables):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = list(variables)
        self.index = {name: i for i, name in enumerate(self.variables)}
        if len(self.index) != len(self.variables):
            raise ValueError("duplicate variable names")

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def parse(self):
        """Returns a list of (coefficient, exponent, position) triples."""
        terms = []
        kind, value, position = self.peek()
        sign = 1
        if kind == _TOKEN_OP and value in "+-":
            self.advance()
            sign = -1 if value == "-" else 1
        if self.peek()[0] == _TOKEN_END:
            raise ParseError("empty expression", position)
        terms.append(self._term(sign))
        while True:
            kind, value, position = self.peek()
            if kind == _TOKEN_END:
                break
            if kind == _TOKEN_OP and value in "+-":
                self.advance()
                terms.append(self._term(-1 if value == "-" else 1))
                continue
            raise ParseError(f"expected '+' or '-', found {value!r}", position)
        return terms

    def _term(self, sign):
        kind, value, position = self.peek()
        term_position = position
        coeff = Fraction(sign)
        saw_anything = False
        if kind == _TOKEN_INT:
            self.advance()
            numerator = int(value)
            denominator = 1
            kind2, value2, _ = self.peek()
            if kind2 == _TOKEN_OP and value2 == "/":
                self.advance()
                kind3, value3, position3 = self.peek()
                if kind3 != _TOKEN_INT:
                    raise ParseError("expected integer denominator", position3)
                self.advance()
                denominator = int(value3)
                if denominator == 0:
                    raise ParseError("zero denominator", position3)
            coeff *= Fraction(numerator, denominator)
            saw_anything = True
        exponents = [0] * len(self.variables)
        while True:
            kind, value, position = self.peek()
            if kind == _TOKEN_OP and value == "*":
                self.advance()
                kind, value, position = self.peek()
                if kind != _TOKEN_NAME:
                    raise ParseError("expected variable after '*'", position)
            if kind != _TOKEN_NAME:
                break
            self.advance()
            if value not in self.index:
                raise ParseError(f"unknown variable {value!r}", position)
            power = 1
            kind2, value2, _ = self.peek()
            if kind2 == _TOKEN_OP and value2 == "^":
                self.advance()
                kind3, value3, position3 = self.peek()
                if kind3 != _TOKEN_INT:
                    raise ParseError("expected integer exponent", position3)
                self.advance()
                power = int(value3)
            exponents[self.index[value]] += power
            saw_anything = True
        if not saw_anything:
            raise ParseError("expected a term", term_position)
        return coeff, tuple(exponents), term_position


def parse_polynomial(text: str, variables, expected_degree=None) -> Form:
    """Parse a homogeneous polynomial in the given variables into a Form.

    ``expected_degree`` pins the degree (required to disambiguate inputs that
    cancel to zero, e.g. "x - x"; also validates non-cancelling input).
    """
    parser = _Parser(text, variables)
    triples = parser.parse()
    n = len(parser.variables) - 1
    live = [t for t in triples if t[0] != 0]
    if live:
        lead_degree = sum(live[0][1])
        for coeff, exponent, position in live:
            if sum(exponent) != lead_degree:
                raise ParseError(
                    f"inhomogeneous: term of degree {sum(exponent)} after "
                    f"degree {lead_degree}",
                    position,
                )
        degree = lead_degree
    else:
        degree = expected_degree if expected_degree is not None else 0
    if expected_degree is not None:
        if live and degree != expected_degree:
            raise ParseError(
                f"degree {degree} polynomial where degree {expected_degree} expected",
                live[0][2],
            )
        degree = expected_degree
    terms = {}
    for coeff, exponent, _ in triples:
        terms[exponent] = terms.get(exponent, 0) + coeff
    return Form(n, degree, terms)


def default_names(n: int) -> list:
    """The variable names x0, ..., xn of a form in n+1 variables."""
    return [f"x{i}" for i in range(n + 1)]


def format_form(form: Form, variables) -> str:
    """Canonical string: terms in descending lex order, '*' between factors."""
    if len(variables) != form.n + 1:
        raise ValueError("variable list has wrong length")
    if form.is_zero:
        return "0"
    pieces = []
    for exponent in sorted(form.terms, reverse=True):
        coeff = form.terms[exponent]
        factors = []
        for name, power in zip(variables, exponent):
            if power == 1:
                factors.append(name)
            elif power > 1:
                factors.append(f"{name}^{power}")
        magnitude = abs(coeff)
        if not factors:
            body = str(magnitude)
        elif magnitude == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(magnitude)] + factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)
