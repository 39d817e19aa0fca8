"""Exponent vectors and sparse homogeneous forms over Q.

Conventions used throughout the package:

* ``n`` is the projective dimension, so forms live in n+1 variables
  x_0, ..., x_n.
* An exponent vector is a tuple of n+1 non-negative integers; a form of
  degree d is a dict mapping exponent vectors of weight d to nonzero
  ``Fraction`` coefficients.  The zero form is the empty dict.
* Monomial bases are ordered lexicographically on the exponent tuple, and
  every matrix in the package is written against such an ordered basis.
* ``multiples_matrix`` is the one place Macaulay matrices are laid out: the
  integer rows of the monomial multiples x^e * f of forms, used for dim I_t,
  the Lefschetz multiplication maps, the type-B tangent intersection, the
  syzygy kernels on a line and the span of a list of forms.
* ``linear_substitution`` is the one place restrictions are expanded: the
  forms at x = M*y, used for the restriction to a general hyperplane
  (``substitute_variable``) and to a general line (``restrict_to_line``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import add

from .linalg import clear_denominators, exact_rank

Exponent = tuple  # tuple of n+1 non-negative ints


@lru_cache(maxsize=None)
def monomial_basis(n: int, d: int):
    """All exponent vectors of weight d in n+1 variables, lex sorted.

    len(monomial_basis(n, d)) == comb(n + d, d).
    """
    if n < 0 or d < 0:
        raise ValueError("n and d must be non-negative")

    def parts(total, nvars):
        if nvars == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in parts(total - first, nvars - 1):
                yield (first,) + rest

    basis = tuple(sorted(parts(d, n + 1), reverse=True))
    if len(basis) != comb(n + d, d):
        raise ArithmeticError(
            f"{len(basis)} monomials of degree {d}, not comb({n + d}, {d})"
        )
    return basis


def pure_power(n: int, i: int, k: int = 1) -> Exponent:
    """Exponent vector of x_i^k in n+1 variables (k = 1: the variable x_i)."""
    exponent = [0] * (n + 1)
    exponent[i] = k
    return tuple(exponent)


class Form:
    """A homogeneous polynomial with exact rational coefficients.

    Immutable in practice: arithmetic returns new forms, the term dict is
    never mutated after construction, and zero coefficients are dropped so
    equality of forms is equality of term maps (plus matching n and degree;
    zero forms remember their declared degree).
    """

    __slots__ = ("n", "degree", "terms")

    def __init__(self, n: int, degree: int, terms=None):
        if n < 0 or degree < 0:
            raise ValueError("n and degree must be non-negative")
        clean = {}
        for exponent, coeff in (terms or {}).items():
            # Fractions are immutable, so an exact Fraction is kept as is
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if not coeff:
                continue
            exponent = tuple(int(e) for e in exponent)
            if len(exponent) != n + 1 or any(e < 0 for e in exponent):
                raise ValueError(f"bad exponent {exponent} for n={n}")
            if sum(exponent) != degree:
                raise ValueError(
                    f"exponent {exponent} has degree {sum(exponent)}, expected {degree}"
                )
            prev = clean.get(exponent)
            clean[exponent] = coeff if prev is None else prev + coeff
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", {e: c for e, c in clean.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("Form is immutable")

    def __reduce__(self):
        # __setattr__ refuses pickle's slot restore, so unpickling rebuilds
        return (Form, (self.n, self.degree, self.terms))

    @classmethod
    def monomial(cls, exponent, coeff=1) -> "Form":
        exponent = tuple(int(e) for e in exponent)
        return cls(len(exponent) - 1, sum(exponent), {exponent: coeff})

    @classmethod
    def variable(cls, n: int, i: int) -> "Form":
        if not 0 <= i <= n:
            raise IndexError(f"variable index {i} out of range for n={n}")
        return cls(n, 1, {pure_power(n, i): 1})

    @classmethod
    def zero(cls, n: int, degree: int) -> "Form":
        return cls(n, degree, {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_monomial(self) -> bool:
        """Single term with coefficient exactly 1."""
        return len(self.terms) == 1 and next(iter(self.terms.values())) == 1

    def _check_compatible(self, other):
        if self.n != other.n:
            raise ValueError(f"forms in different rings: n={self.n} vs n={other.n}")

    def __add__(self, other: "Form") -> "Form":
        self._check_compatible(other)
        if self.degree != other.degree and not (self.is_zero or other.is_zero):
            raise ValueError("cannot add forms of different degrees")
        degree = other.degree if self.is_zero else self.degree
        terms = dict(self.terms)
        for exponent, coeff in other.terms.items():
            terms[exponent] = terms.get(exponent, Fraction(0)) + coeff
        return Form(self.n, degree, terms)

    def __neg__(self) -> "Form":
        return Form(self.n, self.degree, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Form(
                self.n, self.degree, {e: c * other for e, c in self.terms.items()}
            )
        self._check_compatible(other)
        return Form(
            self.n, self.degree + other.degree, _product(self.terms, other.terms)
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return (
            self.n == other.n
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.degree, frozenset(self.terms.items())))

    def evaluate(self, point):
        """Value at a point with integer or Fraction coordinates."""
        if len(point) != self.n + 1:
            raise ValueError("point has wrong length")
        total = Fraction(0)
        for exponent, coeff in self.terms.items():
            value = coeff
            for base, power in zip(point, exponent):
                if power:
                    value *= Fraction(base) ** power
            total += value
        return total

    def __repr__(self):
        from .parser import format_form

        if self.is_zero:
            return f"Form(n={self.n}, degree={self.degree}, 0)"
        names = [f"x{i}" for i in range(self.n + 1)]
        return f"Form({format_form(self, names)})"


def _product(a: dict, b: dict) -> dict:
    """Product of polynomials held as {exponent: coefficient} dicts.  Terms
    that cancel stay as zeros, which ``Form`` drops."""
    terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(map(add, e1, e2))
            prev = terms.get(key)
            terms[key] = c1 * c2 if prev is None else prev + c1 * c2
    return terms


def linear_substitution(forms, rows):
    """The forms at x_k := sum_j rows[k][j] * y_j, as forms in y_0, ..., y_m.

    ``rows`` holds one row of m+1 entries for each variable of the forms.
    Exact for int and Fraction entries.  Each monomial's image is built once
    per call, as the image of the monomial one degree lower times one row.
    """
    m = len(rows[0]) - 1
    linear = [{pure_power(m, j): c for j, c in enumerate(row) if c} for row in rows]
    images = {(0,) * len(rows): {(0,) * (m + 1): 1}}

    def image(exponent):
        if exponent not in images:
            k = next(k for k, power in enumerate(exponent) if power)
            lower = exponent[:k] + (exponent[k] - 1,) + exponent[k + 1 :]
            images[exponent] = _product(image(lower), linear[k])
        return images[exponent]

    restricted = []
    for form in forms:
        if form.n + 1 != len(rows):
            raise ValueError(f"{form.n + 1} variables but {len(rows)} rows")
        terms = {}
        for exponent, coeff in form.terms.items():
            for key, value in image(exponent).items():
                prev = terms.get(key)
                terms[key] = coeff * value if prev is None else prev + coeff * value
        restricted.append(Form(m, form.degree, terms))
    return restricted


def substitute_variable(forms, i: int, replacement: Form):
    """Substitute x_i := replacement, a linear form not involving x_i.

    The results live in the ring with variable i removed (n drops by one);
    remaining variables keep their relative order.  Substitution is a ring
    map, so it distributes over sums and products.
    """
    n = replacement.n
    if not 0 <= i <= n:
        raise IndexError(f"variable index {i} out of range for n={n}")
    if any(form.n != n for form in forms):
        raise ValueError("replacement lives in a different ring")
    if replacement.degree != 1 and not replacement.is_zero:
        raise ValueError("replacement must be a linear form")
    if any(e[i] for e in replacement.terms):
        raise ValueError(f"replacement must not involve variable {i}")
    coeffs = [replacement.terms.get(pure_power(n, k), 0) for k in range(n + 1)]
    rows = [pure_power(n - 1, k) for k in range(n)]
    rows.insert(i, coeffs[:i] + coeffs[i + 1 :])
    return linear_substitution(forms, rows)


def forms_to_matrix(forms, columns=None):
    """Coefficient matrix of a list of same-degree forms.

    Columns follow ``columns`` if given, else the sorted union of exponents
    appearing in the forms (dropping all-zero columns does not change rank).
    Returns (rows of Fractions, column exponents).
    """
    if not forms:
        return [], tuple(columns or ())
    n, degree = forms[0].n, forms[0].degree
    for f in forms:
        if f.n != n or f.degree != degree:
            raise ValueError("forms must share n and degree")
    if columns is None:
        present = set()
        for f in forms:
            present.update(f.terms)
        columns = tuple(sorted(present, reverse=True))
    rows = [[f.terms.get(e, Fraction(0)) for e in columns] for f in forms]
    return rows, columns


def multiples_matrix(forms, t: int):
    """Integer Macaulay matrix of the multiples x^e * f of same-degree forms.

    One row per form f (form by form) and per e in ``monomial_basis(n, t)``
    (in basis order), over the columns ``monomial_basis(n, t + degree)``.
    Each form's coefficients are cleared to integers once (row scaling keeps
    every rank), and its row for x^e is that vector shifted by e.
    """
    if len({(f.n, f.degree) for f in forms}) > 1:
        raise ValueError("forms must share n and degree")
    rows = []
    for f in forms:
        column = {e: k for k, e in enumerate(monomial_basis(f.n, t + f.degree))}
        terms = list(zip(f.terms, clear_denominators(f.terms.values())))
        for e in monomial_basis(f.n, t):
            row = [0] * len(column)
            for a, c in terms:
                row[column[tuple(x + y for x, y in zip(a, e))]] = c
            rows.append(row)
    return rows


def rank_of_span(forms) -> int:
    """Dimension of the span of a list of same-degree forms.  Exact."""
    return exact_rank(multiples_matrix([f for f in forms if not f.is_zero], 0))
