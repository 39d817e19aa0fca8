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
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

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
    assert len(basis) == comb(n + d, d)
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

    def coefficient(self, exponent) -> Fraction:
        return self.terms.get(tuple(exponent), Fraction(0))

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
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                prev = terms.get(key)
                terms[key] = c1 * c2 if prev is None else prev + c1 * c2
        return Form(self.n, self.degree + other.degree, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, k: int) -> "Form":
        if k < 0:
            raise ValueError("negative power")
        result = Form(self.n, 0, {tuple(0 for _ in range(self.n + 1)): 1})
        for _ in range(k):
            result = result * self
        return result

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


def substitute_variable(form: Form, i: int, replacement: Form) -> Form:
    """Substitute x_i := replacement, a linear form not involving x_i.

    The result lives in the ring with variable i removed (n drops by one);
    remaining variables keep their relative order.  Substitution is a ring
    map, so it distributes over sums and products.
    """
    if not 0 <= i <= form.n:
        raise IndexError(f"variable index {i} out of range for n={form.n}")
    if replacement.n != form.n:
        raise ValueError("replacement lives in a different ring")
    if replacement.degree != 1 and not replacement.is_zero:
        raise ValueError("replacement must be a linear form")
    if any(e[i] for e in replacement.terms):
        raise ValueError(f"replacement must not involve variable {i}")
    reduced = Form(
        form.n - 1,
        1,
        {e[:i] + e[i + 1 :]: c for e, c in replacement.terms.items()},
    ) if not replacement.is_zero else Form.zero(form.n - 1, 1)
    max_power = max((e[i] for e in form.terms), default=0)
    powers = [Form(form.n - 1, 0, {tuple(0 for _ in range(form.n)): 1})]
    for _ in range(max_power):
        powers.append(powers[-1] * reduced)
    result = Form.zero(form.n - 1, form.degree)
    for exponent, coeff in form.terms.items():
        rest = exponent[:i] + exponent[i + 1 :]
        result = result + powers[exponent[i]] * Form(
            form.n - 1, form.degree - exponent[i], {rest: coeff}
        )
    return result


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
    return list(multiples_rows(forms, t))


def multiples_rows(forms, t: int):
    """The rows of ``multiples_matrix(forms, t)``, one at a time, so that a
    caller keeping only part of each row never holds the whole matrix."""
    if len({(f.n, f.degree) for f in forms}) > 1:
        raise ValueError("forms must share n and degree")
    for f in forms:
        column = {e: k for k, e in enumerate(monomial_basis(f.n, t + f.degree))}
        terms = list(zip(f.terms, clear_denominators(f.terms.values())))
        for e in monomial_basis(f.n, t):
            row = [0] * len(column)
            for a, c in terms:
                row[column[tuple(x + y for x, y in zip(a, e))]] = c
            yield row


def rank_of_span(forms) -> int:
    """Dimension of the span of a list of same-degree forms.  Exact."""
    return exact_rank(multiples_matrix([f for f in forms if not f.is_zero], 0))
