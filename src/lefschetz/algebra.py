"""Exponent vectors and sparse homogeneous forms over Q.

Conventions used throughout the package:

* ``n`` is the projective dimension, so forms live in n+1 variables
  x_0, ..., x_n.
* An exponent vector is a tuple of n+1 non-negative integers; a form of
  degree d is a dict mapping exponent vectors of weight d to nonzero ``int``
  (when integral) or ``Fraction`` coefficients.  The zero form is the empty dict.
* Monomial bases are ordered lexicographically on the exponent tuple, and
  every matrix in the package is written against such an ordered basis.
* ``multiples_matrix`` is the one place Macaulay matrices are laid out: the
  integer rows of the monomial multiples x^e * f of forms, used for dim I_t,
  the Lefschetz multiplication maps, the syzygy kernels on a line and the
  span of a list of forms.  Its cached ``_shift_table`` is the one monomial
  index table; ``wlp`` reads its degree-1 columns for monomial quotient maps.
* ``linear_substitution`` is the one restriction: it expands forms at
  x = M*y in integers, on one memoized expansion of monomial images, for
  the restriction to a hyperplane (``wlp``) and to a line
  (``bundles.restrict_to_line``).
* ``LinearSystem`` is r independent forms of one degree, read both as a
  linear system (Laplace equations) and, as its subclass ``wlp.IdealSpec``,
  as the generators of an ideal I (the WLP).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import add, index

from .linalg import clear_denominators, exact_rank, scale_to_integers

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


def pure_powers(n: int, d: int) -> tuple:
    """Exponent vectors of x_0^d, ..., x_n^d, in that order."""
    return tuple(pure_power(n, i, d) for i in range(n + 1))


def shifted(e: Exponent, i: int, k: int = 1) -> Exponent:
    """Exponent vector of x^e * x_i^k (k = -1: x^e / x_i)."""
    return e[:i] + (e[i] + k,) + e[i + 1 :]


@dataclass(frozen=True, slots=True, repr=False)
class Form:
    """A homogeneous polynomial with exact rational coefficients.

    Immutable: products return new forms, the term dict is never mutated
    after construction, and zero coefficients are dropped so equality of
    forms is equality of term maps (plus matching n and degree; zero forms
    remember their declared degree).
    """

    n: int
    degree: int
    terms: dict = None

    def __post_init__(self):
        if self.n < 0 or self.degree < 0:
            raise ValueError("n and degree must be non-negative")
        clean = {}
        for exponent, coeff in (self.terms or {}).items():
            coeff = _exact(coeff)
            if not coeff:
                continue
            # integer entries come back unchanged, so distinct keys stay distinct
            exponent = tuple(map(index, exponent))
            if len(exponent) != self.n + 1 or any(e < 0 for e in exponent):
                raise ValueError(f"bad exponent {exponent} for n={self.n}")
            if sum(exponent) != self.degree:
                raise ValueError(
                    f"exponent {exponent} has degree {sum(exponent)}, expected {self.degree}"
                )
            clean[exponent] = coeff
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of_clean_terms(cls, n: int, degree: int, terms: dict) -> "Form":
        """A form on terms already clean (nonzero ``_exact`` coefficients on
        exponents of degree ``degree`` in n+1 variables), built without the
        per-term pass of ``__post_init__``: no dataclass ``__init__`` runs."""
        form = object.__new__(cls)
        object.__setattr__(form, "n", n)
        object.__setattr__(form, "degree", degree)
        object.__setattr__(form, "terms", terms)
        return form

    @classmethod
    def monomial(cls, exponent, coeff=1) -> "Form":
        """coeff * x^exponent."""
        exponent = tuple(map(index, exponent))
        if not exponent or min(exponent) < 0:
            raise ValueError(f"bad exponent {exponent}")
        coeff = _exact(coeff)
        return cls._of_clean_terms(
            len(exponent) - 1, sum(exponent), {exponent: coeff} if coeff else {}
        )

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_monomial(self) -> bool:
        """Single term with coefficient exactly 1."""
        return len(self.terms) == 1 and next(iter(self.terms.values())) == 1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Form(
                self.n, self.degree, {e: c * other for e, c in self.terms.items()}
            )
        if self.n != other.n:
            raise ValueError(f"forms in different rings: n={self.n} vs n={other.n}")
        return Form(
            self.n, self.degree + other.degree, _product(self.terms, other.terms)
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.degree, frozenset(self.terms.items())))

    def __repr__(self):
        from .parser import default_names, format_form

        if self.is_zero:
            return f"Form(n={self.n}, degree={self.degree}, 0)"
        return f"Form({format_form(self, default_names(self.n))})"


def _exact(c):
    """A coefficient read exactly: an ``int`` when integral, else a ``Fraction``."""
    c = c if type(c) is int or type(c) is Fraction else Fraction(c)
    return c if type(c) is int or c.denominator != 1 else c.numerator


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


def _monomial_images(rows):
    """Images of monomials under the integer substitution x_k := sum_j
    rows[k][j] * y_j, as {y-exponent: int} dicts.  Each image is built once,
    as the image of the monomial one degree lower times one row."""
    m = len(rows[0]) - 1
    linear = [{pure_power(m, j): c for j, c in enumerate(row) if c} for row in rows]
    images = {(0,) * len(rows): {(0,) * (m + 1): 1}}

    def image(exponent):
        if exponent not in images:
            k = next(k for k, power in enumerate(exponent) if power)
            images[exponent] = _product(image(shifted(exponent, k, -1)), linear[k])
        return images[exponent]

    return image


def linear_substitution(forms, rows):
    """The forms at x_k := sum_j rows[k][j] * y_j, as forms in y_0, ..., y_m.

    ``rows`` holds one row of m+1 int or Fraction entries for each variable
    of the forms.  The work runs in integers: the rows are cleared by one
    common denominator D, so a degree-d monomial's image is D^d times its
    true image, and each form is cleared by its own denominator; one
    ``Fraction`` per output term divides both back out when they are not 1.
    """
    m = len(rows[0]) - 1
    flat, scale = scale_to_integers([c for row in rows for c in row])
    image = _monomial_images(
        [flat[k : k + m + 1] for k in range(0, len(flat), m + 1)]
    )
    restricted = []
    for form in forms:
        if form.n + 1 != len(rows):
            raise ValueError(f"{form.n + 1} variables but {len(rows)} rows")
        coeffs, den = scale_to_integers(form.terms.values())
        terms = {}
        for exponent, coeff in zip(form.terms, coeffs):
            for key, value in image(exponent).items():
                terms[key] = terms.get(key, 0) + coeff * value
        den *= scale**form.degree
        terms = {
            e: v if den == 1 else _exact(Fraction(v, den)) for e, v in terms.items() if v
        }
        restricted.append(Form._of_clean_terms(m, form.degree, terms))
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
    Returns (rows of int and Fraction coefficients, column exponents).
    """
    if not forms:
        return [], tuple(columns or ())
    _check_same_shape(forms)
    if columns is None:
        present = set()
        for f in forms:
            present.update(f.terms)
        columns = tuple(sorted(present, reverse=True))
    rows = [[f.terms.get(e, 0) for e in columns] for f in forms]
    return rows, columns


def _check_same_shape(forms):
    if len({(f.n, f.degree) for f in forms}) > 1:
        raise ValueError("forms must share n and degree")


@lru_cache(maxsize=None)
def _shift_table(n: int, t: int, degree: int) -> dict:
    """For each exponent a of the given degree, in basis order, an
    ``array('i')`` of the columns of x^(a+e) in ``monomial_basis(n, t + degree)``
    for every e in ``monomial_basis(n, t)``.  At degree 1 the keys come in
    the order x_0, ..., x_n, so entry k under x_i is the index of x^e * x_i,
    x^e the k-th monomial of degree t: the package's one monomial index table."""
    column = {e: k for k, e in enumerate(monomial_basis(n, t + degree))}
    shifts = monomial_basis(n, t)
    return {
        a: array("i", [column[tuple(map(add, a, e))] for e in shifts])
        for a in monomial_basis(n, degree)
    }


def multiples_matrix(forms, t: int):
    """Integer Macaulay matrix of the multiples x^e * f of same-degree forms.

    One row per form f (form by form) and per e in ``monomial_basis(n, t)``
    (in basis order), over the columns ``monomial_basis(n, t + degree)``.
    Each form's coefficients are cleared to integers once (row scaling keeps
    every rank), and each term fills its column of every row of the form's
    block from the cached shift table.
    """
    _check_same_shape(forms)
    rows = []
    for f in forms:
        width = comb(f.n + t + f.degree, f.n)
        block = [[0] * width for _ in range(comb(f.n + t, f.n))]
        shifts = _shift_table(f.n, t, f.degree)
        for a, c in zip(f.terms, clear_denominators(f.terms.values())):
            for row, k in zip(block, shifts[a]):
                row[k] = c
        rows += block
    return rows


def rank_of_span(forms) -> int:
    """Dimension of the span of a list of same-degree forms.  Exact.

    When every nonzero form has one term the rank is the number of distinct
    exponents; otherwise it is the rank of the forms' coefficient rows.
    """
    forms = [f for f in forms if not f.is_zero]
    if all(len(f.terms) == 1 for f in forms):
        _check_same_shape(forms)
        return len({e for f in forms for e in f.terms})
    return exact_rank(multiples_matrix(forms, 0))


@dataclass(frozen=True)
class LinearSystem:
    """r independent nonzero forms of one degree d >= 1 in n+1 >= 1
    variables, checked once here.  They define P^n -> P^(r-1) and generate
    the ideal of ``wlp.IdealSpec``.  ``is_monomial``: every member a single
    monomial with coefficient 1."""

    n: int
    d: int
    members: tuple
    is_monomial: bool = field(init=False)

    def __post_init__(self):
        members = tuple(self.members)
        if self.n < 0 or self.d < 1:
            raise ValueError("need n >= 0 and d >= 1")
        for f in members:
            if not isinstance(f, Form):
                raise TypeError("generators must be Forms")
            if f.n != self.n or f.degree != self.d:
                raise ValueError("generators must be forms of degree d in n+1 variables")
            if f.is_zero:
                raise ValueError("zero generator")
        if rank_of_span(members) != len(members):
            raise ValueError("generators are not linearly independent")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "is_monomial", all(f.is_monomial for f in members))

    @classmethod
    def from_apolar(cls, system) -> "LinearSystem":
        """``system``: ``apolar_complement`` returns a LinearSystem already."""
        return system

    @classmethod
    def from_monomials(cls, n: int, d: int, exponents):
        return cls(n, d, tuple(Form.monomial(e) for e in exponents))

    @property
    def projective_target(self) -> int:
        return len(self.members) - 1

    def exponents(self) -> tuple:
        """The members' exponent vectors, sorted; monomial systems only."""
        if not self.is_monomial:
            raise ValueError("system is not monomial")
        return tuple(sorted(next(iter(f.terms)) for f in self.members))
