"""Sums and values of forms, and unimodular coordinate changes, for the
tests; the package itself only multiplies forms and never evaluates them."""

from fractions import Fraction

from lefschetz.algebra import Form, monomial_basis, pure_power, shifted
from lefschetz.linalg import clear_denominators


def variable(n: int, i: int) -> Form:
    """The linear form x_i in n+1 variables."""
    return Form.monomial(pure_power(n, i))


def small_form(n: int, degree: int, rng, bound: int = 9) -> Form:
    """Dense nonzero form with coefficients in [-bound, bound]: small entries
    keep the tests' rational cross-checks quick to compute."""
    while True:
        terms = {e: rng.randint(-bound, bound) for e in monomial_basis(n, degree)}
        form = Form(n, degree, terms)
        if not form.is_zero:
            return form


def form_sum(*forms) -> Form:
    """Sum of forms that share n and degree."""
    shapes = {(f.n, f.degree) for f in forms}
    if len(shapes) != 1:
        raise ValueError(f"cannot add forms of shapes {sorted(shapes)}")
    ((n, degree),) = shapes
    terms = {}
    for f in forms:
        for exponent, coeff in f.terms.items():
            terms[exponent] = terms.get(exponent, 0) + coeff
    return Form(n, degree, terms)


def form_difference(left: Form, right: Form) -> Form:
    return form_sum(left, right * -1)


def evaluate(form: Form, point) -> Fraction:
    """Value of a form at a point with integer or Fraction coordinates."""
    if len(point) != form.n + 1:
        raise ValueError("point has wrong length")
    total = Fraction(0)
    for exponent, coeff in form.terms.items():
        value = coeff
        for base, power in zip(point, exponent):
            if power:
                value *= Fraction(base) ** power
        total += value
    return total


def tangent_rows(n: int, i: int, m: Form, columns: dict):
    """Integer rows of x_k * x_i * m, k = 0..n, kept on ``columns`` only: the
    type-B tangent rows at any linear form m, not only at x_0 + ... + x_n."""
    rows = [[0] * len(columns) for _ in range(n + 1)]
    for e, c in zip(m.terms, clear_denominators(m.terms.values())):
        e = shifted(e, i)
        for k, row in enumerate(rows):
            column = columns.get(shifted(e, k))
            if column is not None:
                row[column] = c
    return rows


def random_unimodular(rng, m):
    """An m x m integer matrix of determinant +-1: a signed permutation
    times three elementary shears."""
    perm = list(range(m))
    rng.shuffle(perm)
    mat = [
        [rng.choice([-1, 1]) if j == perm[i] else 0 for j in range(m)]
        for i in range(m)
    ]
    for _ in range(3):
        i, j = rng.sample(range(m), 2)
        q = rng.choice([-2, -1, 1, 2])
        mat[i] = [a + q * b for a, b in zip(mat[i], mat[j])]
    return mat
