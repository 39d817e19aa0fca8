"""Forms, monomial bases, substitution and coefficient matrices."""

from fractions import Fraction
from math import comb

import pytest

from lefschetz.algebra import (
    Form,
    forms_to_matrix,
    linear_substitution,
    monomial_basis,
    multiples_matrix,
    pure_power,
    rank_of_span,
    substitute_variable,
)
from lefschetz.bundles import restrict_to_line
from lefschetz.linalg import clear_denominators, exact_rank, rational_rank
from lefschetz.parser import format_form, parse_polynomial
from lefschetz.sampling import random_form, random_linear_form, rng_for

from form_helpers import evaluate, form_difference, form_sum, small_form, variable


def test_monomial_basis_counts_and_order():
    assert monomial_basis(2, 0) == ((0, 0, 0),)
    assert monomial_basis(1, 3) == ((3, 0), (2, 1), (1, 2), (0, 3))
    for n in range(4):
        for d in range(6):
            basis = monomial_basis(n, d)
            assert len(basis) == comb(n + d, d)
            assert len(set(basis)) == len(basis)
            assert all(sum(e) == d and len(e) == n + 1 for e in basis)
            assert list(basis) == sorted(basis, reverse=True)


def test_form_construction_and_cleaning():
    f = Form(2, 2, {(1, 1, 0): 1, (0, 0, 2): 0})
    assert f.terms == {(1, 1, 0): 1}
    assert not f.is_zero
    assert Form(2, 5).is_zero
    assert Form(2, 5).degree == 5
    with pytest.raises(ValueError):
        Form(2, 2, {(1, 1, 1): 1})
    with pytest.raises(ValueError):
        Form(2, 2, {(1, 1): 1})
    with pytest.raises(AttributeError):
        variable(2, 0).n = 3


def test_form_arithmetic():
    x = variable(2, 0)
    y = variable(2, 1)
    z = variable(2, 2)
    f = form_sum(x, y) * form_difference(x, y)
    assert f == form_difference(x * x, y * y)
    assert (x * y * z).terms == {(1, 1, 1): 1}
    assert (2 * x).terms.get((1, 0, 0), 0) == 2
    assert (x * Fraction(1, 3)).terms.get((1, 0, 0), 0) == Fraction(1, 3)
    # forms are only multiplied: sums are built from terms
    with pytest.raises(TypeError):
        x + y


def test_form_monomial_checks_its_exponent():
    for exponent, coeff in (((2, 0, 1), Fraction(3, 4)), ((0, 4), -2), ((1,), 1)):
        built = Form(len(exponent) - 1, sum(exponent), {exponent: coeff})
        assert Form.monomial(exponent, coeff) == built
    for bad in ((1, -1, 2), ()):
        with pytest.raises(ValueError):
            Form.monomial(bad)
    # a non-integer entry is refused, not truncated
    with pytest.raises(TypeError):
        Form.monomial((1.5, 0.5))
    with pytest.raises(TypeError):
        Form(1, 2, {(1.5, 0.5): 1})


def test_form_monomial_flag():
    assert Form.monomial((2, 1, 0)).is_monomial
    assert not (2 * Form.monomial((2, 1, 0))).is_monomial
    assert not form_sum(variable(2, 0), variable(2, 1)).is_monomial


def test_evaluate():
    f = Form(2, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): -3})
    assert evaluate(f, (1, 1, 1)) == 0
    assert evaluate(f, (1, 2, 3)) == 1 + 8 + 27 - 18


def test_substitution_is_a_ring_map():
    rng = rng_for(0, "algebra-subst")
    for trial in range(30):
        n = rng.choice([2, 3])
        f = small_form(n, 2, rng)
        g = small_form(n, 2, rng)
        i = rng.randrange(n + 1)
        # replacement must avoid x_i
        replacement = Form(
            n,
            1,
            {
                tuple(1 if k == j else 0 for k in range(n + 1)): rng.randrange(-9, 10)
                for j in range(n + 1)
                if j != i
            },
        )
        sub_f, sub_g, sub_product, sub_sum = substitute_variable(
            [f, g, f * g, form_sum(f, g)], i, replacement
        )
        assert sub_product == sub_f * sub_g
        assert sub_sum == form_sum(sub_f, sub_g)


def test_substitution_drops_the_variable():
    f = Form(2, 2, {(2, 0, 0): 1, (1, 1, 0): 2, (0, 0, 2): 5})
    # x_0 := x_1 + x_2 (as a form in the original ring, then reduced)
    replacement = Form(2, 1, {(0, 1, 0): 1, (0, 0, 1): 1})
    (g,) = substitute_variable([f], 0, replacement)
    assert g.n == 1
    # (y+z)^2 + 2(y+z)y + 5z^2 = 3y^2 + 4yz + 6z^2
    assert g.terms == {(2, 0): 3, (1, 1): 4, (0, 2): 6}
    with pytest.raises(ValueError):
        substitute_variable([f], 0, variable(2, 0))


def test_rank_of_span_invariances():
    rng = rng_for(0, "algebra-rank")
    for trial in range(20):
        n = 2
        d = rng.choice([2, 3])
        forms = [small_form(n, d, rng) for _ in range(rng.randrange(1, 6))]
        base = rank_of_span(forms)
        assert rank_of_span(forms + [Form(n, d)]) == base
        assert rank_of_span(forms + [forms[0] * 3]) == base
        assert rank_of_span(forms + [form_sum(forms[0], forms[-1])]) == base
        scaled = [f * Fraction(rng.randrange(1, 5), rng.randrange(1, 5)) for f in forms]
        assert rank_of_span(scaled) == base
        # multiplying every form by one linear form preserves independence
        ell = random_linear_form(n, rng)
        assert rank_of_span([f * ell for f in forms]) == base


def test_forms_to_matrix_columns():
    x = variable(1, 0)
    y = variable(1, 1)
    rows, cols = forms_to_matrix([x * x, x * y])
    assert cols == ((2, 0), (1, 1))
    assert rows == [[1, 0], [0, 1]]
    rows2, cols2 = forms_to_matrix([x * y], columns=monomial_basis(1, 2))
    assert cols2 == ((2, 0), (1, 1), (0, 2))
    assert rows2 == [[0, 1, 0]]


def _fraction_linear_form(n, rng):
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
    form = Form(n, 1, dict(zip(monomial_basis(n, 1), coeffs)))
    return form if not form.is_zero else variable(n, 0)


@pytest.mark.parametrize("t", [0, 1, 2])
def test_multiples_matrix_matches_form_products(t):
    # an independent route: Form products, Fraction rows, Gauss-Jordan rank
    rng = rng_for(0, "multiples-matrix", t)
    deficient = 0
    for trial in range(12):
        n = rng.choice([1, 2, 3])
        # cubics q*l1, q*l2 sharing a quadric q are dependent in degree t >= 1:
        # l2 * (q*l1) = l1 * (q*l2)
        quadric = _fraction_linear_form(n, rng) * _fraction_linear_form(n, rng)
        count = rng.randrange(1, 4)
        forms = [quadric * _fraction_linear_form(n, rng) for _ in range(count)]
        forms.append(small_form(n, 3, rng) * Fraction(1, rng.randint(1, 9)))
        rows = multiples_matrix(forms, t)
        assert len(rows) == len(forms) * len(monomial_basis(n, t))
        assert all(len(row) == len(monomial_basis(n, t + 3)) for row in rows)
        assert all(type(x) is int for row in rows for x in row)
        products = [Form.monomial(e) * f for f in forms for e in monomial_basis(n, t)]
        expected, _ = forms_to_matrix(products, columns=monomial_basis(n, t + 3))
        rank = exact_rank(rows)
        assert rank == rational_rank(expected)
        deficient += rank < min(len(rows), len(rows[0]))
        if t == 0:
            assert rank == rank_of_span(forms)
    if t > 0:
        assert deficient > 0


def test_multiples_matrix_rejects_mixed_forms():
    x = variable(2, 0)
    with pytest.raises(ValueError):
        multiples_matrix([x, x * x], 1)
    with pytest.raises(ValueError):
        multiples_matrix([x, variable(1, 0)], 0)
    assert multiples_matrix([], 2) == []


def exact_types(form):
    """Every coefficient is an int when integral and a Fraction otherwise."""
    return all(
        type(c) is (int if Fraction(c).denominator == 1 else Fraction)
        for c in form.terms.values()
    )


def test_form_coefficients_are_int_when_integral():
    e, f = (2, 1, 0), (0, 1, 2)
    three = Form(2, 3, {e: Fraction(6, 2)})
    assert type(three.terms[e]) is int
    assert three == Form(2, 3, {e: 3}) and hash(three) == hash(Form(2, 3, {e: 3}))
    # a bool and a float are read exactly
    mixed = Form(2, 3, {e: Fraction(1, 2), (1, 2, 0): True, f: 0.25})
    assert mixed.terms == {e: Fraction(1, 2), (1, 2, 0): 1, f: Fraction(1, 4)}
    assert exact_types(mixed)
    tripled = Form(2, 3, {e: Fraction(1, 3)}) * 3
    assert tripled.terms == {e: 1} and exact_types(tripled)
    for coeff, kind in ((Fraction(4, 2), int), (Fraction(1, 2), Fraction), (5, int)):
        assert type(Form.monomial(e, coeff).terms[e]) is kind
    assert Form.monomial(e, Fraction(0)).is_zero
    rng = rng_for(0, "algebra", "exact-types")
    for _ in range(20):
        n, d = rng.randint(0, 3), rng.randint(0, 3)
        scale = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        f1 = small_form(n, d, rng, bound=5) * scale
        f2 = small_form(n, d, rng, bound=5) * Fraction(2, rng.randint(1, 2))
        product = f1 * f2
        assert exact_types(f1) and exact_types(f2) and exact_types(product)
        assert exact_types(random_linear_form(n, rng))
        assert all(type(c) is int for c in random_form(n, d, rng).terms.values())
        names = [f"x{i}" for i in range(n + 1)]
        parsed = parse_polynomial(format_form(product, names), names, product.degree)
        assert parsed == product and exact_types(parsed)
        rows = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)]
            for _ in range(n + 1)
        ]
        assert all(exact_types(g) for g in linear_substitution([f1, product], rows))
    assert exact_types(parse_polynomial("2/2*x^2 - 3/6*x*y + 4*y^2", ["x", "y"]))


def _image_point(rows, y):
    return [sum(Fraction(c) * v for c, v in zip(row, y)) for row in rows]


def _integer_points(m, rng, count=4):
    return [[rng.randint(-5, 5) for _ in range(m + 1)] for _ in range(count)]


# evaluate is separate code from the substitution routine, so each check
# below is g(y) == f(M*y) at a few integer points y.
def test_linear_substitution_matches_evaluation():
    rng = rng_for(0, "linear-substitution")
    for trial in range(40):
        n = rng.randint(0, 3)
        m = rng.randint(0, 3)
        d = rng.randint(0, 4)
        forms = [small_form(n, d, rng) * Fraction(1, rng.randint(1, 5))]
        forms.append(Form(n, d))
        if trial % 2:
            rows = [[rng.randint(-4, 4) for _ in range(m + 1)] for _ in range(n + 1)]
        else:
            rows = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(m + 1)]
                for _ in range(n + 1)
            ]
        restricted = linear_substitution(forms, rows)
        assert [(g.n, g.degree) for g in restricted] == [(m, d), (m, d)]
        assert restricted[1].is_zero
        for y in _integer_points(m, rng):
            image = _image_point(rows, y)
            assert evaluate(restricted[0], y) == evaluate(forms[0], image)
    with pytest.raises(ValueError):
        linear_substitution([variable(2, 0)], [[1, 0], [0, 1]])


@pytest.mark.parametrize("kind", ["int", "Fraction", "float"])
def test_restrict_to_line_matches_evaluation(kind):
    convert = {
        "int": int,
        "Fraction": lambda c: Fraction(c, 3),
        "float": lambda c: c / 10,  # float arithmetic on these would round
    }[kind]
    rng = rng_for(0, "restrict-to-line", kind)
    for trial in range(20):
        n = rng.randint(1, 3)
        d = rng.randint(1, 4)
        forms = [small_form(n, d, rng) for _ in range(2)] + [Form(n, d)]
        while True:
            p = [convert(rng.randint(-6, 6)) for _ in range(n + 1)]
            q = [convert(rng.randint(-6, 6)) for _ in range(n + 1)]
            try:
                restricted = restrict_to_line(forms, p, q)
            except ValueError:  # coincident points: draw again
                continue
            break
        assert all((g.n, g.degree) == (1, d) for g in restricted)
        assert restricted[2].is_zero
        rows = list(zip(p, q))
        for y in _integer_points(1, rng):
            for f, g in zip(forms, restricted):
                assert evaluate(g, y) == evaluate(f, _image_point(rows, y))


def test_substitute_variable_matches_evaluation():
    rng = rng_for(0, "substitute-variable")
    for trial in range(30):
        n = rng.randint(1, 3)
        d = rng.randint(1, 4)
        i = rng.randint(0, n)
        forms = [small_form(n, d, rng) for _ in range(2)] + [Form(n, d)]
        replacement = Form(
            n,
            1,
            {
                pure_power(n, j): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for j in range(n + 1)
                if j != i
            },
        )
        restricted = substitute_variable(forms, i, replacement)
        assert all((g.n, g.degree) == (n - 1, d) for g in restricted)
        assert restricted[2].is_zero
        for y in _integer_points(n - 1, rng):
            x = list(y[:i]) + [evaluate(replacement, y[:i] + [0] + y[i:])] + list(y[i:])
            for f, g in zip(forms, restricted):
                assert evaluate(g, y) == evaluate(f, x)


def test_rank_of_span_counts_single_term_forms():
    x0_squared = Form.monomial((2, 0, 0))
    y_squared = Form.monomial((0, 2, 0))
    assert rank_of_span([x0_squared * 2, x0_squared * -3, y_squared]) == 2
    assert rank_of_span([]) == 0
    assert rank_of_span([Form(2, 2), Form(2, 2)]) == 0
    assert rank_of_span([x0_squared * Fraction(1, 3), Form(2, 2), x0_squared]) == 1
    with pytest.raises(ValueError):
        rank_of_span([x0_squared, Form.monomial((1, 0, 0))])
    # against the coefficient-matrix rank, with one-term and many-term mixes
    rng = rng_for(0, "rank-of-span-terms")
    mixed = 0
    for trial in range(80):
        n, d = rng.randint(0, 3), rng.randint(0, 3)
        basis = monomial_basis(n, d)
        forms = []
        for _ in range(rng.randint(0, 8)):
            kind = rng.random()
            if kind < 0.15:
                forms.append(Form(n, d))
            elif kind < 0.85 or trial % 2 == 0:
                coeff = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
                forms.append(Form.monomial(rng.choice(basis), coeff))
            else:
                forms.append(small_form(n, d, rng, bound=3))
        nonzero = [f for f in forms if not f.is_zero]
        mixed += any(len(f.terms) > 1 for f in nonzero)
        assert rank_of_span(forms) == exact_rank(multiples_matrix(nonzero, 0))
    assert mixed > 0


def _cell_by_cell_multiples(forms, t):
    """The Macaulay builder the shift tables replaced: one tuple sum per cell."""
    rows = []
    for f in forms:
        column = {e: k for k, e in enumerate(monomial_basis(f.n, t + f.degree))}
        coeffs = clear_denominators(list(f.terms.values()))
        for e in monomial_basis(f.n, t):
            row = [0] * len(column)
            for a, c in zip(f.terms, coeffs):
                row[column[tuple(x + y for x, y in zip(a, e))]] = c
            rows.append(row)
    return rows


def test_multiples_matrix_matches_the_cell_by_cell_builder():
    rng = rng_for(0, "multiples-matrix-cells")
    for trial in range(40):
        n, d, t = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        forms = [
            small_form(n, d, rng) * Fraction(1, rng.randint(1, 6))
            for _ in range(rng.randint(0, 3))
        ]
        if trial % 5 == 0:
            forms.append(Form(n, d))
        assert multiples_matrix(forms, t) == _cell_by_cell_multiples(forms, t)


def _fraction_substitution(forms, rows):
    """The Fraction route linear_substitution replaced: each monomial's image
    multiplied out one variable at a time, every product a Fraction."""
    m = len(rows[0]) - 1
    linear = [
        {pure_power(m, j): Fraction(c) for j, c in enumerate(row) if c} for row in rows
    ]
    restricted = []
    for form in forms:
        terms = {}
        for exponent, coeff in form.terms.items():
            image = {(0,) * (m + 1): coeff}
            for k, power in enumerate(exponent):
                for _ in range(power):
                    product = {}
                    for e1, c1 in image.items():
                        for e2, c2 in linear[k].items():
                            key = tuple(x + y for x, y in zip(e1, e2))
                            product[key] = product.get(key, 0) + c1 * c2
                    image = product
            for key, value in image.items():
                terms[key] = terms.get(key, 0) + value
        restricted.append(Form(m, form.degree, terms))
    return restricted


def test_linear_substitution_matches_the_fraction_route():
    rng = rng_for(0, "linear-substitution-fractions")
    for trial in range(40):
        n, m, d = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 4)
        scales = [Fraction(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(2)]
        forms = [small_form(n, d, rng) * c for c in scales] + [Form(n, d)]
        if trial % 2:
            rows = [[rng.randint(-4, 4) for _ in range(m + 1)] for _ in range(n + 1)]
        else:
            rows = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(m + 1)]
                for _ in range(n + 1)
            ]
        restricted = linear_substitution(forms, rows)
        assert restricted == _fraction_substitution(forms, rows)
        assert all(exact_types(g) for g in restricted)
