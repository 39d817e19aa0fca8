"""Contraction action and the inverse-system side of the hyperplane criterion."""

from fractions import Fraction
from math import perm

import pytest

from lefschetz.apolarity import apolar_complement, dual_map_rank
from lefschetz.algebra import (
    Form,
    linear_substitution,
    monomial_basis,
    pure_power,
    rank_of_span,
)
from lefschetz.sampling import random_linear_form, rng_for
from lefschetz.wlp import (
    IdealSpec,
    certified_lefschetz_report,
    h_vector,
    is_artinian,
    multiplication_rank,
)

from form_helpers import form_sum, small_form


def contract(operator, target):
    """Apply operator(d/dy) to target, term by term, with factorial
    coefficients: the reference route ``dual_map_rank`` is checked against."""
    if operator.n != target.n:
        raise ValueError("operator and target live in different rings")
    if operator.degree > target.degree:
        raise ValueError(
            f"operator degree {operator.degree} exceeds target degree {target.degree}"
        )
    result_terms = {}
    for beta, cu in operator.terms.items():
        for alpha, cf in target.terms.items():
            if any(a < b for a, b in zip(alpha, beta)):
                continue
            scale = 1
            for a, b in zip(alpha, beta):
                if b:
                    scale *= perm(a, b)
            key = tuple(a - b for a, b in zip(alpha, beta))
            result_terms[key] = result_terms.get(key, 0) + cu * cf * scale
    return Form(target.n, target.degree - operator.degree, result_terms)


def term_dict(form):
    return {e: c for e, c in form.terms.items() if c}


def test_contract_single_steps():
    xyz = Form.monomial((1, 1, 1))
    x = Form.monomial((1, 0, 0))
    assert term_dict(contract(x, xyz)) == {(0, 1, 1): 1}
    assert term_dict(contract(Form.monomial((1, 1, 1)), xyz)) == {(0, 0, 0): 1}
    assert contract(Form.monomial((2, 0, 0)), xyz).is_zero


def test_contract_falling_factorials():
    x3 = Form.monomial((3, 0, 0))
    x = Form.monomial((1, 0, 0))
    assert term_dict(contract(x, x3)) == {(2, 0, 0): 3}
    assert term_dict(contract(Form.monomial((3, 0, 0)), x3)) == {(0, 0, 0): 6}
    assert contract(Form.monomial((0, 1, 0)), x3).is_zero


def test_contract_is_bilinear():
    op = form_sum(Form.monomial((1, 0, 0), 2), Form.monomial((0, 1, 0)))
    tgt = Form.monomial((2, 1, 0))
    assert term_dict(contract(op, tgt)) == {
        (1, 1, 0): Fraction(4),
        (2, 0, 0): Fraction(1),
    }


def test_contract_composes():
    rng = rng_for(0, "apolarity", "compose")
    f = form_sum(
        *(Form.monomial(e, rng.randrange(-5, 6)) for e in monomial_basis(2, 4))
    )
    a = Form.monomial((1, 0, 0))
    b = Form.monomial((0, 1, 1))
    ab = Form.monomial((1, 1, 1))
    lhs = contract(a, contract(b, f))
    rhs = contract(ab, f)
    assert term_dict(lhs) == term_dict(rhs)


def test_apolar_complement_is_hexagon(togliatti_cubic):
    ap = apolar_complement(togliatti_cubic)
    assert len(ap.members) == 6
    assert ap.is_monomial
    assert sorted(ap.exponents()) == [
        (0, 1, 2),
        (0, 2, 1),
        (1, 0, 2),
        (1, 2, 0),
        (2, 0, 1),
        (2, 1, 0),
    ]


def test_apolar_complement_dimension_is_h_vector_entry(control_cubic):
    ap = apolar_complement(control_cubic)
    assert len(ap.members) == h_vector(control_cubic)[3] == 6


def test_apolar_complement_counts_codimension():
    # complement dimension in degree d is C(d+n, n) minus the generator count
    spec = IdealSpec.from_monomials(2, 3, [(3, 0, 0), (0, 3, 0)])
    assert len(apolar_complement(spec).members) == 10 - 2


@pytest.mark.parametrize("trial", range(4))
def test_dual_map_rank_matches_multiplication(togliatti_cubic, control_cubic, trial):
    # the contraction map on the inverse system is adjoint to multiplication,
    # so for any linear form the two ranks in degree d-1 agree
    rng = rng_for(0, "apolarity", "dual", trial)
    for spec in (togliatti_cubic, control_cubic):
        form = random_linear_form(spec.n, rng)
        rep = certified_lefschetz_report(
            spec, spec.d - 1, seed=0, trials=1, force_generic=True
        )
        assert dual_map_rank(spec, form) == rep.rank


def test_dual_map_rank_detects_togliatti_drop(togliatti_cubic):
    from lefschetz.wlp import _sum_of_variables

    assert dual_map_rank(togliatti_cubic, _sum_of_variables(2)) == 5


def _contraction_rank(spec, linear):
    return rank_of_span([contract(linear, f) for f in apolar_complement(spec).members])


def _duality_cases():
    """Seeded monomial and general ideals for n = 1..3, plus ideals whose
    generators have Fraction coefficients."""
    rng = rng_for(0, "apolarity", "integer-dual-map")
    cases = []
    for n in (1, 2, 3):
        for d in (2, 3):
            basis = monomial_basis(n, d)
            pure = [pure_power(n, i, d) for i in range(n + 1)]
            mixed = [e for e in basis if e not in pure]
            for _ in range(3):
                extra = rng.sample(mixed, rng.randint(0, min(3, len(mixed))))
                cases.append(IdealSpec.from_monomials(n, d, pure + extra))
            general = 0
            while general < 2:
                try:
                    spec = IdealSpec(
                        n, d, [small_form(n, d, rng) for _ in range(n + 2)]
                    )
                except ValueError:
                    continue  # dependent draw
                if is_artinian(spec):
                    cases.append(spec)
                    general += 1
    xyz = Form(2, 3, {(1, 1, 1): 1, (3, 0, 0): Fraction(1, 2)})
    cases.append(
        IdealSpec(2, 3, [Form.monomial(pure_power(2, i, 3)) for i in range(3)] + [xyz])
    )
    thirds = [
        Form(2, 3, {(3, 0, 0): Fraction(2, 3), (0, 2, 1): -1}),
        Form(2, 3, {(0, 3, 0): 1, (1, 0, 2): Fraction(5, 7)}),
        Form(2, 3, {(0, 0, 3): 1, (2, 1, 0): Fraction(-1, 4)}),
        Form(
            2, 3, {(1, 1, 1): 1, (0, 1, 2): Fraction(3, 2), (3, 0, 0): Fraction(-1, 5)}
        ),
    ]
    cases.append(IdealSpec(2, 3, thirds))
    return cases


def _special_cases():
    """Ideals and forms whose rank drop hangs on the exact coefficients: the
    factor (x - 2y)/2 of x^2 - 4y^2, given with Fraction coefficients, and
    the Togliatti cubic (x^3, y^3, z^3, xyz) in changed coordinates, where
    every L drops rank on generators that are not monomials."""
    square = Form(1, 2, {(2, 0): 1, (0, 2): -4})
    yield IdealSpec(1, 2, [square]), Form(1, 1, {(1, 0): Fraction(1, 2), (0, 1): -1})
    cubes = [Form.monomial(e) for e in ((3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1))]
    change = [[1, 1, 0], [0, 1, 2], [1, 0, 1]]  # determinant 3
    togliatti = IdealSpec(2, 3, linear_substitution(cubes, change))
    rng = rng_for(0, "apolarity", "integer-dual-map", "special")
    yield togliatti, random_linear_form(2, rng)
    yield togliatti, Form(2, 1, {(1, 0, 0): Fraction(1, 3), (0, 0, 1): Fraction(-5, 2)})


def test_dual_map_rank_matches_the_contraction_route():
    rng = rng_for(0, "apolarity", "integer-dual-map", "forms")
    cases = _duality_cases()
    assert {spec.n for spec in cases} == {1, 2, 3}
    assert {spec.is_monomial for spec in cases} == {True, False}
    verdicts = set()
    for spec in cases:
        variables = monomial_basis(spec.n, 1)
        fractional = {
            e: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for e in variables
        }
        for linear in (
            random_linear_form(spec.n, rng),
            Form(spec.n, 1, dict.fromkeys(variables, 1)),
            Form(spec.n, 1, fractional),
        ):
            if linear.is_zero:
                continue
            rank = dual_map_rank(spec, linear)
            assert rank == _contraction_rank(spec, linear)
            target = len(monomial_basis(spec.n, spec.d - 1))
            verdicts.add(rank == min(len(apolar_complement(spec).members), target))
    assert verdicts == {True, False}
    for spec, linear in _special_cases():
        assert not spec.is_monomial
        rank = dual_map_rank(spec, linear)
        assert rank == _contraction_rank(spec, linear)
        assert rank == multiplication_rank(spec, linear, spec.d - 1).rank
        target = len(monomial_basis(spec.n, spec.d - 1))
        assert rank < min(len(apolar_complement(spec).members), target)
