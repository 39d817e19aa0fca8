"""Contraction action and the inverse-system side of the hyperplane criterion."""

from fractions import Fraction

import pytest

from lefschetz.apolarity import apolar_complement, contract, dual_map_rank
from lefschetz.algebra import Form, monomial_basis
from lefschetz.sampling import random_linear_form, rng_for
from lefschetz.wlp import IdealSpec, certified_lefschetz_report, h_vector

from form_helpers import form_sum


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
    assert ap.dimension == 6
    assert ap.is_monomial()
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
    assert ap.dimension == h_vector(control_cubic)[3] == 6


def test_apolar_complement_counts_codimension():
    # complement dimension in degree d is C(d+n, n) minus the generator count
    spec = IdealSpec.from_monomials(2, 3, [(3, 0, 0), (0, 3, 0)])
    assert apolar_complement(spec).dimension == 10 - 2


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
