"""Osculating dimensions, Laplace equation counts, and the lattice quadric."""

import itertools
from collections import Counter
from fractions import Fraction
from math import perm

import numpy as np
import pytest

from lefschetz.algebra import Form, monomial_basis
from lefschetz.apolarity import apolar_complement
from lefschetz.classify import classification_case_ideal
from lefschetz.linalg import clear_denominators, exact_rank, primitive_kernel_vector
from lefschetz.osculating import (
    LinearSystem, _jet_matrix, _quadric_pairs, laplace_count, perkinson_quadric
)
from lefschetz.parser import format_form
from lefschetz.sampling import random_chart_point, rng_for
from lefschetz.wlp import IdealSpec, has_wlp

from form_helpers import evaluate

HEXAGON = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


@pytest.fixture
def hexagon_system():
    return LinearSystem.from_monomials(2, 3, HEXAGON)


@pytest.mark.parametrize(
    "n, d, members, error",
    [
        (2, 0, (), ValueError),
        (-1, 2, (), ValueError),
        (1, 1, ("x",), TypeError),
        (1, 1, (Form.monomial((1, 0)), Form.monomial((0, 2))), ValueError),
        (1, 1, (Form(1, 1),), ValueError),
        (1, 1, (Form.monomial((1, 0)), Form.monomial((1, 0)) * 2), ValueError),
    ],
    ids=["degree-0", "negative-n", "not-a-form", "mixed-degree", "zero", "dependent"],
)
def test_linear_system_checks_its_members(n, d, members, error):
    with pytest.raises(error):
        LinearSystem(n, d, members)


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_an_ideal_is_the_linear_system_of_its_generators(case):
    spec = classification_case_ideal(case)
    system = LinearSystem(spec.n, spec.d, spec.generators)
    assert isinstance(spec, LinearSystem)
    assert type(spec.is_monomial) is bool and spec.exponents() == system.exponents()
    assert laplace_count(spec, 2) == laplace_count(system, 2)


def test_from_apolar_matches_from_monomials(togliatti_cubic, hexagon_system):
    via_apolar = LinearSystem.from_apolar(apolar_complement(togliatti_cubic))
    assert sorted(via_apolar.exponents()) == sorted(hexagon_system.exponents())
    assert via_apolar.projective_target == hexagon_system.projective_target == 5


def test_hexagon_tangent_space_is_honest(hexagon_system):
    rep = laplace_count(hexagon_system, 1, seed=0, trials=3)
    assert (rep.expected_dim, rep.actual_dim, rep.delta) == (2, 2, 0)


def test_hexagon_second_osculating_space_drops(hexagon_system):
    rep = laplace_count(hexagon_system, 2, seed=0, trials=3)
    assert (rep.expected_dim, rep.actual_dim, rep.delta) == (5, 4, 1)
    assert not rep.degenerate


def test_full_veronese_has_no_laplace_equation():
    exps = [e for e in itertools.product(range(4), repeat=3) if sum(e) == 3]
    full = LinearSystem.from_monomials(2, 3, exps)
    rep = laplace_count(full, 2, seed=0, trials=3)
    assert rep.delta == 0
    assert perkinson_quadric(full.exponents()) is None


def test_quartic_projection_laplace_order_three():
    # the degree 4 counterpart: one Laplace equation, but only at order d-1 = 3
    spec = IdealSpec.from_monomials(
        2, 4, [(4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 2, 0), (1, 1, 2)]
    )
    system = LinearSystem.from_apolar(apolar_complement(spec))
    assert len(system.members) == 10
    assert system.projective_target == 9
    second = laplace_count(system, 2, seed=0, trials=3)
    assert (second.expected_dim, second.actual_dim, second.delta) == (5, 5, 0)
    third = laplace_count(system, 3, seed=0, trials=3)
    assert (third.expected_dim, third.actual_dim, third.delta) == (9, 8, 1)
    ok, failures = has_wlp(spec, seed=0, trials=3)
    assert not ok and failures == [3]


def homogeneous_jet_rank(system: LinearSystem, s: int, point) -> int:
    """Rank of the order-exactly-s homogeneous partials at a point, a route
    independent of the package's jet matrix.

    By the Euler relation this equals the affine order <= s jet rank at the
    same point.
    """
    rows = []
    for beta in monomial_basis(system.n, s):
        row = []
        for member in system.members:
            value = Fraction(0)
            for alpha, c in member.terms.items():
                if any(a < b for a, b in zip(alpha, beta)):
                    continue
                term = Fraction(c)
                for a, b in zip(alpha, beta):
                    if b:
                        term *= perm(a, b)
                for p, e in zip(point, (a - b for a, b in zip(alpha, beta))):
                    if e:
                        term *= Fraction(p) ** e
                value += term
            row.append(value)
        rows.append(clear_denominators(row))
    return exact_rank(rows)



def nested_loop_jet_matrix(system: LinearSystem, s: int, chart_point):
    """The jet matrix by one loop over members, terms, jets and coordinates:
    the entry at jet beta sums c * (alpha')_beta * t^(alpha' - beta) over
    the terms c x^alpha of a member, alpha' = alpha[1:]."""
    n = system.n
    betas = [b for t in range(s + 1) for b in monomial_basis(n - 1, t)]
    matrix = [[0] * len(system.members) for _ in betas]
    for j, member in enumerate(system.members):
        for alpha, c in zip(member.terms, clear_denominators(member.terms.values())):
            for bi, beta in enumerate(betas):
                value = c
                dead = False
                for i in range(n):
                    a, b = alpha[i + 1], beta[i]
                    if a < b:
                        dead = True
                        break
                    if b:
                        value *= perm(a, b)
                    rest = a - b
                    if rest:
                        value *= chart_point[i] ** rest
                if not dead:
                    matrix[bi][j] += value
    return matrix


def test_jet_matrix_matches_the_nested_loop(corpus):
    # monomial apolar systems at (1, ..., 1); general ones at two sampled
    # chart points and at one with a zero coordinate
    kinds = Counter()
    for i, spec in enumerate(corpus):
        system = apolar_complement(spec)
        n = system.n
        if system.is_monomial:
            points = [(1,) * n]
        else:
            rng = rng_for(i, "jet-matrix")
            points = [random_chart_point(n, rng) for _ in range(2)]
            points.append((0,) + points[0][1:])
        for s in range(spec.d + 1):
            for point in points:
                expected = nested_loop_jet_matrix(system, s, point)
                assert _jet_matrix(system, s, point) == expected
        kinds[system.is_monomial] += 1
    assert kinds == {True: 286, False: 214}

@pytest.mark.parametrize("s", [1, 2])
def test_homogeneous_jets_match_affine_chart(hexagon_system, s):
    # Euler relation: order-s homogeneous partials at (1, p) span one more
    # dimension than the affine jet, the cone direction
    rng = rng_for(0, "osculating", "euler", s)
    rep = laplace_count(hexagon_system, s, seed=0, trials=3)
    for _ in range(3):
        point = random_chart_point(2, rng)
        assert homogeneous_jet_rank(hexagon_system, s, point) == rep.actual_dim + 1


def test_hexagon_quadric(hexagon_system):
    q = perkinson_quadric(hexagon_system.exponents())
    assert q is not None
    text = format_form(q, ("x0", "x1", "x2"))
    assert text == "2*x0^2 - 5*x0*x1 - 5*x0*x2 + 2*x1^2 - 5*x1*x2 + 2*x2^2"


def test_quadric_vanishes_on_marked_points(hexagon_system):
    q = perkinson_quadric(hexagon_system.exponents())
    for e in hexagon_system.exponents():
        assert evaluate(q, e) == 0
    # and does not vanish on the discarded vertex monomials
    for e in [(3, 0, 0), (0, 3, 0), (0, 0, 3)]:
        assert evaluate(q, e) != 0


def test_quadric_requires_enough_points():
    # five points always lie on a conic; the hit only means something for >= 6
    assert perkinson_quadric(HEXAGON[:5]) is not None


def _evaluated_quadrics(p):
    """Each quadric of ``monomial_basis`` at p, power by power."""
    row = []
    for q in monomial_basis(len(p) - 1, 2):
        value = 1
        for base, e in zip(p, q):
            if e:
                value *= base ** e
        row.append(value)
    return row


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_quadric_rows_are_products_of_coordinate_pairs(n):
    rng = np.random.default_rng(n)
    size = len(monomial_basis(n, 2))
    for count in (size - 1, size, size + 1):
        points = [tuple(map(int, p)) for p in rng.integers(-4, 5, (count, n + 1))]
        rows = [_evaluated_quadrics(p) for p in points]
        assert [[p[i] * p[k] for i, k in _quadric_pairs(n)] for p in points] == rows
        vec = primitive_kernel_vector(rows, size)
        expected = None if vec is None else Form(n, 2, dict(zip(monomial_basis(n, 2), vec)))
        assert perkinson_quadric(points) == expected
