"""Multiplication maps, h-vectors, and the degree d-1 failure criteria."""

import operator
from fractions import Fraction
from math import comb, lcm

import pytest

from lefschetz import linalg, wlp
from lefschetz.wlp import (
    IdealSpec,
    TypeBResult,
    WlpReport,
    _sum_hyperplane_table,
    artinian_bound,
    certified_lefschetz_report,
    fails_in_degree_dminus1,
    froberg_degree,
    generator_bound,
    h_vector,
    has_wlp,
    hilbert_function,
    is_artinian,
    is_togliatti,
    multiplication_rank,
    restricted_generators,
    trivial_type_a,
    trivial_type_b_test,
)
from lefschetz.algebra import (
    Form,
    linear_substitution,
    monomial_basis,
    multiples_matrix,
    pure_power,
    rank_of_span,
    substitute_variable,
)
from lefschetz.classify import classification_case_ideal
from lefschetz.linalg import exact_rank
from lefschetz.parser import parse_polynomial
from lefschetz.sampling import (
    random_form,
    random_hyperplane,
    random_linear_form,
    rng_for,
)

from form_helpers import evaluate, small_form, tangent_rows


def test_h_vector_togliatti(togliatti_cubic):
    assert h_vector(togliatti_cubic) == (1, 3, 6, 6, 3)


def test_h_vector_control(control_cubic):
    assert h_vector(control_cubic) == (1, 3, 6, 6, 4, 1)


def test_h_vector_rejects_non_artinian():
    spec = IdealSpec.from_monomials(2, 3, [(3, 0, 0), (0, 3, 0)])
    with pytest.raises(ValueError):
        h_vector(spec)


def _scan_is_artinian(spec):
    """The scan ``is_artinian`` replaced, as the reference: rank the
    multiples of the generators in degree t = d, d+1, ... up to
    ``artinian_bound`` until they span R_t."""
    return spec.r > 0 and any(
        exact_rank(multiples_matrix(spec.generators, t - spec.d)) == comb(spec.n + t, t)
        for t in range(spec.d, artinian_bound(spec) + 1)
    )


@pytest.mark.parametrize(
    "n, d, r, degree", [(2, 3, 4, 5), (2, 4, 4, 7), (3, 3, 5, 6), (2, 1, 3, 1), (4, 1, 5, 1)]
)
def test_froberg_degree_hand_checked(n, d, r, degree):
    assert froberg_degree(n, d, r) == degree


@pytest.mark.parametrize("n, d, r", [(2, 3, 2), (2, 3, 0), (3, 1, 3), (1, 2, 1)])
def test_froberg_degree_rejects_fewer_than_n_plus_one_forms(n, d, r):
    # (1 - z^d)^r / (1 - z)^(n+1) has no coefficient <= 0 for r <= n
    with pytest.raises(ValueError, match=f"at least n\\+1 = {n + 1} forms, not {r}"):
        froberg_degree(n, d, r)


def test_froberg_degree_of_a_complete_intersection_is_the_artinian_bound():
    # and more generators only lower it, so is_artinian's scan from it to the
    # bound is never empty
    for n in range(1, 5):
        for d in range(1, 7):
            spec = IdealSpec.from_monomials(n, d, [pure_power(n, i, d) for i in range(n + 1)])
            degrees = [froberg_degree(n, d, r) for r in range(n + 1, comb(n + d, d) + 1)]
            assert degrees[0] == artinian_bound(spec), (n, d)
            assert degrees == sorted(degrees, reverse=True), (n, d)


def test_is_artinian_equals_the_scan_on_the_general_corpus(corpus):
    general = [spec for spec in corpus if not spec.is_monomial]
    assert len(general) == 214
    for spec in general:
        assert is_artinian(spec) == _scan_is_artinian(spec) is True


def test_is_artinian_scans_past_a_wrong_froberg_guess():
    # of the degree-5 monomials with every exponent below 3, only x y^2 z^2
    # escapes x^2 y: for (x^3, y^3, z^3, x^2 y), h(5) = 1 where Froberg
    # expects 0, and h(6) = 0
    gens = [Form.monomial(e) for e in ((3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 1, 0))]
    change = [[1, 1, 0], [0, 1, 1], [1, 1, 1]]  # determinant 1
    spec = IdealSpec(2, 3, linear_substitution(gens, change))
    assert not spec.is_monomial
    assert froberg_degree(2, 3, 4) == 5
    assert is_artinian(spec) == _scan_is_artinian(spec) is True
    assert (hilbert_function(spec, 5), hilbert_function(spec, 6)) == (1, 0)


@pytest.mark.parametrize("n, d, r", [(2, 3, 4), (2, 3, 6), (3, 2, 4)])
def test_is_artinian_is_false_on_forms_with_a_common_factor(n, d, r):
    # every generator lies in the principal ideal of one linear form
    rng = rng_for(0, "artinian", "common-factor", n, d, r)
    factor = random_linear_form(n, rng)
    spec = IdealSpec(n, d, [factor * random_form(n, d - 1, rng) for _ in range(r)])
    assert not spec.is_monomial
    assert is_artinian(spec) == _scan_is_artinian(spec) is False


def test_too_few_generators_are_never_artinian_and_rank_nothing(monkeypatch):
    # Krull's height theorem: an artinian quotient of k[x_0..x_n] needs n+1
    rng = rng_for(0, "artinian", "few-generators")
    specs = [
        IdealSpec(n, d, [random_form(n, d, rng) for _ in range(r)])
        for n, d, r in ((2, 3, 1), (2, 3, 2), (3, 2, 2), (3, 2, 3))
    ]
    assert [_scan_is_artinian(spec) for spec in specs] == [False] * len(specs)

    def no_rank(rows, **kwargs):
        pytest.fail("is_artinian ranked a matrix for r <= n")

    monkeypatch.setattr(wlp, "exact_rank", no_rank)
    assert [is_artinian(spec) for spec in specs] == [False] * len(specs)


def test_a_maximal_general_rank_under_its_ceiling_needs_no_bareiss(monkeypatch):
    # four general cubics in four variables: h = 1, 4, 10, 16, 19, 16, ...  For
    # j >= d the rows of L*I_j repeat inside I_{j+1}, so the stacked rank falls
    # below both the row and the column count, and only the ceiling
    # dim I_{j+1} + min(h_j, h_{j+1}) certifies the mod-p rank
    rng = rng_for(0, "ceiling", "general")
    spec = IdealSpec(3, 3, [random_form(3, 3, rng) for _ in range(4)])
    form = random_linear_form(3, rng)

    def no_bareiss(rows):
        pytest.fail("Bareiss fallback under a ceiling the rank meets")

    monkeypatch.setattr(linalg, "bareiss_rank", no_bareiss)
    for j, rank in ((3, 16), (4, 16)):
        report = multiplication_rank(spec, form, j)
        assert report.maximal_rank and report.rank == rank



def test_quotient_bases_are_the_monomials_no_generator_divides(corpus):
    # a brute-force divisibility scan as the reference, listed up to the
    # first empty degree (socle + 1) and then asked of a fresh copy of each
    # monomial corpus ideal from the top down, so that every degree above d
    # is filled upward from the degree below it
    checked = 0
    for spec in corpus:
        if not spec.is_monomial:
            continue
        bases = []
        while not bases or bases[-1]:
            bases.append([
                e for e in monomial_basis(spec.n, len(bases))
                if not any(all(map(operator.ge, e, g)) for g in spec.exponents())
            ])
        fresh = IdealSpec.from_monomials(spec.n, spec.d, spec.exponents())
        for t in range(len(bases) - 1, -1, -1):
            assert wlp.quotient_basis(fresh, t) == {e: k for k, e in enumerate(bases[t])}
            assert hilbert_function(fresh, t) == len(bases[t])
        checked += 1
    assert checked == 286


def test_a_degree_far_above_d_is_filled_without_recursion():
    # asked first, degree d + 1200 is filled upward from d in one loop
    spec = IdealSpec.from_monomials(1, 2, [(2, 0), (0, 2)])
    assert hilbert_function(spec, 1202) == 0
    assert h_vector(spec) == (1, 2, 1)


class _Runaway(Exception):
    """Raised by a fake that a degree scan keeps calling past its cap."""


def _runaway(value, limit):
    """A fake returning ``value(*args)`` that raises ``_Runaway`` once it
    has been called more than ``limit`` times."""
    calls = []

    def fake(*args, **kwargs):
        calls.append(args)
        if len(calls) > limit:
            raise _Runaway
        return value(*args)

    return fake


def test_degree_scans_stop_at_the_artinian_bound(monkeypatch, togliatti_cubic):
    # fakes that never reach h = 0 or a surjective map: the scans must raise
    # at the artinian bound, and an uncapped scan hits the sentinel instead
    # of running on
    spec, bound = togliatti_cubic, artinian_bound(togliatti_cubic)
    monkeypatch.setattr(wlp, "hilbert_function", _runaway(lambda spec, t: 1, bound + 2))
    with pytest.raises(ArithmeticError, match=rf"^h\({bound}\) = 1 > 0 "):
        h_vector(spec)
    never_onto = _runaway(lambda spec, j: WlpReport(j, 1, 2, 1, Form(2, 1)), bound + 2)
    monkeypatch.setattr(wlp, "certified_lefschetz_report", never_onto)
    with pytest.raises(ArithmeticError, match=f"not surjective in degree {bound},"):
        has_wlp(spec)


def test_togliatti_fails_only_in_degree_two(togliatti_cubic):
    ok, failures = has_wlp(togliatti_cubic, seed=0, trials=3)
    assert not ok
    assert failures == [2]


def test_control_has_wlp(control_cubic):
    ok, failures = has_wlp(control_cubic, seed=0, trials=3)
    assert ok
    assert failures == []


# (degree, dim_source, dim_target, rank, maximal)
TOGLIATTI_LADDER = [
    (0, 1, 3, 1, True),
    (1, 3, 6, 3, True),
    (2, 6, 6, 5, False),
    (3, 6, 3, 3, True),
    (4, 3, 0, 0, True),
]


@pytest.mark.parametrize("j,src,tgt,rank,maximal", TOGLIATTI_LADDER)
def test_togliatti_ladder(togliatti_cubic, j, src, tgt, rank, maximal):
    rep = certified_lefschetz_report(togliatti_cubic, j, seed=0, trials=3)
    assert (rep.dim_source, rep.dim_target, rep.rank) == (src, tgt, rank)
    assert rep.maximal_rank is maximal


def test_monomial_sum_form_matches_generic(togliatti_cubic, control_cubic):
    # for monomial ideals the single form x0+...+xn already decides WLP
    for spec in (togliatti_cubic, control_cubic):
        for j in range(len(h_vector(spec))):
            plain = certified_lefschetz_report(spec, j, seed=0, trials=3)
            generic = certified_lefschetz_report(
                spec, j, seed=0, trials=3, force_generic=True
            )
            assert plain.rank == generic.rank


def _below_d_specs():
    rng = rng_for(0, "below-d")
    monomial = IdealSpec.from_monomials(
        2, 4, [(4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 2)]
    )
    general = IdealSpec(3, 4, [random_form(3, 4, rng) for _ in range(5)])
    return [monomial, general]


@pytest.mark.parametrize("spec", _below_d_specs(), ids=["monomial", "general"])
def test_below_d_minus_1_the_map_is_injective_without_an_elimination(
    monkeypatch, spec
):
    # for j <= d-2, I_{j+1} = 0 and L * R_j has dimension dim R_j
    rng = rng_for(0, "below-d", "linear-form")
    forms = [wlp._sum_of_variables(spec.n)]
    forms += [random_linear_form(spec.n, rng) for _ in range(3)]
    for form in forms:
        for j in range(spec.d - 1):
            assert exact_rank(multiples_matrix([form], j)) == comb(spec.n + j, j)
    calls = []

    def counting(rows):
        calls.append(rows)
        return exact_rank(rows)

    monkeypatch.setattr(wlp, "exact_rank", counting)
    for form in forms:
        for j in range(spec.d - 1):
            report = multiplication_rank(spec, form, j)
            assert report.dim_source == comb(spec.n + j, j)
            assert report.rank == report.dim_source
    assert calls == []


@pytest.mark.parametrize("spec", _below_d_specs(), ids=["monomial", "general"])
def test_a_zero_linear_form_has_rank_zero_in_every_degree(spec):
    zero = Form(spec.n, 1, {})
    for j in range(spec.d + 3):
        assert multiplication_rank(spec, zero, j).rank == 0


def test_generator_bound_values():
    assert generator_bound(2, 3) == 4
    assert generator_bound(3, 3) == 10
    assert generator_bound(2, 5) == 6


def test_fails_dminus1_togliatti(togliatti_cubic):
    assert fails_in_degree_dminus1(togliatti_cubic, seed=0, trials=3)


def test_fails_dminus1_control(control_cubic):
    assert not fails_in_degree_dminus1(control_cubic, seed=0, trials=3)


def test_fails_dminus1_rejects_too_many_generators():
    exps = [(3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 1, 0), (1, 2, 0)]
    spec = IdealSpec.from_monomials(2, 3, exps)
    assert spec.r == 5 > generator_bound(2, 3)
    with pytest.raises(ValueError):
        fails_in_degree_dminus1(spec, seed=0, trials=3)


def test_restricted_generators_rank(togliatti_cubic):
    # substituting x2 = -x0-x1 leaves 4 binary cubics spanning only dim 3
    batches = list(restricted_generators(togliatti_cubic, seed=0, trials=3))
    assert batches
    for forms in batches:
        assert len(forms) == togliatti_cubic.r
        assert rank_of_span(forms) == 3


def test_is_togliatti(togliatti_cubic, control_cubic):
    assert is_togliatti(togliatti_cubic, seed=0, trials=3)
    assert not is_togliatti(control_cubic, seed=0, trials=3)
    # x^2 (x + y + z) vanishes on the hyperplane, but the ideal is not artinian
    cone = IdealSpec.from_monomials(2, 3, [(3, 0, 0), (2, 1, 0), (2, 0, 1)])
    assert fails_in_degree_dminus1(cone)
    assert not is_togliatti(cone)


def test_trivial_type_a_absent(togliatti_cubic, control_cubic):
    assert trivial_type_a(togliatti_cubic) is None
    assert trivial_type_a(control_cubic) is None


def test_trivial_type_a_witness():
    exps = [(3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 1, 0), (2, 0, 1)]
    spec = IdealSpec.from_monomials(2, 3, exps)
    assert trivial_type_a(spec) == (2, 0, 0)
    # too many generators for the hyperplane criterion, so not Togliatti
    assert not is_togliatti(spec, seed=0, trials=3)


def test_trivial_type_a_rejects_non_monomial():
    gens = [
        parse_polynomial("x^3 + y^3", ("x", "y", "z"), expected_degree=3),
        parse_polynomial("z^3", ("x", "y", "z"), expected_degree=3),
    ]
    spec = IdealSpec(2, 3, tuple(gens))
    with pytest.raises(ValueError):
        trivial_type_a(spec)


def test_trivial_type_b(togliatti_cubic):
    res = trivial_type_b_test(togliatti_cubic)
    assert res.sufficient is False
    assert res.full is False
    assert res.witness is None


def test_trivial_type_b_witness():
    exps = [
        (3, 0, 0, 0),
        (2, 1, 0, 0),
        (2, 0, 1, 0),
        (2, 0, 0, 1),
        (1, 2, 0, 0),
        (1, 1, 1, 0),
        (1, 1, 0, 1),
        (0, 3, 0, 0),
        (0, 0, 3, 0),
        (0, 0, 0, 3),
    ]
    spec = IdealSpec.from_monomials(3, 3, exps)
    assert spec.r == 10 == generator_bound(3, 3)
    res = trivial_type_b_test(spec)
    assert res.sufficient and res.full
    assert res.witness == 0
    assert is_togliatti(spec, seed=0, trials=3)


def test_trivial_type_b_rejects_non_cubic(control_cubic):
    quartic = IdealSpec.from_monomials(2, 4, [(4, 0, 0), (0, 4, 0), (0, 0, 4)])
    with pytest.raises(ValueError):
        trivial_type_b_test(quartic)


def test_non_monomial_complete_intersection():
    names = ("x", "y", "z")
    gens = [
        parse_polynomial("x^3 + 3x^2 z + 3x z^2 + z^3", names, expected_degree=3),
        parse_polynomial("y^3 - 3y^2 z + 3y z^2 - z^3", names, expected_degree=3),
        parse_polynomial("z^3", names, expected_degree=3),
    ]
    spec = IdealSpec(2, 3, tuple(gens))
    assert not spec.is_monomial
    assert h_vector(spec) == (1, 3, 6, 7, 6, 3, 1)
    ok, failures = has_wlp(spec, seed=0, trials=3)
    assert ok and failures == []


# The routes that the integer hyperplane table and the apolar-column type-B
# rank replaced, written out here as references.


def _substituted_generators(spec):
    """The generators at x_n := -(x_0 + ... + x_{n-1}), through Fraction forms."""
    n = spec.n
    minus_sum = Form(n, 1, {pure_power(n, i): -1 for i in range(n)})
    return substitute_variable(spec.generators, n, minus_sum)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_table_restriction_matches_substitution_on_monomial_ideals(n):
    rng = rng_for(0, "hyperplane-table", n)
    verdicts = set()
    for d in (3, 4, 5):
        basis = monomial_basis(n, d)
        for _ in range(15):
            r = rng.randint(1, generator_bound(n, d))
            spec = IdealSpec.from_monomials(n, d, rng.sample(basis, r))
            old = _substituted_generators(spec)
            # a = (1, ..., 1) has a_n = 1, so the table rows are the restriction
            assert list(restricted_generators(spec)) == [old]
            dependent = rank_of_span(old) < r
            assert fails_in_degree_dminus1(spec) == dependent
            verdicts.add(dependent)
    assert verdicts == {False, True}


GENERAL_TOGLIATTI = IdealSpec(
    2,
    3,
    [Form.monomial(pure_power(2, i, 3)) for i in range(3)]
    + [Form(2, 3, {(1, 1, 1): 1, (3, 0, 0): Fraction(1, 2)})],
)


def test_table_restriction_is_a_multiple_of_the_substitution_on_general_ideals():
    rng = rng_for(0, "hyperplane-table-general")
    specs = [GENERAL_TOGLIATTI]
    for _ in range(10):
        n, d = rng.choice([2, 3]), rng.choice([3, 4])
        r = rng.randint(1, generator_bound(n, d))
        scales = [Fraction(1, rng.randint(1, 6)) for _ in range(r)]
        specs.append(IdealSpec(n, d, [small_form(n, d, rng) * c for c in scales]))
    verdicts = set()
    for seed, spec in enumerate(specs):
        n, d = spec.n, spec.d
        hyperplanes = rng_for(seed, "hyperplane")
        best = 0
        for batch in restricted_generators(spec, seed=seed, trials=2):
            a = random_hyperplane(n, hyperplanes)
            solved = {pure_power(n, i): Fraction(-a[i], a[n]) for i in range(n)}
            old = substitute_variable(spec.generators, n, Form(n, 1, solved))
            for g, new, reference in zip(spec.generators, batch, old):
                cleared = lcm(*(c.denominator for c in g.terms.values()))
                assert new == reference * (a[n] ** d * cleared)
            best = max(best, rank_of_span(old))
        dependent = best < spec.r
        assert fails_in_degree_dminus1(spec, seed=seed, trials=2) == dependent
        verdicts.add(dependent)
    assert verdicts == {False, True}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_hyperplane_rows_are_the_cleared_generators_evaluated_on_the_hyperplane(n):
    # each row, read as a form in y, is the cleared generator at
    # x(y) = (a_n y_0, ..., a_n y_{n-1}, -(a_0 y_0 + ... + a_{n-1} y_{n-1})),
    # checked by evaluation at seeded integer points, not by substitution
    rng = rng_for(0, "hyperplane-evaluation", n)
    columns = monomial_basis(n - 1, 3)

    def check(generators, rows, a):
        for g, row in zip(generators, rows, strict=True):
            cleared = g * lcm(*(c.denominator for c in g.terms.values()))
            restricted = Form(n - 1, 3, dict(zip(columns, row, strict=True)))
            for _ in range(3):
                y = [rng.randint(-30, 30) for _ in range(n)]
                x = [a[n] * c for c in y] + [-sum(map(operator.mul, a, y))]
                assert evaluate(restricted, y) == evaluate(cleared, x)

    basis = monomial_basis(n, 3)
    table = _sum_hyperplane_table(n, 3)
    check([Form.monomial(e) for e in basis], [table[e] for e in basis], (1,) * (n + 1))
    seed = 7
    scales = [Fraction(1, rng.randint(1, 6)) for _ in range(3)]
    spec = IdealSpec(n, 3, [small_form(n, 3, rng) * c for c in scales])
    batches = wlp._restricted_rows(spec, seed, 3, lambda rows: rows, lambda rows: False)
    hyperplanes = rng_for(seed, "hyperplane")
    assert len(batches) == 3
    for rows in batches:
        check(spec.generators, rows, random_hyperplane(n, hyperplanes))


def _stacked_type_b(spec, seed, trials):
    """The type-B probe on the generator rows stacked over the tangent rows."""
    n = spec.n
    gens = spec.exponents()
    gen_rows = multiples_matrix([Form.monomial(e) for e in gens], 0)
    sufficient = False
    witness = None
    for i in range(n + 1):
        if sum(1 for e in gens if e[i] >= 1) > comb(n + 1, 2):
            sufficient = True
        rng = rng_for(seed, "type-b", i)
        x_i = Form.monomial(pure_power(n, i))
        tangents = (
            multiples_matrix([x_i * random_linear_form(n, rng)], 1)
            for _ in range(trials)
        )
        if witness is None and all(
            exact_rank(gen_rows + tangent) < spec.r + n + 1 for tangent in tangents
        ):
            witness = i
    return TypeBResult(sufficient, witness is not None, witness)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_type_b_apolar_rank_matches_the_stacked_rank(n):
    rng = rng_for(0, "type-b-routes", n)
    basis = monomial_basis(n, 3)
    divisible = [e for e in basis if e[0]]
    specs = [IdealSpec.from_monomials(n, 3, divisible)]
    for _ in range(12):
        r = rng.randint(1, len(basis) - 1)
        specs.append(IdealSpec.from_monomials(n, 3, rng.sample(basis, r)))
    if n == 3:
        specs += [classification_case_ideal(case) for case in (1, 2, 3, 4)]
    short = full = 0
    for seed, spec in enumerate(specs):
        gens = spec.exponents()
        gen_rows = multiples_matrix([Form.monomial(e) for e in gens], 0)
        outside = [e for e in basis if e not in gens]
        columns = {e: k for k, e in enumerate(outside)}
        for i in range(n + 1):
            m = random_linear_form(n, rng)
            x_i = Form.monomial(pure_power(n, i))
            stacked = exact_rank(gen_rows + multiples_matrix([x_i * m], 1))
            rank = exact_rank(tangent_rows(n, i, m, columns))
            assert rank == stacked - spec.r
            short += rank < n + 1
            full += rank == n + 1
        result = trivial_type_b_test(spec)
        assert result == _stacked_type_b(spec, seed, 3)
    assert short > 0 and full > 0
