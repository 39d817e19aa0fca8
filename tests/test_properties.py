"""Randomized invariants over the shared 500-ideal corpus."""

from collections import Counter
from operator import add

import pytest

from lefschetz import IdealSpec, has_wlp, monomial_basis, multiplication_rank
from lefschetz.algebra import Form, multiples_matrix, pure_power
from lefschetz.linalg import exact_rank
from lefschetz.sampling import random_linear_form, rng_for
from lefschetz.wlp import certified_lefschetz_report, h_vector, ideal_piece_dimension


def test_corpus_composition(corpus):
    kinds = Counter(("monomial" if s.is_monomial else "general") for s in corpus)
    assert kinds["monomial"] > 0
    assert kinds["general"] > 0
    assert len(corpus) == 500
    assert all(s.n <= 3 and s.d <= 6 for s in corpus)


def test_three_way_equivalence(corpus_audit):
    assert corpus_audit["checked"]["three_way"] == 500
    assert corpus_audit["checked"]["three_way_delta_positive"] == 22
    assert corpus_audit["violations"]["three_way"] == []


def test_duality_rank_identity(corpus_audit):
    assert corpus_audit["checked"]["duality"] == 500
    assert corpus_audit["violations"]["duality"] == []


def test_splitting_invariants(corpus_audit):
    assert corpus_audit["checked"]["splitting"] == 500
    assert corpus_audit["violations"]["splitting"] == []


def test_monomial_lefschetz_agreement(corpus_audit):
    assert corpus_audit["checked"]["lefschetz"] > 0
    assert corpus_audit["violations"]["lefschetz"] == []


def test_rank_routes_agree(corpus_audit):
    assert corpus_audit["checked"]["rank_routes"] == 500
    assert corpus_audit["violations"]["rank_routes"] == []


def test_monomial_ideal_piece_counts_divisible_monomials(corpus):
    # I_t of a monomial ideal is spanned by the monomials divisible by a generator
    monomial = [spec for spec in corpus if spec.is_monomial]
    for spec in monomial:
        gens = spec.exponents()
        for t in range(spec.d - 1, spec.d + 4):
            divisible = sum(
                1
                for e in monomial_basis(spec.n, t)
                if any(all(a >= b for a, b in zip(e, g)) for g in gens)
            )
            assert ideal_piece_dimension(spec, t) == divisible, (spec, t)
    assert len(monomial) == 286


def test_monomial_projection_matches_general_formula(corpus):
    # Doubling the generators keeps the ideal but clears the monomial flag, so
    # multiplication_rank takes its general route on the same map:
    # rank(I_d rows + L*R_{d-1} rows) - dim I_d, against the projection.
    for i, spec in enumerate(corpus):
        if not spec.is_monomial:
            continue
        scaled = IdealSpec(spec.n, spec.d, [g * 2 for g in spec.generators])
        assert not scaled.is_monomial
        total = Form(spec.n, 1, {pure_power(spec.n, k): 1 for k in range(spec.n + 1)})
        linear = random_linear_form(spec.n, rng_for(0, "projection", i))
        for form in (total, linear):
            projected = multiplication_rank(spec, form, spec.d - 1)
            general = multiplication_rank(scaled, form, spec.d - 1)
            assert projected == general, (i, form)


def _power_ideal(d, seed):
    # (l_1^d, ..., l_d^d, l_1 * ... * l_d) for random linear forms l_i
    rng = rng_for(seed, "powers", d)
    forms = [random_linear_form(2, rng) for _ in range(d)]
    gens = []
    product = None
    for linear in forms:
        power = linear
        for _ in range(d - 1):
            power = power * linear
        gens.append(power)
        product = linear if product is None else product * linear
    gens.append(product)
    return IdealSpec(2, d, tuple(gens))


def test_power_ideal_family_smoke():
    # odd d drops rank in degree d-1, even d does not; the acceptance run
    # repeats this over ten seeds and up to d = 7
    for seed in (0, 1):
        ok, failures = has_wlp(_power_ideal(4, seed), seed=seed, trials=2)
        assert ok and failures == []
        ok, failures = has_wlp(_power_ideal(5, seed), seed=seed, trials=2)
        assert not ok and failures == [4]


def test_quotient_map_matches_general_route(corpus):
    # every degree of every monomial corpus ideal, for L = sum x_i and two
    # seeded random L: the quotient-basis rank against
    # rank(I_{j+1} rows + L*R_j rows) - dim I_{j+1}, with dim I_t counted here
    # as the set of products x^e * g
    monomial = [(i, spec) for i, spec in enumerate(corpus) if spec.is_monomial]
    for i, spec in monomial:
        n, d = spec.n, spec.d
        gens = spec.exponents()
        socle = len(h_vector(spec)) - 1
        dims = []
        for t in range(socle + 2):
            multiples = {
                tuple(map(add, e, g))
                for e in (monomial_basis(n, t - d) if t >= d else ())
                for g in gens
            }
            assert ideal_piece_dimension(spec, t) == len(multiples), (i, t)
            dims.append(len(multiples))
        rng = rng_for(0, "quotient-map", i)
        total = Form(n, 1, {pure_power(n, k): 1 for k in range(n + 1)})
        forms = (total, random_linear_form(n, rng), random_linear_form(n, rng))
        for j in range(socle + 1):
            ideal_rows = []
            if j + 1 >= d:
                # the unit rows of x^e * g repeat when two products coincide;
                # one copy of each leaves the rank as it is
                rows = multiples_matrix(spec.generators, j + 1 - d)
                ideal_rows = list(map(list, dict.fromkeys(map(tuple, rows))))
            for form in forms:
                rows = ideal_rows + multiples_matrix([form], j)
                expected = exact_rank(rows) - dims[j + 1]
                assert multiplication_rank(spec, form, j).rank == expected, (i, j)
    assert len(monomial) == 286


def _full_scan(spec, **sampling):
    failures = [
        j
        for j in range(len(h_vector(spec)))
        if not certified_lefschetz_report(spec, j, **sampling).maximal_rank
    ]
    return (not failures, failures)


def test_pruned_has_wlp_matches_full_scan_on_the_corpus(corpus):
    monomial = [spec for spec in corpus if spec.is_monomial]
    for i, spec in enumerate(monomial):
        assert has_wlp(spec) == _full_scan(spec), i
    assert len(monomial) == 286


@pytest.mark.parametrize("lam", [1, 3])
def test_pruned_has_wlp_on_the_r4_witnesses(lam):
    # (x^d, y^d, z^d, (xyz)^lambda), d = 3*lambda, fails exactly in 4*lambda - 2
    d = 3 * lam
    pure = [pure_power(2, k, d) for k in range(3)]
    spec = IdealSpec.from_monomials(2, d, pure + [(lam, lam, lam)])
    assert has_wlp(spec) == _full_scan(spec) == (False, [4 * lam - 2])


@pytest.mark.parametrize("d", [4, 5])
def test_pruned_has_wlp_on_a_general_ideal(d):
    # the surjective degrees are certified by sampled linear forms
    spec = _power_ideal(d, 0)
    assert not spec.is_monomial
    sampling = {"seed": 0, "trials": 2}
    expected = (True, []) if d % 2 == 0 else (False, [d - 1])
    assert has_wlp(spec, **sampling) == _full_scan(spec, **sampling) == expected
