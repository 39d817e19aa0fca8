"""Enumeration and certification of monomial cubic systems up to symmetry."""

import hashlib
import itertools
import json
from collections import Counter

import numpy as np
import pytest

from lefschetz.algebra import (
    Form,
    linear_substitution,
    monomial_basis,
    pure_power,
    pure_powers,
    rank_of_span,
    shifted,
    substitute_variable,
)
from lefschetz.classify import (
    build_named_example,
    canonical_form,
    certify_candidate,
    classification_case_ideal,
    classification_case_system,
    enumerate_cubic_togliatti,
    four_prime_projections,
    permutation_images,
)
import lefschetz
from lefschetz import linalg
from lefschetz.apolarity import apolar_complement
from lefschetz.linalg import exact_rank
from lefschetz.osculating import (
    LinearSystem, _jet_matrix, laplace_count, perkinson_quadric
)
from lefschetz.parser import format_form
from lefschetz.sampling import random_chart_point, random_linear_form, rng_for
from lefschetz.wlp import (
    IdealSpec,
    _quotient_map_rows,
    _sum_of_variables,
    fails_in_degree_dminus1,
    is_togliatti,
    quotient_basis,
    trivial_type_b_test,
)

from form_helpers import evaluate, random_unimodular, tangent_rows

NAMES4 = ("x0", "x1", "x2", "x3")


def _census(n, max_extra=None):
    """A census run and the candidate keys in the order it certified them."""
    tested = []
    run = enumerate_cubic_togliatti(
        n,
        max_extra=max_extra,
        progress=lambda key, record: tested.append(key),
    )
    return run, tested


@pytest.fixture(scope="module")
def census3():
    return _census(3)


@pytest.fixture(scope="module")
def census2():
    return _census(2)


@pytest.fixture(scope="module")
def run3(census3):
    return census3[0]


@pytest.fixture(scope="module")
def run2(census2):
    return census2[0]


def test_canonical_form_is_idempotent():
    exps = classification_case_ideal(2).exponents()
    can = canonical_form(exps)
    assert canonical_form(can) == can
    assert can == min(permutation_images(exps))


def test_canonical_form_is_permutation_invariant():
    exps = classification_case_ideal(3).exponents()
    rng = rng_for(0, "classify", "invariance")
    for _ in range(5):
        perm = list(range(4))
        rng.shuffle(perm)
        shuffled = tuple(sorted(tuple(e[perm[i]] for i in range(4)) for e in exps))
        assert canonical_form(shuffled) == canonical_form(exps)


def test_orbit_size_divides_group_order():
    for case in (1, 2, 3, 4):
        exps = classification_case_ideal(case).exponents()
        orbit = len(permutation_images(exps))
        assert 24 % orbit == 0


def test_named_example_identities():
    il3 = build_named_example("ilardi-counterexample", 3).exponents()
    se3 = build_named_example("second-example", 3).exponents()
    c2 = classification_case_ideal(2).exponents()
    part = build_named_example("partition", 3, partition=[(0, 1), (2,), (3,)]).exponents()
    assert canonical_form(il3) == canonical_form(se3) == canonical_form(c2)
    assert canonical_form(part) == canonical_form(c2)


def test_truncated_simplex_is_singleton_partition():
    ts = build_named_example("truncated-simplex", 3).exponents()
    c1 = classification_case_ideal(1).exponents()
    singles = build_named_example(
        "partition", 3, partition=[(0,), (1,), (2,), (3,)]
    ).exponents()
    assert canonical_form(ts) == canonical_form(c1) == canonical_form(singles)


def test_named_example_validation():
    with pytest.raises(ValueError):
        build_named_example("no-such-family", 3)
    with pytest.raises(ValueError):
        build_named_example("ilardi-counterexample", 2)
    with pytest.raises(ValueError):
        build_named_example("partition", 3)
    with pytest.raises(ValueError):
        build_named_example("partition", 3, partition=[(0, 1), (1, 2), (3,)])
    with pytest.raises(ValueError):
        build_named_example("partition", 3, partition=[(0, 1), (2,)])


def test_n2_run_shape(run2):
    assert run2.subsets_seen == 7
    assert run2.candidates_tested == 2
    assert len(run2.records) == 1
    assert sum(run2.hit_counts.values()) == run2.subsets_seen


def test_n2_record_is_the_classical_one(run2):
    (rec,) = run2.records
    assert rec.generators == ((0, 0, 3), (0, 3, 0), (1, 1, 1), (3, 0, 0))
    assert rec.extra == ((1, 1, 1),)
    assert rec.orbit_size == 1
    assert rec.verdict == "smooth"
    assert rec.toric_degree == 6
    assert rec.j == 1
    assert rec.laplace_delta == 1
    assert rec.trivial_a is None
    assert not rec.trivial_b.sufficient
    assert sorted(rec.apolar) == [
        (0, 1, 2),
        (0, 2, 1),
        (1, 0, 2),
        (1, 2, 0),
        (2, 0, 1),
        (2, 1, 0),
    ]
    assert rec.quadric is not None


def test_n3_run_totals(run3):
    assert run3.subsets_seen == 14892
    assert run3.candidates_tested == 714
    assert len(run3.records) == 224
    assert run3.j_max == 6
    assert sum(run3.hit_counts.values()) == run3.subsets_seen


def test_table_verdicts_match_substitution_on_the_census_candidates(census3):
    # the route the integer hyperplane table replaced: Fraction forms at
    # x_3 := -(x_0 + x_1 + x_2), ranked as a span
    run, tested = census3
    minus_sum = Form(3, 1, {(1, 0, 0, 0): -1, (0, 1, 0, 0): -1, (0, 0, 1, 0): -1})
    dependent = 0
    for key in tested:
        spec = IdealSpec.from_monomials(3, 3, key)
        restricted = substitute_variable(spec.generators, 3, minus_sum)
        verdict = rank_of_span(restricted) < spec.r
        assert fails_in_degree_dminus1(spec) == verdict
        dependent += verdict
    assert (len(tested), dependent) == (714, len(run.records))


def _assert_three_criteria_agree(run, tested):
    """The paper's three descriptions of a Togliatti system agree with the
    census on every candidate: the generators dependent on a general
    hyperplane, an order-2 Laplace equation on the apolar system, and a
    lattice quadric through its exponents."""
    records = {record.generators for record in run.records}
    disagreements = []
    for key in tested:
        spec = IdealSpec.from_monomials(run.n, 3, key)
        apolar = apolar_complement(spec)
        verdicts = (
            key in records,
            is_togliatti(spec),
            laplace_count(apolar, 2).delta >= 1,
            perkinson_quadric(apolar.exponents()) is not None,
        )
        if len(set(verdicts)) > 1:
            disagreements.append((key, verdicts))
    assert disagreements == []


def test_n3_verdicts_agree_with_the_laplace_criteria(census3):
    _assert_three_criteria_agree(*census3)
    assert (len(census3[1]), len(census3[0].records)) == (714, 224)


def test_n4_verdicts_agree_with_the_laplace_criteria():
    run, tested = _census(4, max_extra=5)
    _assert_three_criteria_agree(run, tested)
    assert (len(tested), len(run.records)) == (1753, 6)


def test_general_route_agrees_after_a_unimodular_change_of_coordinates(census3):
    # Togliatti-ness is invariant under GL(4); after a unimodular change the
    # generators are not monomials, so the sampled-hyperplane route decides
    run, tested = census3
    records = {record.generators for record in run.records}
    rng = rng_for(0, "census-unimodular")
    verdicts = []
    for key in rng.sample(tested, 50):
        rows = random_unimodular(rng, 4)
        forms = linear_substitution([Form.monomial(e) for e in key], rows)
        spec = IdealSpec(3, 3, tuple(forms))
        assert not spec.is_monomial
        verdict = is_togliatti(spec, seed=0, trials=2)
        assert verdict == (key in records), key
        verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)


def _brute_force_hit_counts(n, j_max):
    """The census's hit counts by definition: every subset, canonicalised."""
    cubes = pure_powers(n, 3)
    mixed = tuple(e for e in monomial_basis(n, 3) if max(e) < 3)
    return Counter(
        canonical_form(sorted(cubes + subset))
        for j in range(1, j_max + 1)
        for subset in itertools.combinations(mixed, j)
    )


def _assert_matches_brute_force(run, tested):
    reference = _brute_force_hit_counts(run.n, run.j_max)
    # same counts, in canonical (size, key) order
    canonical = sorted(reference.items(), key=lambda item: (len(item[0]), item[0]))
    assert list(run.hit_counts.items()) == canonical
    assert run.subsets_seen == sum(reference.values())
    # the keys are canonical forms, decided in the order they opened
    assert list(run.hit_counts) == tested
    assert run.candidates_tested == len(tested)


def test_n2_matches_brute_force(census2):
    _assert_matches_brute_force(*census2)


def test_n3_matches_brute_force(census3):
    _assert_matches_brute_force(*census3)


def test_n4_matches_brute_force():
    _assert_matches_brute_force(*_census(4, max_extra=2))


@pytest.mark.parametrize(
    "max_extra, subsets, candidates, records",
    [(3, 4525, 71, 0), (4, 31930, 378, 1)],
)
def test_n4_partial_census(max_extra, subsets, candidates, records):
    run = enumerate_cubic_togliatti(4, max_extra=max_extra)
    assert run.j_max == max_extra
    assert (run.subsets_seen, run.candidates_tested, len(run.records)) == (
        subsets,
        candidates,
        records,
    )
    assert sum(run.hit_counts.values()) == run.subsets_seen
    assert all(120 % size == 0 for size in run.hit_counts.values())


def test_n4_candidate_order_is_pinned():
    # past the reach of the brute-force tests: SHA-256 of the candidates and
    # their orbit sizes, in the order they opened (378 of 31,930 subsets)
    run = enumerate_cubic_togliatti(4, max_extra=4)
    items = [[list(map(list, key)), size] for key, size in run.hit_counts.items()]
    digest = hashlib.sha256(json.dumps(items, separators=(",", ":")).encode())
    assert digest.hexdigest() == (
        "0ba403051dca556bf92bfd7858857bad8532a6b76a68f70720dd84552c74666a"
    )


def test_n6_census_runs_on_two_word_masks():
    # 77 mixed cubics: each subset mask takes two int64 words; the orbit
    # sizes are those of the brute-force canonicalisation of all 3003
    # subsets, in canonical (size, key) order
    run = enumerate_cubic_togliatti(6, max_extra=2)
    assert (run.subsets_seen, run.candidates_tested, len(run.records)) == (
        3003,
        14,
        0,
    )
    assert list(run.hit_counts.values()) == [
        42, 35, 21, 105, 210, 210, 105, 420, 420, 420, 420, 210, 315, 70
    ]
    assert all(key == canonical_form(key) for key in run.hit_counts)


def test_max_extra_below_one_is_rejected():
    for max_extra in (0, -2):
        with pytest.raises(ValueError, match="max_extra must be at least 1"):
            enumerate_cubic_togliatti(4, max_extra=max_extra)


def test_n3_census(run3):
    census = Counter(r.verdict for r in run3.records)
    assert census == {"singular": 209, "quasi-smooth": 11, "smooth": 4}


def test_n3_records_by_shape(run3):
    table = Counter((r.j, r.verdict) for r in run3.records)
    assert dict(table) == {
        (3, "singular"): 1,
        (4, "quasi-smooth"): 1,
        (4, "singular"): 5,
        (4, "smooth"): 3,
        (5, "quasi-smooth"): 3,
        (5, "singular"): 34,
        (6, "quasi-smooth"): 7,
        (6, "singular"): 169,
        (6, "smooth"): 1,
    }


def test_n3_orbit_weighted_hits(run3):
    weighted = Counter()
    for r in run3.records:
        weighted[(r.j, r.verdict)] += r.orbit_size
    assert dict(weighted) == {
        (3, "singular"): 4,
        (4, "quasi-smooth"): 6,
        (4, "singular"): 56,
        (4, "smooth"): 10,
        (5, "quasi-smooth"): 36,
        (5, "singular"): 588,
        (6, "quasi-smooth"): 66,
        (6, "singular"): 3326,
        (6, "smooth"): 12,
    }


def test_n3_smooth_records(run3):
    smooth = sorted(
        (r for r in run3.records if r.verdict == "smooth"),
        key=lambda r: -r.toric_degree,
    )
    assert [(r.j, r.toric_degree, r.orbit_size, r.r) for r in smooth] == [
        (4, 23, 1, 8),
        (4, 18, 6, 8),
        (4, 13, 3, 8),
        (6, 9, 12, 10),
    ]
    # the three systems with r = 8 generators carry no trivial witness; the
    # fourth does
    assert [r.trivial_a for r in smooth] == [None, None, None, (0, 0, 0, 2)]


def test_n3_prism_record(run3):
    # the r = 10 smooth record: a product of a del Pezzo surface with a line,
    # lying beyond the three classical degrees
    (rec,) = [r for r in run3.records if r.verdict == "smooth" and r.j == 6]
    assert rec.generators == canonical_form(
        tuple(
            sorted(
                [
                    (3, 0, 0, 0),
                    (2, 1, 0, 0),
                    (1, 2, 0, 0),
                    (1, 0, 0, 2),
                    (0, 3, 0, 0),
                    (0, 1, 0, 2),
                    (0, 0, 3, 0),
                    (0, 0, 2, 1),
                    (0, 0, 1, 2),
                    (0, 0, 0, 3),
                ]
            )
        )
    )
    assert rec.toric_degree == 9
    assert rec.orbit_size == 12
    assert rec.togliatti


def _togliatti_without(record, mixed):
    reduced = [e for e in record.generators if e != mixed]
    return is_togliatti(
        IdealSpec.from_monomials(record.n, 3, reduced), seed=0, trials=3
    )


def test_pure_cubes_are_not_togliatti():
    # the one fact behind the minimality lookup for j = 1 records that the
    # census does not certify itself
    for n in (2, 3):
        spec = IdealSpec.from_monomials(n, 3, pure_powers(n, 3))
        assert not is_togliatti(spec, seed=0, trials=3)


def test_n2_record_is_minimal(run2):
    (rec,) = run2.records
    assert run2.removable_generator(rec) is None


def test_n3_prism_record_is_not_minimal(run3):
    (rec,) = [r for r in run3.records if r.verdict == "smooth" and r.j == 6]
    witness = run3.removable_generator(rec)
    assert witness == (0, 0, 1, 2)
    assert _togliatti_without(rec, witness)


def test_removable_generator_matches_direct_removals(run3):
    minimal = []
    for rec in run3.records:
        if rec.verdict not in ("smooth", "quasi-smooth"):
            continue
        witness = run3.removable_generator(rec)
        removable = [m for m in rec.extra if _togliatti_without(rec, m)]
        assert witness == (removable[0] if removable else None), rec.generators
        if witness is None:
            minimal.append((rec.verdict, rec.r, rec.toric_degree))
    assert sorted(minimal) == [
        ("quasi-smooth", 8, 18),
        ("quasi-smooth", 10, 12),
        ("smooth", 8, 13),
        ("smooth", 8, 18),
        ("smooth", 8, 23),
    ]


def test_removable_generator_is_exact_under_a_cap(run3):
    capped = enumerate_cubic_togliatti(3, max_extra=4)
    full = {r.generators: r for r in run3.records}
    assert capped.records
    for rec in capped.records:
        assert capped.removable_generator(rec) == run3.removable_generator(
            full[rec.generators]
        )


def test_removable_generator_rejects_foreign_records(run2, run3):
    (rec,) = run2.records
    with pytest.raises(ValueError):
        run3.removable_generator(rec)


def test_n3_record_internal_consistency(run3):
    for rec in run3.records:
        assert rec.generators == canonical_form(rec.generators)
        assert rec.j == len(rec.extra) == rec.r - 4
        assert rec.orbit_size == len(permutation_images(rec.generators))
        assert run3.hit_counts[rec.generators] == rec.orbit_size
        assert rec.togliatti
        assert len(rec.apolar) == 20 - rec.r


def test_case_records():
    expected = {
        1: ("smooth", 23),
        2: ("smooth", 18),
        3: ("smooth", 13),
        4: ("quasi-smooth", 18),
    }
    for case, (verdict, degree) in expected.items():
        exps = classification_case_ideal(case).exponents()
        can = canonical_form(exps)
        rec = certify_candidate(3, can, len(permutation_images(can)))
        assert rec is not None
        assert (rec.verdict, rec.toric_degree) == (verdict, degree)
        assert len(classification_case_system(case)) == 12


def test_case_quadrics():
    quadrics = {}
    for case in (1, 2, 3, 4):
        exps = classification_case_ideal(case).exponents()
        can = canonical_form(exps)
        rec = certify_candidate(3, can, len(permutation_images(can)))
        quadrics[case] = format_form(rec.quadric, NAMES4)
    assert quadrics[1] == (
        "2*x0^2 - 5*x0*x1 - 5*x0*x2 - 5*x0*x3 + 2*x1^2 - 5*x1*x2 - 5*x1*x3"
        " + 2*x2^2 - 5*x2*x3 + 2*x3^2"
    )
    assert quadrics[2] == (
        "2*x0^2 - 5*x0*x1 - 5*x0*x2 - 5*x0*x3 + 2*x1^2 - 5*x1*x2 - 5*x1*x3"
        " + 2*x2^2 + 4*x2*x3 + 2*x3^2"
    )
    assert quadrics[3] == (
        "2*x0^2 + 4*x0*x1 - 5*x0*x2 - 5*x0*x3 + 2*x1^2 - 5*x1*x2 - 5*x1*x3"
        " + 2*x2^2 + 4*x2*x3 + 2*x3^2"
    )
    assert quadrics[4] == "x2*x3"


def test_case_three_quadric_factors():
    exps = classification_case_ideal(3).exponents()
    can = canonical_form(exps)
    rec = certify_candidate(3, can, len(permutation_images(can)))
    q = rec.quadric
    # rank 2: the quadric is a product of two hyperplanes
    left = (-2, -2, 1, 1)
    right = (-1, -1, 2, 2)
    for e in itertools.product(range(-3, 4), repeat=4):
        lhs = evaluate(q, e)
        rhs = sum(l * x for l, x in zip(left, e)) * sum(r * x for r, x in zip(right, e))
        assert lhs == rhs


def test_certify_rejects_non_togliatti():
    # x^3, y^3, z^3, y z^2 keeps full rank after the hyperplane substitution
    can = canonical_form(((3, 0, 0), (0, 3, 0), (0, 0, 3), (0, 1, 2)))
    assert certify_candidate(2, can, len(permutation_images(can))) is None


def test_four_prime_projections():
    res = four_prime_projections()
    assert len(res) == 21
    in_range = [r for r in res if r["in_range"]]
    assert len(in_range) == 16
    for entry in in_range:
        assert entry["record"] is not None
        assert entry["record"].verdict == "quasi-smooth"
        assert entry["r"] <= 10
    for entry in res:
        if not entry["in_range"]:
            assert entry["r"] > 10
    labels = {r["label"] for r in res}
    assert "case-2-minus-abc" in labels


def _torus_cases(run3, corpus):
    """(seed, ideal, apolar system, Laplace order): the seed-0 n = 3 census
    records at order 2, and each monomial corpus ideal at order d-1 under
    the seed its audit uses."""
    cases = [
        (0, IdealSpec.from_monomials(3, 3, rec.generators),
         LinearSystem.from_monomials(3, 3, rec.apolar), 2)
        for rec in run3.records
    ]
    for i, spec in enumerate(corpus):
        if spec.is_monomial:
            cases.append((i, spec, apolar_complement(spec), spec.d - 1))
    return cases


def test_laplace_rank_at_the_torus_point_is_the_rank_at_sampled_points(run3, corpus):
    # the sampled route as the reference: the jet matrix at three seeded
    # chart points of the stream laplace_count used to draw from
    checked = drops = 0
    for seed, _, system, s in _torus_cases(run3, corpus):
        torus = exact_rank(_jet_matrix(system, s, (1,) * system.n))
        rng = rng_for(seed, "osculating-point", s)
        for _ in range(3):
            point = random_chart_point(system.n, rng)
            assert exact_rank(_jet_matrix(system, s, point)) == torus
        count = laplace_count(system, s, seed=seed, trials=3)
        assert count.actual_dim == torus - 1
        checked += 1
        drops += count.delta >= 1
    assert checked == 224 + 286 and drops >= 224


def test_type_b_rank_at_the_sum_of_variables_is_the_rank_at_sampled_forms(run3, corpus):
    # the sampled route as the reference: three seeded linear forms M per i,
    # from the stream trivial_type_b_test used to draw from
    checked = full = 0
    for seed, spec, _, _ in _torus_cases(run3, corpus):
        if spec.d != 3:
            continue
        n, columns = spec.n, quotient_basis(spec, 3)
        witness = None
        for i in range(n + 1):
            # the source x_i * x_k as its index in the degree-2 basis
            sources = [
                monomial_basis(n, 2).index(shifted(pure_power(n, i), k))
                for k in range(n + 1)
            ]
            rows = _quotient_map_rows(spec, sources, [1] * (n + 1), 3)
            reference = tangent_rows(n, i, _sum_of_variables(n), columns)
            assert rows == [row for row in reference if any(row)]
            at_sum = exact_rank(rows)
            rng = rng_for(seed, "type-b", i)
            sampled = [
                exact_rank(tangent_rows(n, i, random_linear_form(n, rng), columns))
                for _ in range(3)
            ]
            assert sampled == [at_sum] * 3
            if witness is None and at_sum < n + 1:
                witness = i
        result = trivial_type_b_test(spec)
        assert (result.full, result.witness) == (witness is not None, witness)
        checked += 1
        full += result.full
    assert checked == 224 + 73 and full > 0


def _counting_certify(monkeypatch):
    """Patch the census's ``certify_candidate``; returns the list of its
    verdicts, True for each record made."""
    verdicts = []

    def counting_certify(n, generators, orbit_size):
        record = certify_candidate(n, generators, orbit_size)
        verdicts.append(record is not None)
        return record

    monkeypatch.setattr(lefschetz.classify, "certify_candidate", counting_certify)
    return verdicts


def _counted_census(monkeypatch, n, max_extra=None):
    """A census run with its random streams, certifications, exact ranks,
    their Bareiss fallbacks and facet sweeps counted: (run, streams,
    verdicts, ranks, fallbacks, sweeps)."""
    streams = []
    ranks = []
    fallbacks = []
    sweeps = []
    certified = _counting_certify(monkeypatch)

    def counting_rng_for(*args):
        streams.append(args)
        return rng_for(*args)

    def counting_exact_rank(rows):
        ranks.append(1)
        return exact_rank(rows)

    def counting_bareiss_rank(rows):
        fallbacks.append(1)
        return bareiss_rank(rows)

    def counting_facet_sweep(points):
        sweeps.append(1)
        return facet_sweep(points)

    monkeypatch.setattr(lefschetz.sampling, "rng_for", counting_rng_for)
    for module in vars(lefschetz).values():
        if getattr(module, "exact_rank", None) is exact_rank:
            monkeypatch.setattr(module, "exact_rank", counting_exact_rank)
    # only exact_rank calls bareiss_rank: each call is one of its fallbacks
    bareiss_rank = linalg.bareiss_rank
    monkeypatch.setattr(linalg, "bareiss_rank", counting_bareiss_rank)
    facet_sweep = lefschetz.polytope._facet_sweep
    monkeypatch.setattr(lefschetz.polytope, "_facet_sweep", counting_facet_sweep)
    run = enumerate_cubic_togliatti(n, max_extra=max_extra)
    return run, streams, certified, len(ranks), len(fallbacks), len(sweeps)


def test_the_n3_census_opens_no_random_stream(monkeypatch):
    run, streams, certified, ranks, fallbacks, sweeps = _counted_census(monkeypatch, 3)
    assert len(run.records) == 224
    assert streams == []
    # the screen rules out the 490 candidates that are not Togliatti, and
    # only the 224 records are certified, at 1,519 exact ranks in all; the
    # mod-p screen leaves 362 of them to Bareiss
    assert certified == [True] * 224
    assert (ranks, fallbacks) == (1519, 362)
    # one sweep per record hull: the volume recursion ends at polygons
    assert sweeps == 224


def test_n4_record_volumes_take_no_rank(monkeypatch):
    # each of the six record hulls in Z^4 is swept once, and the volume
    # recursion sweeps the 31 facet sections it meets, with no rank: a flat
    # section shows as a zero volume, not as a rank below m
    run, streams, certified, ranks, _, sweeps = _counted_census(monkeypatch, 4, max_extra=5)
    assert len(run.records) == 6
    assert streams == []
    assert certified == [True] * 6
    assert (ranks, sweeps) == (47, 37)


@pytest.mark.parametrize("prime", [3, 2])
def test_the_census_screen_is_sound_at_a_small_prime(monkeypatch, run3, prime):
    # at p = 3 every candidate's rows are dependent mod p, at p = 2 those of
    # 297; certify_candidate must rule out the non-Togliatti ones exactly
    certified = _counting_certify(monkeypatch)
    monkeypatch.setattr(linalg, "_PRIME", np.int64(prime))
    run = enumerate_cubic_togliatti(3)
    assert [record.to_json_dict() for record in run.records] == [
        record.to_json_dict() for record in run3.records
    ]
    assert run.hit_counts == run3.hit_counts
    assert (len(certified), certified.count(True)) == ({3: 714, 2: 297}[prime], 224)


def test_the_census_ignores_its_seed():
    # every check of monomial input is exact, so no seed can change a record
    first = enumerate_cubic_togliatti(2, seed=0)
    other = enumerate_cubic_togliatti(2, seed=987654321)
    assert len(first.records) == 1
    assert first.records == other.records
    assert first.hit_counts == other.hit_counts
    assert (first.subsets_seen, first.candidates_tested) == (
        other.subsets_seen,
        other.candidates_tested,
    )
