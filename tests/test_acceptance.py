"""Acceptance suite: one test per criterion, each with its stated bound.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion.  Everything is exact arithmetic, so checks are equalities; the
only tolerances are the runtime ceilings.
"""

import itertools
import time
from fractions import Fraction

import pytest

from lefschetz import (
    IdealSpec,
    LinearSystem,
    apolar_complement,
    build_named_example,
    build_polytope,
    canonical_form,
    classification_case_ideal,
    classification_case_system,
    enumerate_cubic_togliatti,
    four_prime_projections,
    h_vector,
    has_wlp,
    is_artinian,
    is_togliatti,
    laplace_count,
    perkinson_quadric,
    smoothness_report,
    splitting_type,
    verify_r4_theorem,
)
from lefschetz.algebra import Form
from lefschetz.sampling import random_linear_form, rng_for

from form_helpers import evaluate

HEXAGON = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def proportional(left, right):
    """True when two forms agree up to one nonzero scalar."""
    lt, rt = dict(left.terms), dict(right.terms)
    lt = {k: v for k, v in lt.items() if v}
    rt = {k: v for k, v in rt.items() if v}
    if set(lt) != set(rt):
        return False
    ratios = {Fraction(lt[k]) / Fraction(rt[k]) for k in lt}
    return len(ratios) == 1


def quadratic_form(n, coefficient):
    """Sum of coefficient(i, j) * x_i * x_j over i <= j."""
    terms = {}
    for i in range(n + 1):
        for j in range(i, n + 1):
            exponent = [0] * (n + 1)
            exponent[i] += 1
            exponent[j] += 1
            terms[tuple(exponent)] = coefficient(i, j)
    return Form(n, 2, terms)


def test_criterion_1_togliatti_fixture():
    start = time.monotonic()
    spec = IdealSpec.from_monomials(2, 3, [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)])
    assert is_artinian(spec)
    ok, failures = has_wlp(spec, seed=0, trials=3)
    assert not ok and failures == [2]
    assert splitting_type(spec, seed=0, trials=3).values == (-2, -1, 0)
    system = LinearSystem.from_apolar(apolar_complement(spec))
    assert sorted(system.exponents()) == sorted(HEXAGON)
    count = laplace_count(system, 2, seed=0, trials=3)
    assert count.delta == 1 and not count.degenerate
    assert time.monotonic() - start < 1.0


def test_criterion_2_control_fixture():
    start = time.monotonic()
    spec = IdealSpec.from_monomials(2, 3, [(3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 1, 0)])
    assert h_vector(spec) == (1, 3, 6, 6, 4, 1)
    ok, failures = has_wlp(spec, seed=0, trials=3)
    assert ok and failures == []
    assert time.monotonic() - start < 1.0


def test_criterion_3_classification_n2():
    start = time.monotonic()
    run = enumerate_cubic_togliatti(2)
    assert len(run.records) == 1
    (record,) = run.records
    assert record.generators == ((0, 0, 3), (0, 3, 0), (1, 1, 1), (3, 0, 0))
    assert record.trivial_a is None
    assert not record.trivial_b.sufficient
    assert time.monotonic() - start < 10.0


def test_criterion_4_classification_n3():
    start = time.monotonic()
    run = enumerate_cubic_togliatti(3)
    violations = []

    if run.subsets_seen != 14892:
        violations.append(f"saw {run.subsets_seen} generator subsets, not 14892")

    # the paper classifies the smooth *minimal* systems: no mixed generator
    # can be dropped with the rest still Togliatti
    all_smooth = [r for r in run.records if r.verdict == "smooth"]
    smooth = sorted(
        (r for r in all_smooth if run.removable_generator(r) is None),
        key=lambda r: -r.toric_degree,
    )
    smooth_degrees = [r.toric_degree for r in smooth]
    for degree in (23, 18, 13):
        if degree not in smooth_degrees:
            violations.append(f"no smooth record of toric degree {degree}")
    if len(smooth) != 3:
        extras = [r for r in smooth if r.toric_degree not in (23, 18, 13)]
        listing = "; ".join(
            f"generators={r.generators} toric_degree={r.toric_degree} "
            f"orbit={r.orbit_size} trivial_a={r.trivial_a}"
            for r in extras
        )
        violations.append(
            f"minimal smooth census is {len(smooth)}, not 3; "
            f"extra minimal smooth records: {listing}"
        )

    # re-certify the selection without the run's lookup: a rank reaching its
    # ceiling is a proof, and L = sum x_i suffices for monomial ideals
    def togliatti_without(record, mixed):
        reduced = [e for e in record.generators if e != mixed]
        return is_togliatti(IdealSpec.from_monomials(3, 3, reduced), seed=0, trials=3)

    for r in all_smooth:
        witness = run.removable_generator(r)
        if witness is not None:
            if not togliatti_without(r, witness):
                violations.append(
                    f"smooth record {r.generators} left out as non-minimal, but "
                    f"dropping {witness} leaves no Togliatti system"
                )
            continue
        removable = [m for m in r.extra if togliatti_without(r, m)]
        if removable:
            violations.append(
                f"smooth record {r.generators} kept as minimal, but dropping "
                f"any of {removable} leaves a Togliatti system"
            )

    case4 = canonical_form(classification_case_ideal(4).exponents())
    by_canonical = {r.generators: r for r in run.records}
    record4 = by_canonical.get(case4)
    if record4 is None:
        violations.append("case (4) missing from the census")
    else:
        if record4.verdict != "quasi-smooth":
            violations.append(f"case (4) verdict {record4.verdict}")
        if record4.trivial_a != (0, 0, 1, 1):
            violations.append(f"case (4) trivial type A witness {record4.trivial_a}")
        product = Form.monomial((0, 0, 1, 1))
        if not proportional(record4.quadric, product):
            violations.append("case (4) quadric certificate is not the variable product")

    for entry in four_prime_projections():
        if not entry["in_range"]:
            continue
        record = by_canonical.get(entry["canonical"])
        if record is None or record.verdict != "quasi-smooth":
            violations.append(f"{entry['label']}: expected quasi-smooth in the census")

    elapsed = time.monotonic() - start
    if elapsed >= 300.0:
        violations.append(f"runtime {elapsed:.0f}s on one core")
    assert not violations, "; ".join(violations)


def test_criterion_5_quadric_certificates():
    expected = {
        1: lambda i, j: 2 if i == j else -5,
        2: lambda i, j: 2 if i == j else (4 if (i, j) == (0, 1) else -5),
        3: lambda i, j: 2 if i == j else (4 if (i, j) in ((0, 1), (2, 3)) else -5),
    }
    for case, coefficient in expected.items():
        points = classification_case_system(case)
        recovered = perkinson_quadric(points)
        assert recovered is not None
        assert proportional(recovered, quadratic_form(3, coefficient))
    recovered = perkinson_quadric(classification_case_system(4))
    assert recovered is not None
    assert proportional(recovered, Form.monomial((1, 1, 0, 0)))
    # the rank-two case factors into the stated pair of hyperplanes
    factored = quadratic_form(3, expected[3])
    left = (-2, -2, 1, 1)
    right = (-1, -1, 2, 2)
    for point in itertools.product(range(-2, 3), repeat=4):
        assert evaluate(factored, point) == sum(
            a * x for a, x in zip(left, point)
        ) * sum(b * x for b, x in zip(right, point))


def test_criterion_6_degree_range_harness():
    start = time.monotonic()
    report = verify_r4_theorem(4, 12, seed=0, trials=3)
    assert report["ok"], report["violations"]
    witnesses = [e["witness"] for e in report["per_degree"] if e["witness"]]
    assert witnesses == [
        {
            "ideal": "(x^9, y^9, z^9, x^3 y^3 z^3)",
            "failure_degrees": [10],
            "expected": [10],
        }
    ]
    for entry in report["per_degree"]:
        assert entry["degree_dminus1_failures"] == []
        assert entry["full_wlp_failures"] == []
    assert time.monotonic() - start < 120.0


def power_ideal(d, seed):
    rng = rng_for(seed, "acceptance", "powers", d)
    forms = [random_linear_form(2, rng) for _ in range(d)]
    gens, product = [], None
    for linear in forms:
        power = linear
        for _ in range(d - 1):
            power = power * linear
        gens.append(power)
        product = linear if product is None else product * linear
    gens.append(product)
    return IdealSpec(2, d, tuple(gens))


def test_criterion_7_power_sum_family():
    for seed in range(10):
        for d in (5, 7):
            ok, failures = has_wlp(power_ideal(d, seed), seed=seed, trials=2)
            assert not ok and failures == [d - 1], (d, seed, failures)
        for d in (4, 6):
            ok, failures = has_wlp(power_ideal(d, seed), seed=seed, trials=2)
            assert ok, (d, seed, failures)


def test_criterion_8_counterexample_family():
    start = time.monotonic()
    for n in (3, 4, 5):
        spec = build_named_example("ilardi-counterexample", n)
        assert is_togliatti(spec, seed=0, trials=3)
        complement = apolar_complement(spec)
        assert len(complement.members) == n * (n + 1)
        system = LinearSystem.from_apolar(complement)
        assert smoothness_report(build_polytope(system)).smooth
        stated = quadratic_form(
            n, lambda i, j: 2 if i == j else (4 if j <= n - 2 else -5)
        )
        for point in system.exponents():
            assert evaluate(stated, point) == 0
        recovered = perkinson_quadric(system.exponents())
        assert recovered is not None and proportional(recovered, stated)
    il3 = build_named_example("ilardi-counterexample", 3).exponents()
    case2 = classification_case_ideal(2).exponents()
    assert canonical_form(il3) == canonical_form(case2)
    assert time.monotonic() - start < 30.0


def test_criterion_9_property_suites(corpus_audit):
    violations = [
        f"{name}: {entries}"
        for name, entries in corpus_audit["violations"].items()
        if entries
    ]
    assert corpus_audit["checked"]["three_way"] == 500
    assert not violations, "; ".join(violations)
