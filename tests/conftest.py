"""Shared fixtures: the standard cubic fixtures and the random ideal corpus."""

from collections import Counter

import pytest

from lefschetz import (
    IdealSpec,
    LinearSystem,
    apolar_complement,
    certified_lefschetz_report,
    dual_map_rank,
    generator_bound,
    h_vector,
    is_artinian,
    laplace_count,
    linalg,
    monomial_basis,
    multiplication_rank,
    splitting_type,
)
from lefschetz.algebra import forms_to_matrix, pure_power
from lefschetz.linalg import bareiss_rank, clear_denominators, rational_rank
from lefschetz.sampling import random_form, random_linear_form, rng_for
from lefschetz.wlp import _restricted_rows, restricted_generators

CORPUS_SEED = 0
CORPUS_SIZE = 500


@pytest.fixture
def togliatti_cubic():
    return IdealSpec.from_monomials(2, 3, [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)])


@pytest.fixture
def control_cubic():
    return IdealSpec.from_monomials(2, 3, [(3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 1, 0)])


def _pure_powers(n, d):
    return [pure_power(n, i, d) for i in range(n + 1)]


def _random_monomial_spec(rng):
    n = 2 if rng.random() < 0.7 else 3
    d = rng.randrange(3, 7) if n == 2 else rng.randrange(3, 6)
    bound = generator_bound(n, d)
    mixed = [e for e in monomial_basis(n, d) if max(e) < d]
    k = rng.randrange(1, min(bound - (n + 1), 8) + 1)
    extra = rng.sample(mixed, k)
    return IdealSpec.from_monomials(n, d, _pure_powers(n, d) + extra)


def _random_general_spec(rng):
    n = 2 if rng.random() < 0.75 else 3
    d = rng.randrange(3, 5) if n == 2 else 3
    bound = generator_bound(n, d)
    r = rng.randrange(n + 2, min(bound, 8) + 1)
    while True:
        try:
            spec = IdealSpec(n, d, [random_form(n, d, rng) for _ in range(r)])
        except ValueError:
            continue  # dependent sample; retry
        if is_artinian(spec):
            return spec


def three_way_integers(spec, seed):
    """The paper's equivalence as three integers: the kernel of x L in degree
    d-1, the dependencies of the generators on a general hyperplane and the
    number of Laplace equations of the apolar system.  The hyperplane ranks
    go through ``linalg.exact_rank`` as bound when called, so that a test
    wrapping it sees them too."""
    report = certified_lefschetz_report(spec, spec.d - 1, seed=seed, trials=3)
    kernel = report.dim_source - report.rank
    ranks = _restricted_rows(
        spec, seed, 3, linalg.exact_rank, lambda rank: rank == spec.r
    )
    dependencies = spec.r - max(ranks)
    system = LinearSystem.from_apolar(apolar_complement(spec))
    delta = laplace_count(system, spec.d - 1, seed=seed, trials=3).delta
    return kernel, dependencies, delta


@pytest.fixture(scope="session")
def three_way():
    """``three_way_integers``, for a test that reads them again."""
    return three_way_integers


@pytest.fixture(scope="session")
def corpus():
    """CORPUS_SIZE random artinian ideals, n <= 3, d <= 6, r within the bound.

    Roughly 60% monomial (pure powers plus mixed monomials) and 40% dense
    random forms; deterministic in CORPUS_SEED.
    """
    specs = []
    rng = rng_for(CORPUS_SEED, "corpus")
    for _ in range(CORPUS_SIZE):
        if rng.random() < 0.6:
            specs.append(_random_monomial_spec(rng))
        else:
            specs.append(_random_general_spec(rng))
    monomial = sum(1 for s in specs if s.is_monomial)
    assert len(specs) == CORPUS_SIZE
    assert 0 < monomial < CORPUS_SIZE
    return specs


@pytest.fixture(scope="session")
def corpus_audit(corpus):
    """One pass of the five property suites over the corpus.

    Session-scoped so the property tests and the acceptance test share a
    single audit.  Returns the violation lists plus check counters.
    """
    violations = {
        "three_way": [],
        "duality": [],
        "splitting": [],
        "lefschetz": [],
        "rank_routes": [],
    }
    checked = Counter()
    for i, spec in enumerate(corpus):
        # every corpus ideal is artinian with r within the generator bound
        kernel, dependencies, delta = three_way_integers(spec, i)
        if not kernel == dependencies == delta:
            violations["three_way"].append((i, kernel, dependencies, delta))
        checked["three_way"] += 1
        checked["three_way_delta_positive"] += delta >= 1

        rng = rng_for(CORPUS_SEED, "audit", "duality", i)
        linear = random_linear_form(spec.n, rng)
        if dual_map_rank(spec, linear) != multiplication_rank(
            spec, linear, spec.d - 1
        ).rank:
            violations["duality"].append(i)
        checked["duality"] += 1

        split = splitting_type(spec, seed=i, trials=3)
        if sum(split.values) != -spec.d or any(a > 0 for a in split.values):
            violations["splitting"].append((i, split.values))
        checked["splitting"] += 1

        if spec.is_monomial:
            for j in range(len(h_vector(spec))):
                plain = certified_lefschetz_report(spec, j, seed=i, trials=1)
                generic = certified_lefschetz_report(
                    spec, j, seed=i, trials=3, force_generic=True
                )
                if plain.rank != generic.rank:
                    violations["lefschetz"].append((i, j, plain.rank, generic.rank))
            checked["lefschetz"] += 1

        batch = next(iter(restricted_generators(spec, seed=i, trials=1)))
        rows, _ = forms_to_matrix(batch)
        int_rows = [clear_denominators(row) for row in rows]
        if bareiss_rank(int_rows) != rational_rank(rows):
            violations["rank_routes"].append(i)
        checked["rank_routes"] += 1
    return {"violations": violations, "checked": checked}
