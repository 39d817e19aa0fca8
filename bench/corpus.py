"""Seeded random ideal corpus and its five-check audit.

``generate_corpus(0)`` reproduces the 500-ideal corpus of the test suite
ideal by ideal (286 monomial, 214 general).  Any other seed keeps the shape
of every ideal of that corpus -- monomial or general, n, d, and the number
of generators -- and redraws which monomials or coefficients it has, so the
amount of work, and above all its slow tail, changes little from seed to
seed.  The benchmark builds its own copy instead of importing the test
fixtures, so it runs from the library sources alone.
"""

from __future__ import annotations

from lefschetz import (
    IdealSpec,
    LinearSystem,
    apolar_complement,
    certified_lefschetz_report,
    dual_map_rank,
    fails_in_degree_dminus1,
    generator_bound,
    h_vector,
    is_artinian,
    laplace_count,
    monomial_basis,
    multiplication_rank,
    splitting_type,
)
from lefschetz.algebra import forms_to_matrix
from lefschetz.linalg import bareiss_rank, clear_denominators, rational_rank
from lefschetz.sampling import random_form, random_linear_form, rng_for
from lefschetz.wlp import restricted_generators

CORPUS_SIZE = 500


def _pure_powers(n, d):
    return [tuple(d if j == i else 0 for j in range(n + 1)) for i in range(n + 1)]


def _monomial_spec(n, d, k, rng):
    """Pure powers plus k distinct mixed monomials."""
    mixed = [e for e in monomial_basis(n, d) if max(e) < d]
    return IdealSpec.from_monomials(n, d, _pure_powers(n, d) + rng.sample(mixed, k))


def _general_spec(n, d, r, rng):
    """r dense random forms generating an artinian ideal."""
    while True:
        try:
            spec = IdealSpec(n, d, [random_form(n, d, rng) for _ in range(r)])
        except ValueError:
            continue  # dependent sample; retry
        if is_artinian(spec):
            return spec


def _random_monomial_spec(rng):
    n = 2 if rng.random() < 0.7 else 3
    d = rng.randrange(3, 7) if n == 2 else rng.randrange(3, 6)
    k = rng.randrange(1, min(generator_bound(n, d) - (n + 1), 8) + 1)
    return _monomial_spec(n, d, k, rng)


def _random_general_spec(rng):
    n = 2 if rng.random() < 0.75 else 3
    d = rng.randrange(3, 5) if n == 2 else 3
    r = rng.randrange(n + 2, min(generator_bound(n, d), 8) + 1)
    return _general_spec(n, d, r, rng)


def shape(spec) -> str:
    """'m,n,d,k' for pure powers plus k mixed monomials, 'g,n,d,r' otherwise."""
    if spec.is_monomial:
        return f"m,{spec.n},{spec.d},{spec.r - spec.n - 1}"
    return f"g,{spec.n},{spec.d},{spec.r}"


def generate_corpus(seed, shapes=None):
    """500 random artinian ideals, n <= 3, d <= 6, r within the bound.

    Seed 0 draws shapes and contents from one stream, as the test suite
    does: about 60% monomial (pure powers plus mixed monomials) and 40% dense
    random forms.  Other seeds draw each ideal's contents for the seed-0
    ``shapes`` (see ``shape``) from their own stream per ideal.
    """
    if seed == 0:
        rng = rng_for(0, "corpus")
        return [
            _random_monomial_spec(rng) if rng.random() < 0.6 else _random_general_spec(rng)
            for _ in range(CORPUS_SIZE)
        ]
    specs = []
    for i, text in enumerate(shapes):
        kind, n, d, count = text.split(",")
        draw = _monomial_spec if kind == "m" else _general_spec
        specs.append(draw(int(n), int(d), int(count), rng_for(seed, "corpus", i)))
    return specs


def audit_ideal(seed, i: int, spec) -> list:
    """Names of the checks ideal ``i`` of the seed-``seed`` corpus violates."""
    violated = []
    fails_map = not certified_lefschetz_report(
        spec, spec.d - 1, seed=i, trials=3
    ).maximal_rank
    dependent = fails_in_degree_dminus1(spec, seed=i, trials=3)
    system = LinearSystem.from_apolar(apolar_complement(spec))
    delta = laplace_count(system, spec.d - 1, seed=i, trials=3).delta
    if not (fails_map == dependent == (delta >= 1)):
        violated.append("three_way")

    linear = random_linear_form(spec.n, rng_for(seed, "audit", "duality", i))
    if dual_map_rank(spec, linear) != multiplication_rank(spec, linear, spec.d - 1).rank:
        violated.append("duality")

    split = splitting_type(spec, seed=i, trials=3)
    if sum(split.values) != -spec.d or any(a > 0 for a in split.values):
        violated.append("splitting")

    if spec.is_monomial:
        for j in range(len(h_vector(spec))):
            plain = certified_lefschetz_report(spec, j, seed=i, trials=1)
            generic = certified_lefschetz_report(
                spec, j, seed=i, trials=3, force_generic=True
            )
            if plain.rank != generic.rank:
                violated.append("lefschetz")
                break

    batch = next(iter(restricted_generators(spec, seed=i, trials=1)))
    rows, _ = forms_to_matrix(batch)
    if bareiss_rank([clear_denominators(row) for row in rows]) != rational_rank(rows):
        violated.append("rank_routes")
    return violated
