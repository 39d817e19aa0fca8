"""Splitting types of restricted syzygy bundles and the rank-four verifier."""

from fractions import Fraction

import pytest

from lefschetz import bundles
from lefschetz.algebra import Form, monomial_basis, multiples_matrix, pure_power
from lefschetz.bundles import (
    AnalysisError,
    SplittingType,
    _kernel_dimension_on_line,
    _kernel_profile,
    restrict_to_line,
    splitting_type,
    verify_r4_theorem,
)
from lefschetz.classify import canonical_form
from lefschetz.linalg import exact_rank
from lefschetz.sampling import random_form, random_line, rng_for
from lefschetz.wlp import IdealSpec, fails_in_degree_dminus1


def test_togliatti_splitting(togliatti_cubic):
    st = splitting_type(togliatti_cubic, seed=0, trials=3)
    assert st.values == (-2, -1, 0)
    assert st.d == 3
    assert not st.wlp_in_degree_dminus1


def test_control_splitting(control_cubic):
    st = splitting_type(control_cubic, seed=0, trials=3)
    assert st.values == (-1, -1, -1)
    assert st.wlp_in_degree_dminus1


def test_splitting_invariants(togliatti_cubic, control_cubic):
    for spec in (togliatti_cubic, control_cubic):
        st = splitting_type(spec, seed=0, trials=3)
        assert len(st.values) == spec.r - 1
        assert sum(st.values) == -spec.d
        assert all(a <= 0 for a in st.values)
        assert st.values == tuple(sorted(st.values))


def test_splitting_wlp_matches_direct(togliatti_cubic, control_cubic):
    for spec in (togliatti_cubic, control_cubic):
        assert splitting_type(spec, seed=0, trials=3).wlp_in_degree_dminus1 == (
            not fails_in_degree_dminus1(spec, seed=0, trials=3)
        )


def test_splitting_rejects_non_artinian():
    with pytest.raises(ValueError):
        splitting_type(IdealSpec.from_monomials(2, 3, [(3, 0, 0), (0, 3, 0)]))
    with pytest.raises(ValueError):
        splitting_type(IdealSpec.from_monomials(2, 3, [(3, 0, 0)]))


def _profile_of_twists(spec, values):
    # k(t) = sum_i max(0, a_i + t + 1) for the twists a_i, t = 0..d
    return [sum(max(0, a + t + 1) for a in values) for t in range(spec.d + 1)]


def test_floor_stop_keeps_the_minimum_over_three_lines(corpus):
    # the three lines splitting_type draws for seed i, restricted here; the
    # type it returns must have the minimum of their kernel profiles
    above_floor = 0
    for i, spec in enumerate(corpus):
        rng = rng_for(i, "splitting-line")
        profiles = []
        for _ in range(3):
            restricted = restrict_to_line(spec.generators, *random_line(spec.n, rng))
            if any(f.is_zero for f in restricted):
                continue
            profiles.append(
                [
                    spec.r * (t + 1) - exact_rank(multiples_matrix(restricted, t))
                    for t in range(spec.d + 1)
                ]
            )
        floor = [max(0, spec.r * (t + 1) - (t + spec.d + 1)) for t in range(spec.d + 1)]
        assert all(p >= f for profile in profiles for p, f in zip(profile, floor)), i
        above_floor += profiles[0] != floor
        minimum = [min(column) for column in zip(*profiles)]
        values = splitting_type(spec, seed=i, trials=3).values
        assert _profile_of_twists(spec, values) == minimum, i
    assert above_floor == 20


def test_floor_stop_draws_one_line_on_the_floor(
    monkeypatch, togliatti_cubic, control_cubic
):
    calls = []

    def counting(forms, p, q):
        calls.append((p, q))
        return restrict_to_line(forms, p, q)

    monkeypatch.setattr(bundles, "restrict_to_line", counting)
    # control: k = (0, 3, 6, 9) is the floor; Togliatti: k(0) = 1 on every line
    st = splitting_type(control_cubic, seed=0, trials=3)
    assert _profile_of_twists(control_cubic, st.values) == [0, 3, 6, 9]
    assert len(calls) == 1
    calls.clear()
    st = splitting_type(togliatti_cubic, seed=0, trials=3)
    assert _profile_of_twists(togliatti_cubic, st.values) == [1, 3, 6, 9]
    assert len(calls) == 3
    # on the floor at t = 0 only: the floor is (0, 0, 3, 6, 9, 12, 15)
    calls.clear()
    sextic = IdealSpec.from_monomials(2, 6, [(6, 0, 0), (0, 6, 0), (0, 0, 6), (1, 5, 0)])
    st = splitting_type(sextic, seed=0, trials=3)
    assert _profile_of_twists(sextic, st.values) == [0, 1, 3, 6, 9, 12, 15]
    assert len(calls) == 3


def test_kernel_profile_stops_ranking_only_where_the_floor_is_exact(corpus):
    # one seeded line per corpus ideal: the profile with the early stop is
    # the profile ranked in every degree
    ranked = degrees = 0
    for i, spec in enumerate(corpus):
        rng = rng_for(i, "kernel-profile")
        restricted = restrict_to_line(spec.generators, *random_line(spec.n, rng))
        if any(f.is_zero for f in restricted):
            continue
        full = [_kernel_dimension_on_line(restricted, t) for t in range(spec.d + 1)]
        assert _kernel_profile(restricted, spec.r, spec.d) == full, i
        onto = [spec.r * (t + 1) - k == t + spec.d + 1 for t, k in enumerate(full)]
        ranked += onto.index(True) + 1
        degrees += spec.d + 1
    # every twist on these lines is >= -d, so each is onto by t = d-1
    assert (ranked, degrees) == (656, 2480)


def test_kernel_profile_ranks_on_where_a_rank_is_one_short():
    # on the corpus lines a rank of exactly t+d is always followed by an onto
    # map (in two variables the span's codimension drops in every degree
    # unless the forms share a factor), so a stop that fired there would
    # still read the right profile; on a line through a common zero of the
    # forms the restrictions share a root and the rank stays at t+d
    rng = rng_for(0, "one-short")
    one_short = 0
    for r, d in [(3, 2), (4, 3), (3, 4), (5, 3), (4, 5)]:
        # dense forms with no x^d term all vanish at (1, 0, 0)
        forms = [random_form(2, d, rng) for _ in range(r)]
        forms = [Form(2, d, {e: c for e, c in f.terms.items() if e[0] < d}) for f in forms]
        restricted = restrict_to_line(forms, (1, 0, 0), random_line(2, rng)[1])
        full = [_kernel_dimension_on_line(restricted, t) for t in range(d + 1)]
        assert _kernel_profile(restricted, r, d) == full, (r, d)
        one_short += any(r * (t + 1) - k == t + d for t, k in enumerate(full))
    assert one_short == 5


def test_kernel_profile_ranks_once_when_degree_d_is_spanned(monkeypatch):
    # r >= d+1 forms spanning the binary forms of degree d: t = 0 is onto
    calls = []

    def counting(rows):
        calls.append(rows)
        return exact_rank(rows)

    monkeypatch.setattr(bundles, "exact_rank", counting)
    rng = rng_for(0, "spanned")
    specs = [
        IdealSpec.from_monomials(2, 2, [(2, 0, 0), (0, 2, 0), (0, 0, 2)]),
        IdealSpec(2, 3, [random_form(2, 3, rng) for _ in range(5)]),
    ]
    for spec in specs:
        assert spec.r >= spec.d + 1
        for _ in range(3):
            restricted = restrict_to_line(spec.generators, *random_line(spec.n, rng))
            calls.clear()
            profile = _kernel_profile(restricted, spec.r, spec.d)
            assert len(calls) == 1
            assert profile == [
                spec.r * (t + 1) - (t + spec.d + 1) for t in range(spec.d + 1)
            ]


def test_restrict_to_line_binary_cubic():
    cube = Form.monomial((3, 0, 0))
    (restricted,) = restrict_to_line([cube], (1, 2, 3), (4, 5, 6))
    # x = s + 4t, so x^3 pulls back to (s + 4t)^3
    assert restricted.n == 1
    assert restricted.degree == 3
    assert dict(restricted.terms) == {
        (3, 0): Fraction(1),
        (2, 1): Fraction(12),
        (1, 2): Fraction(48),
        (0, 3): Fraction(64),
    }


def test_restrict_to_line_rejects_coincident_points():
    cube = Form.monomial((3, 0, 0))
    with pytest.raises(ValueError):
        restrict_to_line([cube], (1, 2, 3), (2, 4, 6))
    # scaled by 1/2, as Fractions and as floats exact in binary
    with pytest.raises(ValueError):
        restrict_to_line([cube], (Fraction(1, 2), 1, Fraction(3, 2)), (1, 2, 3))
    with pytest.raises(ValueError):
        restrict_to_line([cube], (0.5, 1.0, 1.5), (1, 2, 3))


def test_restrict_to_line_keeps_count(togliatti_cubic):
    forms = list(togliatti_cubic.generators)
    out = restrict_to_line(forms, (1, 0, 2), (0, 1, 5))
    assert len(out) == len(forms)
    assert all(f.degree == 3 for f in out)


def test_verify_r4_smoke(monkeypatch):
    monkeypatch.setattr(bundles, "_R4_RANDOM_SAMPLES", 2)
    report = verify_r4_theorem(4, 4, seed=0, trials=2)
    assert report["ok"]
    assert report["violations"] == []
    assert report["d_min"] == report["d_max"] == 4
    (entry,) = report["per_degree"]
    assert entry["d"] == 4
    assert entry["monomial_orbits"] == 3
    assert entry["random_samples"] == 2
    assert entry["non_wlp_orbits"] == []
    assert entry["witness"] is None
    assert "monomial_samples" not in entry
    assert "distinct_monomial_ideals" not in entry


def test_verify_r4_checks_one_monomial_per_orbit(monkeypatch):
    # the brute-force orbit list: canonical forms of the whole generator
    # sets (x^d, y^d, z^d, m) under the six coordinate permutations
    checked = []

    def counting(spec, **kwargs):
        if spec.is_monomial:
            (m,) = [e for e in spec.exponents() if max(e) < spec.d]
            checked.append((spec.d, m))
        return fails_in_degree_dminus1(spec, **kwargs)

    monkeypatch.setattr(bundles, "fails_in_degree_dminus1", counting)
    monkeypatch.setattr(bundles, "_R4_RANDOM_SAMPLES", 0)
    report = verify_r4_theorem(3, 12, seed=0, trials=1)
    counts = []
    for entry in report["per_degree"]:
        d = entry["d"]
        pure = [pure_power(2, i, d) for i in range(3)]
        mixed = [e for e in monomial_basis(2, d) if max(e) < d]
        orbits = {canonical_form(pure + [m]) for m in mixed}
        assert entry["monomial_orbits"] == len(orbits)
        handed = [m for degree, m in checked if degree == d]
        assert len(handed) == len(orbits)
        assert {canonical_form(pure + [m]) for m in handed} == orbits
        counts.append(len(orbits))
    assert counts == [2, 3, 4, 6, 7, 9, 11, 13, 15, 18]


def test_verify_r4_lists_the_non_wlp_orbits_at_d_nine(monkeypatch):
    monkeypatch.setattr(bundles, "_R4_RANDOM_SAMPLES", 0)
    report = verify_r4_theorem(9, 9, seed=0, trials=1)
    assert report["ok"], report["violations"]
    (entry,) = report["per_degree"]
    assert entry["non_wlp_orbits"] == [
        [[1, 4, 4], [10]],
        [[2, 2, 5], [10]],
        [[3, 3, 3], [10]],
    ]
    assert entry["witness"] == {
        "ideal": "(x^9, y^9, z^9, x^3 y^3 z^3)",
        "failure_degrees": [10],
        "expected": [10],
    }
    assert entry["full_wlp_failures"] == []


def test_verify_r4_judges_the_d_three_witness_by_its_own_rule(monkeypatch):
    # x y z is Togliatti's cubic: it fails in degree 2 = d-1 = 4*lambda - 2,
    # which the witness rule asks for and the degree-(d-1) rule leaves to it
    monkeypatch.setattr(bundles, "_R4_RANDOM_SAMPLES", 2)
    report = verify_r4_theorem(3, 3, seed=0, trials=1)
    assert report["ok"], report["violations"]
    (entry,) = report["per_degree"]
    assert entry["degree_dminus1_failures"] == []
    assert entry["non_wlp_orbits"] == [[[1, 1, 1], [2]]]
    assert entry["witness"]["failure_degrees"] == entry["witness"]["expected"] == [2]


def test_verify_r4_caps_the_random_ideal_redraw(monkeypatch):
    calls = []

    def never_artinian(spec):
        calls.append(spec)
        if len(calls) > 10_000:
            raise RuntimeError("the random-ideal redraw does not stop")
        return False

    monkeypatch.setattr(bundles, "is_artinian", never_artinian)
    with pytest.raises(AnalysisError, match="d=3, k=0: no artinian random ideal in 10 draws"):
        verify_r4_theorem(3, 3, seed=0, trials=1)
    assert 0 < len(calls) <= bundles._R4_RANDOM_DRAWS


@pytest.mark.parametrize(
    "d_min, d_max, message",
    [
        (2, 4, "d_min must be at least 3"),
        (1, 4, "d_min must be at least 3"),
        (5, 3, "empty degree range"),
    ],
    ids=["dmin-two", "dmin-one", "empty-range"],
)
def test_verify_r4_rejects_bad_ranges(d_min, d_max, message):
    with pytest.raises(ValueError, match=message):
        verify_r4_theorem(d_min, d_max, seed=0, trials=2)
