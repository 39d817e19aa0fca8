"""Splitting types of restricted syzygy bundles and the rank-four verifier."""

from fractions import Fraction

import pytest

from lefschetz import bundles
from lefschetz.algebra import Form, multiples_matrix
from lefschetz.bundles import (
    SplittingType,
    _kernel_dimension_on_line,
    _kernel_profile,
    restrict_to_line,
    splitting_type,
    verify_r4_theorem,
)
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


def test_restrict_to_line_keeps_count(togliatti_cubic):
    forms = list(togliatti_cubic.generators)
    out = restrict_to_line(forms, (1, 0, 2), (0, 1, 5))
    assert len(out) == len(forms)
    assert all(f.degree == 3 for f in out)


def test_verify_r4_smoke():
    report = verify_r4_theorem(
        4, 4, seed=0, trials=2, monomial_samples=10, random_samples=2
    )
    assert report["ok"]
    assert report["violations"] == []
    assert report["d_min"] == report["d_max"] == 4
    (entry,) = report["per_degree"]
    assert entry["d"] == 4
    assert entry["distinct_monomial_ideals"] > 0
    assert "witness" in entry


@pytest.mark.parametrize(
    "d_min, d_max, counts, message",
    [
        (2, 4, {}, "d_min must be at least 3"),
        (1, 4, {}, "d_min must be at least 3"),
        (5, 3, {}, "empty degree range"),
        (4, 4, {"monomial_samples": -2}, "sample counts must be non-negative"),
        (4, 4, {"random_samples": -1}, "sample counts must be non-negative"),
    ],
    ids=["dmin-two", "dmin-one", "empty-range", "monomial-samples", "random-samples"],
)
def test_verify_r4_rejects_bad_ranges(d_min, d_max, counts, message):
    with pytest.raises(ValueError, match=message):
        verify_r4_theorem(d_min, d_max, seed=0, trials=2, **counts)
