"""Lattice polytopes of monomial systems: hulls, smoothness, volumes."""

import pytest

from lefschetz.classify import classification_case_system
from lefschetz.osculating import LinearSystem
from lefschetz.polytope import (
    DegeneratePolytopeError,
    build_polytope,
    normalized_volume,
    polytope_from_points,
    polytope_json,
    smoothness_report,
)

HEXAGON = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def case_polytope(case):
    exps = classification_case_system(case)
    return build_polytope(LinearSystem.from_monomials(3, 3, exps))


def test_hexagon_statistics():
    P = build_polytope(LinearSystem.from_monomials(2, 3, HEXAGON))
    assert P.is_full_dimensional
    assert (len(P.points), len(P.vertices), len(P.facets), len(P.edges)) == (6, 6, 6, 6)
    assert normalized_volume(P) == 6
    rep = smoothness_report(P)
    assert rep.simple and rep.smooth and not rep.edge_rule_fired


def test_full_simplex_statistics():
    pts = [(a, b) for a in range(4) for b in range(4) if a + b <= 3]
    P = polytope_from_points(pts)
    assert (len(P.points), len(P.vertices), len(P.facets), len(P.edges)) == (10, 3, 3, 3)
    assert normalized_volume(P) == 9
    assert smoothness_report(P).smooth


def test_punctured_simplex_fails_edge_rule():
    # same hull as the full simplex, but the mid-edge points are unmarked
    P = polytope_from_points([(0, 0), (3, 0), (0, 3), (1, 1)])
    assert normalized_volume(P) == 9
    rep = smoothness_report(P)
    assert rep.simple
    assert not rep.smooth
    assert rep.edge_rule_fired


# (points, vertices, facets, edges, nvol, smooth, facet sizes)
CASE_STATS = {
    1: (12, 12, 8, 18, 23, True, [3, 3, 3, 3, 6, 6, 6, 6]),
    2: (12, 10, 7, 15, 18, True, [3, 3, 5, 5, 6, 6, 6]),
    3: (12, 8, 6, 12, 13, True, [5, 5, 5, 5, 6, 6]),
    4: (12, 10, 7, 15, 18, False, [3, 3, 4, 4, 4, 7, 7]),
}


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_case_polytopes(case):
    pts, verts, facets, edges, nvol, smooth, sizes = CASE_STATS[case]
    P = case_polytope(case)
    assert (len(P.points), len(P.vertices), len(P.facets), len(P.edges)) == (
        pts,
        verts,
        facets,
        edges,
    )
    assert normalized_volume(P) == nvol
    rep = smoothness_report(P)
    assert rep.simple
    assert rep.smooth is smooth
    assert sorted(len(P.facet_points(f)) for f in P.facets) == sizes


def test_case_one_never_needs_edge_rule():
    assert not smoothness_report(case_polytope(1)).edge_rule_fired


@pytest.mark.parametrize("case", [2, 3, 4])
def test_long_edges_exercise_edge_rule(case):
    assert smoothness_report(case_polytope(case)).edge_rule_fired


def test_octahedron_is_not_simple():
    P = polytope_from_points(
        [(1, 1, 0), (1, 0, 1), (0, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)]
    )
    rep = smoothness_report(P)
    assert not rep.simple and not rep.smooth


def test_degenerate_hull_is_flagged():
    P = polytope_from_points([(0, 0), (1, 1), (2, 2)])
    assert not P.is_full_dimensional
    assert P.affine_dim == 1
    with pytest.raises(DegeneratePolytopeError):
        smoothness_report(P)
    with pytest.raises(DegeneratePolytopeError):
        normalized_volume(P)


def test_build_polytope_projects_to_chart():
    # exponents live on the simplex slice, so one coordinate is dropped
    segment = build_polytope(
        LinearSystem.from_monomials(2, 3, [(3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0)])
    )
    assert segment.dim == 2
    assert not segment.is_full_dimensional


def test_polytope_json_shape():
    P = build_polytope(LinearSystem.from_monomials(2, 3, HEXAGON))
    data = polytope_json(P)
    assert sorted(data) == ["edges", "facets", "normalized_volume", "points", "vertices"]
    assert data["normalized_volume"] == 6
    assert len(data["points"]) == 6
    # everything is plain lists, so the payload is JSON-serializable
    import json

    json.dumps(data)
