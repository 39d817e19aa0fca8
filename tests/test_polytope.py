"""Lattice polytopes of monomial systems: hulls, smoothness, volumes."""

import itertools
from math import factorial

import pytest

from lefschetz.classify import classification_case_system
from lefschetz.linalg import det_int
from lefschetz.osculating import LinearSystem
from lefschetz.polytope import (
    DegeneratePolytopeError,
    build_polytope,
    normalized_volume,
    polytope_from_points,
    polytope_json,
    smoothness_report,
)
from lefschetz.sampling import rng_for

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


# Volume checks that do not go through the pyramid recursion's own logic:
# lattice invariance, scaling, closed forms, and a hull written here.


def random_full_points(rng, m, count, spread=3):
    while True:
        pts = {
            tuple(rng.randrange(-spread, spread + 1) for _ in range(m))
            for _ in range(count)
        }
        P = polytope_from_points(sorted(pts))
        if P.is_full_dimensional:
            return sorted(pts)


def random_unimodular(rng, m):
    # a signed permutation times elementary shears: determinant +-1
    perm = list(range(m))
    rng.shuffle(perm)
    mat = [
        [rng.choice([-1, 1]) if j == perm[i] else 0 for j in range(m)]
        for i in range(m)
    ]
    for _ in range(3):
        i, j = rng.sample(range(m), 2)
        q = rng.choice([-2, -1, 1, 2])
        mat[i] = [a + q * b for a, b in zip(mat[i], mat[j])]
    return mat


def apply(mat, shift, points):
    return [
        tuple(sum(a * b for a, b in zip(row, p)) + s for row, s in zip(mat, shift))
        for p in points
    ]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_volume_is_lattice_invariant_and_scales(m):
    rng = rng_for(m, "polytope-volume-invariance")
    for trial in range(6):
        pts = random_full_points(rng, m, m + 4)
        nvol = normalized_volume(polytope_from_points(pts))
        assert nvol > 0
        identity = [[int(i == j) for j in range(m)] for i in range(m)]
        shift = [rng.randrange(-5, 6) for _ in range(m)]
        moved = apply(identity, shift, pts)
        assert normalized_volume(polytope_from_points(moved)) == nvol
        mat = random_unimodular(rng, m)
        assert abs(det_int(mat)) == 1
        mapped = apply(mat, shift, pts)
        assert normalized_volume(polytope_from_points(mapped)) == nvol
        k = rng.randrange(2, 4)
        dilated = apply([[k * x for x in row] for row in identity], [0] * m, pts)
        assert normalized_volume(polytope_from_points(dilated)) == k**m * nvol


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_volume_closed_forms(m, k):
    cube = list(itertools.product([0, k], repeat=m))
    assert normalized_volume(polytope_from_points(cube)) == factorial(m) * k**m
    simplex = [tuple(0 for _ in range(m))] + [
        tuple(k * int(i == j) for j in range(m)) for i in range(m)
    ]
    assert normalized_volume(polytope_from_points(simplex)) == k**m
    # with every lattice point of k * simplex marked, the volume is the same
    filled = [p for p in itertools.product(range(k + 1), repeat=m) if sum(p) <= k]
    assert normalized_volume(polytope_from_points(filled)) == k**m
    cross = [
        tuple(s * int(i == j) for j in range(m)) for i in range(m) for s in (1, -1)
    ]
    assert normalized_volume(polytope_from_points(cross)) == 2**m


def twice_hull_area(points):
    """Twice the area of the convex hull: monotone chain, then shoelace."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    hull = chain(pts)[:-1] + chain(reversed(pts))[:-1]
    return abs(
        sum(
            a[0] * b[1] - a[1] * b[0]
            for a, b in zip(hull, hull[1:] + hull[:1])
        )
    )


def test_polygon_volume_is_twice_the_shoelace_area():
    rng = rng_for(0, "polytope-volume-polygons")
    for trial in range(40):
        pts = random_full_points(rng, 2, rng.randrange(3, 12), spread=6)
        assert normalized_volume(polytope_from_points(pts)) == twice_hull_area(pts)
