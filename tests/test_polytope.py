"""Lattice polytopes of monomial systems: hulls, smoothness, volumes."""

import itertools
from math import comb, factorial

import numpy as np
import pytest

from lefschetz import polytope
from lefschetz.classify import classification_case_system, enumerate_cubic_togliatti
from lefschetz.linalg import det_int, lattice_coordinate_rows, rational_rank
from lefschetz.osculating import LinearSystem
from lefschetz.polytope import (
    DegeneratePolytopeError,
    _incidence,
    _nvol,
    build_polytope,
    normalized_volume,
    polytope_from_points,
    polytope_json,
    smoothness_report,
)
from lefschetz.sampling import rng_for

from form_helpers import random_unimodular

HEXAGON = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def on_facet(point, facet) -> bool:
    """The reference membership test: normal . point == offset, in Python ints."""
    normal, offset = facet
    return sum(a * b for a, b in zip(normal, point)) == offset


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
    assert sorted(sum(on_facet(p, f) for p in P.points) for f in P.facets) == sizes


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


# Vertices and edges come from the facet incidence table; the rank criterion
# below is the reference: a point is a vertex iff the normals of its facets
# span R^m, two vertices span an edge iff their common normals have rank m-1.


def rank_criterion(P):
    normals = [[f[0] for f in P.facets if on_facet(p, f)] for p in P.points]
    m = P.dim
    vertices = tuple(
        k for k, rows in enumerate(normals) if rows and rational_rank(rows) == m
    )
    edges = []
    for a, b in itertools.combinations(vertices, 2):
        common = [row for row in normals[a] if row in normals[b]]
        if (rational_rank(common) if common else 0) == m - 1:
            edges.append((a, b))
    return vertices, tuple(edges)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_vertices_and_edges_match_the_rank_criterion(m):
    rng = rng_for(m, "polytope-incidence")
    full = 0
    for trial in range(60):
        pts = [
            tuple(rng.randrange(-2, 3) for _ in range(m))
            for _ in range(rng.randrange(1, 10))
        ]
        a, b = pts[0], pts[-1]
        extra = rng.randrange(4)
        if extra == 1:  # a duplicate
            pts.append(a)
        elif extra == 2:  # a and 2a - b now lie inside the segment [3a - 2b, b]
            pts += [tuple(k * x - (k - 1) * y for x, y in zip(a, b)) for k in (2, 3)]
        elif extra == 3:  # a degenerate set: all on one line
            pts = [tuple(x + k * (y - x) for x, y in zip(a, b)) for k in range(4)]
        P = polytope_from_points(pts)
        if not P.is_full_dimensional:
            assert P.vertices == P.edges == P.facets == ()
            continue
        full += 1
        assert _incidence(P.points, P.facets).tolist() == [
            [on_facet(p, f) for f in P.facets] for p in P.points
        ]
        assert (P.vertices, P.edges) == rank_criterion(P)
    assert full >= 20


def test_hull_takes_one_rank_computation(monkeypatch):
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return rank(rows)

    rank = polytope.exact_rank
    monkeypatch.setattr(polytope, "exact_rank", counting)
    P = case_polytope(4)
    assert P.is_full_dimensional and len(P.vertices) == 10
    assert calls == [len(P.points) - 1]


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


# The sweep tries every m-subset of the marked points, so a closed form is
# checked only while there are at most this many: the 2^m cube stops at
# m = 5, the filled simplex at k = 2 for m = 5 and at k = 1 for m = 6.
SWEPT_SUBSETS = 250_000


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_volume_closed_forms(m, k):
    cube = list(itertools.product([0, k], repeat=m))
    simplex = [tuple(0 for _ in range(m))] + [
        tuple(k * int(i == j) for j in range(m)) for i in range(m)
    ]
    # with every lattice point of k * simplex marked, the volume is the same
    filled = [p for p in itertools.product(range(k + 1), repeat=m) if sum(p) <= k]
    cross = [
        tuple(s * int(i == j) for j in range(m)) for i in range(m) for s in (1, -1)
    ]
    volumes = [factorial(m) * k**m, k**m, k**m, 2**m]
    for points, volume in zip([cube, simplex, filled, cross], volumes):
        if comb(len(points), m) <= SWEPT_SUBSETS:
            assert normalized_volume(polytope_from_points(points)) == volume


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


# The reference route for the volume: the pyramid recursion with every
# section swept for its own facets, down to segments, with no planar base
# case.  ``normalized_volume`` ends at polygons instead.


def pyramid_volume(points):
    """Normalized volume of the hull of full-dimensional points in Z^m."""
    m = len(points[0])
    if m == 1:
        xs = [p[0] for p in points]
        return max(xs) - min(xs)
    apex = points[0]
    total = 0
    for normal, offset in polytope._facet_sweep(points):
        height = offset - sum(a * b for a, b in zip(normal, apex))
        if height == 0:
            continue
        section = [p for p in points if on_facet(p, (normal, offset))]
        base = section[0]
        rows = lattice_coordinate_rows(normal)[1:]
        coords = [
            tuple(sum(r * (a - b) for r, a, b in zip(row, p, base)) for row in rows)
            for p in section
        ]
        total += height * pyramid_volume(coords)
    return total


def test_census_volumes_match_the_pyramid_recursion():
    run = enumerate_cubic_togliatti(3)
    assert len(run.records) == 224
    for record in run.records:
        P = polytope_from_points([e[:-1] for e in record.apolar])
        assert record.toric_degree == normalized_volume(P) == pyramid_volume(P.points)


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_case_volumes_match_the_pyramid_recursion(case):
    P = case_polytope(case)
    assert normalized_volume(P) == pyramid_volume(P.points) == CASE_STATS[case][4]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_random_volumes_match_the_pyramid_recursion(m):
    rng = rng_for(m, "polytope-volume-pyramid")
    for trial in range(20):
        pts = random_full_points(rng, m, rng.randrange(m + 1, m + 8))
        assert normalized_volume(polytope_from_points(pts)) == pyramid_volume(pts)


def test_degenerate_sections_raise():
    # a flat set sweeps to the two sides of its hyperplane, at height 0, or
    # (too few points, or a lower affine dimension) to no facet at all
    with pytest.raises(DegeneratePolytopeError):
        _nvol([(0, 0), (1, 1), (3, 3)], 2)
    with pytest.raises(DegeneratePolytopeError):
        _nvol([(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 3, 0)], 3)
    with pytest.raises(DegeneratePolytopeError):
        _nvol([(0, 0, 0), (1, 0, 0)], 3)
    with pytest.raises(DegeneratePolytopeError):
        _nvol([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0)], 4)


def largest_guarded_coordinate(m):
    """The largest coordinate bound the sweep's int64 guard admits in Z^m."""
    low, high = 0, 2**62
    while high - low > 1:
        mid = (low + high) // 2
        try:
            polytope._facet_sweep([(mid,) + (0,) * (m - 1)])
            low = mid
        except NotImplementedError:
            high = mid
    return low


def reference_cofactors(mat):
    """Entry i: (-1)^i times the determinant of mat without column i."""
    m = len(mat) + 1
    return [
        (-1) ** i * det_int([row[:i] + row[i + 1 :] for row in mat]) for i in range(m)
    ]


@pytest.mark.parametrize("k", range(1, 9))
def test_cofactors_are_the_signed_maximal_minors(k):
    m = k + 1
    rng = rng_for(k, "polytope-cofactors")
    # differences of coordinates the guard admits lie in [-2 bound, 2 bound]
    edge = 2 * largest_guarded_coordinate(m)
    draws = [
        lambda: rng.randrange(-3, 4),
        lambda: rng.randrange(-edge, edge + 1),
        lambda: rng.choice((-edge, edge)),
    ]
    for batch, draw in itertools.product([0, 1, 7], draws):
        stack = [[[draw() for _ in range(m)] for _ in range(k)] for _ in range(batch)]
        diffs = np.array(stack, dtype=np.int64).reshape(batch, k, m)
        normals = polytope._cofactors(diffs)
        assert normals.shape == (batch, m)
        assert normals.tolist() == [reference_cofactors(mat) for mat in stack]


def test_sweep_refuses_coordinates_that_could_overflow_int64():
    # 11 times the standard 10-simplex, the hull of x_i^11 on P^10: the
    # Hadamard bound on its 9 x 9 minors, times the support products,
    # reaches 2^62, so the sweep refuses it rather than risk an overflow
    simplex = [tuple(11 * int(i == j) for j in range(10)) for i in range(10)]
    with pytest.raises(NotImplementedError, match="too large for the int64 facet sweep"):
        polytope_from_points(simplex + [(0,) * 10])



def test_sweep_refuses_more_subsets_than_its_budget(monkeypatch):
    # the 64 vertices of the 2^6 cube have C(64, 6) = 74,974,368 6-subsets,
    # about 18 GB of difference stack: refused before any subset is listed
    # (a sweep that lists them fails here at once, not out of memory)
    def no_subsets(*args):
        raise AssertionError("the sweep listed its subsets")

    monkeypatch.setattr(polytope.itertools, "combinations", no_subsets)
    cube = list(itertools.product([0, 1], repeat=6))
    assert comb(64, 6) > polytope._SWEEP_SUBSETS >= SWEPT_SUBSETS
    with pytest.raises(NotImplementedError, match="74974368 point subsets: too many to sweep"):
        polytope_from_points(cube)

def test_sweep_takes_ten_times_the_ten_simplex():
    # 10 times the standard 10-simplex, the hull of x_i^10 on P^10, is just
    # inside the guard, and its normals are 9 x 9 minors
    simplex = [tuple(10 * int(i == j) for j in range(10)) for i in range(10)]
    P = polytope_from_points(simplex + [(0,) * 10])
    assert normalized_volume(P) == 10**10
