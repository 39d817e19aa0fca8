"""Lattice polytopes of monomial systems: facets, smoothness, volume.

The polytope of a monomial linear system is the convex hull of its exponent
vectors dehomogenized by dropping the last coordinate (total degree is
fixed, so nothing is lost).  The marked set A -- every exponent point, hull
vertex or not -- travels with the polytope because smoothness of the toric
embedding depends on which lattice points carry monomials.

Everything is exact integer arithmetic:

* Facets by brute force over all m-subsets of A: a candidate normal is the
  vector of signed (m-1)x(m-1) minors of the difference matrix, a facet is
  a candidate with every point of A on one side.  The sweep is vectorized
  with numpy int64; a Hadamard-bound guard refuses inputs whose minors
  could overflow (far beyond every lattice of exponent vectors in range).
* A point of A is a vertex iff its active facet normals span R^m; a pair of
  vertices is an edge iff their common active normals have rank m-1.
* Smooth at a vertex: the primitive edge directions form a lattice basis
  (|det| = 1) AND the first lattice point along each edge belongs to A.
  The second condition is what "punctured" faces violate.
* Normalized volume (m! times Euclidean) by the pyramid recursion over
  facets: sum over facets of (lattice height of a fixed point of A above the
  facet) times (normalized volume of the facet), which holds for any apex
  in P since every height is >= 0.  The recursion starts from the facets
  the polytope already holds and works on plain point lists, facets only:
  no vertices, no edges.  A facet's points get integer lattice coordinates
  as U^-1 (p - base), with U the unimodular split of its primitive normal
  from ``integer_kernel_of_vector``; no rational solve is involved.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

import numpy as np

from .linalg import det_int, exact_rank, integer_kernel_of_vector

VERDICT_SMOOTH = "smooth"
VERDICT_QUASI_SMOOTH = "quasi-smooth"
VERDICT_SINGULAR = "singular"
VERDICT_DEGENERATE = "degenerate"


class DegeneratePolytopeError(ValueError):
    """Raised when an operation needs a full-dimensional polytope."""


@dataclass(frozen=True)
class LatticePolytope:
    """Convex hull data of a marked lattice point set A in Z^dim."""

    dim: int
    points: tuple  # the marked set A, deduplicated, input order
    affine_dim: int
    facets: tuple  # ((normal, ..., normal), offset): normal . x <= offset on A
    vertices: tuple  # indices into points
    edges: tuple  # (i, j) pairs of vertex indices, i < j

    @property
    def is_full_dimensional(self) -> bool:
        return self.affine_dim == self.dim

    def facet_points(self, facet):
        return _facet_members(self.points, facet)


def _facet_members(points, facet):
    """Indices of the points on the facet's hyperplane normal . p == offset."""
    normal, offset = facet
    return [
        k
        for k, p in enumerate(points)
        if sum(a * b for a, b in zip(normal, p)) == offset
    ]


def _det_batch(arrays: np.ndarray) -> np.ndarray:
    """Determinants of a stack of k x k int64 matrices, exact cofactor expansion."""
    k = arrays.shape[-1]
    if k == 0:
        return np.ones(arrays.shape[0], dtype=np.int64)
    if k == 1:
        return arrays[:, 0, 0].copy()
    if k == 2:
        return arrays[:, 0, 0] * arrays[:, 1, 1] - arrays[:, 0, 1] * arrays[:, 1, 0]
    total = np.zeros(arrays.shape[0], dtype=np.int64)
    cols = np.arange(k)
    for i in range(k):
        minor = arrays[:, 1:, :][:, :, cols != i]
        term = arrays[:, 0, i] * _det_batch(minor)
        total += term if i % 2 == 0 else -term
    return total


def _facet_sweep(points):
    """All supporting hyperplanes spanned by m-subsets (the facets)."""
    m = len(points[0])
    npoints = len(points)
    bound = max((abs(c) for p in points for c in p), default=0)
    # Hadamard bound on the minors plus the support products must fit int64
    worst = (2 * bound) ** max(m - 1, 1) * max(m - 1, 1) ** (m // 2) * m * max(bound, 1)
    if worst >= 2**62:
        raise NotImplementedError("coordinates too large for the int64 facet sweep")
    pts = np.array(points, dtype=np.int64)
    combos = np.array(
        list(itertools.combinations(range(npoints), m)), dtype=np.int64
    )
    diffs = pts[combos[:, 1:]] - pts[combos[:, :1]]
    normals = np.empty((combos.shape[0], m), dtype=np.int64)
    cols = np.arange(m)
    for i in range(m):
        minors = _det_batch(diffs[:, :, cols != i]) if m > 1 else None
        if minors is None:
            normals[:, 0] = 1
        else:
            normals[:, i] = minors if i % 2 == 0 else -minors
    live = np.any(normals != 0, axis=1)
    normals = normals[live]
    anchors = combos[live, 0]
    g = np.gcd.reduce(np.abs(normals), axis=1)
    normals = normals // g[:, None]
    offsets = np.einsum("ij,ij->i", normals, pts[anchors])
    values = pts @ normals.T  # (npoints, candidates)
    below = (values <= offsets[None, :]).all(axis=0)
    above = (values >= offsets[None, :]).all(axis=0)
    facets = set()
    for idx in np.nonzero(below)[0]:
        facets.add((tuple(int(x) for x in normals[idx]), int(offsets[idx])))
    for idx in np.nonzero(above)[0]:
        facets.add(
            (tuple(-int(x) for x in normals[idx]), -int(offsets[idx]))
        )
    return tuple(sorted(facets))


def polytope_from_points(points) -> LatticePolytope:
    """Hull of a marked integer point set (duplicates dropped, order kept)."""
    cleaned = []
    seen = set()
    for p in points:
        key = tuple(int(c) for c in p)
        if key not in seen:
            seen.add(key)
            cleaned.append(key)
    if not cleaned:
        raise ValueError("empty point set")
    m = len(cleaned[0])
    if any(len(p) != m for p in cleaned):
        raise ValueError("points of mixed dimension")
    if m == 0:
        raise ValueError("points must have at least one coordinate")
    base = cleaned[0]
    affine_dim = exact_rank([[p[i] - base[i] for i in range(m)] for p in cleaned[1:]])
    if affine_dim < m:
        return LatticePolytope(m, tuple(cleaned), affine_dim, (), (), ())
    facets = _facet_sweep(cleaned)
    active = []
    for p in cleaned:
        active.append(
            [
                f
                for f in facets
                if sum(a * b for a, b in zip(f[0], p)) == f[1]
            ]
        )
    vertices = tuple(
        k
        for k, p in enumerate(cleaned)
        if len(active[k]) >= m and exact_rank([list(f[0]) for f in active[k]]) == m
    )
    edges = []
    for a, b in itertools.combinations(vertices, 2):
        common = [list(f[0]) for f in active[a] if f in active[b]]
        if len(common) >= m - 1 and exact_rank(common) == m - 1:
            edges.append((a, b))
    return LatticePolytope(
        m, tuple(cleaned), affine_dim, facets, vertices, tuple(edges)
    )


def build_polytope(system) -> LatticePolytope:
    """Polytope of a monomial linear system (exponents, last coordinate dropped)."""
    exponents = system.exponents()  # raises on non-monomial members
    return polytope_from_points([e[:-1] for e in exponents])


def _vertex_edge_data(polytope: LatticePolytope):
    """For each vertex index: list of (other endpoint, lattice length, primitive dir)."""
    data = {v: [] for v in polytope.vertices}
    for a, b in polytope.edges:
        pa, pb = polytope.points[a], polytope.points[b]
        direction = tuple(x - y for x, y in zip(pb, pa))
        length = 0
        for c in direction:
            length = gcd(length, abs(c))
        unit = tuple(c // length for c in direction)
        data[a].append((b, length, unit))
        data[b].append((a, length, tuple(-c for c in unit)))
    return data


@dataclass(frozen=True)
class SmoothnessReport:
    """Simplicity and smoothness of the marked polytope.

    ``edge_rule_fired`` records whether some edge had lattice length >= 2,
    i.e. whether smoothness depended on non-vertex marked points (the
    punctured-face phenomenon).
    """

    simple: bool
    smooth: bool
    edge_rule_fired: bool

    @property
    def verdict(self) -> str:
        """Singular (not simple), smooth, or quasi-smooth (simple, not smooth)."""
        if not self.simple:
            return VERDICT_SINGULAR
        return VERDICT_SMOOTH if self.smooth else VERDICT_QUASI_SMOOTH


def smoothness_report(polytope: LatticePolytope) -> SmoothnessReport:
    if not polytope.is_full_dimensional:
        raise DegeneratePolytopeError(
            f"polytope has affine dimension {polytope.affine_dim} < {polytope.dim}"
        )
    data = _vertex_edge_data(polytope)
    m = polytope.dim
    simple = all(len(data[v]) == m for v in polytope.vertices)
    if not simple:
        return SmoothnessReport(simple=False, smooth=False, edge_rule_fired=False)
    marked = set(polytope.points)
    smooth = True
    fired = False
    for v in polytope.vertices:
        base = polytope.points[v]
        units = [unit for _, _, unit in data[v]]
        if abs(det_int(units)) != 1:
            smooth = False
        for _, length, unit in data[v]:
            if length >= 2:
                fired = True
            first = tuple(x + u for x, u in zip(base, unit))
            if first not in marked:
                smooth = False
    return SmoothnessReport(simple=simple, smooth=smooth, edge_rule_fired=fired)


def _nvol(points, m: int, facets=None) -> int:
    """Normalized volume of the hull of distinct points in Z^m.

    ``facets`` are the hull's facets when the caller already has them;
    otherwise the points are checked to span Z^m and swept for facets.
    """
    if m == 1:
        xs = [p[0] for p in points]
        return max(xs) - min(xs)
    if facets is None:
        base = points[0]
        if exact_rank([[a - b for a, b in zip(p, base)] for p in points[1:]]) < m:
            raise DegeneratePolytopeError("facet recursion hit a degenerate section")
        facets = _facet_sweep(points)
    apex = points[0]
    total = 0
    for normal, offset in facets:
        height = offset - sum(a * b for a, b in zip(normal, apex))
        if height == 0:
            continue
        section = [points[k] for k in _facet_members(points, (normal, offset))]
        base = section[0]
        _, inverse = integer_kernel_of_vector(normal)
        coords = []
        for p in section:
            diff = [a - b for a, b in zip(p, base)]
            image = [sum(a * b for a, b in zip(row, diff)) for row in inverse]
            if image[0]:
                raise ArithmeticError(f"{p} is off the facet plane of {normal}")
            coords.append(tuple(image[1:]))
        total += height * _nvol(coords, m - 1)
    return total


def normalized_volume(polytope: LatticePolytope) -> int:
    """m! times the Euclidean volume (the toric degree of the embedding)."""
    if not polytope.is_full_dimensional:
        raise DegeneratePolytopeError(
            f"polytope has affine dimension {polytope.affine_dim} < {polytope.dim}"
        )
    return _nvol(list(polytope.points), polytope.dim, polytope.facets)


def polytope_json(polytope: LatticePolytope) -> dict:
    """JSON-ready dict: points, vertices, facets (normal/offset), edges, volume."""
    return {
        "points": [list(p) for p in polytope.points],
        "vertices": list(polytope.vertices),
        "facets": [
            {"normal": list(normal), "offset": offset}
            for normal, offset in polytope.facets
        ],
        "edges": [list(e) for e in polytope.edges],
        "normalized_volume": normalized_volume(polytope),
    }
