"""Lattice polytopes of monomial systems: facets, smoothness, volume.

The polytope of a monomial linear system is the convex hull of its exponent
vectors dehomogenized by dropping the last coordinate (total degree is
fixed, so nothing is lost).  The marked set A -- every exponent point, hull
vertex or not -- travels with the polytope because smoothness of the toric
embedding depends on which lattice points carry monomials.

Everything is exact integer arithmetic:

* Facets from candidate hyperplanes.  ``_hyperplanes`` makes every
  hyperplane through an m-subset: a normal is the vector of signed
  (m-1)x(m-1) minors of the difference matrix, all from one numpy int64
  Laplace expansion, bottom row up, each minor on a column set once.  Each
  is stored once, primitive, its first nonzero entry positive.  A
  Hadamard-bound guard refuses inputs whose minors could overflow (far
  beyond every lattice of exponent vectors in range); it bounds every
  intermediate, each a minor, an entry times a minor, or a partial sum of
  fewer than m such products.  More than ``_SWEEP_SUBSETS`` subsets are
  refused before any is made.  ``_facets`` then reads the facets off any
  candidate set known to hold them all: a candidate supports A when every
  point lies on one side, and a supporting candidate is a facet when its
  contact set holds at least m points and lies in no other's (a lower face
  lies in a facet, and no face holds a facet's points but the facet).  It
  keeps [normal | offset] with A below and [-normal | -offset] with A
  above, as Python ints, sorted.  The sweep of A is ``_facets`` over A's
  own hyperplanes, where every supporting candidate is a facet.
* The simplex table.  Every point of a cubic census record lies in
  d * simplex, so ``simplex_table(n, d)`` sweeps its lattice points once
  (228 hyperplanes for n = 3, 3,470 for n = 4) and keeps the side of each
  point against each hyperplane as int8.  A record's facets are read off
  the rows of its points, with no subset of its own listed.  Past the
  subset budget (n >= 5 at d = 3) there is no table, and a record sweeps.
* One membership test, the incidence table: one int64 product,
  points @ normals.T == offsets, which the sweep's guard already bounds.
  Vertices and edges are read off it with no linear algebra (a face is the
  intersection of the facets that contain it): a point is a vertex iff no
  other point lies on every facet through it; two vertices span an edge
  iff no third vertex lies on every facet they share.  The volume
  recursion reads each facet's section off it too.
* Smooth at a vertex: the primitive edge directions form a lattice basis
  (|det| = 1) AND the first lattice point along each edge belongs to A.
  The second condition is what "punctured" faces violate.
* Normalized volume (m! times Euclidean) by the pyramid recursion over
  facets: sum over facets of (lattice height of a fixed point of A above the
  facet) times (normalized volume of the facet), which holds for any apex
  in P since every height is >= 0.  The recursion starts from the facets
  the polytope already holds and works on plain point lists, facets only.
  A facet's section is projected to Z^(m-1) by dropping a coordinate k
  with normal[k] != 0.  The projection is one-to-one on the facet's
  lattice, and since the normal is primitive the image is a sublattice of
  index |normal[k]| (the residue of sum_{i != k} normal[i] y_i mod
  normal[k] takes every value), so the facet's volume is the projection's
  divided by |normal[k]|; a remainder raises ``ArithmeticError``.  The
  recursion ends at polygons: twice the shoelace area of the monotone-chain
  hull, so a 3-polytope sweeps nothing past its own facets.  One guard: a
  zero volume, at any m, is a degenerate section.  A full-dimensional hull
  has positive volume, and a flat set sweeps to the two sides of its
  hyperplane, at height 0, or to nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd

import numpy as np

from .linalg import det_int, exact_rank

VERDICT_SMOOTH = "smooth"
VERDICT_QUASI_SMOOTH = "quasi-smooth"
VERDICT_SINGULAR = "singular"
VERDICT_DEGENERATE = "degenerate"
# subsets held at once by the facet sweep (28 points in Z^6: 376,740, 240 MiB)
_SWEEP_SUBSETS = 400_000


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


def _cofactors(diffs: np.ndarray) -> np.ndarray:
    """Normals of a (B, m-1, m) int64 stack: entry i is (-1)^i times the
    minor without column i.  Minors grow from the bottom row up, each once."""
    batch, k, m = diffs.shape
    a = diffs.transpose(1, 2, 0)  # (row, column, B) views, no copy
    minors = {(): np.ones(batch, dtype=np.int64)}
    for row in range(k - 1, -1, -1):
        grown = {}
        for cols in itertools.combinations(range(m), k - row):
            total = a[row, cols[0]] * minors[cols[1:]]
            for t in range(1, len(cols)):
                term = a[row, cols[t]] * minors[cols[:t] + cols[t + 1 :]]
                (np.subtract if t % 2 else np.add)(total, term, out=total)
            grown[cols] = total
        minors = grown
    # the (m-1)-sets come in lex order: the one without column i is last but i
    normals = np.array(list(minors.values())[::-1])  # (m, B)
    normals[1::2] *= -1
    return normals.T


def _hyperplanes(points):
    """The distinct hyperplanes spanned by m-subsets of points in Z^m, as
    int64 (normals, offsets): each normal primitive, its first nonzero
    entry positive."""
    m = len(points[0])
    bound = max((abs(c) for p in points for c in p), default=0)
    # Hadamard bound on the minors plus the support products must fit int64
    worst = (2 * bound) ** max(m - 1, 1) * max(m - 1, 1) ** (m // 2) * m * max(bound, 1)
    if worst >= 2**62:
        raise NotImplementedError("coordinates too large for the int64 facet sweep")
    if comb(len(points), m) > _SWEEP_SUBSETS:
        raise NotImplementedError(f"{comb(len(points), m)} point subsets: too many to sweep")
    pts = np.array(points, dtype=np.int64)
    combos = np.array(
        list(itertools.combinations(range(len(points)), m)), dtype=np.int64
    ).reshape(-1, m)  # fewer than m points: no combos, no hyperplanes
    normals = _cofactors(pts[combos[:, 1:]] - pts[combos[:, :1]])
    live = np.any(normals != 0, axis=1)
    normals = normals[live]
    anchors = combos[live, 0]
    lead = normals[np.arange(len(normals)), np.argmax(normals != 0, axis=1)]
    normals = normals // (np.gcd.reduce(np.abs(normals), axis=1) * np.sign(lead))[:, None]
    offsets = np.einsum("ij,ij->i", normals, pts[anchors])
    rows = {tuple(row) for row in np.column_stack((normals, offsets)).tolist()}
    table = np.array(list(rows), dtype=np.int64).reshape(-1, m + 1)
    return table[:, :-1], table[:, -1]


def _facets(points, normals, offsets, sides=None):
    """The facets of the hull of points in Z^m among candidate hyperplanes
    that hold every one of them, oriented with the points below, sorted.

    ``sides[k, j]`` is the sign of normals[j] . points[k] - offsets[j],
    computed here unless the caller has it.  A candidate with every point
    on one side supports the hull; a facet is a supporting candidate whose
    contact set holds at least m points and lies in no other's.
    """
    m = len(points[0])
    if sides is None:
        sides = np.sign(np.array(points, dtype=np.int64) @ normals.T - offsets)
    below = (sides <= 0).all(axis=0)
    above = (sides >= 0).all(axis=0)
    contact = sides == 0
    support = np.flatnonzero((below | above) & (contact.sum(axis=0) >= m))
    sets = [frozenset(np.flatnonzero(on).tolist()) for on in contact[:, support].T]
    keep = support[[not any(s < o for o in sets) for s in sets]]
    table = np.column_stack((normals[keep], offsets[keep]))
    rows = np.concatenate((table[below[keep]], -table[above[keep]]))
    return tuple((tuple(row[:-1]), row[-1]) for row in sorted(rows.tolist()))


def _facet_sweep(points):
    """All supporting hyperplanes spanned by m-subsets (the facets)."""
    return _facets(points, *_hyperplanes(points))


@dataclass(frozen=True)
class HyperplaneTable:
    """Every hyperplane spanned by lattice points of d * simplex in Z^n."""

    index: dict  # lattice point -> its row in sides
    normals: np.ndarray
    offsets: np.ndarray
    sides: np.ndarray  # int8 [point, hyperplane]: sign of normal . point - offset


@lru_cache(maxsize=None)
def simplex_table(n: int, d: int):
    """The hyperplane table of d * simplex in Z^n, or None when its sweep
    would pass the subset budget (n >= 5 at d = 3)."""
    points = [p for p in itertools.product(range(d + 1), repeat=n) if sum(p) <= d]
    if comb(len(points), n) > _SWEEP_SUBSETS:
        return None
    normals, offsets = _hyperplanes(points)
    sides = np.sign(np.array(points, dtype=np.int64) @ normals.T - offsets).astype(np.int8)
    for array in (normals, offsets, sides):
        array.flags.writeable = False  # shared by every caller of the cache
    return HyperplaneTable({p: k for k, p in enumerate(points)}, normals, offsets, sides)


def _incidence(points, facets) -> np.ndarray:
    """Boolean table: entry [k, j] is True iff point k lies on facet j."""
    pts = np.array(points, dtype=np.int64)
    normals = np.array([normal for normal, _ in facets], dtype=np.int64)
    offsets = np.array([offset for _, offset in facets], dtype=np.int64)
    return pts @ normals.reshape(-1, pts.shape[1]).T == offsets


def polytope_from_points(points, candidates=None) -> LatticePolytope:
    """Hull of a marked integer point set (duplicates dropped, order kept).

    ``candidates``, a ``simplex_table`` whose simplex holds every point,
    gives the facets in place of a sweep of the points' own subsets.
    """
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
    if candidates is None:
        facets = _facet_sweep(cleaned)
    else:
        rows = [candidates.index[p] for p in cleaned]
        facets = _facets(
            cleaned, candidates.normals, candidates.offsets, candidates.sides[rows]
        )
    on = _incidence(cleaned, facets)
    incident = [frozenset(np.flatnonzero(row).tolist()) for row in on]
    # A vertex is the only point on all of its facets.  Any other point lies
    # on fewer facets than each vertex of the smallest face holding it.
    vertices = tuple(
        k for k, faces in enumerate(incident) if not any(faces < o for o in incident)
    )
    # The facets a and b share cut out the smallest face holding both (P
    # itself when they share none); it is an edge iff no third vertex is on it.
    edges = tuple(
        (a, b)
        for a, b in itertools.combinations(vertices, 2)
        if not any(
            incident[a] & incident[b] <= incident[c]
            for c in vertices
            if c not in (a, b)
        )
    )
    return LatticePolytope(m, tuple(cleaned), affine_dim, facets, vertices, edges)


def build_polytope(system, candidates=None) -> LatticePolytope:
    """Polytope of a monomial linear system (exponents, last coordinate dropped)."""
    exponents = system.exponents()  # raises on non-monomial members
    return polytope_from_points([e[:-1] for e in exponents], candidates)


def _vertex_edge_data(polytope: LatticePolytope):
    """For each vertex index: list of (lattice length, primitive dir) of its edges."""
    data = {v: [] for v in polytope.vertices}
    for a, b in polytope.edges:
        pa, pb = polytope.points[a], polytope.points[b]
        direction = tuple(x - y for x, y in zip(pb, pa))
        length = gcd(*direction)
        unit = tuple(c // length for c in direction)
        data[a].append((length, unit))
        data[b].append((length, tuple(-c for c in unit)))
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
        units = [unit for _, unit in data[v]]
        if abs(det_int(units)) != 1:
            smooth = False
        for length, unit in data[v]:
            if length >= 2:
                fired = True
            first = tuple(x + u for x, u in zip(base, unit))
            if first not in marked:
                smooth = False
    return SmoothnessReport(simple=simple, smooth=smooth, edge_rule_fired=fired)


def _cross(o, a, b) -> int:
    """z-component of (a - o) x (b - o): > 0 iff o, a, b turn counterclockwise."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _chain(points) -> list:
    """One half of the monotone-chain hull: strict left turns only."""
    out = []
    for p in points:
        while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
            out.pop()
        out.append(p)
    return out


def _twice_hull_area(points) -> int:
    """Twice the Euclidean area of the hull of points in Z^2 (shoelace)."""
    ordered = sorted(points)
    hull = _chain(ordered)[:-1] + _chain(reversed(ordered))[:-1]
    return sum(a[0] * b[1] - a[1] * b[0] for a, b in zip(hull, hull[1:] + hull[:1]))


def _nvol(points, m: int, facets=None) -> int:
    """Normalized volume of the hull of distinct points in Z^m.

    A segment's is its length, a polygon's twice its shoelace area, and from
    m = 3 up it is the pyramid sum over ``facets``, the hull's facets when
    the caller has them, else swept here.  A zero volume raises.
    """
    if m == 1:
        xs = [p[0] for p in points]
        total = max(xs) - min(xs)
    elif m == 2:
        total = _twice_hull_area(points)
    else:
        if facets is None:
            facets = _facet_sweep(points)
        apex = points[0]
        total = 0
        columns = _incidence(points, facets).T.tolist()  # one per facet
        for (normal, offset), column in zip(facets, columns):
            height = offset - sum(a * b for a, b in zip(normal, apex))
            if height == 0:
                continue
            k = next(i for i, c in enumerate(normal) if c)
            section = [p[:k] + p[k + 1 :] for p, hit in zip(points, column) if hit]
            volume, rest = divmod(_nvol(section, m - 1), abs(normal[k]))
            if rest:
                raise ArithmeticError(f"facet of {normal}: projected volume off its index")
            total += height * volume
    if total == 0:
        raise DegeneratePolytopeError("facet recursion hit a degenerate section")
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
