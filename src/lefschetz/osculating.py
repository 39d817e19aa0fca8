"""Osculating spaces of monomial/rational projections and Laplace equations.

A linear system of N+1 independent forms of degree d defines a rational map
P^n -> P^N.  At a general point of the image, the s-th osculating space is
spanned by the jets of order <= s; its expected projective dimension is
comb(n+s, s) - 1, and a shortfall of delta means the variety satisfies delta
independent Laplace equations of order s.  The system is an
``algebra.LinearSystem``: the apolar complement of an ideal, or (``osculate
--system``) the ideal's own generators, since ``wlp.IdealSpec`` is one too.

Jets are taken in the affine chart x_0 = 1: for a monomial system at the
torus point (1, ..., 1), where the rank is the generic one, and otherwise
at sampled integer points with all coordinates in [1, 999]; a general point
realizes the osculating space exactly (tested against the
homogeneous-partials description, which agrees by the Euler relation).
All ranks are exact.

``perkinson_quadric`` is the toric criterion: a projection of the d-th
Veronese marked by lattice points A satisfies a Laplace equation of order
d-1 exactly when some nonzero quadric in the n+1 LATTICE coordinates
vanishes on all of A; the witness quadric is a kernel vector of the
evaluation matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, perm, prod
from operator import ge, sub
from typing import Optional

from .algebra import Form, LinearSystem, monomial_basis
from .linalg import clear_denominators, exact_rank, primitive_kernel_vector
from .sampling import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    check_trials,
    random_chart_point,
    sample_until,
)


@dataclass(frozen=True)
class LaplaceCount:
    """Generic s-th osculating dimension; delta = number of Laplace equations.

    ``degenerate`` flags N < comb(n+s, s) - 1: the ambient space is too
    small for the expected osculating dimension, so a positive delta is
    forced and certifies nothing about the geometry.
    """

    order: int
    expected_dim: int
    actual_dim: int
    degenerate: bool

    @property
    def delta(self) -> int:
        return self.expected_dim - self.actual_dim


@lru_cache(maxsize=None)
def _jet_terms(alpha, s: int) -> tuple:
    """(jet row, falling-factorial product, leftover exponent) for each jet
    beta of order <= s that does not kill x^alpha in the chart x_0 = 1:
    d^beta t^alpha' = (alpha')_beta * t^(alpha' - beta), alpha' = alpha[1:],
    with the jets in the row order of ``_jet_matrix``."""
    tail = alpha[1:]
    betas = (b for t in range(s + 1) for b in monomial_basis(len(tail) - 1, t))
    return tuple(
        (row, prod(map(perm, tail, beta)), tuple(map(sub, tail, beta)))
        for row, beta in enumerate(betas)
        if all(map(ge, tail, beta))
    )


def _jet_matrix(system: LinearSystem, s: int, chart_point):
    """Integer jet matrix: rows = jets of order <= s, columns = members.

    Entry = d^beta F_j / dt^beta at (1, t), with member coefficients cleared
    to integers (column scaling, rank preserved), read off ``_jet_terms``;
    at (1, ..., 1) no power of the chart point is taken.
    """
    matrix = [[0] * len(system.members) for _ in range(comb(system.n + s, s))]
    unit = all(p == 1 for p in chart_point)
    for j, member in enumerate(system.members):
        for alpha, c in zip(member.terms, clear_denominators(member.terms.values())):
            for row, factor, rest in _jet_terms(alpha, s):
                if not unit:
                    factor *= prod(map(pow, chart_point, rest))
                matrix[row][j] += c * factor
    return matrix


def laplace_count(
    system: LinearSystem, s: int, *, seed=DEFAULT_SEED, trials=DEFAULT_TRIALS
) -> LaplaceCount:
    """Osculating dimension of order s at a general point, and its shortfall.

    Exact rank of the order <= s jet matrix.  A monomial system is ranked
    once, at the torus point (1, ..., 1), which certifies the rank either
    way.  Any other system is ranked at sampled points, the highest rank
    kept (the osculating dimension is lower semicontinuous, so it is the
    general value); a rank on its ceiling min(comb(n+s, s), members) is
    certified, a drop is Monte Carlo.  ValueError at n = 0, where the map
    has a point for its image and no chart to take jets in.
    """
    if s < 0:
        raise ValueError("order must be non-negative")
    if system.n == 0:
        raise ValueError("Laplace equations need n >= 1: the image of P^0 is a point")
    if system.is_monomial:
        # For a member x^alpha, alpha' = (alpha_1, ..., alpha_n), the entry at
        # jet beta and chart point t is (alpha')_beta * t^(alpha' - beta), a
        # falling factorial times a monomial (Perkinson, Michigan Math. J. 48
        # (2000)).  Scaling row beta by t^beta and column j by t^(-alpha') maps
        # the matrix at any t with nonzero coordinates onto the one at
        # (1, ..., 1), so that rank is the rank at every point of the torus:
        # the generic rank, certified, with no sample drawn.
        check_trials(trials)
        rank = exact_rank(_jet_matrix(system, s, (1,) * system.n))
    else:
        ceiling = min(comb(system.n + s, s), len(system.members))
        rank = max(sample_until(
            seed, ("osculating-point", s), trials,
            lambda rng: exact_rank(_jet_matrix(system, s, random_chart_point(system.n, rng))),
            lambda drawn: drawn == ceiling,
        ))
    expected = comb(system.n + s, s) - 1
    return LaplaceCount(
        order=s,
        expected_dim=expected,
        actual_dim=rank - 1,
        degenerate=system.projective_target < expected,
    )


@lru_cache(maxsize=None)
def _quadric_pairs(n: int):
    """The quadric x_i x_k as its pair (i, k), i <= k, in the order of
    ``monomial_basis(n, 2)``: its value at a point p is p[i] * p[k]."""
    return tuple(
        tuple(i for i, e in enumerate(q) for _ in range(e)) for q in monomial_basis(n, 2)
    )


def perkinson_quadric(points) -> Optional[Form]:
    """Nonzero quadric in the n+1 lattice coordinates vanishing on ``points``.

    ``points`` are integer vectors in Z^(n+1) (for a monomial system, the
    exponent vectors of its members).  Returns a primitive integer quadric
    (first nonzero coefficient positive) or None when only the zero quadric
    vanishes.  The quadric is the kernel vector of the integer evaluation
    matrix for its first free column, taken fraction-free.  For a monomial
    projection of the d-th Veronese this is the certificate for a Laplace
    equation of order d-1.
    """
    points = [tuple(int(c) for c in p) for p in points]
    if not points:
        raise ValueError("empty point set")
    n = len(points[0]) - 1
    if any(len(p) != n + 1 for p in points):
        raise ValueError("points of mixed dimension")
    pairs = _quadric_pairs(n)
    rows = [[p[i] * p[k] for i, k in pairs] for p in points]
    vec = primitive_kernel_vector(rows, len(pairs))
    if vec is None:
        return None
    return Form(n, 2, dict(zip(monomial_basis(n, 2), vec)))
