"""Osculating spaces of monomial/rational projections and Laplace equations.

A linear system of N+1 independent forms of degree d defines a rational map
P^n -> P^N.  At a general point of the image, the s-th osculating space is
spanned by the jets of order <= s; its expected projective dimension is
comb(n+s, s) - 1, and a shortfall of delta means the variety satisfies delta
independent Laplace equations of order s.

Jets are taken in the affine chart x_0 = 1 at integer points with all
coordinates in [1, 999]; for a general point this realizes the osculating
space exactly (tested against the homogeneous-partials description, which
agrees by the Euler relation).  All ranks are exact.

``perkinson_quadric`` is the toric criterion: a projection of the d-th
Veronese marked by lattice points A satisfies a Laplace equation of order
d-1 exactly when some nonzero quadric in the n+1 LATTICE coordinates
vanishes on all of A; the witness quadric is a kernel vector of the
evaluation matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, perm
from typing import Optional

from .algebra import Form, monomial_basis, rank_of_span
from .linalg import clear_denominators, exact_rank, primitive_kernel_vector
from .sampling import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    check_trials,
    random_chart_point,
    rng_for,
)


@dataclass(frozen=True)
class LinearSystem:
    """N+1 linearly independent forms of one degree, defining P^n -> P^N."""

    n: int
    d: int
    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        for f in members:
            if f.n != self.n or f.degree != self.d:
                raise ValueError("members must share n and degree")
            if f.is_zero:
                raise ValueError("zero member")
        if rank_of_span(list(members)) != len(members):
            raise ValueError("members are not linearly independent")

    @classmethod
    def from_apolar(cls, system) -> "LinearSystem":
        return cls(system.n, system.d, tuple(system.basis))

    @classmethod
    def from_monomials(cls, n: int, d: int, exponents) -> "LinearSystem":
        return cls(n, d, tuple(Form.monomial(e) for e in exponents))

    @property
    def projective_target(self) -> int:
        return len(self.members) - 1

    def is_monomial(self) -> bool:
        return all(f.is_monomial for f in self.members)

    def exponents(self):
        if not self.is_monomial():
            raise ValueError("system is not monomial")
        return tuple(sorted(next(iter(f.terms)) for f in self.members))


@dataclass(frozen=True)
class OsculatingReport:
    """Generic s-th osculating dimension of the image of a linear system."""

    order: int
    expected_dim: int
    actual_dim: int

    @property
    def delta(self) -> int:
        return self.expected_dim - self.actual_dim


@dataclass(frozen=True)
class LaplaceCount:
    """delta = number of independent Laplace equations of the given order.

    ``degenerate`` flags N < comb(n+s, s) - 1: the ambient space is too
    small for the expected osculating dimension, so a positive delta is
    forced and certifies nothing about the geometry.
    """

    order: int
    delta: int
    degenerate: bool


def _jet_matrix(system: LinearSystem, s: int, chart_point):
    """Integer jet matrix: rows = jets of order <= s, columns = members.

    Entry = d^beta F_j / dt^beta at (1, t), with member coefficients cleared
    to integers (column scaling, rank preserved).
    """
    n = system.n
    betas = [b for t in range(s + 1) for b in monomial_basis(n - 1, t)]
    matrix = [[0] * len(system.members) for _ in betas]
    for j, member in enumerate(system.members):
        coeffs = clear_denominators(
            [member.terms[e] for e in sorted(member.terms)]
        )
        exponents = sorted(member.terms)
        for alpha, c in zip(exponents, coeffs):
            for bi, beta in enumerate(betas):
                value = c
                dead = False
                for i in range(n):
                    a, b = alpha[i + 1], beta[i]
                    if a < b:
                        dead = True
                        break
                    if b:
                        value *= perm(a, b)
                    rest = a - b
                    if rest:
                        value *= chart_point[i] ** rest
                if not dead:
                    matrix[bi][j] += value
    return matrix


def osculating_dimension(
    system: LinearSystem, s: int, *, seed=DEFAULT_SEED, trials=DEFAULT_TRIALS
) -> OsculatingReport:
    """Projective dimension of the s-th osculating space at a general point.

    Exact rank of the order <= s jet matrix, maximized over sample points
    (the osculating dimension is lower semicontinuous, so the max over
    samples is the general value).
    """
    if s < 0:
        raise ValueError("order must be non-negative")
    check_trials(trials)
    rng = rng_for(seed, "osculating-point", s)
    best = 0
    ceiling = min(comb(system.n + s, s), len(system.members))
    for _ in range(trials):
        point = random_chart_point(system.n, rng)
        best = max(best, exact_rank(_jet_matrix(system, s, point)))
        if best == ceiling:
            break
    return OsculatingReport(
        order=s, expected_dim=comb(system.n + s, s) - 1, actual_dim=best - 1
    )


def homogeneous_jet_rank(
    system: LinearSystem, s: int, point
) -> int:
    """Rank of the order-exactly-s homogeneous partials at a full point.

    By the Euler relation this equals the affine order <= s jet rank at the
    same point (used as a cross-check; ``point`` has n+1 coordinates).
    """
    rows = []
    for beta in monomial_basis(system.n, s):
        row = []
        for member in system.members:
            value = Fraction(0)
            for alpha, c in member.terms.items():
                if any(a < b for a, b in zip(alpha, beta)):
                    continue
                term = Fraction(c)
                for a, b in zip(alpha, beta):
                    if b:
                        term *= perm(a, b)
                for p, e in zip(point, (a - b for a, b in zip(alpha, beta))):
                    if e:
                        term *= Fraction(p) ** e
                value += term
            row.append(value)
        rows.append(clear_denominators(row))
    return exact_rank(rows)


def laplace_count(
    system: LinearSystem, s: int, *, seed=DEFAULT_SEED, trials=DEFAULT_TRIALS
) -> LaplaceCount:
    """Number of Laplace equations of order s satisfied by the image."""
    report = osculating_dimension(system, s, seed=seed, trials=trials)
    degenerate = system.projective_target < report.expected_dim
    return LaplaceCount(order=s, delta=report.delta, degenerate=degenerate)


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
    quadrics = monomial_basis(n, 2)
    rows = []
    for p in points:
        row = []
        for q in quadrics:
            value = 1
            for base, e in zip(p, q):
                if e:
                    value *= base ** e
            row.append(value)
        rows.append(row)
    vec = primitive_kernel_vector(rows, len(quadrics))
    if vec is None:
        return None
    return Form(n, 2, dict(zip(quadrics, vec)))
