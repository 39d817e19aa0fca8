"""Macaulay duality: contraction, inverse systems, and the dual map.

R = k[x_0, ..., x_n] acts on a second polynomial ring by differentiation
with honest factorials:

    contract(x^beta, y^alpha) = prod_i alpha_i! / (alpha_i - beta_i)! * y^(alpha - beta)

(zero unless alpha >= beta componentwise).  The degree-d piece of the
inverse system of an ideal generated in degree d is the annihilator
(I_d)^perp under the pairing; for monomial ideals it is spanned by the
monomials NOT in I_d.  Contraction by a linear form L maps (I^-1)_d into
degree d-1 and its rank equals the rank of x L : (R/I)_{d-1} -> (R/I)_d,
which is the duality every Togliatti argument runs on (property tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import perm

from .algebra import Form, monomial_basis, rank_of_span
from .linalg import kernel_basis


def contract(operator: Form, target: Form) -> Form:
    """Apply operator(d/dy) to target.  Exact, with factorial coefficients."""
    if operator.n != target.n:
        raise ValueError("operator and target live in different rings")
    if operator.degree > target.degree:
        raise ValueError(
            f"operator degree {operator.degree} exceeds target degree {target.degree}"
        )
    n = target.n
    result_terms = {}
    for beta, cu in operator.terms.items():
        for alpha, cf in target.terms.items():
            if any(a < b for a, b in zip(alpha, beta)):
                continue
            scale = 1
            for a, b in zip(alpha, beta):
                if b:
                    scale *= perm(a, b)
            key = tuple(a - b for a, b in zip(alpha, beta))
            result_terms[key] = result_terms.get(key, Fraction(0)) + cu * cf * scale
    return Form(n, target.degree - operator.degree, result_terms)


@dataclass(frozen=True)
class ApolarSystem:
    """The degree-d piece of an inverse system, with an explicit basis."""

    n: int
    d: int
    basis: tuple

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def is_monomial(self) -> bool:
        return all(f.is_monomial for f in self.basis)

    def exponents(self):
        """Exponent vectors of a monomial basis (error if not monomial)."""
        if not self.is_monomial():
            raise ValueError("apolar system basis is not monomial")
        return tuple(sorted(next(iter(f.terms)) for f in self.basis))


def apolar_complement(spec) -> ApolarSystem:
    """(I_d)^perp inside the dual degree-d piece.

    Monomial ideals: the monomials outside I_d.  General ideals: the kernel
    of the contraction pairing against the generators, which is exact and
    has dimension comb(n+d, d) - r because independent generators stay
    independent under the diagonal factorial weighting.
    """
    n, d = spec.n, spec.d
    basis = monomial_basis(n, d)
    if spec.is_monomial:
        gens = spec.monomial_exponents()
        members = tuple(Form.monomial(e) for e in basis if e not in gens)
        return ApolarSystem(n, d, members)
    weights = {}
    for alpha in basis:
        w = 1
        for a in alpha:
            if a > 1:
                w *= perm(a, a)
        weights[alpha] = w
    rows = [
        [g.terms.get(alpha, Fraction(0)) * weights[alpha] for alpha in basis]
        for g in spec.generators
    ]
    kernel = kernel_basis(rows, len(basis))
    members = tuple(
        Form(n, d, dict(zip(basis, vec))) for vec in kernel
    )
    if len(members) != len(basis) - spec.r:
        raise ArithmeticError(
            f"apolar system has dimension {len(members)}, not {len(basis) - spec.r}"
        )
    return ApolarSystem(n, d, members)


def dual_map_rank(spec, linear_form: Form) -> int:
    """Rank of contraction by linear_form on (I^-1)_d.

    Equals multiplication_rank(spec, linear_form, d-1).rank: the two maps
    are dual up to the invertible factorial pairing.
    """
    if linear_form.degree != 1 or linear_form.n != spec.n:
        raise ValueError("need a linear form in the same ring")
    system = apolar_complement(spec)
    images = [contract(linear_form, f) for f in system.basis]
    return rank_of_span(images)
