"""Macaulay duality: inverse systems and the dual map.

R = k[x_0, ..., x_n] acts on a second polynomial ring by contraction,
differentiation with honest factorials:

    x^beta . y^alpha = prod_i alpha_i! / (alpha_i - beta_i)! * y^(alpha - beta)

(zero unless alpha >= beta componentwise).  The degree-d piece of the
inverse system of an ideal generated in degree d is the annihilator
(I_d)^perp under the pairing; for monomial ideals it is spanned by the
monomials NOT in I_d, otherwise by the kernel of the factorial-weighted
generator matrix.  ``apolar_complement`` returns that piece as the
``LinearSystem`` it defines: R/I fails the WLP in degree d-1 exactly when
this system satisfies Laplace equations of order d-1, so the two are one
object.  Contraction by a linear form L maps (I^-1)_d into degree d-1 and
its rank equals the rank of x L : (R/I)_{d-1} -> (R/I)_d, which is the
duality every Togliatti argument runs on (property tested).
``dual_map_rank`` ranks that contraction as one integer matrix on the
integer kernel vectors.
"""

from __future__ import annotations

from math import factorial, prod

from .algebra import Form, LinearSystem, monomial_basis, shifted
from .linalg import clear_denominators, exact_rank, integer_kernel, kernel_basis
from .wlp import quotient_basis


def _apolar_kernel(spec, kernel):
    """``kernel`` (``kernel_basis`` or ``integer_kernel``) of the generator
    rows weighted by the pairing x^alpha . y^alpha = alpha!, checked to have
    dimension comb(n+d, d) - r (independent rows stay independent under it),
    each vector as a dict over the degree-d monomials."""
    basis = monomial_basis(spec.n, spec.d)
    weights = [prod(map(factorial, alpha)) for alpha in basis]
    rows = [
        clear_denominators([g.terms.get(a, 0) * w for a, w in zip(basis, weights)])
        for g in spec.generators
    ]
    vectors = kernel(rows, len(basis))
    if len(vectors) != len(basis) - spec.r:
        raise ArithmeticError(
            f"apolar system has dimension {len(vectors)}, not {len(basis) - spec.r}"
        )
    return [dict(zip(basis, v)) for v in vectors]


def apolar_complement(spec) -> LinearSystem:
    """(I_d)^perp inside the dual degree-d piece, as the linear system it
    defines.

    Monomial ideals: the monomials outside I_d, in basis order.  General
    ideals: the reduced-echelon kernel of the contraction pairing against
    the generators, which is exact.
    """
    n, d = spec.n, spec.d
    if spec.is_monomial:
        return LinearSystem.from_monomials(n, d, quotient_basis(spec, d))
    return LinearSystem(n, d, [Form(n, d, v) for v in _apolar_kernel(spec, kernel_basis)])


def dual_map_rank(spec, linear_form: Form) -> int:
    """Rank of contraction by linear_form on (I^-1)_d.

    Equals multiplication_rank(spec, linear_form, d-1).rank: the two maps
    are dual up to the invertible factorial pairing.  One integer matrix: a
    row per integer kernel vector v of the pairing (a unit vector per
    monomial outside I_d when I is monomial) holds its contraction by
    L = sum c_i x_i, c_i cleared: row[alpha - e_i] += c_i alpha_i v[alpha].
    """
    if linear_form.degree != 1 or linear_form.n != spec.n:
        raise ValueError("need a linear form in the same ring")
    n, d = spec.n, spec.d
    if spec.is_monomial:
        kernel = [{alpha: 1} for alpha in quotient_basis(spec, d)]
    else:
        kernel = _apolar_kernel(spec, integer_kernel)
    c = clear_denominators([linear_form.terms.get(e, 0) for e in monomial_basis(n, 1)])
    column = {beta: j for j, beta in enumerate(monomial_basis(n, d - 1))}
    rows = []
    for vec in kernel:
        row = [0] * len(column)
        for alpha, v in vec.items():
            for i, a in enumerate(alpha):
                if a and v and c[i]:
                    row[column[shifted(alpha, i, -1)]] += c[i] * a * v
        rows.append(row)
    return exact_rank(rows)
