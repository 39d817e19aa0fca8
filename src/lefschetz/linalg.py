"""Exact linear algebra over Q and Z.

Every verdict in this package (Lefschetz maximal rank, ideal piece dimensions,
Laplace equation counts, facet supports, splitting types) is a statement about
the rank or kernel of an integer or rational matrix, and all of them must be
exact.  There are exactly two elimination routines, independent of each other:

* ``_bareiss``: fraction-free one-step Bareiss elimination on integer
  matrices.  Integer pivots, exact divisions, no rationals.  Authoritative.
  ``bareiss_rank`` (its rank) and ``det_int`` (sign times last pivot) are
  read off it.
* ``_rref``: Gauss-Jordan elimination over ``Fraction`` to the reduced row
  echelon form.  ``rational_rank`` (the pivot count, the cross-check route;
  property tests assert both routes agree), ``kernel_basis`` (one vector per
  free column) and ``solve_exact`` (reduce ``[A | b]``) are read off it.

``exact_rank`` wraps Bareiss with a certified shortcut: the rank of the matrix
reduced mod a fixed prime is a lower bound for the rational rank, so whenever
the mod-p rank reaches the count of nonzero rows or of nonzero columns (an
upper bound) the exact rank is known without any big-integer work.  A
deficient mod-p outcome is never trusted; it falls back to Bareiss.  The
shortcut changes nothing about the returned value.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Mersenne prime 2**31 - 1: the product of two reduced residues fits in int64
# with room for the subtraction in a row operation.
_PRIME = 2_147_483_647


def clear_denominators(row):
    """Scale a row of Fractions/ints to integers (row scaling preserves rank).

    ints and Fractions are read through ``numerator``/``denominator`` directly;
    re-wrapping each entry in a new ``Fraction`` dominated the harness profile.
    """
    fracs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    lcm = 1
    for f in fracs:
        den = f.denominator
        if den != 1:
            lcm = lcm * den // math.gcd(lcm, den)
    if lcm == 1:
        return [int(f.numerator) for f in fracs]
    return [int(f.numerator) * (lcm // f.denominator) for f in fracs]


def _bareiss(rows):
    """Fraction-free one-step Bareiss elimination of an integer matrix.

    Returns (rank, sign, last_pivot): sign is -1 to the number of row swaps,
    and for a square matrix of full rank the last pivot is sign * det.
    """
    mat = [[int(x) for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    rank = 0
    sign = 1
    prev = 1
    for col in range(ncols):
        if rank == nrows:
            break
        pivot_row = None
        for i in range(rank, nrows):
            if mat[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != rank:
            mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
            sign = -sign
        row_p = mat[rank]
        pivot = row_p[col]
        for i in range(rank + 1, nrows):
            row_i = mat[i]
            head = row_i[col]
            # the division by the previous pivot is exact, and it must run
            # even when head == 0 to keep entries minor-sized
            for j in range(col + 1, ncols):
                row_i[j] = (pivot * row_i[j] - head * row_p[j]) // prev
            row_i[col] = 0
        prev = pivot
        rank += 1
    return rank, sign, prev


def bareiss_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free Bareiss elimination."""
    return _bareiss(rows)[0]


def det_int(rows) -> int:
    """Determinant of a square integer matrix (Bareiss, exact)."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    rank, sign, last_pivot = _bareiss(rows)
    return sign * last_pivot if rank == n else 0


def _rref(rows, ncols):
    """Reduced row echelon form over Q by Gauss-Jordan elimination.

    Returns (reduced rows, pivot columns); reduced row i holds the pivot of
    column pivots[i] scaled to 1, and the rows after the pivots are zero.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows = len(mat)
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        pivot_row = None
        for i in range(rank, nrows):
            if mat[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(nrows):
            if i != rank and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
    return mat, pivots


def rational_rank(rows) -> int:
    """Rank by Gaussian elimination over Fraction.  Cross-check route."""
    return len(_rref(rows, len(rows[0]) if rows else 0)[1])


def _modp_rank(mat: np.ndarray) -> int:
    """Rank of an int64 matrix already reduced mod _PRIME.  Destroys its input."""
    nrows, ncols = mat.shape
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        nz = np.nonzero(mat[rank:, col])[0]
        if nz.size == 0:
            continue
        pr = rank + int(nz[0])
        if pr != rank:
            mat[[rank, pr]] = mat[[pr, rank]]
        inv = pow(int(mat[rank, col]), _PRIME - 2, _PRIME)
        mat[rank, col:] = (mat[rank, col:] * inv) % _PRIME
        heads = mat[rank + 1 :, col]
        live = np.nonzero(heads)[0]
        if live.size:
            block = mat[rank + 1 + live, col:]
            block = (block - heads[live, None] * mat[rank, col:]) % _PRIME
            mat[rank + 1 + live, col:] = block
        rank += 1
    return rank


def _to_modp_array(rows) -> np.ndarray:
    # entries may exceed int64, reduce in Python first
    return np.array([[x % _PRIME for x in row] for row in rows], dtype=np.int64)


def exact_rank(rows) -> int:
    """Exact rank of an integer matrix.

    Mod-p rank is a lower bound for the rank over Q; if it reaches the
    number of nonzero rows or of nonzero columns (counted over Z, an upper
    bound) that value is certified exact.  Otherwise Bareiss decides.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if nrows == 0 or ncols == 0:
        return 0
    modp = _modp_rank(_to_modp_array(rows))
    if modp == min(nrows, ncols):
        return modp
    # a second pass over the entries, paid only when the screen fell short
    if modp == min(sum(map(any, rows)), sum(map(any, zip(*rows)))):
        return modp
    return bareiss_rank(rows)


def kernel_basis(rows, ncols):
    """Basis of the right kernel over Q, one vector per free column.

    Rows may be Fractions or ints.  Returns a list of length-ncols Fraction
    vectors; the basis is the reduced-echelon one (free column set to 1).
    """
    mat, pivots = _rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = -mat[i][free]
        basis.append(vec)
    return basis


def solve_exact(columns, target):
    """Solve sum_j y_j * columns[j] = target over Q, or return None.

    Reduces [A | b]; a pivot in the last column means no solution.  Used for
    lattice coordinates on facets; callers assert integrality.
    """
    ncols = len(columns)
    aug = [[column[i] for column in columns] + [b] for i, b in enumerate(target)]
    mat, pivots = _rref(aug, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    solution = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        solution[col] = mat[i][ncols]
    return solution


def primitive_vector(vec):
    """Divide an integer vector by the gcd of its entries (zero vector fixed)."""
    g = 0
    for x in vec:
        g = math.gcd(g, abs(int(x)))
    if g == 0:
        return tuple(int(x) for x in vec)
    return tuple(int(x) // g for x in vec)


def integer_kernel_of_vector(vec):
    """Basis of {x in Z^m : vec . x = 0} for a primitive integer vector.

    Columns of a unimodular matrix U with vec . U = (g, 0, ..., 0); the last
    m-1 columns span the kernel lattice exactly.
    """
    m = len(vec)
    w = [int(x) for x in vec]
    cols = [[1 if i == j else 0 for i in range(m)] for j in range(m)]
    for j in range(1, m):
        while w[j]:
            q = w[0] // w[j]
            w[0] -= q * w[j]
            cols[0] = [a - q * b for a, b in zip(cols[0], cols[j])]
            w[0], w[j] = w[j], w[0]
            cols[0], cols[j] = cols[j], cols[0]
    if w[0] == 0:
        raise ValueError("zero vector has no primitive kernel split")
    return [tuple(c) for c in cols[1:]]
