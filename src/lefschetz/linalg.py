"""Exact linear algebra over Q and Z.

Every verdict in this package (Lefschetz maximal rank, ideal piece dimensions,
Laplace equation counts, facet supports, splitting types) is a statement about
the rank or kernel of an integer or rational matrix, and all of them must be
exact.  There are exactly two elimination routines, independent of each other:

* ``_bareiss``: fraction-free one-step Bareiss elimination on integer
  matrices.  Integer pivots, exact divisions, no rationals.  Authoritative.
  ``bareiss_rank`` (its rank), ``det_int`` (sign times last pivot) and
  ``primitive_kernel_vector`` (back-substitution on its echelon rows, the
  kernel behind the lattice quadric) are read off it.
* ``_rref``: Gauss-Jordan elimination over ``Fraction`` to the reduced row
  echelon form.  It serves ``rational_rank`` (the pivot count, the
  cross-check route; property tests assert both routes agree),
  ``kernel_basis`` (one vector per free column, for the apolar systems of
  general ideals) and ``solve_exact`` (reduce ``[A | b]``).

``exact_rank`` wraps Bareiss with a certified shortcut: the rank of the matrix
reduced mod a fixed prime is a lower bound for the rational rank, so whenever
the mod-p rank reaches the count of nonzero rows or of nonzero columns (an
upper bound) the exact rank is known without any big-integer work.  A
deficient mod-p outcome is never trusted; it falls back to Bareiss.  The
shortcut changes nothing about the returned value.

Lattice coordinates need no elimination at all: ``integer_kernel_of_vector``
returns a unimodular matrix together with its inverse, so coordinates on a
lattice hyperplane are integer matrix-vector products.
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

    Returns (rank, sign, last_pivot, pivots, echelon): sign is -1 to the
    number of row swaps, and for a square matrix of full rank the last pivot
    is sign * det.  ``echelon`` holds the ``rank`` nonzero integer rows of
    the row echelon form; row i has its pivot in column pivots[i], zeros to
    the left of it, and the pivot equals the leading minor of the
    row-permuted matrix on columns pivots[:i + 1].
    """
    mat = [[int(x) for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    rank = 0
    sign = 1
    prev = 1
    pivots = []
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
        pivots.append(col)
        rank += 1
    return rank, sign, prev, pivots, mat[:rank]


def bareiss_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free Bareiss elimination."""
    return _bareiss(rows)[0]


def det_int(rows) -> int:
    """Determinant of a square integer matrix (Bareiss, exact)."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    rank, sign, last_pivot, _, _ = _bareiss(rows)
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


def primitive_kernel_vector(rows, ncols):
    """``kernel_basis(rows, ncols)[0]`` as a primitive integer vector, or None.

    Integer rows only.  Let f be the first free column: columns 0..f-1 are
    all pivots, so the kernel of the first f+1 columns is a line, spanned by
    the reduced-echelon vector of column f.  With x_f set to the Bareiss
    pivot of column f-1 (the leading f x f minor) the back-substitution over
    the echelon rows is integral by Cramer's rule; every division is checked
    to be exact.  The result is divided by its content and has its first
    nonzero entry positive.  None when the columns are independent.
    """
    _, _, _, pivots, echelon = _bareiss(rows)
    f = next((c for c, pivot in enumerate(pivots) if c != pivot), len(pivots))
    if f == ncols:
        return None
    x = [0] * ncols
    x[f] = echelon[f - 1][f - 1] if f else 1
    for i in range(f - 1, -1, -1):
        row = echelon[i]
        known = sum(row[k] * x[k] for k in range(i + 1, f + 1))
        value, remainder = divmod(-known, row[i])
        if remainder:
            raise ArithmeticError("inexact division in the Bareiss back-substitution")
        x[i] = value
    vec = primitive_vector(x)
    if next(v for v in vec if v) < 0:
        vec = tuple(-v for v in vec)
    return vec


def solve_exact(columns, target):
    """Solve sum_j y_j * columns[j] = target over Q, or return None.

    Reduces [A | b]; a pivot in the last column means no solution.
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
    """Integer kernel basis of a nonzero integer vector, with lattice coordinates.

    Column operations build a unimodular U with vec . U = (g, 0, ..., 0); the
    inverse row operations build U^-1 alongside.  Returns (kernel, inverse):
    kernel is the last m-1 columns of U, which span {x in Z^m : vec . x = 0}
    exactly, and inverse is the m rows of U^-1.  For x in that lattice,
    inverse[0] . x == 0 and x == sum_j (inverse[j + 1] . x) * kernel[j], so
    the lattice coordinates of x are integer dot products.
    """
    m = len(vec)
    w = [int(x) for x in vec]
    cols = [[1 if i == j else 0 for i in range(m)] for j in range(m)]
    inverse = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for j in range(1, m):
        while w[j]:
            q = w[0] // w[j]
            w[0] -= q * w[j]
            cols[0] = [a - q * b for a, b in zip(cols[0], cols[j])]
            inverse[j] = [a + q * b for a, b in zip(inverse[j], inverse[0])]
            w[0], w[j] = w[j], w[0]
            cols[0], cols[j] = cols[j], cols[0]
            inverse[0], inverse[j] = inverse[j], inverse[0]
    if w[0] == 0:
        raise ValueError("zero vector has no primitive kernel split")
    return [tuple(c) for c in cols[1:]], [tuple(r) for r in inverse]
