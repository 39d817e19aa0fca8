"""Exact linear algebra over Q and Z.

Every verdict in this package (Lefschetz maximal rank, ideal piece dimensions,
Laplace equation counts, facet supports, splitting types) is a statement about
the rank or kernel of an integer or rational matrix, and all of them must be
exact.  There are exactly two elimination routines, independent of each other:

* ``_bareiss``: fraction-free one-step Bareiss elimination on integer
  matrices.  Integer pivots, exact divisions, no rationals.  Authoritative.
  A row whose entry under the pivot (its head) is zero is only rescaled by
  pivot / previous pivot, at its nonzero entries, and not at all when the
  two pivots are equal.
  ``bareiss_rank`` (its rank), ``det_int`` (sign times last pivot),
  ``integer_kernel`` (with ``kernel_basis``, its vectors over Q) and
  ``primitive_kernel_vector`` are read off it; the kernels share one integer
  back-substitution, ``_back_substitute``.
  Entries are read through ``operator.index``, so a ``Fraction`` or
  ``float`` entry raises ``TypeError`` instead of being truncated.
* ``_echelon``: forward Gaussian elimination over Q to a row echelon form.
  Rows with a zero head are skipped, the others are updated only at the
  pivot row's nonzero columns, and no pivot row is normalised.  It serves
  only ``rational_rank`` (the pivot count, the cross-check route; property
  tests assert both routes agree) and ``solve_exact`` (reduce ``[A | b]``,
  then back-substitute).

``exact_rank`` wraps Bareiss with a certified shortcut: the rank of the matrix
reduced mod a fixed prime is a lower bound for the rational rank, so whenever
the mod-p rank reaches an upper bound (the count of nonzero rows or of nonzero
columns, or a ``ceiling`` the caller derives from the algebra) the exact rank
is known without any big-integer work.  A deficient mod-p outcome is never
trusted; it falls back to Bareiss.  The shortcut changes nothing about the
returned value.

The mod-p screen ``_modp_rank`` is fraction-free too: each row below a pivot
becomes ``(pivot * row - head * pivot_row) % p``, with no modular inverse.
With residues in [0, p) and p = 2**31 - 1 each product is below 2**62, so
the difference fits in int64.  Which rows are updated is decided by the
size of the matrix:

* at most ``_ROWWISE_CELLS`` cells (almost every rank the package takes):
  the shorter side becomes the rows, row k pivots on its largest residue,
  and every row below it is updated in place by three whole-slice
  operations.  A zero row has pivot 0 and adds nothing to the rank.
* above that (the large sparse Macaulay and quotient maps): a wide matrix
  is transposed, the loop runs over the shorter side's columns, the first
  row with a nonzero head pivots, and only the rows below it with a nonzero
  head are updated; rows with a zero head are left alone.

The rank over F_p does not depend on the order of elimination, so the two
paths agree wherever both could run.  Beside them,
``_modp_independent_rows`` runs the row-wise update, with the same pivot
rule, on a whole (B, r, c) stack of small matrices at once, one row at a
time, and says which have rank r mod p.  The census rules out a candidate
on that verdict alone (rank mod p at most the rank over Q); a matrix found
dependent is left to an exact route.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from fractions import Fraction

import numpy as np

# Mersenne prime 2**31 - 1: the product of two reduced residues is below
# 2**62, so the difference of two such products fits in int64.  A numpy
# scalar, which numpy's in-place ops take directly.
_PRIME = np.int64(2_147_483_647)
# Above this many cells ``_modp_rank`` updates only the rows with a nonzero
# head.  Below it the whole-slice row update is cheaper than finding them:
# over the ranks of the corpus audit the split costs least near 2,048 cells,
# and on the sparse quotient maps beyond it the whole-slice update is about
# twenty times dearer.
_ROWWISE_CELLS = 2048


def scale_to_integers(row):
    """(integers, scale): a row of Fractions/ints times ``scale``, the least
    common multiple of its denominators.

    A row of plain ints comes back as a list with scale 1.  Otherwise ints and
    Fractions are read through ``numerator``/``denominator`` directly;
    re-wrapping each entry in a new ``Fraction`` dominated the harness profile.
    """
    row = list(row)  # callers pass dict views, read twice below
    if all(type(x) is int for x in row):
        return row, 1
    fracs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    scale = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (scale // f.denominator) for f in fracs], scale


def clear_denominators(row):
    """Scale a row of Fractions/ints to integers (row scaling preserves rank)."""
    return scale_to_integers(row)[0]


def _bareiss(rows):
    """Fraction-free one-step Bareiss elimination of an integer matrix.

    Returns (rank, sign, last_pivot, pivots, echelon): sign is -1 to the
    number of row swaps, and for a square matrix of full rank the last pivot
    is sign * det.  ``echelon`` holds the ``rank`` nonzero integer rows of
    the row echelon form; row i has its pivot in column pivots[i], zeros to
    the left of it, and the pivot equals the leading minor of the
    row-permuted matrix on columns pivots[:i + 1].  Entries must be
    integers: anything else raises ``TypeError``.
    """
    index = operator.index
    mat = [[index(x) for x in row] for row in rows]
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
            # the division by the previous pivot is exact.  With a zero
            # head the update is pivot * row // prev: it rescales only the
            # nonzero entries, and leaves the row alone when pivot == prev
            if head:
                for j in range(col + 1, ncols):
                    row_i[j] = (pivot * row_i[j] - head * row_p[j]) // prev
                row_i[col] = 0
            elif pivot != prev:
                for j in range(col + 1, ncols):
                    if row_i[j]:
                        row_i[j] = pivot * row_i[j] // prev
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


def _echelon(rows, ncols):
    """Row echelon form over Q by forward Gaussian elimination.

    Returns (echelon rows, pivot columns): row i has its pivot in column
    pivots[i] and zeros to the left of it, and the rows after the pivots
    are zero.  Pivot rows are not normalised and nothing above a pivot is
    eliminated.  Only the rows below a pivot with a nonzero head are
    updated, and only at the pivot row's nonzero columns to its right.
    Int entries stay ints while the multipliers are integral; any other
    entry is read as a ``Fraction``.
    """
    mat = [[x if type(x) is int else Fraction(x) for x in row] for row in rows]
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
        row_p = mat[rank]
        pivot = row_p[col]
        tail = [(j, row_p[j]) for j in range(col + 1, ncols) if row_p[j]]
        for row_i in mat[rank + 1 :]:
            head = row_i[col]
            if head:
                factor = Fraction(head, pivot)
                if factor.denominator == 1:
                    factor = factor.numerator
                for j, x in tail:
                    row_i[j] -= factor * x
                row_i[col] = 0
        pivots.append(col)
    return mat, pivots


def rational_rank(rows) -> int:
    """Rank by Gaussian elimination over Q (``_echelon``).  Cross-check route."""
    return len(_echelon(rows, len(rows[0]) if rows else 0)[1])


def _modp_rank(mat: np.ndarray) -> int:
    """Rank of an int64 matrix already reduced mod _PRIME.  May destroy its input.

    Up to ``_ROWWISE_CELLS`` cells, the rows are the shorter side and row k
    pivots on its largest residue; every row below it becomes
    ``(pivot * row - head * pivot_row) % p`` in place, as in
    ``_modp_independent_rows``.  Larger matrices go to ``_modp_rank_live``.
    """
    if mat.size > _ROWWISE_CELLS:
        return _modp_rank_live(mat)
    if mat.shape[0] > mat.shape[1]:
        mat = np.ascontiguousarray(mat.T)
    rank = 0
    for k in range(len(mat) - 1):
        row = mat[k]
        column = row.argmax()
        pivot = row[column]
        if pivot:
            rank += 1
            below = mat[k + 1 :]
            product = below[:, column, None] * row
            below *= pivot
            below -= product
            below %= _PRIME
    # nothing lies below the last row: it counts if it is not zero
    return rank + bool(mat[-1:].any())


def _modp_rank_live(mat: np.ndarray) -> int:
    """``_modp_rank`` of a large matrix: the same update, on live rows only.

    The loop runs over the columns of the shorter side.  The first row with
    a nonzero head pivots, and only the rows below it whose head is nonzero
    (the live rows) become ``(pivot * row - head * pivot_row) % p``; on a
    sparse Macaulay matrix most rows are left alone.
    """
    if mat.shape[1] > mat.shape[0]:
        mat = np.ascontiguousarray(mat.T)
    rank = 0
    for col in range(mat.shape[1]):
        nz = mat[rank:, col].nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:
            pr = rank + int(nz[0])
            row = mat[pr].copy()
            mat[pr] = mat[rank]
            mat[rank] = row
        if nz.size > 1:
            # the rows below with a nonzero head: the swap only moved a row
            # whose head is zero.  Column col is never read again.
            live = nz[1:] + rank
            block = mat[live, col + 1 :]
            block *= mat[rank, col]
            block -= mat[live, col, None] * mat[rank, col + 1 :]
            block %= _PRIME
            mat[live, col + 1 :] = block
        rank += 1
    return rank


def _modp_independent_rows(stack: np.ndarray) -> np.ndarray:
    """Whether each matrix of a (B, r, c) integer stack has rank r mod _PRIME.

    The B matrices are reduced into a copy and eliminated together, one row
    at a time: row k pivots on its largest residue, and each row below it
    becomes ``(pivot * row - head * pivot_row) % p``, as in ``_modp_rank``
    on a matrix of at most ``_ROWWISE_CELLS`` cells.  A row that is zero
    once the rows above it are eliminated makes its matrix dependent mod p
    (its pivot 0 then zeroes the rows below, which decide nothing more).
    """
    mat = stack % _PRIME
    batch = np.arange(len(mat))
    independent = np.ones(len(mat), dtype=bool)
    for k in range(mat.shape[1]):
        row = mat[:, k]
        column = row.argmax(axis=1)
        pivot = row[batch, column]
        independent &= pivot != 0
        below = mat[:, k + 1 :]
        head = below[batch, :, column]
        below *= pivot[:, None, None]
        below -= head[:, :, None] * row[:, None, :]
        below %= _PRIME
    return independent


def _to_modp_array(rows) -> np.ndarray:
    arr = np.array(rows)
    if arr.dtype == np.int64:
        arr %= _PRIME
        return arr
    # entries beyond int64 (or not integers at all): reduce in Python
    index = operator.index
    return np.array([[index(x) % int(_PRIME) for x in row] for row in rows], dtype=np.int64)


def exact_rank(rows, *, ceiling=None) -> int:
    """Exact rank of an integer matrix.

    Mod-p rank is a lower bound for the rank over Q; if it reaches the
    number of nonzero rows or of nonzero columns (counted over Z, an upper
    bound) or the caller's proven upper bound ``ceiling``, that value is
    certified exact; a mod-p rank above ``ceiling`` disproves it and raises
    ``ArithmeticError``.  Otherwise Bareiss decides.  The screen eliminates
    fraction-free along the shorter side of the matrix.
    Entries must be integers (``int`` or numpy integers): a ``Fraction`` or
    ``float`` entry raises ``TypeError``; clear denominators first.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if nrows == 0 or ncols == 0:
        return 0
    modp = _modp_rank(_to_modp_array(rows))
    if ceiling is not None and modp > ceiling:
        raise ArithmeticError(f"mod-p rank {modp} exceeds the ceiling {ceiling}")
    if modp == min(nrows, ncols) or modp == ceiling:
        return modp
    # a second pass over the entries, paid only when the screen fell short
    if modp == min(sum(map(any, rows)), sum(map(any, zip(*rows)))):
        return modp
    return bareiss_rank(rows)


def _back_substitute(pivots, echelon, free, ncols):
    """Integer kernel vector of ``_bareiss`` echelon rows for one free column.

    The vector is zero on every other free column and on the pivots to the
    right of ``free``.  Its entry at ``free`` is the leading minor on the j
    pivots to its left (``echelon[j - 1][pivots[j - 1]]``, or 1 when j = 0);
    by Cramer's rule the back-substitution over echelon rows j-1..0 is then
    integral, and every division is checked to be exact.  Divided by that
    entry it is the reduced-echelon kernel vector of the column.
    """
    j = bisect_left(pivots, free)
    x = [0] * ncols
    x[free] = echelon[j - 1][pivots[j - 1]] if j else 1
    for i in range(j - 1, -1, -1):
        row = echelon[i]
        known = row[free] * x[free]
        for k in pivots[i + 1 : j]:
            known += row[k] * x[k]
        value, remainder = divmod(-known, row[pivots[i]])
        if remainder:
            raise ArithmeticError("inexact division in the Bareiss back-substitution")
        x[pivots[i]] = value
    return x


def integer_kernel(rows, ncols):
    """Integer right-kernel basis of an integer matrix: ``_back_substitute``
    for each free column in order, its last nonzero entry at that column."""
    _, _, _, pivots, echelon = _bareiss(rows)
    free_columns = sorted(set(range(ncols)) - set(pivots))
    return [_back_substitute(pivots, echelon, f, ncols) for f in free_columns]


def kernel_basis(rows, ncols):
    """Basis of the right kernel over Q, one vector per free column.

    Rows may be Fractions or ints.  Returns the reduced-echelon basis (free
    column set to 1) as Fraction vectors: each ``integer_kernel`` vector of
    the denominator-cleared rows divided by its last nonzero entry.
    """
    basis = []
    for x in integer_kernel([clear_denominators(row) for row in rows], ncols):
        scale = next(v for v in reversed(x) if v)
        basis.append([Fraction(v, scale) for v in x])
    return basis


def primitive_kernel_vector(rows, ncols):
    """``kernel_basis(rows, ncols)[0]`` as a primitive integer vector, or None.

    Integer rows only.  The first free column's integer back-substitution
    (``_back_substitute``) is divided by its content and has its first
    nonzero entry positive.  None when the columns are independent.
    """
    _, _, _, pivots, echelon = _bareiss(rows)
    f = next((c for c, pivot in enumerate(pivots) if c != pivot), len(pivots))
    if f == ncols:
        return None
    vec = primitive_vector(_back_substitute(pivots, echelon, f, ncols))
    if next(v for v in vec if v) < 0:
        vec = tuple(-v for v in vec)
    return vec


def solve_exact(columns, target):
    """Solve sum_j y_j * columns[j] = target over Q, or return None.

    Reduces [A | b] to echelon form; a pivot in the last column means no
    solution.  Otherwise back-substitution with every free variable 0 gives
    the solution the reduced row echelon form reads off.
    """
    ncols = len(columns)
    aug = [[column[i] for column in columns] + [b] for i, b in enumerate(target)]
    mat, pivots = _echelon(aug, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    solution = [Fraction(0)] * ncols
    for i in range(len(pivots) - 1, -1, -1):
        row = mat[i]
        known = row[ncols]
        for k in pivots[i + 1 :]:
            known -= row[k] * solution[k]
        solution[pivots[i]] = Fraction(known, row[pivots[i]])
    return solution


def primitive_vector(vec):
    """Divide an integer vector by the gcd of its entries (zero vector fixed)."""
    g = 0
    for x in vec:
        g = math.gcd(g, abs(int(x)))
    if g == 0:
        return tuple(int(x) for x in vec)
    return tuple(int(x) // g for x in vec)
