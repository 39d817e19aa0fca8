"""Exact linear algebra: the two rank routes must agree everywhere."""

import importlib
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from lefschetz import IdealSpec, bundles, h_vector, linalg, splitting_type, verify_r4_theorem
from lefschetz.classify import enumerate_cubic_togliatti
from lefschetz.linalg import (
    bareiss_rank,
    clear_denominators,
    det_int,
    exact_rank,
    kernel_basis,
    primitive_kernel_vector,
    primitive_vector,
    rational_rank,
    scale_to_integers,
    solve_exact,
)
from lefschetz.sampling import rng_for


def test_known_ranks():
    assert bareiss_rank([[1, 0], [0, 1]]) == 2
    assert bareiss_rank([[1, 2], [2, 4]]) == 1
    assert bareiss_rank([[0, 0], [0, 0]]) == 0
    assert bareiss_rank([[1, 2, 3]]) == 1
    assert bareiss_rank([[1], [2], [3]]) == 1
    assert bareiss_rank([]) == 0
    # rank 2: rows 3 and 1 differ by twice row 2
    assert bareiss_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2


def dense_bareiss(rows):
    """``linalg._bareiss`` as a dense loop: every row below a pivot is
    updated at every column to its right, zero head or not."""
    mat = [[int(x) for x in row] for row in rows]
    nrows, ncols = len(mat), len(mat[0]) if mat else 0
    rank, sign, prev, pivots = 0, 1, 1, []
    for col in range(ncols):
        if rank == nrows:
            break
        pivot_row = next((i for i in range(rank, nrows) if mat[i][col]), None)
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
            for j in range(col + 1, ncols):
                row_i[j] = (pivot * row_i[j] - head * row_p[j]) // prev
            row_i[col] = 0
        prev = pivot
        pivots.append(col)
        rank += 1
    return rank, sign, prev, pivots, mat[:rank]


def test_bareiss_matches_the_dense_loop():
    # rows with a zero head are only rescaled by pivot / prev, at their
    # nonzero entries: rank, sign, last pivot, pivots and echelon rows must
    # all be the dense loop's, bit for bit
    rng = rng_for(0, "linalg-bareiss-dense")
    seen = Counter()
    for trial in range(400):
        nrows = rng.randrange(1, 14)
        ncols = rng.randrange(1, 14)
        kind = trial % 4
        if kind == 0:  # sparse
            density = rng.uniform(0.1, 0.5)
            rows = [
                [rng.randrange(-9, 10) if rng.random() < density else 0 for _ in range(ncols)]
                for _ in range(nrows)
            ]
        elif kind == 1:  # a low-rank product
            k = rng.randrange(1, min(nrows, ncols) + 1)
            left = [[rng.randrange(-4, 5) for _ in range(k)] for _ in range(nrows)]
            right = [[rng.randrange(-4, 5) for _ in range(ncols)] for _ in range(k)]
            rows = [[sum(a * b for a, b in zip(r, c)) for c in zip(*right)] for r in left]
        elif kind == 2:  # zero rows and zero columns
            rows = [[rng.randrange(-5, 6) for _ in range(ncols)] for _ in range(nrows)]
            for i in rng.sample(range(nrows), rng.randrange(nrows + 1)):
                rows[i] = [0] * ncols
            for j in rng.sample(range(ncols), rng.randrange(ncols)):
                for row in rows:
                    row[j] = 0
        else:  # sparse, entries beyond int64
            rows = [
                [rng.choice([-1, 1]) * rng.randrange(2**63, 2**90) if rng.random() < 0.3 else 0
                 for _ in range(ncols)]
                for _ in range(nrows)
            ]
        expected = dense_bareiss(rows)
        assert linalg._bareiss(rows) == expected
        rank, _, last, _, _ = expected
        seen["deficient" if rank < min(nrows, ncols) else "full"] += 1
        seen["beyond int64"] += abs(last) >= 2**63
    assert min(seen.values()) >= 50


def test_rank_routes_agree_on_random_matrices():
    rng = rng_for(0, "linalg-random")
    for trial in range(200):
        nrows = rng.randrange(1, 31)
        ncols = rng.randrange(1, 31)
        density = rng.choice([0.2, 0.5, 1.0])
        mat = [
            [rng.randrange(-9, 10) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        expected = rational_rank(mat)
        assert bareiss_rank(mat) == expected
        assert exact_rank(mat) == expected
        assert exact_rank([list(col) for col in zip(*mat)]) == expected


def test_rank_routes_agree_on_low_rank_products():
    # products of thin matrices have controlled rank, a worst case for mod-p
    rng = rng_for(0, "linalg-lowrank")
    for trial in range(50):
        n = rng.randrange(2, 12)
        k = rng.randrange(1, n)
        left = [[rng.randrange(-5, 6) for _ in range(k)] for _ in range(n)]
        right = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(k)]
        prod = [
            [sum(a * b for a, b in zip(lrow, rcol)) for rcol in zip(*right)]
            for lrow in left
        ]
        expected = rational_rank(prod)
        assert expected <= k
        assert bareiss_rank(prod) == expected
        assert exact_rank(prod) == expected


def test_exact_rank_handles_entries_beyond_int64():
    big = 10**40
    assert exact_rank([[big, 0], [0, big]]) == 2
    assert exact_rank([[big, big], [big, big]]) == 1
    # mod-p collision: p * multiplier rows are nonzero but vanish mod 2^31 - 1
    p = 2_147_483_647
    assert exact_rank([[p, 0], [0, p]]) == 2


def test_exact_rank_screen_counts_nonzero_rows_and_columns(monkeypatch):
    p = 2_147_483_647
    # nonzero over Z but zero mod p: the zero count must be taken over Z
    assert exact_rank([[p, 0, 0], [0, 1, 0]]) == 2
    assert exact_rank([[1, p], [0, 0]]) == 1

    def no_fallback(rows):
        pytest.fail(f"Bareiss fallback on {rows}")

    # full rank once the zero rows and columns are left out: certified mod p
    monkeypatch.setattr(linalg, "bareiss_rank", no_fallback)
    assert exact_rank([[1, 0, 2], [0, 0, 0], [3, 0, 4]]) == 2
    assert exact_rank([[0, 5, 0, 0], [0, 7, 0, 0], [0, 0, 0, 0]]) == 1
    assert exact_rank([[0, 0], [0, 0]]) == 0


def test_non_integer_entries_raise_instead_of_truncating():
    # int() and an int64 cast would floor 1/2 to 0 and report rank 1
    half = [[Fraction(1, 2), 0], [0, 1]]
    for rank_route in (exact_rank, bareiss_rank):
        with pytest.raises(TypeError):
            rank_route(half)
        with pytest.raises(TypeError):
            rank_route([[0.5, 0], [0, 1]])
    with pytest.raises(TypeError):
        det_int(half)
    # beyond int64 the screen reduces entry by entry, and rejects there too
    with pytest.raises(TypeError):
        exact_rank([[Fraction(10**40, 3), 0], [0, 1]])
    # integer-valued entries of other integer types are still read exactly
    assert exact_rank([[True, False], [False, True]]) == 2
    assert rational_rank(half) == 2
    assert exact_rank([clear_denominators(row) for row in half]) == 2


def python_rank_mod_p(rows, p):
    """Rank mod p by Gaussian elimination on Python ints, with inverses."""
    mat = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        for i in range(rank + 1, len(mat)):
            factor = mat[i][col] * inv % p
            if factor:
                mat[i] = [(a - factor * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("prime", [int(linalg._PRIME), 3, 2])
def test_modp_rank_matches_python_rank_mod_p(monkeypatch, prime):
    # residues at p - 1 or spread over [0, p) are where a fraction-free
    # int64 update has the least headroom; tall and wide shapes both occur.
    # The kernel must read the patched prime when it is called: the
    # small-prime tests rely on it.
    monkeypatch.setattr(linalg, "_PRIME", np.int64(prime))
    p = prime
    rng = rng_for(p, "linalg-modp")
    cells = linalg._ROWWISE_CELLS
    # the row-wise path up to _ROWWISE_CELLS cells (the last two shapes sit
    # at it), the live-row path just above it
    dense = [(24, 6), (6, 24), (15, 15), (1, 30), (30, 1), (cells // 32, 32),
             (32, cells // 32), (cells // 32 + 1, 32)]
    cases = []
    for nrows, ncols in dense:
        rank_caps = {min(nrows, ncols), 1, max(1, min(nrows, ncols) // 2)}
        mats = [[[p - 1] * ncols for _ in range(nrows)]]
        for k in sorted(rank_caps):
            # a product of an (nrows x k) and a (k x ncols) residue matrix,
            # reduced mod p: rank at most k, entries anywhere in [0, p)
            left = [[rng.randrange(p) for _ in range(k)] for _ in range(nrows)]
            right = [[rng.randrange(p) for _ in range(ncols)] for _ in range(k)]
            mats.append([
                [sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)]
                for row in left
            ])
        # sparse: row swaps, and heads that are zero on some rows only
        mats.append(_sparse_residues(rng, p, nrows, ncols, 0.3))
        # signed and beyond-int64 entries are reduced before the screen runs
        mats.append([
            [rng.choice([-(p - 1), p - 1, 10**30 + rng.randrange(p), -rng.randrange(p)])
             for _ in range(ncols)]
            for _ in range(nrows)
        ])
        cases += [(min(nrows, ncols), mat) for mat in mats]
    # the large sparse shapes of Macaulay and quotient maps, tall and wide,
    # at about 1% density: the live-row path
    for nrows, ncols in ((300, 150), (150, 300)):
        cases += [(150, _sparse_residues(rng, p, nrows, ncols, d)) for d in (0.01, 0.02)]
    seen = Counter()
    for full, mat in cases:
        expected = python_rank_mod_p(mat, p)
        assert linalg._modp_rank(linalg._to_modp_array(mat)) == expected
        seen["deficient" if expected < full else "full"] += 1
    assert seen["deficient"] >= 8 and seen["full"] >= 8


def _sparse_residues(rng, p, nrows, ncols, density):
    """An nrows x ncols matrix of residues mod p, each nonzero (p - 1 or
    anywhere in [0, p)) with probability ``density``."""
    return [
        [rng.choice([p - 1, rng.randrange(p)]) if rng.random() < density else 0
         for _ in range(ncols)]
        for _ in range(nrows)
    ]


def test_clear_denominators():
    assert clear_denominators([Fraction(1, 2), Fraction(1, 3)]) == [3, 2]
    assert clear_denominators([2, 4]) == [2, 4]
    assert clear_denominators([]) == []
    # dict views and generators are read once, with or without fractions
    assert scale_to_integers({(1, 0): 2, (0, 1): -3}.values()) == ([2, -3], 1)
    assert scale_to_integers(x for x in (Fraction(1, 2), 3)) == ([1, 6], 2)
    assert scale_to_integers(x for x in (np.int64(4), 6)) == ([4, 6], 1)
    rows = [[Fraction(1, 7), Fraction(2, 7)], [1, 2]]
    assert exact_rank([clear_denominators(row) for row in rows]) == 1


def test_kernel_basis_annihilates_and_counts():
    rng = rng_for(0, "linalg-kernel")
    for trial in range(50):
        nrows = rng.randrange(1, 10)
        ncols = rng.randrange(1, 10)
        mat = [[rng.randrange(-4, 5) for _ in range(ncols)] for _ in range(nrows)]
        basis = kernel_basis(mat, ncols)
        assert len(basis) == ncols - rational_rank(mat)
        for vec in basis:
            for row in mat:
                assert sum(Fraction(a) * b for a, b in zip(row, vec)) == 0
        if basis:
            assert rational_rank(basis) == len(basis)


def gauss_jordan(rows, ncols):
    """Reduced row echelon form over Fraction: (reduced rows, pivot columns).

    The reference route: every pivot row is scaled to 1 and its column is
    cleared above and below the pivot, zero or not.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot_row = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        mat[rank] = [x / mat[rank][col] for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
    return mat, pivots


def gauss_jordan_solve(columns, target):
    """``solve_exact`` read off the reduced row echelon form of [A | b]."""
    ncols = len(columns)
    aug = [[column[i] for column in columns] + [b] for i, b in enumerate(target)]
    mat, pivots = gauss_jordan(aug, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    solution = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        solution[col] = mat[i][ncols]
    return solution


def _random_rational_matrix(rng, nrows, ncols):
    """A sparse, low-rank or dense matrix of ints or of Fractions."""
    kind = rng.choice(["sparse", "low rank", "dense"])
    fractions = rng.random() < 0.5

    def entry():
        if fractions:
            return Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        return rng.randrange(-6, 7)

    if kind == "low rank":
        k = rng.randrange(1, min(nrows, ncols) + 1)
        left = [[rng.randrange(-3, 4) for _ in range(k)] for _ in range(nrows)]
        right = [[entry() for _ in range(ncols)] for _ in range(k)]
        return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
    density = rng.uniform(0.1, 0.5) if kind == "sparse" else 1.0
    return [
        [entry() if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]


def test_rational_routes_match_gauss_jordan():
    # forward elimination over Q skips the rows with a zero head and stops
    # at the echelon form: its pivot count, and the back-substituted
    # solution with the free variables at 0, are the reduced echelon form's
    rng = rng_for(0, "linalg-echelon")
    seen = Counter()
    for trial in range(300):
        nrows = rng.randrange(1, 12)
        ncols = rng.randrange(1, 12)
        rows = _random_rational_matrix(rng, nrows, ncols)
        rank = len(gauss_jordan(rows, ncols)[1])
        assert rational_rank(rows) == rank
        seen["deficient" if rank < min(nrows, ncols) else "full"] += 1
        columns = [list(col) for col in zip(*rows)]
        # b in the column space (solvable) or a random vector (often not)
        if rng.random() < 0.5:
            y = [rng.randrange(-3, 4) for _ in range(ncols)]
            target = [sum(a * b for a, b in zip(row, y)) for row in rows]
        else:
            target = [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(nrows)]
        solution = solve_exact(columns, target)
        assert solution == gauss_jordan_solve(columns, target)
        if solution is None:
            seen["unsolvable"] += 1
        else:
            seen["solvable"] += 1
            assert all(type(v) is Fraction for v in solution)
            assert [sum(a * y for a, y in zip(row, solution)) for row in rows] == target
    assert min(seen.values()) >= 30 and len(seen) == 4
    assert rational_rank([]) == 0 and rational_rank([[0, 0], [0, 0]]) == 0


def rref_kernel_basis(rows, ncols):
    """The reduced-echelon kernel basis read off ``gauss_jordan``."""
    mat, pivots = gauss_jordan(rows, ncols)
    basis = []
    for free in range(ncols):
        if free not in pivots:
            vec = [Fraction(0)] * ncols
            vec[free] = Fraction(1)
            for i, col in enumerate(pivots):
                vec[col] = -mat[i][free]
            basis.append(vec)
    return basis


KERNEL_CASES = [
    # Fraction rows, one of them the sum of the other two
    [[Fraction(1, 2), Fraction(2, 3), 1, 0], [0, Fraction(1, 5), Fraction(-3, 7), 2],
     [Fraction(1, 2), Fraction(13, 15), Fraction(4, 7), 2]],
    # zero rows, before and after the others
    [[0, 0, 0, 0], [3, 1, 4, 1], [0, 0, 0, 0], [6, 2, 9, 3]],
    # a free column (1) between the pivots 0 and 2
    [[2, 4, 1, 3], [1, 2, 5, 0]],
    # the pivot of column 2 is the minor -2, no multiple of the earlier 4
    [[4, 2, 1], [2, 1, 0]],
    # the leading minor left of column 1 is 1, the last pivot is 7
    [[1, 2, 0], [0, 0, 7]],
    # a zero column first, and a full-rank square block after it
    [[0, 1, 2], [0, 3, 4]],
]


def test_kernel_basis_matches_rref_route():
    cases = KERNEL_CASES + [[[0, 0, 0]], [[]]]
    for rows in cases:
        ncols = len(rows[0])
        assert kernel_basis(rows, ncols) == rref_kernel_basis(rows, ncols)
    # no rows at all: every column is free
    assert kernel_basis([], 3) == rref_kernel_basis([], 3) == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1]
    ]
    rng = rng_for(0, "linalg-kernel-rref")
    for trial in range(150):
        nrows = rng.randrange(1, 8)
        ncols = rng.randrange(1, 9)
        k = rng.randrange(1, ncols + 1)
        left = [[rng.randrange(-3, 4) for _ in range(k)] for _ in range(nrows)]
        right = [
            [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(ncols)]
            for _ in range(k)
        ]
        rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
        assert kernel_basis(rows, ncols) == rref_kernel_basis(rows, ncols)


def test_back_substitution_scales_by_the_minor_left_of_the_free_column():
    # the free entry is the leading minor on the pivots to the left of the
    # free column, not the last pivot: the integer vector is the
    # reduced-echelon one times that minor, and stays minor-sized
    assert linalg._back_substitute([0, 2], [[1, 2, 0], [0, 0, 7]], 1, 3) == [-2, 1, 0]
    rows = [[4, 2, 1], [2, 1, 0]]
    _, _, _, pivots, echelon = linalg._bareiss(rows)
    assert (pivots, echelon) == ([0, 2], [[4, 2, 1], [0, 0, -2]])
    assert linalg._back_substitute(pivots, echelon, 1, 3) == [-2, 4, 0]
    for rows in KERNEL_CASES:
        rows = [clear_denominators(row) for row in rows]
        ncols = len(rows[0])
        _, _, _, pivots, echelon = linalg._bareiss(rows)
        free_columns = [c for c in range(ncols) if c not in pivots]
        for free, expected in zip(free_columns, rref_kernel_basis(rows, ncols)):
            left = [c for c in pivots if c < free]
            minor = echelon[len(left) - 1][left[-1]] if left else 1
            x = linalg._back_substitute(pivots, echelon, free, ncols)
            assert x == [minor * v for v in expected]


def rref_kernel_vector(rows, ncols):
    """The first Gauss-Jordan kernel vector, cleared, primitive, first
    nonzero positive."""
    basis = rref_kernel_basis(rows, ncols)
    if not basis:
        return None
    vec = primitive_vector(clear_denominators(basis[0]))
    return vec if next(x for x in vec if x) > 0 else tuple(-x for x in vec)


def test_primitive_kernel_vector_matches_rref_route():
    rng = rng_for(0, "linalg-primitive-kernel")
    seen = Counter()
    for trial in range(80):
        # an (r x k)(k x c) product has rank <= k, so kernels of every
        # dimension occur, with zero entries forcing row swaps
        nrows = rng.randrange(1, 9)
        ncols = rng.randrange(2, 10)
        k = rng.randrange(1, ncols)
        left = [[rng.randrange(-4, 5) for _ in range(k)] for _ in range(nrows)]
        right = [[rng.randrange(-4, 5) for _ in range(ncols)] for _ in range(k)]
        rows = [
            [sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
            for row in left
        ]
        vec = primitive_kernel_vector(rows, ncols)
        assert vec == rref_kernel_vector(rows, ncols)
        nullity = ncols - rational_rank(rows)
        seen["kernel >= 2" if nullity >= 2 else "kernel 1"] += 1
        assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)
        # the leading free column is not the last one: later columns are 0
        if vec[-1] == 0:
            seen["free column before the last"] += 1
    assert seen["kernel >= 2"] >= 20 and seen["kernel 1"] >= 5
    assert seen["free column before the last"] >= 10
    # f = 0: a zero first column is the whole kernel vector
    rows = [[0, 3, -1], [0, 2, 5]]
    assert primitive_kernel_vector(rows, 3) == rref_kernel_vector(rows, 3) == (1, 0, 0)
    # back-substitution gives (-6, 3): divided by 3, then negated
    rows = [[3, 6], [1, 2]]
    assert primitive_kernel_vector(rows, 2) == rref_kernel_vector(rows, 2) == (2, -1)
    # full column rank: only the zero vector
    rows = [[2, 1, 0], [1, 3, 1], [0, 1, 4], [5, 5, 5]]
    assert primitive_kernel_vector(rows, 3) is None
    assert rref_kernel_vector(rows, 3) is None
    assert primitive_kernel_vector([], 2) == (1, 0)
    for rows in KERNEL_CASES[1:]:
        ncols = len(rows[0])
        vec = primitive_kernel_vector(rows, ncols)
        assert vec == rref_kernel_vector(rows, ncols)
        first = kernel_basis(rows, ncols)[0]
        # a primitive integer multiple of the reduced-echelon vector
        scale = next(Fraction(v) / f for v, f in zip(vec, first) if f)
        assert [scale * f for f in first] == list(vec)
        assert primitive_vector(vec) == vec and next(v for v in vec if v) > 0


def test_solve_exact_round_trip():
    columns = [[1, 0, 2], [0, 1, 3]]
    target = [5, -1, 7]
    sol = solve_exact(columns, target)
    assert sol == [5, -1]
    assert solve_exact(columns, [0, 0, 1]) is None
    assert solve_exact([[2, 0], [0, 2]], [1, 1]) == [Fraction(1, 2), Fraction(1, 2)]


def test_det_int():
    assert det_int([]) == 1
    assert det_int([[7]]) == 7
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[1, 2], [2, 4]]) == 0
    rng = rng_for(0, "linalg-det")
    for trial in range(30):
        n = rng.randrange(1, 6)
        a = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        b = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        ab = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
        assert det_int(ab) == det_int(a) * det_int(b)
    with pytest.raises(ValueError):
        det_int([[1, 2]])


def test_det_nonzero_iff_full_rank():
    # rank and determinant come from one Bareiss pass; an (n x k)(k x n)
    # product is singular whenever k < n, so both kinds of matrix occur
    rng = rng_for(0, "linalg-det-rank")
    singular = 0
    for trial in range(100):
        n = rng.randrange(1, 8)
        k = rng.randrange(1, n + 1)
        left = [[rng.randrange(-4, 5) for _ in range(k)] for _ in range(n)]
        right = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(k)]
        m = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
             for row in left]
        full = bareiss_rank(m) == n
        assert (det_int(m) != 0) == full
        assert full == (rational_rank(m) == n)
        singular += not full
    assert 0 < singular < 100


def test_primitive_vector():
    assert primitive_vector([4, -6, 8]) == (2, -3, 4)
    assert primitive_vector([0, 0]) == (0, 0)
    assert primitive_vector([-3]) == (-1,)
    assert primitive_vector([5, 7]) == (5, 7)


# every lefschetz module that binds exact_rank, linalg itself included
RANK_MODULES = (
    "algebra", "apolarity", "bundles", "linalg", "osculating", "polytope", "wlp",
)


def _small_prime_readings(corpus, three_way):
    """The n = 2 census records, an r = 4 report (one random ideal per degree:
    the caller patches the count), and for the first 60 corpus ideals their
    three-way integers, h-vector and splitting type.  Each ideal is rebuilt,
    so that no dimension memoized under another prime is read."""
    census = enumerate_cubic_togliatti(2)
    report = verify_r4_theorem(4, 9, seed=0, trials=1)
    ideals = []
    for i, spec in enumerate(corpus[:60]):
        spec = IdealSpec(spec.n, spec.d, spec.generators)
        split = splitting_type(spec, seed=i, trials=3)
        ideals.append((three_way(spec, i), h_vector(spec), split.values))
    return [record.to_json_dict() for record in census.records], report, ideals


@pytest.mark.parametrize("prime", [3, 2])
def test_deficient_ranks_are_sound_at_a_small_prime(
    monkeypatch, corpus, three_way, prime
):
    # at p = 2**31 - 1 the screen almost always reaches the true rank, so an
    # unsound certificate for a rank below min(rows, cols) is never consulted;
    # at p = 3 or 2 it falls short often, and every such rank must be Bareiss's
    monkeypatch.setattr(bundles, "_R4_RANDOM_SAMPLES", 1)
    expected = _small_prime_readings(corpus, three_way)
    checked = []
    by_ceiling = []

    def checked_rank(rows, **kwargs):
        rank = exact_rank(rows, **kwargs)  # this module's binding, unwrapped
        if len(rows) and rank < min(len(rows), len(rows[0])):
            checked.append((rank, bareiss_rank(rows)))
            modp = linalg._modp_rank(linalg._to_modp_array(rows))
            by_ceiling.append(modp == kwargs.get("ceiling"))
        return rank

    monkeypatch.setattr(linalg, "_PRIME", np.int64(prime))
    for name in RANK_MODULES:
        module = importlib.import_module(f"lefschetz.{name}")
        monkeypatch.setattr(module, "exact_rank", checked_rank)
    assert _small_prime_readings(corpus, three_way) == expected
    assert checked
    # the caller's ceiling decided some of them: its soundness is under test
    assert any(by_ceiling)
    assert [(rank, true) for rank, true in checked if rank != true] == []


@pytest.mark.parametrize("prime", [int(linalg._PRIME), 3, 2])
def test_stacked_screen_decides_each_matrix_by_its_mod_p_rank(monkeypatch, prime):
    # zero rows and multiples of other rows make matrices dependent over Q;
    # at p = 3 or 2 some independent ones are dependent mod p as well
    monkeypatch.setattr(linalg, "_PRIME", np.int64(prime))
    rng = rng_for(prime, "linalg-stacked-screen")
    verdicts = Counter()
    for trial in range(80):
        r = rng.randrange(1, 7)
        c = rng.randrange(r, 9)
        stack = []
        for _ in range(rng.randrange(1, 9)):
            rows = [[rng.randrange(-4, 5) for _ in range(c)] for _ in range(r)]
            if rng.random() < 0.3:
                rows[rng.randrange(r)] = [0] * c
            if r > 1 and rng.random() < 0.3:
                i, j = rng.sample(range(r), 2)
                q = rng.randrange(-3, 4)
                rows[i] = [q * x for x in rows[j]]
            stack.append(rows)
        stack = np.array(stack, dtype=np.int64)
        before = stack.copy()
        independent = linalg._modp_independent_rows(stack).tolist()
        assert np.array_equal(stack, before)
        assert independent == [
            linalg._modp_rank(matrix % np.int64(prime)) == r for matrix in stack
        ]
        verdicts.update(independent)
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_a_ceiling_below_the_rank_raises():
    # mod-p rank <= rank, so a mod-p rank above the ceiling proves it wrong
    rows = [[1, 2, 0], [0, 1, 1], [1, 0, 1]]  # rank 3
    assert exact_rank(rows, ceiling=3) == 3
    with pytest.raises(ArithmeticError):
        exact_rank(rows, ceiling=2)
    # rank 2, below min(rows, cols): only the ceiling certifies it mod p
    deficient = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert exact_rank(deficient, ceiling=2) == 2
    with pytest.raises(ArithmeticError):
        exact_rank(deficient, ceiling=1)
