"""Exact linear algebra: the two rank routes must agree everywhere."""

from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from lefschetz import linalg
from lefschetz.linalg import (
    bareiss_rank,
    clear_denominators,
    det_int,
    exact_rank,
    integer_kernel_of_vector,
    kernel_basis,
    primitive_vector,
    rational_rank,
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


def test_clear_denominators():
    assert clear_denominators([Fraction(1, 2), Fraction(1, 3)]) == [3, 2]
    assert clear_denominators([2, 4]) == [2, 4]
    assert clear_denominators([]) == []
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


def test_integer_kernel_of_vector():
    rng = rng_for(0, "linalg-intkernel")
    for trial in range(40):
        m = rng.randrange(2, 6)
        vec = [0] * m
        while not any(vec):
            vec = [rng.randrange(-6, 7) for _ in range(m)]
        vec = list(primitive_vector(vec))
        cols = integer_kernel_of_vector(vec)
        assert len(cols) == m - 1
        for col in cols:
            assert sum(a * b for a, b in zip(vec, col)) == 0
        matrix = [list(c) for c in cols]
        assert exact_rank(matrix) == m - 1
        # saturated: the gcd of the maximal minors of the kernel matrix is 1,
        # so the columns generate the full kernel lattice
        minors = [
            det_int([[matrix[i][j] for j in sub] for i in range(m - 1)])
            for sub in combinations(range(m), m - 1)
        ]
        g = 0
        for value in minors:
            g = gcd(g, abs(value))
        assert g == 1
    with pytest.raises(ValueError):
        integer_kernel_of_vector([0, 0, 0])
