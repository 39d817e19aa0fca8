"""The Weak Lefschetz Property for artinian ideals generated in one degree.

An ideal I in R = k[x_0, ..., x_n] is presented by r linearly independent
forms of a single degree d: an ``IdealSpec`` is the ``algebra.LinearSystem``
of those forms, read as the generators of I.  R/I has the WLP when, for a
general linear form L, every multiplication map

    x L : (R/I)_j -> (R/I)_{j+1}

has maximal rank.  For MONOMIAL ideals it is enough to test the single form
L = x_0 + ... + x_n, which is what the monomial fast path does; general
ideals are tested against sampled linear forms and the best rank wins
(rank is lower semicontinuous, so the max over samples is the generic rank).
A monomial ideal's map is written on its quotient bases, the monomials
outside I_j and outside I_{j+1}, by index: ``algebra._shift_table(n, t, 1)``
maps x^e to each x^e * x_i one degree up, and ``_positions`` maps a monomial
to its column.
``has_wlp`` scans only the degrees that can fail: from d-1 (below it the
map is a multiplication on R itself) up to the first surjective degree
(after it every map is surjective).

The degree d-1 is the interesting one: for r <= comb(n+d-1, d) the map in
degree d-1 fails maximal rank exactly when the restrictions of the
generators to a general hyperplane become linearly dependent, which is the
bridge to Laplace equations (module ``osculating``).  The restrictions go
through ``algebra.linear_substitution``, as integer rows; for a monomial
ideal, x_0 + ... + x_n = 0 is general enough, so ``is_togliatti`` is one
exact rank of rows from one cached table.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count
from math import comb
from typing import Optional

from .algebra import (
    Form,
    LinearSystem,
    _shift_table,
    linear_substitution,
    monomial_basis,
    multiples_matrix,
    pure_power,
    pure_powers,
    shifted,
)
from .linalg import clear_denominators, exact_rank
from .sampling import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    check_trials,
    random_hyperplane,
    random_linear_form,
    sample_until,
)


@dataclass(frozen=True)
class IdealSpec(LinearSystem):
    """The ideal I generated by the members of a ``LinearSystem``, with its
    graded pieces memoized per degree in ``_dim_cache``: the ``_positions``
    of a monomial ideal, dim I_t of any other."""

    _dim_cache: dict = field(default_factory=dict, init=False, compare=False)

    @property
    def generators(self) -> tuple:
        return self.members

    @property
    def r(self) -> int:
        return len(self.members)

    def __repr__(self):
        kind = "monomial, " if self.is_monomial else ""
        return f"IdealSpec(n={self.n}, d={self.d}, {kind}r={self.r})"


@dataclass(frozen=True)
class WlpReport:
    """Outcome of one multiplication map (R/I)_j -> (R/I)_{j+1}."""

    degree: int
    dim_source: int
    dim_target: int
    rank: int
    lefschetz_form: Form

    @property
    def maximal_rank(self) -> bool:
        return self.rank == min(self.dim_source, self.dim_target)


def _positions(spec: IdealSpec, t: int) -> tuple:
    """(positions, h(t)) of a monomial ideal, memoized in ``spec._dim_cache``:
    entry k is the quotient-basis column of the k-th monomial of degree t,
    or -1 inside I_t.  Below d nothing is in I, I_d is the generators, and
    above d I_t = x_0 I_{t-1} + ... + x_n I_{t-1}, marked through the
    columns of ``_shift_table(n, t-1, 1)``.  Each degree is filled upward
    from the highest one held, in a loop: asking for a degree far above d
    first must not recurse once per degree."""
    cache = spec._dim_cache
    if t in cache:
        return cache[t]
    n = spec.n
    low = t
    while low > spec.d and low - 1 not in cache:
        low -= 1
    for s in range(low, t + 1):
        if s <= spec.d:
            gens = frozenset(spec.exponents()) if s == spec.d else ()
            inside = {k for k, e in enumerate(monomial_basis(n, s)) if e in gens}
        else:
            ups, below = _shift_table(n, s - 1, 1).values(), cache[s - 1][0]
            inside = {up[k] for k, column in enumerate(below) if column < 0 for up in ups}
        size, columns = comb(n + s, s), count()
        positions = array("i", [-1 if k in inside else next(columns) for k in range(size)])
        cache[s] = (positions, size - len(inside))
    return cache[t]


def quotient_basis(spec: IdealSpec, t: int) -> dict:
    """Monomials of degree t outside a monomial ideal, each mapped to its
    column index (basis order), built from ``_positions`` on each call."""
    if not spec.is_monomial:
        raise ValueError("the quotient basis is listed for monomial ideals only")
    positions = _positions(spec, t)[0]
    return {e: k for e, k in zip(monomial_basis(spec.n, t), positions) if k >= 0}


def ideal_piece_dimension(spec: IdealSpec, t: int) -> int:
    """dim_k I_t, exact.  Monomial ideals count the monomials outside I_t."""
    if t < 0:
        raise ValueError("degree must be non-negative")
    if t < spec.d or spec.r == 0:
        return 0
    if spec.is_monomial:
        return comb(spec.n + t, t) - _positions(spec, t)[1]
    if t == spec.d:
        return spec.r  # ``LinearSystem`` checked the generators independent
    cached = spec._dim_cache.get(t)
    if cached is None:
        cached = exact_rank(multiples_matrix(spec.generators, t - spec.d))
        spec._dim_cache[t] = cached
    return cached


def hilbert_function(spec: IdealSpec, t: int) -> int:
    """h_{R/I}(t) = dim R_t - dim I_t."""
    if t < 0:
        raise ValueError("degree must be non-negative")
    return comb(spec.n + t, t) - ideal_piece_dimension(spec, t)


def artinian_bound(spec: IdealSpec) -> int:
    """If h(t) > 0 for t = (n+1)(d-1) + 1 then R/I is not artinian."""
    return (spec.n + 1) * (spec.d - 1) + 1


def froberg_degree(n: int, d: int, r: int) -> int:
    """The first t whose coefficient in (1 - z^d)^r / (1 - z)^(n+1) is <= 0,
    for r >= n+1: where r general forms of degree d have h(t) = 0 (Froberg,
    Math. Scand. 56 (1985); proved for n = 2 by Anick, J. Algebra 100 (1986)).
    It is ``artinian_bound`` at r = n+1, and each further factor 1 - z^d
    takes from the coefficient at the old degree the positive one d places
    back, so the degree never exceeds that bound.  ValueError for r <= n,
    where every coefficient is positive and no such t exists."""
    if r <= n:
        raise ValueError(f"froberg_degree needs at least n+1 = {n + 1} forms, not {r}")

    def coefficient(t):  # comb(r, k) = 0 for k > r
        return sum((-1) ** k * comb(r, k) * comb(n + t - k * d, n) for k in range(t // d + 1))

    return next(t for t in count(d) if coefficient(t) <= 0)


def is_artinian(spec: IdealSpec) -> bool:
    """True iff h(t) = 0 for some (equivalently all large) t.

    Fewer than n+1 generators never give an artinian ideal (Krull's height
    theorem).  Monomial shortcut: a monomial ideal generated in degree d
    contains a power of every variable iff every pure power x_i^d is a
    generator; by pigeonhole every monomial of degree (n+1)(d-1)+1 is then
    divisible by one of them.  A general ideal is ranked first at
    ``froberg_degree``, where h = 0 proves it artinian whatever the theory
    says.  Otherwise one more rank decides it, at ``artinian_bound``, where
    every artinian ideal has h = 0; no degree in between needs a rank, since
    once the Hilbert function vanishes it stays zero (I_t = R_t gives
    I_{t+1} = R_{t+1}).
    """
    if spec.r <= spec.n:
        return False
    if spec.is_monomial:
        gens = frozenset(spec.exponents())
        return gens.issuperset(pure_powers(spec.n, spec.d))
    guess = froberg_degree(spec.n, spec.d, spec.r)
    return any(hilbert_function(spec, t) == 0 for t in (guess, artinian_bound(spec)))


def h_vector(spec: IdealSpec):
    """(h(0), h(1), ..., h(s)) up to the socle degree.  Requires artinian.
    The scan stops at ``artinian_bound``, where every artinian ideal has
    h = 0: a Hilbert function still positive there raises ArithmeticError."""
    if not is_artinian(spec):
        raise ValueError("ideal is not artinian")
    values = []
    for t in range(artinian_bound(spec) + 1):
        h = hilbert_function(spec, t)
        if h == 0:
            return tuple(values)
        values.append(h)
    raise ArithmeticError(f"h({t}) = {h} > 0 at the artinian bound of an artinian ideal")


@lru_cache(maxsize=None)
def _sum_of_variables(n: int) -> Form:
    return Form(n, 1, {pure_power(n, i): 1 for i in range(n + 1)})


def _quotient_map_rows(spec: IdealSpec, sources, coeffs, t: int) -> list:
    """Integer rows of x L on the quotient basis of degree t of a monomial
    ideal, L = sum c_i x_i with integer ``coeffs``: one row per source, the
    index k of x^e in ``monomial_basis(n, t-1)``, one column per monomial
    outside I_t, and the row of x^e holds c_i at x^e * x_i (read off the
    x_i column of ``_shift_table(n, t-1, 1)``) for each c_i whose product
    stays outside I_t.  Rows that come out zero are dropped, so the mod-p
    screen checks full rank against min(rows, cols)."""
    target, size = _positions(spec, t)
    ups = _shift_table(spec.n, t - 1, 1).values()  # x_0, ..., x_n
    live = [(up, c) for up, c in zip(ups, coeffs) if c]
    rows = []
    for k in sources:
        row = [0] * size
        for up, c in live:
            column = target[up[k]]
            if column >= 0:
                row[column] = c
        if any(row):
            rows.append(row)
    return rows


def multiplication_rank(spec: IdealSpec, linear_form: Form, j: int) -> WlpReport:
    """Exact rank of x linear_form : (R/I)_j -> (R/I)_{j+1}.

    rank = dim(L*R_j + I_{j+1}) - dim I_{j+1}.  For monomial ideals the map
    is written on the quotient bases by ``_quotient_map_rows``.

    Below degree d-1 nothing is ranked: for j <= d-2, I_{j+1} = 0 and the
    map is multiplication by a nonzero L on the domain R, injective, so the
    rank is dim (R/I)_j (Migliore-Miro-Roig-Nagel, Trans. AMS 363 (2011),
    Prop. 2.1).  A zero L keeps rank 0.
    """
    if linear_form.degree != 1 or linear_form.n != spec.n:
        raise ValueError("need a linear form in the same ring")
    if j < 0:
        raise ValueError("degree must be non-negative")
    hs = hilbert_function(spec, j)
    ht = hilbert_function(spec, j + 1)
    if hs == 0 or ht == 0:
        return WlpReport(j, hs, ht, 0, linear_form)
    if j + 1 < spec.d and not linear_form.is_zero:
        return WlpReport(j, hs, ht, hs, linear_form)
    if spec.is_monomial:
        n = spec.n
        coeffs = clear_denominators(
            [linear_form.terms.get(pure_power(n, i), 0) for i in range(n + 1)]
        )
        sources = [k for k, column in enumerate(_positions(spec, j)[0]) if column >= 0]
        rank = exact_rank(_quotient_map_rows(spec, sources, coeffs, j + 1))
    else:
        rows = multiples_matrix([linear_form], j)
        if j + 1 >= spec.d:
            rows = multiples_matrix(spec.generators, j + 1 - spec.d) + rows
        # the rows span I_{j+1} + L*R_j.  L*I_j lies in I_{j+1}, so modulo
        # I_{j+1} that span is the image of x L on (R/I)_j, of dimension at
        # most min(hs, ht): the rank is at most dim I_{j+1} + min(hs, ht)
        ideal = ideal_piece_dimension(spec, j + 1)
        rank = exact_rank(rows, ceiling=ideal + min(hs, ht)) - ideal
    return WlpReport(j, hs, ht, rank, linear_form)


def certified_lefschetz_report(
    spec: IdealSpec,
    j: int,
    *,
    seed=DEFAULT_SEED,
    trials=DEFAULT_TRIALS,
    force_generic: bool = False,
) -> WlpReport:
    """Best WlpReport over the sampling policy for one degree.

    Monomial ideals use L = x_0 + ... + x_n (sufficient for them); general
    ideals take the first report of highest rank over sampled linear forms,
    certified once one has maximal rank.  ``force_generic`` samples forms
    even for monomial ideals (cross-validation of the fast path).
    """
    if spec.is_monomial and not force_generic:
        check_trials(trials)
        return multiplication_rank(spec, _sum_of_variables(spec.n), j)
    reports = sample_until(
        seed, ("wlp-linear-form", j), trials,
        lambda rng: multiplication_rank(spec, random_linear_form(spec.n, rng), j),
        lambda report: report.maximal_rank,
    )
    return max(reports, key=lambda report: report.rank)


def has_wlp(spec: IdealSpec, *, seed=DEFAULT_SEED, trials=DEFAULT_TRIALS):
    """(True, []) if R/I has the WLP, else (False, failing degrees).

    Requires an artinian ideal.  Only the degrees that can fail are scanned
    (Migliore-Miro-Roig-Nagel, Trans. AMS 363 (2011), Prop. 2.1): for
    j <= d-2 the map is R_j -> R_{j+1}, injective, so the scan starts at
    d-1; and a surjective map in degree j means [R/(I, L)]_{j+1} = 0, so
    the maps of every higher degree are surjective too and the scan stops
    there.  A rank reaching dim (R/I)_{j+1} is a certified ceiling, for a
    sampled L as well.  The socle degree is always surjective (onto 0), and
    it lies below ``artinian_bound``: a scan that passes it raises
    ArithmeticError.
    """
    if not is_artinian(spec):
        raise ValueError("ideal is not artinian")
    failures = []
    for j in range(spec.d - 1, artinian_bound(spec) + 1):
        report = certified_lefschetz_report(spec, j, seed=seed, trials=trials)
        if report.rank == report.dim_target:
            return (not failures, failures)
        if not report.maximal_rank:
            failures.append(j)
    raise ArithmeticError(f"x L is not surjective in degree {j}, past the artinian bound")


def generator_bound(n: int, d: int) -> int:
    """comb(n+d-1, d): the generator-count bound for the degree-(d-1) theory,
    under which restriction to a general hyperplane detects the degree-(d-1)
    failure.  It equals comb(n+d-1, n-1) for n >= 1 and is 0 at n = 0,
    where there is no hyperplane to restrict to.
    """
    return comb(n + d - 1, d)


def _hyperplane_rows(a) -> list:
    """The substitution rows of the hyperplane sum(a_i x_i) = 0, a_n != 0:
    x_i := a_n * y_i (i < n), x_n := -(a_0 y_0 + ... + a_{n-1} y_{n-1}).
    A degree-d form goes to a_n^d times its restriction
    (x_n := -sum a_i y_i / a_n), so no rank changes."""
    n = len(a) - 1
    rows = [[a[n] if j == i else 0 for j in range(n)] for i in range(n)]
    rows.append([-c for c in a[:n]])
    return rows


@lru_cache(maxsize=None)
def _sum_hyperplane_table(n: int, d: int) -> dict:
    """The integer row of each degree-d monomial on x_0 + ... + x_n = 0,
    keyed by its exponent, over ``monomial_basis(n - 1, d)``: enough for
    monomial ideals."""
    basis = monomial_basis(n, d)
    restricted = linear_substitution(
        [Form.monomial(e) for e in basis], _hyperplane_rows((1,) * (n + 1))
    )
    return dict(zip(basis, map(tuple, multiples_matrix(restricted, 0))))


def _restricted_rows(spec: IdealSpec, seed, trials, read, done) -> list:
    """``read`` of the integer rows of the generators on general
    hyperplanes: x_0 + ... + x_n = 0 (a cached table) for monomial ideals,
    sampled ones until ``done`` accepts a read for general ideals.  A
    generator's row is the ``linear_substitution`` of the generator, cleared
    to integers, at the ``_hyperplane_rows``: a nonzero multiple of its
    restriction."""
    if spec.is_monomial:
        check_trials(trials)
        table = _sum_hyperplane_table(spec.n, spec.d)
        return [read([table[next(iter(g.terms))] for g in spec.generators])]

    cleared = [
        Form._of_clean_terms(
            g.n, g.degree, dict(zip(g.terms, clear_denominators(g.terms.values())))
        )
        for g in spec.generators
    ]

    def draw(rng):
        rows = _hyperplane_rows(random_hyperplane(spec.n, rng))
        return read(multiples_matrix(linear_substitution(cleared, rows), 0))

    return sample_until(seed, ("hyperplane",), trials, draw, done)


def restricted_generators(spec: IdealSpec, *, seed=DEFAULT_SEED, trials=DEFAULT_TRIALS):
    """Restrictions of the generators to one general hyperplane per trial,
    each up to a nonzero scalar: the rows ``fails_in_degree_dminus1`` ranks,
    as forms in n variables."""
    columns = monomial_basis(spec.n - 1, spec.d)

    def forms(rows):
        return [
            Form(spec.n - 1, spec.d, {e: c for e, c in zip(columns, row) if c})
            for row in rows
        ]

    return _restricted_rows(spec, seed, trials, forms, lambda batch: False)


def fails_in_degree_dminus1(
    spec: IdealSpec, *, seed=DEFAULT_SEED, trials=DEFAULT_TRIALS
) -> bool:
    """Whether x L : (R/I)_{d-1} -> (R/I)_d drops rank for general L.

    Decided by restriction: for r <= comb(n+d-1, d) the map fails maximal
    rank iff the generators become linearly dependent on a general
    hyperplane.  For a monomial ideal that is one exact rank on
    x_0 + ... + x_n = 0, certified both ways; for a general ideal full rank
    on a sampled hyperplane is certified and a drop is Monte Carlo.  Raises
    ValueError when r exceeds the bound.
    """
    if spec.r > generator_bound(spec.n, spec.d):
        raise ValueError(
            f"r={spec.r} exceeds comb(n+d-1, d)={generator_bound(spec.n, spec.d)}; "
            "the hyperplane criterion does not apply"
        )
    if spec.r == 0:
        return False
    ranks = _restricted_rows(spec, seed, trials, exact_rank, lambda rank: rank == spec.r)
    return ranks[-1] < spec.r


def is_togliatti(spec: IdealSpec, *, seed=DEFAULT_SEED, trials=DEFAULT_TRIALS) -> bool:
    """Artinian, r <= comb(n+d-1, n-1), and fails WLP in degree d-1."""
    if spec.r > generator_bound(spec.n, spec.d):
        return False
    if not is_artinian(spec):
        return False
    return fails_in_degree_dminus1(spec, seed=seed, trials=trials)


def trivial_type_a(spec: IdealSpec):
    """Monomial Q of degree d-1 with Q*x_i in I for every i, or None.

    Such a Q makes the failure of the WLP trivial (the apolar system lies on
    a degenerate projection).  Monomial ideals only.
    """
    if not spec.is_monomial:
        raise ValueError("trivial type A search needs a monomial ideal")
    gens = frozenset(spec.exponents())
    for q in monomial_basis(spec.n, spec.d - 1):
        if all(shifted(q, i) in gens for i in range(spec.n + 1)):
            return q
    return None


@dataclass(frozen=True)
class TypeBResult:
    """Trivial type B probe for monomial cubic ideals.

    ``sufficient``: more than comb(n+1, 2) generators divisible by some x_i
    (a count that forces the tangent-cone intersection below).
    ``full``: dim(I_3 intersect x_i*M*R_1) >= 1 for a general linear M, for
    some i, certified at M = x_0 + ... + x_n.  ``witness`` is that i.
    """

    sufficient: bool
    full: bool
    witness: Optional[int]


def trivial_type_b_test(spec: IdealSpec) -> TypeBResult:
    """The ``TypeBResult`` of a monomial cubic ideal.  It is exact and draws
    no sample, so it takes no seed or trial count."""
    if not spec.is_monomial or spec.d != 3:
        raise ValueError("trivial type B probe needs a monomial cubic ideal")
    n = spec.n
    # M = x_0 + ... + x_n is general enough: x_k -> c_k x_k with every c_k
    # nonzero fixes the monomial I_3 and maps x_i*(sum x_k)*R_1 onto
    # x_i*(sum c_k x_k)*R_1, so the intersection dimension at the sum is its
    # value on the dense open set of M with no zero coefficient, the generic one
    gens = spec.exponents()
    sufficient = False
    witness = None
    for i in range(n + 1):
        divisible = sum(1 for e in gens if e[i] >= 1)
        if divisible > comb(n + 1, 2):
            sufficient = True
        if witness is not None:
            continue
        # x_i*M*R_1 has dimension n+1 (R is a domain) and the generators are
        # unit rows, so dim(I_3 meet x_i*M*R_1) = (n+1) - rank of the rows of
        # x M on the sources x_i*x_k, k = 0..n, kept on the columns outside
        # I_3: nonzero iff that rank falls short
        sources = _shift_table(n, 1, 1)[pure_power(n, i)]  # x_i * x_k
        if exact_rank(_quotient_map_rows(spec, sources, [1] * (n + 1), 3)) < n + 1:
            witness = i
    return TypeBResult(sufficient, witness is not None, witness)
