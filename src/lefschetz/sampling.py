"""Seeded sampling of generic objects.

Genericity is certified by maximizing (or minimizing, for kernel dimensions)
over a small number of independent samples; rank is lower semicontinuous, so
the max over samples of a rank is the generic rank unless every sample is
degenerate.  Defaults: 3 samples, integer coefficients uniform in [-999, 999]
(points for osculating computations of non-monomial systems use [1, 999] to
stay off the coordinate hyperplanes).  Every operation derives its own
generator from ``(seed, operation, qualifier)`` so results do not depend on
call order.  Every sampled operation, the random ideals of the r = 4 harness
included, draws through ``sample_until``, the only function that opens a
stream.
"""

from __future__ import annotations

import random

from .algebra import Form, monomial_basis, pure_power

COEFF_BOUND = 999
DEFAULT_TRIALS = 3
DEFAULT_SEED = 0


def check_trials(trials) -> None:
    """Reject a sample count below one: a loop over no samples decides nothing."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def rng_for(seed, *tags) -> random.Random:
    """Deterministic generator keyed by seed and operation tags."""
    return random.Random("|".join(str(t) for t in (seed, *tags)))


def sample_until(seed, tags, trials, draw, done) -> list:
    """The draws of one sampled operation: ``draw(rng)`` on the stream
    ``rng_for(seed, *tags)``, at most ``trials`` times, stopping after the
    first draw that ``done`` accepts.  The only loop that draws samples.

    ``done`` accepts a draw that proves the generic value, such as a rank on
    its ceiling: a verdict read off an accepted draw is certified, one read
    off draws ``done`` never accepted is Monte Carlo.
    """
    check_trials(trials)
    rng = rng_for(seed, *tags)
    draws = []
    for _ in range(trials):
        draws.append(draw(rng))
        if done(draws[-1]):
            break
    return draws


def random_linear_form(n: int, rng: random.Random) -> Form:
    """Linear form with coefficients in [-999, 999], not identically zero."""
    while True:
        coeffs = [rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(n + 1)]
        if any(coeffs):
            break
    return Form(n, 1, {pure_power(n, i): c for i, c in enumerate(coeffs) if c})


def random_form(n: int, degree: int, rng: random.Random) -> Form:
    """Dense form of the given degree, nonzero, coefficients in [-999, 999]."""
    while True:
        terms = {
            e: rng.randint(-COEFF_BOUND, COEFF_BOUND) for e in monomial_basis(n, degree)
        }
        form = Form(n, degree, terms)
        if not form.is_zero:
            return form


def random_chart_point(n: int, rng: random.Random):
    """Integer point of the affine chart x_0 = 1: n coordinates in [1, 999]."""
    return tuple(rng.randint(1, COEFF_BOUND) for _ in range(n))


def projectively_distinct(p, q) -> bool:
    """Whether two points of one length span a line: some 2x2 minor of the
    matrix with rows p and q is nonzero (never, when either point is zero)."""
    return any(
        p[i] * q[j] - p[j] * q[i] for i in range(len(p)) for j in range(i + 1, len(p))
    )


def random_line(n: int, rng: random.Random):
    """Two projectively distinct points with coordinates in [-999, 999]."""
    while True:
        p = tuple(rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(n + 1))
        q = tuple(rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(n + 1))
        if projectively_distinct(p, q):
            return p, q


def random_hyperplane(n: int, rng: random.Random):
    """Coefficients a_0..a_n of a random hyperplane sum(a_i x_i) = 0.

    Entries lie in [-999, 999], redrawn until a_n != 0 (so x_n can be solved).
    """
    while True:
        coeffs = [rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(n + 1)]
        if coeffs[n]:
            return coeffs
