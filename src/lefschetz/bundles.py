"""Splitting type of the syzygy bundle on a general line.

For an artinian ideal I = (F_1, ..., F_r) of forms of degree d, the kernel
bundle K (syzygies of the F_i) restricted to a general line L splits as a
direct sum of line bundles O_L(a_1) + ... + O_L(a_{r-1}) with every a_i <= 0
and sum a_i = -d.  The splitting type is recovered from exact kernel
dimensions on the line:

    k(t) = dim ker( O_L(t)^r -> O_L(t+d),  (g_i) |-> sum g_i F_i|_L )
         = sum_i max(0, a_i + t + 1)

so c_t = k(t) - k(t-1) counts the a_i >= -t and the multiset of a_i follows.
``restrict_to_line`` takes the F_i|_L through ``algebra.linear_substitution``.
Genericity: kernel dimension is upper semicontinuous, so the minimum of each
k(t) over sampled lines is the generic value, and a line whose profile meets
the rank floor k(t) >= max(0, r(t+1) - (t+d+1)) in every t certifies it,
since no line can go below that floor.  On each line the ranking stops at
the first t where the multiples span every binary form of degree t+d: they
then span every higher degree too (S_1 times all of S_{t+d} is S_{t+d+1}),
so each later k(t) sits on the floor, certified without an elimination.
The recovered profile must satisfy the Chern checks (r-1 values, all <= 0,
sum = -d) or an AnalysisError is raised.

The figure of merit: a_{r-1} < 0 (equivalently k(0) = 0, the restricted
generators stay independent) is exactly WLP in degree d-1, which gives the
third, bundle-theoretic route to the Togliatti verdict.  ``verify_r4_theorem``
runs the r = 4, n = 2 picture over a degree range: every S_3-orbit of the
ideals (x^d, y^d, z^d, m), m a mixed monomial, and five random ideals per
degree, each drawn through ``sample_until`` like every other sample.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import linear_substitution, monomial_basis, multiples_matrix, pure_powers
from .linalg import clear_denominators, exact_rank
from .sampling import (
    DEFAULT_SEED, DEFAULT_TRIALS, projectively_distinct, random_form, random_line,
    sample_until,
)
from .wlp import IdealSpec, fails_in_degree_dminus1, has_wlp, is_artinian

_R4_RANDOM_SAMPLES = 5  # random ideals per degree
_R4_RANDOM_FULL_SCANS = 3  # random ideals per degree that get a full WLP scan
_R4_RANDOM_DRAWS = 10  # draws allowed for one artinian random ideal


class AnalysisError(RuntimeError):
    """An internal consistency check failed (bad sampling or a real bug)."""


@dataclass(frozen=True)
class SplittingType:
    """Multiset of twists, ascending: values[0] <= ... <= values[r-2] <= 0."""

    d: int
    values: tuple

    @property
    def wlp_in_degree_dminus1(self) -> bool:
        """a_{r-1} < 0: no trivial summand, restricted generators independent."""
        return self.values[-1] < 0


def restrict_to_line(forms, point_p, point_q):
    """Restrict forms to the line s*p + t*q, as binary forms in (s, t).

    The points must be projectively distinct (some 2x2 minor nonzero), which
    is tested on each point cleared to integers: scaling a point keeps it
    the same projective point.  Coordinates are read exactly.
    """
    if len(point_p) != len(point_q):
        raise ValueError("points of different lengths")
    if not projectively_distinct(*map(clear_denominators, (point_p, point_q))):
        raise ValueError("points are coincident (projectively equal)")
    n = len(point_p) - 1
    if any(form.n != n for form in forms):
        raise ValueError("form does not live on the ambient space of the points")
    return linear_substitution(forms, list(zip(point_p, point_q)))


def _kernel_dimension_on_line(restricted, t: int) -> int:
    """dim ker((g_i) -> sum g_i F_i) for g_i binary of degree t.  Exact."""
    return len(restricted) * (t + 1) - exact_rank(multiples_matrix(restricted, t))


def _kernel_profile(restricted, r: int, d: int) -> list:
    """k(0), ..., k(d) on one line, ranking only up to the first t at which
    the multiples span every binary form of degree t+d; the later k(t) are
    read off the rank floor, where they sit."""
    profile = []
    for t in range(d + 1):
        k = _kernel_dimension_on_line(restricted, t)
        profile.append(k)
        if r * (t + 1) - k == t + d + 1:
            # J_{t+d} = S_{t+d} => J_{t+d+1} contains S_1 * J_{t+d} = S_{t+d+1},
            # with J the span of the multiples and S the binary forms: every
            # later map is onto, so k(t') = r(t'+1) - (t'+d+1), the floor.
            profile.extend(r * (u + 1) - (u + d + 1) for u in range(t + 1, d + 1))
            break
    return profile


def splitting_type(
    spec: IdealSpec, *, seed=DEFAULT_SEED, trials=DEFAULT_TRIALS
) -> SplittingType:
    """Generic splitting type of the syzygy bundle of an artinian ideal.

    Minimum of each kernel dimension k(t), t = 0..d, over sampled lines.
    The multiples of degree t have t+d+1 columns, so no line gives
    k(t) < max(0, r(t+1) - (t+d+1)); a line whose profile sits on that
    floor at every t certifies the minimum.  Each line is ranked only up to
    the first t where its multiples are onto degree t+d; every later k(t)
    is then exactly the floor, so it is written down, not ranked.  A line
    on which a generator vanishes gives no profile.  Chern consistency
    (r-1 twists, all <= 0, sum = -d) is asserted on every call and failure
    raises AnalysisError.
    """
    if not is_artinian(spec):
        raise ValueError("ideal is not artinian")
    if spec.r < 2:
        raise ValueError("splitting needs at least two generators")
    floor = [max(0, spec.r * (t + 1) - (t + spec.d + 1)) for t in range(spec.d + 1)]

    def profile(rng):
        restricted = restrict_to_line(spec.generators, *random_line(spec.n, rng))
        if any(f.is_zero for f in restricted):
            return None  # the line lies in a generator's zero locus
        return _kernel_profile(restricted, spec.r, spec.d)

    draws = sample_until(
        seed, ("splitting-line",), trials, profile, lambda drawn: drawn == floor
    )
    profiles = [drawn for drawn in draws if drawn is not None]
    if not profiles:
        raise AnalysisError("every sampled line was degenerate for the ideal")
    kernel_dims = [min(column) for column in zip(*profiles)]
    values = []
    previous_count = 0
    previous_k = 0
    for t in range(spec.d + 1):
        count_ge = kernel_dims[t] - previous_k  # number of a_i >= -t
        exactly = count_ge - previous_count
        if exactly < 0:
            raise AnalysisError(f"inconsistent kernel profile {kernel_dims}")
        values.extend([-t] * exactly)
        previous_count = count_ge
        previous_k = kernel_dims[t]
    values.sort()
    result = SplittingType(spec.d, tuple(values))
    if len(result.values) != spec.r - 1:
        raise AnalysisError(
            f"recovered {len(result.values)} twists, expected {spec.r - 1} "
            f"(kernel profile {kernel_dims})"
        )
    if sum(result.values) != -spec.d:
        raise AnalysisError(
            f"twist sum {sum(result.values)} != -d = {-spec.d} "
            f"(kernel profile {kernel_dims})"
        )
    if any(a > 0 for a in result.values):
        raise AnalysisError(f"positive twist in {result.values}")
    return result


def verify_r4_theorem(
    d_min: int, d_max: int, *, seed=DEFAULT_SEED, trials=DEFAULT_TRIALS
) -> dict:
    """Check the r = 4, n = 2 picture over d in [d_min, d_max].

    Every S_3-orbit of the ideals (x^d, y^d, z^d, m), m a mixed monomial,
    is checked on its sorted exponent: the pure powers and L = x + y + z
    are symmetric, so that verdict holds for the whole orbit.  No orbit and
    no sampled random artinian ideal may fail WLP in degree d-1.  Every
    orbit, and the first random ideals when 3 does not divide d, must have
    full WLP, except at d = 3*lambda with lambda odd: there the failing
    orbits go to "non_wlp_orbits", and the witness orbit of
    x^lambda y^lambda z^lambda must fail exactly in degree 4*lambda - 2,
    its only rule (at d = 3 that degree is d-1 = 2).
    Each of the _R4_RANDOM_SAMPLES random ideals of a degree is drawn
    through ``sample_until`` on its own stream ("r4-random", d, k).
    Returns a JSON-ready report; report["ok"] is the verdict.  ValueError
    for d_min < 3 (r = 4 is over the generator bound d + 1 below that) or
    an empty range; AnalysisError when _R4_RANDOM_DRAWS draws give no
    artinian random ideal.
    """
    if d_min < 3:
        raise ValueError(f"d_min must be at least 3, not {d_min}")
    if d_max < d_min:
        raise ValueError(f"empty degree range [{d_min}, {d_max}]")
    report = {"d_min": d_min, "d_max": d_max, "seed": seed, "per_degree": []}
    violations = []
    for d in range(d_min, d_max + 1):
        pure = pure_powers(2, d)
        orbits = sorted({tuple(sorted(e)) for e in monomial_basis(2, d) if max(e) < d})
        entry = {
            "d": d,
            "monomial_orbits": len(orbits),
            "random_samples": _R4_RANDOM_SAMPLES,
            "degree_dminus1_failures": [],
            "full_wlp_failures": [],
            "non_wlp_orbits": [],
            "witness": None,
        }
        failures_allowed = d % 3 == 0 and (d // 3) % 2 == 1
        witness = (d // 3,) * 3 if failures_allowed else None
        scans = {}
        for m in orbits:
            spec = IdealSpec.from_monomials(2, d, pure + (m,))
            # the witness answers to its own rule: its scan starts at d-1, so
            # a degree-(d-1) failure breaks [4*lambda - 2] unless the two agree
            if fails_in_degree_dminus1(spec) and m != witness:
                entry["degree_dminus1_failures"].append(["monomial", list(m)])
            ok, scans[m] = has_wlp(spec)
            if not ok and failures_allowed:
                entry["non_wlp_orbits"].append([list(m), scans[m]])
            elif not ok:
                entry["full_wlp_failures"].append(["monomial", list(m), scans[m]])

        def draw(rng):
            try:
                spec = IdealSpec(2, d, [random_form(2, d, rng) for _ in range(4)])
            except ValueError:
                return None  # dependent forms
            return spec if is_artinian(spec) else None

        for k in range(_R4_RANDOM_SAMPLES):
            spec = sample_until(
                seed, ("r4-random", d, k), _R4_RANDOM_DRAWS, draw, lambda s: s is not None
            )[-1]
            if spec is None:
                raise AnalysisError(
                    f"d={d}, k={k}: no artinian random ideal in {_R4_RANDOM_DRAWS} draws"
                )
            if fails_in_degree_dminus1(spec, seed=seed, trials=trials):
                entry["degree_dminus1_failures"].append(["random", k])
            if d % 3 != 0 and k < _R4_RANDOM_FULL_SCANS:
                ok, failures = has_wlp(spec, seed=seed, trials=trials)
                if not ok:
                    entry["full_wlp_failures"].append(["random", k, failures])
        if failures_allowed:
            lam = d // 3
            failures = scans[witness]
            entry["witness"] = {
                "ideal": f"(x^{d}, y^{d}, z^{d}, x^{lam} y^{lam} z^{lam})",
                "failure_degrees": failures,
                "expected": [4 * lam - 2],
            }
            if failures != [4 * lam - 2]:
                violations.append(f"d={d}: witness failure degrees {failures}")
        if entry["degree_dminus1_failures"]:
            violations.append(f"d={d}: degree d-1 failures")
        if entry["full_wlp_failures"]:
            violations.append(f"d={d}: full WLP failures")
        report["per_degree"].append(entry)
    report["violations"] = violations
    report["ok"] = not violations
    return report
