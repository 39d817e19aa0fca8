"""The sampling policy: every sampled verdict needs at least one sample."""

import pytest

from lefschetz.algebra import Form, pure_power
from lefschetz.apolarity import apolar_complement
from lefschetz.bundles import splitting_type
from lefschetz.osculating import LinearSystem, laplace_count
from lefschetz.sampling import random_form, random_hyperplane, rng_for, sample_until
from lefschetz.wlp import (
    IdealSpec,
    certified_lefschetz_report,
    has_wlp,
    is_togliatti,
    restricted_generators,
)

TOGLIATTI = IdealSpec.from_monomials(2, 3, [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)])
SYSTEM = LinearSystem.from_apolar(apolar_complement(TOGLIATTI))
GENERAL = IdealSpec(
    2,
    3,
    [Form.monomial(pure_power(2, i, 3)) for i in range(3)]
    + [random_form(2, 3, rng_for(0, "trials-general"))],
)

# With no sample the sampled calls would still answer (Togliatti True, no
# report, "every line degenerate"), so each must refuse; laplace_count ranks
# monomial input once at the torus point and draws nothing, but refuses a
# trials below one all the same.  trivial_type_b_test never samples and takes
# no trial count.
CALLS = {
    "certified_lefschetz_report": lambda trials: certified_lefschetz_report(
        GENERAL, 2, trials=trials
    ),
    "certified_lefschetz_report_forced": lambda trials: certified_lefschetz_report(
        TOGLIATTI, 2, trials=trials, force_generic=True
    ),
    "has_wlp": lambda trials: has_wlp(GENERAL, trials=trials),
    "restricted_generators": lambda trials: list(
        restricted_generators(GENERAL, trials=trials)
    ),
    "is_togliatti": lambda trials: is_togliatti(GENERAL, trials=trials),
    "laplace_count": lambda trials: laplace_count(SYSTEM, 2, trials=trials),
    "splitting_type": lambda trials: splitting_type(GENERAL, trials=trials),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_fewer_than_one_trial_is_rejected(name):
    CALLS[name](1)
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials"):
            CALLS[name](trials)


def test_sample_until_stops_after_the_first_accepted_draw():
    drawn = []

    def draw(rng):
        drawn.append(rng.random())
        return len(drawn)

    assert sample_until(0, ("stop",), 5, draw, lambda k: k == 2) == [1, 2]
    assert len(drawn) == 2
    drawn.clear()
    assert sample_until(0, ("stop",), 4, draw, lambda k: False) == [1, 2, 3, 4]
    assert len(drawn) == 4


def test_sample_until_draws_from_the_stream_of_its_tags():
    stream = rng_for(7, "hyperplane", 2)
    expected = [random_hyperplane(3, stream) for _ in range(3)]
    drawn = sample_until(
        7, ("hyperplane", 2), 3, lambda rng: random_hyperplane(3, rng), lambda a: False
    )
    assert drawn == expected
