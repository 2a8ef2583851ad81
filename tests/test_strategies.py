"""The strategies draw the value sets they stand for: bounded_fractions
what st.fractions drew, and tagged each tag with that tag's own values."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import find, given, settings, strategies as st
from hypothesis.errors import NoSuchExample

from strategies import TAGS, bounded_fractions, fraction_values, tagged

# (max_denominator, bound) of each use of bounded_fractions: strategies._COORDS
# and TestFieldElem.test_inverse_round_trip's x and y
_USES = [(4, 6), (6, 20)]

# the tag sets that tests draw from: TAGS, the kernel's fast-path tests
# and the command line's printer tests
_TAG_SETS = [TAGS, (1, 2, 3, -5), (1, -1, -5, 2, 3)]


def _fractions_set(max_denominator, bound):
    """The values of st.fractions(-bound, bound, max_denominator=...): every
    rational in the interval whose reduced denominator is at most
    max_denominator; each is k/n for n the lcm of the allowed denominators."""
    n = lcm(*range(1, max_denominator + 1))
    grid = (Fraction(k, n) for k in range(-bound * n, bound * n + 1))
    return {x for x in grid if x.denominator <= max_denominator}


@pytest.mark.parametrize("max_denominator, bound", _USES)
def test_value_sets_are_equal(max_denominator, bound):
    values = fraction_values(max_denominator, bound)
    assert set(values) == _fractions_set(max_denominator, bound)
    # sampled_from shrinks toward the front
    assert values[:3] == [0, 1, -1]


@pytest.mark.parametrize("max_denominator, bound", _USES)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_draws_lie_in_the_value_set(data, max_denominator, bound):
    x = data.draw(bounded_fractions(max_denominator, bound))
    assert abs(x) <= bound and x.denominator <= max_denominator


@pytest.mark.parametrize("tags", _TAG_SETS)
def test_tagged_draws_each_tag_with_a_value_of_its_own(tags):
    # st.just(d) as each tag's strategy, so a value shows the branch that drew it
    pairs = {(d, d) for d in tags}
    assert {find(tagged(st.just, tags), lambda args, d=d: args[0] == d) for d in tags} == pairs
    with pytest.raises(NoSuchExample):
        find(tagged(st.just, tags), lambda args: args not in pairs)
