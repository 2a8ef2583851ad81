"""The integer-pair fraction strategies draw the values st.fractions drew."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from strategies import bounded_fractions

# (max_denominator, bound) of each coordinate strategy built from integer pairs:
# strategies._COORDS and TestFieldElem.test_inverse_round_trip's x and y
_USES = [(4, 6), (6, 20)]


def _pairs(max_denominator, bound):
    """The values of bounded_fractions, one per integer pair it can draw."""
    return {Fraction(p, q) for q in range(1, max_denominator + 1)
            for p in range(-bound * q, bound * q + 1)}


def _fractions_set(max_denominator, bound):
    """The values of st.fractions(-bound, bound, max_denominator=...): every
    rational in the interval whose reduced denominator is at most
    max_denominator; each is k/n for n the lcm of the allowed denominators."""
    n = lcm(*range(1, max_denominator + 1))
    grid = (Fraction(k, n) for k in range(-bound * n, bound * n + 1))
    return {x for x in grid if x.denominator <= max_denominator}


@pytest.mark.parametrize("max_denominator, bound", _USES)
def test_value_sets_are_equal(max_denominator, bound):
    assert _pairs(max_denominator, bound) == _fractions_set(max_denominator, bound)


@pytest.mark.parametrize("max_denominator, bound", _USES)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_draws_lie_in_the_value_set(data, max_denominator, bound):
    x = data.draw(bounded_fractions(max_denominator, bound))
    assert abs(x) <= bound and x.denominator <= max_denominator
