"""Hypothesis strategies for kernel values over Q and Q(sqrt(d))."""

from fractions import Fraction

from hypothesis import strategies as st

from starpull.kernel import FieldElem, Poly, RatFunc

# Q, Q(i) and Q(sqrt(-5)): the residue fields of the catalogued instances
TAGS = (1, -1, -5)


def bounded_fractions(max_denominator: int, bound: int):
    """Every fraction in [-bound, bound] with denominator at most
    max_denominator, as st.fractions draws them, built from an integer
    pair (p, q) with 1 <= q <= max_denominator and |p| <= bound*q: drawing
    two integers costs a fraction of what st.fractions does."""
    return st.integers(1, max_denominator).flatmap(
        lambda q: st.integers(-bound * q, bound * q).map(lambda p: Fraction(p, q)))


# zeros and integers are common, so X-powers divide often and values at
# zero land in D as well as outside it
_COORDS = st.one_of(st.just(Fraction(0)), st.integers(-6, 6).map(Fraction),
                    bounded_fractions(4, 6))


def elems(d: int):
    """x + y*sqrt(d) with small coordinates."""
    return st.builds(FieldElem, _COORDS, _COORDS if d != 1 else st.just(0), st.just(d))


def polys(d: int):
    return st.lists(elems(d), max_size=5).map(Poly)


def ratfuncs(d: int):
    """Canonical rational functions, zero and poles at zero included."""
    return st.builds(lambda n, m: RatFunc(n, Poly.one() if m.is_zero() else m),
                     polys(d), polys(d))


def tagged(strategy_of_tag):
    """(d, value) with d drawn from TAGS and value from strategy_of_tag(d)."""
    return st.sampled_from(TAGS).flatmap(lambda d: st.tuples(st.just(d), strategy_of_tag(d)))
