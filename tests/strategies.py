"""Hypothesis strategies for kernel values over Q and Q(sqrt(d))."""

from fractions import Fraction

from hypothesis import strategies as st

from starpull.kernel import FieldElem, Poly, RatFunc

# Q, Q(i) and Q(sqrt(-5)): the residue fields of the catalogued instances
TAGS = (1, -1, -5)


def fraction_values(max_denominator: int, bound: int) -> list[Fraction]:
    """Every fraction in [-bound, bound] with denominator at most
    max_denominator, the values st.fractions draws: 0 and the integers
    first, each by size, then the proper fractions by denominator."""
    values = {Fraction(p, q) for q in range(1, max_denominator + 1)
              for p in range(-bound * q, bound * q + 1)}
    return sorted(values, key=lambda x: (x.denominator, abs(x), x < 0))


def bounded_fractions(max_denominator: int, bound: int):
    """fraction_values drawn with sampled_from, which shrinks toward 0:
    one index costs a fraction of what st.fractions does."""
    return st.sampled_from(fraction_values(max_denominator, bound))


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


def tagged(strategy_of_tag, tags=TAGS):
    """(d, value) with d one of tags and value from strategy_of_tag(d): one
    branch per tag, built once, so no draw builds a strategy."""
    return st.one_of(*(st.tuples(st.just(d), strategy_of_tag(d)) for d in tags))
