"""Differential check of the exact kernel against sympy's algebraic fields.

sympy is a test-only dependency (the ``test`` extra); the library itself
uses the standard library alone.
"""

from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from starpull.kernel import FieldElem, Poly, poly_gcd
from strategies import elems, polys, tagged

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("X")
T = sympy.Symbol("t")


@cache
def domain(d: int):
    """Q, or Q(sqrt(d)) with sqrt(d) as its generator, built once per tag."""
    return sympy.QQ if d == 1 else sympy.QQ.algebraic_field(sympy.sqrt(d))


def to_field(c: FieldElem, d: int):
    """x + y*sqrt(d) as an element of domain(d): [y, x] on its generator."""
    x = sympy.QQ(c.x.numerator, c.x.denominator)
    y = sympy.QQ(c.y.numerator, c.y.denominator)
    return x if d == 1 else domain(d)([y, x])


def to_sympy(p: Poly, d: int):
    return sympy.Poly.from_list([to_field(c, d) for c in reversed(p.coeffs)], X, domain=domain(d))


class TestPolyAgainstSympy:
    @given(tagged(lambda d: st.tuples(polys(d), polys(d))))
    @settings(max_examples=60, deadline=None)
    def test_divmod(self, args):
        d, (f, g) = args
        if g.is_zero():
            return
        q, r = divmod(f, g)
        q_ref, r_ref = to_sympy(f, d).div(to_sympy(g, d))
        assert to_sympy(q, d) == q_ref
        assert to_sympy(r, d) == r_ref

    @given(tagged(lambda d: st.tuples(polys(d), polys(d))))
    @settings(max_examples=60, deadline=None)
    def test_gcd(self, args):
        d, (f, g) = args
        if f.is_zero() and g.is_zero():
            return
        # both sides return the monic gcd
        assert to_sympy(poly_gcd(f, g), d) == to_sympy(f, d).gcd(to_sympy(g, d))

    @given(tagged(lambda d: st.tuples(polys(d), polys(d))))
    @settings(max_examples=60, deadline=None)
    def test_gcd_divides_by_monic_polynomials_only(self, args):
        # poly_gcd makes each divisor monic before it divides, so no
        # division takes Poly.__divmod__'s rescaling step
        d, (f, g) = args
        if f.is_zero() and g.is_zero():
            return
        divisors = []
        true_divmod = Poly.__divmod__
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Poly, "__divmod__", lambda p, q: divisors.append(q) or true_divmod(p, q))
            poly_gcd(f, g)
        assert all(q == q.monic() for q in divisors), divisors

    @given(tagged(polys), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_gcd_with_a_monomial(self, args, j):
        # a monic X^j argument takes the remainder sequence like any other
        d, f = args
        xj = Poly.x_power(j)
        expected = to_sympy(xj, d).gcd(to_sympy(f, d))
        assert to_sympy(poly_gcd(xj, f), d) == expected
        assert to_sympy(poly_gcd(f, xj), d) == expected


class TestFieldElemAgainstSympy:
    @given(tagged(elems))
    @settings(max_examples=60, deadline=None)
    def test_norm_is_a_resultant(self, args):
        # N(x + y*sqrt(d)) = Res_t(t^2 - d, x + y*t)
        d, a = args
        x = sympy.Rational(a.x.numerator, a.x.denominator)
        y = sympy.Rational(a.y.numerator, a.y.denominator)
        n = a.norm()
        expected = sympy.resultant(T**2 - d, x + y * T, T)
        assert sympy.Rational(n.numerator, n.denominator) == expected

    @given(tagged(elems))
    @settings(max_examples=60, deadline=None)
    def test_inverse(self, args):
        d, a = args
        if a.is_zero():
            return
        assert to_field(a.inv(), d) == domain(d).one / to_field(a, d)

    @given(tagged(lambda d: st.tuples(elems(d), st.one_of(elems(d), elems(1)))))
    @settings(max_examples=60, deadline=None)
    def test_sum_and_product(self, args):
        d, (a, b) = args
        fa, fb = to_field(a, d), to_field(b, d)
        assert to_field(a + b, d) == fa + fb
        assert to_field(a * b, d) == fa * fb
