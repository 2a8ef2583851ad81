"""Differential check of the exact kernel against sympy's algebraic fields.

sympy is a test-only dependency (the ``test`` extra); the library itself
uses the standard library alone.
"""

import pytest
from hypothesis import given, settings, strategies as st

from starpull.kernel import FieldElem, Poly, poly_gcd
from strategies import elems, polys, tagged

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("X")
T = sympy.Symbol("t")


def domain(d: int):
    return sympy.QQ if d == 1 else sympy.QQ.algebraic_field(sympy.sqrt(d))


def to_expr(c: FieldElem):
    return sympy.Rational(c.x.numerator, c.x.denominator) \
        + sympy.Rational(c.y.numerator, c.y.denominator) * sympy.sqrt(c.d)


def to_sympy(p: Poly, d: int):
    return sympy.Poly(sum((to_expr(c) * X**i for i, c in enumerate(p.coeffs)), sympy.S.Zero),
                      X, domain=domain(d))


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
        field = domain(d)
        assert field.from_sympy(to_expr(a.inv())) == field.one / field.from_sympy(to_expr(a))

    @given(tagged(lambda d: st.tuples(elems(d), st.one_of(elems(d), elems(1)))))
    @settings(max_examples=60, deadline=None)
    def test_sum_and_product(self, args):
        d, (a, b) = args
        field = domain(d)
        fa, fb = field.from_sympy(to_expr(a)), field.from_sympy(to_expr(b))
        assert field.from_sympy(to_expr(a + b)) == fa + fb
        assert field.from_sympy(to_expr(a * b)) == fa * fb
