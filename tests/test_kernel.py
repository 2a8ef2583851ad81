"""Exact scalar, polynomial, and rational-function arithmetic."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from starpull import kernel
from starpull.kernel import (
    FieldElem,
    KernelError,
    Poly,
    RatFunc,
    eval_at_zero,
    ord_at_zero,
    poly_gcd,
    poly_lcm,
)
import reference_membership as former
from object_poly import ObjectPoly, object_gcd
from strategies import bounded_fractions, elems, polys, ratfuncs, tagged


def fe(x, y=0, d=1):
    return FieldElem(Fraction(x), Fraction(y), d)


class TestFieldElem:
    def test_inverse_of_quadratic_element(self):
        # independent check: multiply by the conjugate and divide by the norm
        a = fe(1, 1, -5)
        conj = a.conj()
        norm = a.x * a.x - (-5) * a.y * a.y
        expected = FieldElem(conj.x / norm, conj.y / norm, -5)
        assert a.inv() == expected
        assert a * a.inv() == fe(1)

    def test_norm_expands_as_x2_minus_d_y2(self):
        assert fe(1, 1, -5).norm() == Fraction(6)
        assert fe(3, 2, -5).norm() == Fraction(9 + 20)

    def test_rational_inverse(self):
        a = fe(Fraction(7, 3))
        assert a * a.inv() == fe(1)

    def test_zero_inverse_rejected(self):
        with pytest.raises(KernelError):
            fe(0).inv()

    def test_mismatched_tags_rejected(self):
        with pytest.raises(KernelError):
            fe(1, 1, -5) + fe(0, 1, -1)

    def test_rationals_embed_across_tags(self):
        assert fe(2) + fe(1, 1, -5) == fe(3, 1, -5)
        assert fe(2) == FieldElem(2, 0, 1)

    def test_squarefree_tag_enforced(self):
        # valid tags seen first must not let a bad tag through, on its
        # first check or a repeated one
        for d in (-1, -5, 2, 3):
            FieldElem(1, 1, d)
        for d in (-4, 12, -4):
            with pytest.raises(KernelError):
                FieldElem(1, 1, d)

    @given(
        x=bounded_fractions(6, 20),
        y=bounded_fractions(6, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_inverse_round_trip(self, x, y):
        a = FieldElem(x, y, -5 if y != 0 else 1)
        if a.is_zero():
            return
        assert a * a.inv() == fe(1)
        assert (a + a.conj()).y == 0


def _check_invariants(e: FieldElem):
    a, b, n, d = e.a, e.b, e.n, e.d
    assert all(type(v) is int for v in (a, b, n, d))
    assert n > 0 and gcd(a, b, n) == 1
    assert (d == 1) == (b == 0)
    assert (e.x, e.y) == (Fraction(a, n), Fraction(b, n))


class _Ref:
    """x + y*sqrt(d) as a pair of Fractions: the reference arithmetic."""

    def __init__(self, x, y, d):
        self.x, self.y, self.d = Fraction(x), Fraction(y), d

    def __add__(self, o):
        return _Ref(self.x + o.x, self.y + o.y, self.d)

    def __sub__(self, o):
        return _Ref(self.x - o.x, self.y - o.y, self.d)

    def __mul__(self, o):
        return _Ref(self.x * o.x + self.d * self.y * o.y, self.x * o.y + self.y * o.x, self.d)

    def norm(self):
        return self.x * self.x - self.d * self.y * self.y

    def inv(self):
        m = self.norm()
        return _Ref(self.x / m, -self.y / m, self.d)

    def conj(self):
        return _Ref(self.x, -self.y, self.d)


def _agrees(e: FieldElem, ref: _Ref):
    _check_invariants(e)
    assert (e.x, e.y) == (ref.x, ref.y)
    assert e.d == (ref.d if ref.y else 1)


class TestFieldElemAgainstFractionPairs:
    @given(tagged(lambda d: st.tuples(elems(d), st.one_of(elems(d), elems(1)),
                                      st.integers(-3, 4))))
    @settings(max_examples=300, deadline=None)
    def test_operations_match_the_reference_and_keep_the_invariants(self, args):
        d, (p, q, k) = args
        _check_invariants(p)
        _check_invariants(q)
        rp, rq = _Ref(p.x, p.y, d), _Ref(q.x, q.y, d)
        _agrees(p + q, rp + rq)
        _agrees(p - q, rp - rq)
        _agrees(p * q, rp * rq)
        _agrees(-p, _Ref(0, 0, d) - rp)
        _agrees(p.conj(), rp.conj())
        assert p.norm() == rp.norm() and type(p.norm()) is Fraction
        if not q.is_zero():
            _agrees(p / q, rp * rq.inv())
            _agrees(q.inv(), rq.inv())
        if k >= 0 or not p.is_zero():
            ref = _Ref(1, 0, d)
            for _ in range(abs(k)):
                ref = ref * rp
            _agrees(p ** k, ref if k >= 0 else ref.inv())

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 12),
           st.sampled_from((1, -1, -5)))
    @settings(max_examples=200, deadline=None)
    def test_int_and_fraction_inputs_give_one_value(self, p, q, m, d):
        q = q if d != 1 else 0
        from_fractions = FieldElem(Fraction(p * m, m), Fraction(q * 2 * m, 2 * m), d)
        from_ints = FieldElem(p, q, d)
        assert from_ints == from_fractions
        assert hash(from_ints) == hash(from_fractions)
        scaled = FieldElem(Fraction(p, m), Fraction(q, m), d)
        assert scaled == from_ints * FieldElem(Fraction(1, m))
        assert hash(scaled) == hash(from_ints * FieldElem(Fraction(1, m)))
        _check_invariants(scaled)

    @given(tagged(lambda d: st.tuples(elems(d), elems(d))))
    @settings(max_examples=100, deadline=None)
    def test_equal_values_hash_equal(self, args):
        # the same value reached by different arithmetic, and rebuilt from
        # its coordinates, hashes equal; so do polynomials and rational functions
        d, (e1, e2) = args
        pairs = [(e1 * e2, e2 * e1), ((e1 + e2) - e2, e1), (e1, FieldElem(e1.x, e1.y, e1.d))]
        if not e2.is_zero():
            pairs.append(((e1 * e2) / e2, e1))
        f, g = Poly([e1, e2, 1]), Poly([e2, 1])
        pairs += [(f * g, g * f), (RatFunc(f, g) * RatFunc(g), RatFunc(f))]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)

    def test_mismatched_tags_raise_in_every_operation(self):
        p, q = fe(1, 1, -5), fe(Fraction(1, 2), 3, -1)
        for op in (lambda: p + q, lambda: p - q, lambda: p * q, lambda: p / q):
            with pytest.raises(KernelError):
                op()

    def test_immutable(self):
        e = fe(1, 2, -5)
        for name in ("x", "a", "d", "_abnd"):
            with pytest.raises(AttributeError):
                setattr(e, name, 0)


def poly(*coeffs):
    return Poly(coeffs)


def naive_gcd(f, g):
    # plain remainder loop, kept independent of the library path
    while not g.is_zero():
        f, g = g, f % g
    return f.monic()


class TestPoly:
    def test_gcd_euclidean_example(self):
        f, g = poly(0, 2), poly(0, 0, 1)
        expected = naive_gcd(f, g)
        assert poly_gcd(f, g) == expected == poly(0, 1)

    def test_gcd_with_zero_is_monic(self):
        f = poly(0, 3)
        assert poly_gcd(f, Poly.zero()) == poly(0, 1)

    def test_gcd_idempotent(self):
        f = poly(1, 0, 1)
        assert poly_gcd(f, f) == f

    def test_gcd_of_two_zeros_rejected(self):
        with pytest.raises(KernelError):
            poly_gcd(Poly.zero(), Poly.zero())

    def test_divmod(self):
        f = poly(1, 2, 1)
        q, r = divmod(f, poly(1, 1))
        assert q == poly(1, 1) and r.is_zero()

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=5),
           st.lists(st.integers(-5, 5), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_gcd_divides_both(self, cs1, cs2):
        f, g = Poly(cs1), Poly(cs2)
        if f.is_zero() and g.is_zero():
            return
        h = poly_gcd(f, g)
        if not f.is_zero():
            assert (f % h).is_zero()
        if not g.is_zero():
            assert (g % h).is_zero()

    @given(tagged(lambda d: st.tuples(polys(d), polys(d))))
    @settings(max_examples=80, deadline=None)
    def test_divmod_by_monic_and_non_monic(self, args):
        d, (f, g) = args
        if g.is_zero():
            return
        lead = FieldElem(2, 1, d) if d != 1 else FieldElem(3)
        for divisor in (g.monic(), g.monic().scale(lead)):
            q, r = divmod(f, divisor)
            assert q * divisor + r == f
            assert r.degree < divisor.degree

    def test_lcm(self):
        assert poly_lcm(poly(0, 2), poly(0, 0, 3)) == poly(0, 0, 1)

    @given(tagged(lambda d: st.tuples(polys(d), elems(d))))
    @settings(max_examples=80, deadline=None)
    def test_scale_and_const_match_the_normalizing_constructor(self, args):
        d, (f, c) = args
        assert f.scale(c).coeffs == Poly([a * c for a in f.coeffs]).coeffs
        assert Poly.const(c).coeffs == Poly([c]).coeffs
        assert Poly.const(0).is_zero() and Poly.const(0) == Poly.zero()
        assert f.scale(0).is_zero()

    def test_mixed_tags_rejected_when_built(self):
        with pytest.raises(KernelError):
            Poly([fe(0, 1, -1), fe(0, 1, -5)])
        assert Poly([fe(2), fe(0, 1, -5)]) == Poly([2, fe(0, 1, -5)])

    @given(tagged(polys), st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_ord_zero_matches_the_former_body(self, args, j):
        _, p = args
        if not p.is_zero():
            p = p.shift(j)
            assert p.ord_zero() == former.ord_zero(p) >= j

    def test_bit_length_reads_each_reduced_coefficient(self):
        # 1/3 and 1/5 need 3 bits each; their common denominator 15 would need 4
        assert Poly([Fraction(1, 3), Fraction(1, 5)]).bit_length() == 3
        assert Poly([Fraction(2, 6), 0, 4]).bit_length() == 3
        assert Poly.zero().bit_length() == 0


def _either(d):
    # an operand over Q(sqrt(d)) or over Q, so rationals meet surds
    return st.one_of(polys(d), polys(1))


class TestFlatPolyAgainstObjectPoly:
    """The integer-array Poly against the FieldElem-tuple reference."""

    @given(tagged(lambda d: st.tuples(_either(d), _either(d), elems(d), st.integers(0, 5))))
    @settings(max_examples=300, deadline=None)
    def test_operations_match_the_reference(self, args):
        d, (f, g, c, j) = args
        rf, rg = ObjectPoly(f.coeffs), ObjectPoly(g.coeffs)
        for flat, ref in ((f + g, rf + rg), (f - g, rf - rg), (-f, -rf), (f * g, rf * rg),
                          (f.scale(c), rf.scale(c))):
            assert flat.coeffs == ref.coeffs and flat.degree == ref.degree
        assert f.bit_length() == rf.bit_length()
        assert f.eval_zero() == rf.eval_zero()
        assert (f == g) == (rf == rg)
        # equal values reached by different arithmetic, or rebuilt from their
        # coefficients, hash equal
        for a, b in ((f * g, g * f), ((f + g) - g, f), (Poly(f.coeffs), f), (g, g.scale(1))):
            assert a == b and hash(a) == hash(b)
        if not f.is_zero() or not g.is_zero():
            assert poly_gcd(f, g).coeffs == object_gcd(rf, rg).coeffs
        if f.is_zero():
            return
        assert f.monic().coeffs == rf.monic().coeffs
        assert f.is_monic() == (f.leading() == 1) and f.monic().is_monic()
        assert f.ord_zero() == rf.ord_zero()
        k = f.ord_zero()
        assert f.shift(-k).eval_zero() == rf.coeffs[k] and f.shift(-k).shift(k) == f
        assert f.shift(j).shift(-j) == f
        assert f.shift(j).coeffs == (rf * ObjectPoly([0] * j + [1])).coeffs
        divisors = [(Poly.x_power(j), ObjectPoly([0] * j + [1])), (f.monic(), rf.monic())]
        lead = fe(2, 1, d) if d != 1 else fe(3)
        divisors.append((f.scale(lead), rf.scale(lead)))
        for divisor, ref in divisors:
            for dividend, ref_dividend in ((g, rg), (g * f, rg * rf)):
                q, r = divmod(dividend, divisor)
                q_ref, r_ref = divmod(ref_dividend, ref)
                assert q.coeffs == q_ref.coeffs and r.coeffs == r_ref.coeffs


class TestRatFunc:
    def test_ord_examples(self):
        assert ord_at_zero(RatFunc(poly(0, 0, 1), poly(1, 1))) == 2
        assert ord_at_zero(RatFunc.x_power(-1)) == -1

    def test_ord_additive(self):
        f = RatFunc.x_power(1)
        g = RatFunc(poly(0, 1), poly(2, 1))
        assert ord_at_zero(f * g) == ord_at_zero(f) + ord_at_zero(g)

    def test_ord_of_zero_rejected(self):
        with pytest.raises(KernelError):
            ord_at_zero(RatFunc.zero())

    def test_eval_examples(self):
        assert eval_at_zero(RatFunc(poly(3, 1), poly(1, 1))) == fe(3)
        assert eval_at_zero(RatFunc(poly(0, Fraction(1, 2)))) == fe(0)

    def test_eval_pole_rejected(self):
        with pytest.raises(KernelError):
            eval_at_zero(RatFunc.x_power(-1))

    def test_eval_is_multiplicative(self):
        f = RatFunc(poly(2, 1))
        g = RatFunc(poly(5))
        assert eval_at_zero(f * g) == eval_at_zero(f) * eval_at_zero(g)
        assert eval_at_zero(f + g) == eval_at_zero(f) + eval_at_zero(g)

    def test_canonical_form_monic_denominator(self):
        f = RatFunc(poly(0, 2), poly(0, 0, 4))
        assert f.den.leading() == 1
        assert f == RatFunc(poly(2), poly(0, 4))

    def test_normalization_idempotent(self):
        f = RatFunc(poly(1, 1), poly(2, 3, 1))
        again = RatFunc(f.num, f.den)
        assert f == again

    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=4),
           st.lists(st.integers(-6, 6), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_field_axioms(self, cs1, cs2):
        f, g = RatFunc(Poly(cs1)), RatFunc(Poly(cs2))
        if f.is_zero() or g.is_zero():
            return
        assert (f / g) * g == f
        assert f * f.inv() == RatFunc.one()
        assert f + g - g == f

    def test_eval_kernel_is_positive_ord(self):
        # ring map on {ord >= 0}: value zero exactly when ord >= 1
        for f in (RatFunc.x_power(1), RatFunc(poly(0, 1), poly(2, 1)),
                  RatFunc(poly(0, 0, 3))):
            assert ord_at_zero(f) >= 1
            assert eval_at_zero(f).is_zero()
        g = RatFunc(poly(5, 1))
        assert not eval_at_zero(g).is_zero()

    @given(tagged(lambda d: st.tuples(ratfuncs(d), ratfuncs(d))))
    @settings(max_examples=120, deadline=None)
    def test_product_matches_reduced_full_product(self, args):
        # reference: reduce the full products num*num / den*den through gcd
        _, (h, g) = args
        product = h * g
        reference = RatFunc(h.num * g.num, h.den * g.den)
        assert product.num == reference.num and product.den == reference.den
        assert product.den.leading() == 1
        assert poly_gcd(product.num, product.den).is_one()

    @given(tagged(ratfuncs))
    @settings(max_examples=120, deadline=None)
    def test_inverse_matches_reduced_swap(self, args):
        # reference: swap numerator and denominator and reduce through gcd
        _, h = args
        if h.is_zero():
            return
        inverse = h.inv()
        reference = RatFunc(h.den, h.num)
        assert inverse.num == reference.num and inverse.den == reference.den
        assert h * inverse == RatFunc.one()

    @given(tagged(lambda d: st.tuples(ratfuncs(d), st.integers(0, 3), st.integers(0, 3),
                                      st.integers(-3, 15))))
    @settings(max_examples=200, deadline=None)
    def test_x_power_product_matches_the_gcd_path(self, args):
        # reference: the full products reduced through gcd in the constructor;
        # X-factors in both parts reach every branch of the shift
        _, (h, e_num, e_den, j) = args
        h = RatFunc(h.num * Poly.x_power(e_num), h.den * Poly.x_power(e_den))
        xj = RatFunc.x_power(j)
        reference = RatFunc(h.num * xj.num, h.den * xj.den)
        for product in (h * xj, xj * h, h.shift(j)):
            assert product.num == reference.num and product.den == reference.den

    @given(tagged(ratfuncs), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_inverse_matches_the_body_that_read_the_leading_coefficient(self, args, monic):
        _, h = args
        if h.is_zero():
            return
        if monic:
            h = RatFunc(h.num.monic(), h.den)
        # the former body of inv: swap, then always read the new leading coefficient
        num, den = h.den, h.num
        lead = den.leading()
        if lead != FieldElem(1):
            num, den = num.scale(lead.inv()), den.scale(lead.inv())
        inverse = h.inv()
        assert inverse.num == num and inverse.den == den

    @given(tagged(elems))
    @settings(max_examples=80, deadline=None)
    def test_inverse_of_a_constant_is_over_the_shared_one(self, args):
        # 1/c for c != 1 has the denominator Poly.one() itself, not c scaled to 1
        _, c = args
        if c.is_zero() or c == FieldElem(1):
            return
        inverse = RatFunc.coerce(c).inv()
        assert inverse == RatFunc.coerce(c.inv()) and inverse.den is Poly.one()


# real quadratic tags as well as Q and Q(sqrt(-5)): for d > 0 a norm can
# be negative, which flips signs in the quotient formulas
_FAST_PATH_TAGS = (1, 2, 3, -5)


def _fast_path_tagged(strategy_of_tag):
    return st.sampled_from(_FAST_PATH_TAGS).flatmap(
        lambda d: st.tuples(st.just(d), strategy_of_tag(d)))


def _same(value, num, den):
    # the constructor path: RatFunc reduces num/den through gcd
    reference = RatFunc(num, den)
    return value.num == reference.num and value.den == reference.den


class TestRatFuncFastPaths:
    """Sums with a polynomial, negation and division by a constant build
    their canonical forms with no gcd; each equals the constructor path."""

    @given(_fast_path_tagged(lambda d: st.tuples(ratfuncs(d), polys(d), ratfuncs(d))))
    @settings(max_examples=200, deadline=None)
    def test_sums_and_differences(self, args):
        _, (h, p, g) = args
        f = RatFunc.coerce(p)
        assert _same(f, p, Poly.one())
        # either side a polynomial, then the gcd path between two fractions
        for a, b in ((h, f), (f, h), (f, f), (h, g)):
            assert _same(a + b, a.num * b.den + b.num * a.den, a.den * b.den)
            assert _same(a - b, a.num * b.den - b.num * a.den, a.den * b.den)
        # a Poly operand is coerced to p/1
        assert _same(h + p, h.num + p * h.den, h.den)
        assert _same(h - p, h.num - p * h.den, h.den)

    @given(_fast_path_tagged(lambda d: st.tuples(ratfuncs(d), polys(d))))
    @settings(max_examples=120, deadline=None)
    def test_sums_that_cancel_are_zero_over_one(self, args):
        _, (h, p) = args
        f = RatFunc.coerce(p)
        for total in (h - h, h + -h, -h + h, f - f, (h + f) - h - f, f - (f + h) + h):
            assert total.num.is_zero() and total.den.is_one()
            assert total == RatFunc.zero()

    @given(_fast_path_tagged(ratfuncs))
    @settings(max_examples=120, deadline=None)
    def test_negation(self, args):
        _, h = args
        assert _same(-h, -h.num, h.den)
        assert -(-h) == h

    @given(_fast_path_tagged(lambda d: st.tuples(ratfuncs(d), elems(d), st.integers(-6, 6))))
    @settings(max_examples=200, deadline=None)
    def test_division_by_a_nonzero_constant(self, args):
        _, (h, c, k) = args
        for divisor in (c, k, RatFunc.coerce(c), RatFunc.coerce(k)):
            if not divisor:
                with pytest.raises(KernelError):
                    h / divisor
                continue
            const = Poly.const(divisor) if not isinstance(divisor, RatFunc) else divisor.num
            assert _same(h / divisor, h.num, h.den * const)
            # __rtruediv__: a polynomial or a scalar over a constant
            if isinstance(divisor, RatFunc):
                assert _same(h.num / divisor, h.num, const)
                assert _same(k / divisor, Poly.const(k), const)
        if not h.is_zero():
            # a constant over a non-constant goes through the inverse
            assert _same(k / h, h.den * Poly.const(k), h.num)

    def test_division_by_a_constant_forms_no_product(self, monkeypatch):
        # eval divides by constants often; a quotient by a constant is the
        # product with its inverse, which scales the numerator: no two
        # polynomials are multiplied and no gcd is taken
        h = RatFunc(Poly([FieldElem(1, 2, -5), 3]), Poly([2, 1]))
        expected = [h / c for c in (3, FieldElem(0, 2, -5))] + [RatFunc(Poly([7]), Poly([6]))]
        monkeypatch.setattr(Poly, "__mul__", lambda *args: pytest.fail("product formed"))
        monkeypatch.setattr(kernel, "poly_gcd", lambda *args: pytest.fail("gcd taken"))
        divisors = (3, RatFunc.coerce(FieldElem(0, 2, -5)))
        assert [h / c for c in divisors] + [7 / RatFunc.coerce(6)] == expected

    @given(_fast_path_tagged(lambda d: st.tuples(elems(d), polys(d), ratfuncs(d))))
    @settings(max_examples=100, deadline=None)
    def test_constant_paths_match_the_former_bodies(self, args):
        # a constant numerator over any denominator, the product of a
        # fraction with a constant on either side, and the quotient by a
        # constant or a fraction, against the bodies kept in tests/
        _, (c, p, h) = args
        den = Poly.one() if p.is_zero() else p
        for num in (Poly.const(c), p):
            built = RatFunc(num, den)
            assert (built.num, built.den) == former.ratfunc_init(num, den)
        if c.is_zero():
            return
        const = RatFunc.coerce(c)
        for product in (h * const, const * h, h * c):
            assert _same(product, h.num * Poly.const(c), h.den)
        for divisor in (c, const, 3, RatFunc(p, den)):
            if divisor:
                assert h / divisor == former.truediv(h, divisor)

    def test_a_constant_numerator_takes_no_gcd(self, monkeypatch):
        # its gcd with any polynomial is 1
        dens = [Poly([FieldElem(1, 2, -5), 3]), Poly([0, 0, 1]), Poly([2, 4, 6])]
        expected = [former.ratfunc_init(Poly.const(7), den) for den in dens]
        monkeypatch.setattr(kernel, "poly_gcd", lambda *args: pytest.fail("gcd taken"))
        built = [RatFunc(Poly.const(7), den) for den in dens]
        assert [(f.num, f.den) for f in built] == expected

    def test_zero_and_one_are_shared(self):
        assert RatFunc.zero() is RatFunc.zero() and RatFunc.one() is RatFunc.one()
        assert RatFunc.zero() == RatFunc(Poly.zero()) and RatFunc.one() == RatFunc(Poly.one())
        assert RatFunc.one() ** 0 is RatFunc.one()
