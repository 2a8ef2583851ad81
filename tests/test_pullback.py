"""Pullback instances and their ideal calculus, certified by oracles."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from starpull import harness, kernel, pullback, star_ops
from starpull.base_domain import (
    BaseDomain,
    DomainError,
    ExtDModule,
    dmod_colon,
    dmod_from_generators,
    dmod_scale,
)
from starpull.harness import SampleParams, sample_ideals
from starpull.kernel import FieldElem, Poly, RatFunc, eval_at_zero, ord_at_zero
from starpull.pullback import (
    PullbackError,
    RawIdeal,
    as_structured,
    colon_R,
    colon_generators,
    contains_ideal,
    extend_to_T,
    ideal_arith,
    ideal_equal,
    instance_catalog,
    inverse_image_R,
    lift_generators,
    m_ideal,
    make_instance,
    member_R,
    member_structured,
    oracle_colon_member,
    oracle_v_member,
    outside_D,
    r_ideal,
    span_product_in,
    structured_hull,
    t_ideal_of_r,
)
from starpull.star_ops import StarOp, star_eval
import reference_membership as former
from strategies import ratfuncs

X = RatFunc.x_power(1)
TWO = RatFunc.coerce(2)
HALF = RatFunc.coerce(Fraction(1, 2))
V_R, T_R = StarOp.divisorial("R"), StarOp.t_op("R")


def const(x, y=0, d=1):
    return RatFunc(Poly([FieldElem(Fraction(x), Fraction(y), d)]))


def member_T(f, inst):
    """Definitional reference: f in T, a polynomial for K[X] and without
    a pole at zero for K[X]_(X)."""
    if f.is_zero():
        return True
    if not inst.t.quasilocal:
        return f.is_polynomial()
    return ord_at_zero(f) >= 0


def reduced(value):
    """A value at zero, an integer quadruple (a, b, n, d) with n > 0 or
    None, as the reduced scalar it stands for."""
    if value is None:
        return None
    assert value[2] > 0
    return kernel._make(*value)


def member_M(f, inst):
    """Definitional reference: f in M = X*T."""
    return f.is_zero() or (member_T(f, inst) and ord_at_zero(f) >= 1)


def member_R_reference(f, inst):
    """Definitional reference: f in T with value at zero in D."""
    return member_T(f, inst) and inst.base.unit_module().contains(*eval_at_zero(f)._abnd)


class TestMakeInstance:
    def test_catalog_flags(self, inst_a, inst_b, inst_c, inst_d, inst_e):
        assert inst_a.is_square_plus and not inst_a.t.quasilocal
        assert inst_b.is_square_plus and inst_b.t.quasilocal
        assert inst_c.is_square_plus and inst_c.base.class_presentation == (2,)
        assert not inst_d.is_square_plus
        assert not inst_e.is_square_plus and inst_e.t.quasilocal

    def test_explicit_config(self, inst_c):
        inst = make_instance({"base": "quadratic(-5)", "T": "poly"})
        assert inst.name == "C"
        assert inst is inst_c

    def test_k_must_be_the_field_of_the_order(self, inst_c):
        assert make_instance({"base": "quadratic(-5)", "k": "quadratic(-5)", "T": "poly"}) is inst_c
        for k in ("gaussian", "rational", "quadratic(-1)"):
            with pytest.raises(PullbackError, match="not the field of the order"):
                make_instance({"base": "quadratic(-5)", "k": k, "T": "poly"})

    def test_unparsable_quadratic_spec(self):
        with pytest.raises(PullbackError, match="cannot parse base domain spec"):
            make_instance({"base": "quadratic(x)", "T": "poly"})
        with pytest.raises(PullbackError, match="cannot parse field spec"):
            make_instance({"base": "integers", "k": "quadratic()", "T": "poly"})

    def test_unsupported_combination(self):
        with pytest.raises(PullbackError):
            make_instance({"base": "quadratic(-5)", "T": "local"})
        with pytest.raises(PullbackError):
            make_instance("Z")


class TestMemberR:
    def test_half_x_in_A(self, inst_a):
        assert member_R(X * HALF, inst_a)

    def test_half_not_in_A(self, inst_a):
        assert not member_R(HALF, inst_a)

    def test_local_membership(self, inst_a, inst_b):
        f = RatFunc(Poly([3, 1]), Poly([1, 1]))
        assert not member_R(f, inst_a)
        assert member_R(f, inst_b)

    def test_gaussian_value(self, inst_d):
        assert not member_R(const(0, 1, -1), inst_d)
        assert member_R(const(0, 1, -1) * X, inst_d)


def formed_product_in_R(h, g, inst):
    # reference: reduce the full product through gcd, then test it
    return member_R_reference(RatFunc(h.num * g.num, h.den * g.den), inst)


def product_in_R(h, g, inst):
    """h*g in R without forming it: h in (R : (g)); a zero factor is a
    zero product, which member_R decides."""
    if h.is_zero() or g.is_zero():
        return member_R(h * g, inst)
    return oracle_colon_member(h, RawIdeal([g]), inst)


class TestMemberRProduct:
    @pytest.mark.parametrize("name", instance_catalog())
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_formed_product(self, name, data):
        inst = make_instance(name)
        h = data.draw(ratfuncs(inst.k_disc))
        g = data.draw(ratfuncs(inst.k_disc))
        # make the divisibility branches fire, not only the coprime case
        if data.draw(st.booleans()):
            g = RatFunc(g.num * h.den, g.den)
        if data.draw(st.booleans()):
            h = RatFunc(h.num * g.den, h.den)
        assert product_in_R(h, g, inst) == formed_product_in_R(h, g, inst)
        zero = ExtDModule.zero(inst.base)
        assert pullback._product_in(h, g, zero, inst) == member_M(RatFunc(h.num * g.num, h.den * g.den), inst)

    @pytest.mark.parametrize("name", instance_catalog())
    def test_zero_factors_poles_and_negative_orders(self, name):
        inst = make_instance(name)
        inv_x = RatFunc.x_power(-1)
        pole = RatFunc(Poly([1]), Poly([0, 1, 1]))
        cases = [
            (RatFunc.zero(), RatFunc.x_power(-3)),
            (RatFunc.x_power(-2), RatFunc.zero()),
            (inv_x, X),
            (RatFunc.x_power(-2), X),
            (inv_x * HALF, X),
            (inv_x * TWO, X),
            (pole, RatFunc(Poly([0, 1, 1]))),
            (pole, RatFunc(Poly([0, 2, 2])) * HALF),
            (pole, X * X),
            (RatFunc(Poly([3, 1]), Poly([1, 1])), RatFunc(Poly([1, 1]), Poly([3, 1]))),
            (RatFunc(Poly([3, 1]), Poly([1, 1])), HALF),
            (RatFunc(Poly([1]), Poly([2, 1])), RatFunc.one()),
            (RatFunc(Poly([4]), Poly([2, 1])), RatFunc(Poly([1]), Poly([2, 1]))),
        ]
        for h, g in cases:
            expected = formed_product_in_R(h, g, inst)
            assert product_in_R(h, g, inst) == expected
            assert product_in_R(g, h, inst) == expected
            in_m = member_M(RatFunc(h.num * g.num, h.den * g.den), inst)
            zero = ExtDModule.zero(inst.base)
            assert span_product_in(([h], None), ([g], None), zero, inst) == in_m
            assert span_product_in(([g], None), ([h], None), zero, inst) == in_m

    def test_decides_membership(self, inst_a, inst_b):
        pole = RatFunc(Poly([1]), Poly([0, 1]))
        assert product_in_R(pole, X, inst_a)
        assert not product_in_R(pole * HALF, X, inst_a)
        assert not product_in_R(RatFunc(Poly([1]), Poly([1, 1])), X, inst_a)
        assert product_in_R(RatFunc(Poly([1]), Poly([1, 1])), X, inst_b)


def structured_by_definition(f, s, inst):
    """f in u*phi^-1(J0) read off f/u: in T, with value at zero in J0."""
    if f.is_zero():
        return True
    g = f / s.unit
    if not member_T(g, inst):
        return False
    return s.dpart.is_full() or s.dpart.contains(*eval_at_zero(g)._abnd)


class TestMemberStructured:
    @pytest.mark.parametrize("name", instance_catalog())
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_r_m_and_t_match_the_references(self, name, data):
        inst = make_instance(name)
        f = data.draw(ratfuncs(inst.k_disc))
        # shifts by X move f across the boundaries of T and M
        for g in (f, f * X, f / X):
            assert member_structured(g, r_ideal(inst), inst) == member_R_reference(g, inst)
            assert member_structured(g, m_ideal(inst), inst) == member_M(g, inst)
            assert member_structured(g, t_ideal_of_r(inst), inst) == member_T(g, inst)

    @pytest.mark.parametrize("name", instance_catalog())
    @given(seed=st.integers(0, 30), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_definition(self, name, seed, data):
        inst = make_instance(name)
        # the first 5 to 7 ideals are the fixed corner cases, the rest are seeded
        raw = data.draw(st.sampled_from(sample_ideals(inst, SampleParams(seed=seed, count=10))))
        s = data.draw(st.sampled_from([structured_hull(raw, inst), colon_R(raw, inst)]))
        grid = list(raw.gens) + lift_generators(s) + [s.unit * X, s.unit * X * X] \
            + [s.unit * X.inv(), s.unit * HALF, s.unit.inv()]
        f = data.draw(st.sampled_from(grid))
        # a factor from T or with a pole keeps f near the boundary of s
        r = data.draw(ratfuncs(inst.k_disc))
        for g in (f, f * r, f * X):
            assert member_structured(g, s, inst) == structured_by_definition(g, s, inst)


def contains_ideal_reference(outer, inner, inst):
    """The containment test written out on the unit quotient w = u_inner/u_outer."""
    outer = as_structured(outer, inst)
    if isinstance(inner, RawIdeal):
        return all(member_structured(g, outer, inst) for g in inner.gens)
    w = inner.unit / outer.unit
    if inner.dpart.is_full():
        if outer.dpart.is_full():
            return member_T(w, inst)
        return member_M(w, inst)
    for c in inner.dpart.basis_elements():
        wc = w * RatFunc.coerce(Poly.const(c))
        if not member_T(wc, inst):
            return False
        if not outer.dpart.is_full() and not outer.dpart.contains(*eval_at_zero(wc)._abnd):
            return False
    # the M part of the inner ideal
    if member_T(w, inst):
        return True
    wx = w * RatFunc.x_power(1)
    return outer.dpart.is_full() and member_T(wx, inst)


class TestContainsIdeal:
    @pytest.mark.parametrize("name", instance_catalog())
    def test_matches_the_reference(self, name):
        inst = make_instance(name)
        raws = sample_ideals(inst, SampleParams(seed=5, count=8))
        ideals = [r_ideal(inst), m_ideal(inst), t_ideal_of_r(inst)]
        for raw in raws:
            hull = structured_hull(raw, inst)
            ideals += [hull, colon_R(raw, inst), star_eval(V_R, raw, inst), extend_to_T(raw, inst)]
        ideals += [ideal_arith(s, RawIdeal([X ** e]), "mul", inst)
                   for s in ideals[:12] for e in (-1, 1)]
        inners = ideals + raws
        holds = 0
        for outer in ideals:
            for inner in inners:
                got = contains_ideal(outer, inner, inst)
                assert got == contains_ideal_reference(outer, inner, inst), (outer, inner)
                holds += got
        # both answers occur often
        assert 0.1 < holds / (len(ideals) * len(inners)) < 0.9


def member_M_product_parent(h, g, inst):
    return pullback._product_in(h, g, ExtDModule.zero(inst.base), inst)


def contains_ideal_parent(outer, inner, inst):
    """contains_ideal as written before span_product_in."""
    outer = as_structured(outer, inst)
    if isinstance(inner, RawIdeal):
        return all(member_structured(g, outer, inst) for g in inner.gens)
    lifts, t = pullback._generators(inner)
    if not all(member_structured(g, outer, inst) for g in lifts):
        return False
    j = outer.dpart if outer.dpart.is_full() else ExtDModule.zero(inst.base)
    return pullback._product_in(t, outer.unit.inv(), j, inst)


def certified_colon_parent(colon, ideal, inst):
    """The colon certification as written before span_product_in."""
    lifts, t = pullback._generators(colon)
    if isinstance(ideal, RawIdeal):
        gens, t_part_in_m = ideal.gens, True
    else:
        gens, t_i = pullback._generators(ideal)
        t_part_in_m = all(member_M_product_parent(p, t_i, inst) for p in lifts + [t])
    if (t_part_in_m and all(member_M_product_parent(t, q, inst) for q in gens)
            and all(product_in_R(p, q, inst) for p in lifts for q in gens)):
        return lifts, t
    return None


def confirm_noninvertibility_parent(raw, inst):
    """harness._confirm_noninvertibility as written before span_product_in."""
    generators = colon_generators(raw, inst)
    if generators is None:
        return False
    lifts, t = generators
    if not all(member_M_product_parent(g, p, inst) for g in raw.gens for p in lifts + [t]):
        return False
    return not member_R(RatFunc.coerce(Poly.const(outside_D(inst))), inst)


class TestSpanProductIn:
    """The one T-part rule gives the answers of the three tests it replaced."""

    @pytest.mark.parametrize("name", instance_catalog())
    def test_equals_the_code_it_replaces(self, name):
        inst = make_instance(name)
        raws = sample_ideals(inst, SampleParams(seed=5, count=8))
        ideals = [*raws, *(structured_hull(raw, inst) for raw in raws),
                  *(star_eval(V_R, raw, inst) for raw in raws),
                  r_ideal(inst), m_ideal(inst), t_ideal_of_r(inst)]
        contained = certified = 0
        for a in ideals:
            colon = as_structured(a, inst)
            for b in ideals:
                got = contains_ideal(a, b, inst)
                assert got == contains_ideal_parent(a, b, inst), (a, b)
                generators = colon_generators(b, inst, colon)
                assert generators == certified_colon_parent(colon, b, inst), (a, b)
                contained += got
                certified += generators is not None
        for raw in raws:
            assert harness._confirm_noninvertibility(raw, inst) \
                == confirm_noninvertibility_parent(raw, inst), raw
        # both answers occur for both tests
        pairs = len(ideals) ** 2
        assert 0 < contained < pairs and 0 < certified < pairs


class TestContent:
    def test_gcd_content(self, inst_a):
        assert inst_a.t.content([TWO * X, X * X]) == X

    def test_coprime_content(self, inst_a):
        assert inst_a.t.content([TWO, X]).is_one()

    def test_local_content(self, inst_b):
        assert inst_b.t.content([X + X * X, X ** 3]) == X


def instances_of_kind(kind):
    return [inst for inst in map(make_instance, instance_catalog()) if inst.t is kind]


class TestTKindContract:
    """What every entry of _T_KINDS must answer, checked against the
    definitional references on the catalogued instances of that kind."""

    @pytest.mark.parametrize("name", sorted(pullback._T_KINDS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_kind_contract(self, name, data):
        kind = pullback._T_KINDS[name]
        inst = data.draw(st.sampled_from(instances_of_kind(kind)))
        sampled = [g for raw in sample_ideals(inst, SampleParams(seed=11, count=30)) for g in raw.gens]
        nonzero = st.one_of(st.sampled_from(sampled),
                            ratfuncs(inst.k_disc).filter(lambda f: not f.is_zero()))
        u = data.draw(nonzero)
        # normalize: u = u' * c * (a unit of T with value 1 at zero), u' fixed
        u1, c = kind.normalize(u)
        q = u / (u1 * c)
        assert member_T(q, inst) and member_T(q.inv(), inst) and eval_at_zero(q) == FieldElem(1)
        assert kind.normalize(u1) == (u1, FieldElem(1))
        # content([f]) generates f*T
        content = kind.content([u])
        assert member_T(u / content, inst) and member_T(content / u, inst)
        # _at_zero(h, g, kind) is phi(h*g), or None exactly when h*g is outside T
        h, g = data.draw(nonzero), data.draw(nonzero)
        if data.draw(st.booleans()):
            g = RatFunc(g.num * h.den, g.den)
        if data.draw(st.booleans()):
            h = RatFunc(h.num * g.den, h.den)
        product = RatFunc(h.num * g.num, h.den * g.den)
        expected = eval_at_zero(product) if member_T(product, inst) else None
        assert reduced(pullback._at_zero(h, g, kind)) == expected
        # _x_order(h, g, kind) is the X-order e of h*g exactly when
        # w = h*g/X^e lies in T, and None, in K[X] alone, when it does not
        e, w = ord_at_zero(product), product.shift(-ord_at_zero(product))
        order = pullback._x_order(h, g, kind)
        if order is None:
            assert not kind.quasilocal and not member_T(w, inst)
        else:
            assert order == e and member_T(w, inst)
        # x_free_divides(b, k, c, m): b/X^k divides c/X^m in T, which in
        # K[X] is a zero remainder and in K[X]_(X) always holds
        for b, c in ((h.den, g.num), (g.den, h.num)):
            k, m = b.ord_zero(), c.ord_zero()
            divides = kind.quasilocal or (c.shift(-m) % b.shift(-k)).is_zero()
            assert kind.x_free_divides(b, k, c, m) == divides
        # generator(fs) is the first of the fs of least X-order, and it
        # generates the same T-ideal as content(fs)
        if kind.quasilocal:
            fs = data.draw(st.lists(nonzero, min_size=1, max_size=4))
            gen = kind.generator(fs)
            first = fs.index(gen)
            assert all(ord_at_zero(f) > ord_at_zero(gen) for f in fs[:first])
            assert all(ord_at_zero(f) >= ord_at_zero(gen) for f in fs[first:])
            content = kind.content(fs)
            assert member_T(gen / content, inst) and member_T(content / gen, inst)


class TestDivisibilityMemo:
    """K[X] membership remembers whether one X-free part divides another,
    and only answers that a fresh division would give."""

    @staticmethod
    def _pairs(inst):
        # sampled generators, their shifts by X^j and their inverses: the
        # shapes that the oracle grids multiply
        gens = [g for raw in sample_ideals(inst, SampleParams(seed=5, count=12)) for g in raw.gens]
        shifted = [g * RatFunc.x_power(j) for g in gens[:6] for j in (-2, -1, 1, 3)]
        values = gens + shifted + [g.inv() for g in gens]
        return [(h, g) for h in values for g in values[::3]]

    @pytest.mark.parametrize("name", [inst.name for inst in instances_of_kind(pullback._T_KINDS["poly"])])
    def test_a_hit_equals_a_fresh_computation(self, name, monkeypatch):
        inst = make_instance(name)
        pairs = self._pairs(inst)
        # calls against the memo as earlier tests left it, then against an empty table
        memo = [pullback._at_zero(h, g, inst.t) for h, g in pairs]
        monkeypatch.setattr(pullback, "_DIVIDES_CACHE", {})
        assert [pullback._at_zero(h, g, inst.t) for h, g in pairs] == memo
        table = pullback._DIVIDES_CACHE
        assert table, "no X-free division was memoized"
        for (b, c), divides in table.items():
            assert b.is_monic() and b.degree >= 1 and not b.eval_zero().is_zero()
            assert not c.eval_zero().is_zero()
            assert divides == (c % b).is_zero()
        # second calls are hits: no division runs, and the answers repeat
        divisions = []
        divmod_ = Poly.__divmod__
        monkeypatch.setattr(Poly, "__divmod__", lambda f, g: divisions.append(1) or divmod_(f, g))
        assert [pullback._at_zero(h, g, inst.t) for h, g in pairs] == memo
        assert not divisions

    @staticmethod
    def _counted_report(inst, monkeypatch, owner, attr):
        """The number of calls of owner.attr in one oracle-agreement report
        on inst at seed 7, count 10, degree window 12."""
        calls = []
        original = getattr(owner, attr)
        monkeypatch.setattr(owner, attr, lambda *args: calls.append(1) or original(*args))
        report = harness.run_suite("oracle-agreement", inst,
                                   SampleParams(seed=7, count=10, degree_window=12))
        assert report.n_samples == 10 and not report.violations
        return len(calls)

    def test_oracle_agreement_divides_once_per_x_free_pair(self, inst_a, empty_memos, monkeypatch):
        # the shifts b*X^j of a grid element share their X-free parts, so a
        # report on A at seed 7 makes 23 divisions from empty memos (at most
        # 30 allowed); forming each quotient made 507
        assert self._counted_report(inst_a, monkeypatch, Poly, "__divmod__") <= 30

    def test_oracle_agreement_builds_one_scalar_per_membership_test(self, inst_a, empty_memos,
                                                                     monkeypatch):
        # a value at zero stays in integers until one reduced scalar is
        # built, so the same report as above calls kernel._make 170 times
        # from empty memos (at most 200 allowed); three scalars per test
        # made 3,032
        scalars = []
        make = kernel._make
        bound = [module for name, module in sys.modules.items()
                 if name.startswith("starpull") and getattr(module, "_make", None) is make]
        for module in bound:
            monkeypatch.setattr(module, "_make", lambda *abnd: scalars.append(1) or make(*abnd))
        report = harness.run_suite("oracle-agreement", inst_a,
                                   SampleParams(seed=7, count=10, degree_window=12))
        assert report.n_samples == 10 and not report.violations
        assert len(scalars) <= 200

    def test_oracle_agreement_decides_the_window_from_leading_terms(self, inst_a, empty_memos,
                                                                     monkeypatch):
        # the 13 shifts of each window base are read from one X-order per
        # product, so the same report as above reads 317 values at zero
        # from empty memos (at most 360 allowed); deciding each shift as an
        # element read 994
        assert self._counted_report(inst_a, monkeypatch, pullback, "_at_zero") <= 360


def _lowest(p):
    """The lowest nonzero coefficient of p, as a scalar."""
    return p.coeffs[p.ord_zero()]


class TestIntegerValueAtZero:
    """Values at zero computed in integers agree with the scalar
    arithmetic they replace, on real quadratic fields too, where a norm
    can be negative; the catalogue's fields are Q, Q(i) and Q(sqrt(-5))."""

    @pytest.mark.parametrize("d", [2, 3])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_values_at_zero_match_the_scalar_formulas(self, d, data):
        nonzero = ratfuncs(d).filter(lambda f: not f.is_zero())
        h = data.draw(nonzero).shift(data.draw(st.integers(-2, 2)))
        g = data.draw(nonzero).shift(data.draw(st.integers(-2, 2)))
        # the divisible branches of K[X]: h's denominator divides g's
        # numerator, and g's denominator h's numerator
        if data.draw(st.booleans()):
            g = RatFunc(g.num * h.den, g.den)
        if data.draw(st.booleans()):
            h = RatFunc(h.num * g.den, h.den)
        product = RatFunc(h.num * g.num, h.den * g.den)
        # K[X]: phi(h*g) of the formed product, None off T, with a
        # positive denominator however the norms' signs fall
        poly_t, local_t = pullback._T_KINDS["poly"], pullback._T_KINDS["local"]
        expected = product.num.eval_zero() if product.is_polynomial() else None
        value = pullback._at_zero(h, g, poly_t)
        assert reduced(value) == expected
        assert value is None or value[2] > 0
        for b, c in ((h.den, g.num), (g.den, h.num)):
            k, m = b.ord_zero(), c.ord_zero()
            assert poly_t.x_free_divides(b, k, c, m) == (c.shift(-m) % b.shift(-k)).is_zero()
        # K[X]_(X): the former body, four lowest coefficients as scalars
        e = ord_at_zero(h) + ord_at_zero(g)
        expected = None if e < 0 else FieldElem(0) if e > 0 else (
            (_lowest(h.num) * _lowest(g.num)) / (_lowest(h.den) * _lowest(g.den)))
        value = reduced(pullback._at_zero(h, g, local_t))
        assert value == expected
        if e == 0:
            assert value.n > 0 and value * product.den.eval_zero() == product.num.eval_zero()


    @pytest.mark.parametrize("name", ["B", "E"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_local_normalize_matches_the_scalar_body(self, name, data):
        # K[X]_(X) on its catalogued fields, Q and Q(i): one reduced scalar
        # from the two lowest coefficients in integers
        inst = make_instance(name)
        u = data.draw(ratfuncs(inst.k_disc).filter(lambda f: not f.is_zero()))
        u = u.shift(data.draw(st.integers(-2, 2)))
        unit, c = inst.t.normalize(u)
        # the former body: three reduced scalars
        assert unit == RatFunc.x_power(ord_at_zero(u))
        assert c == _lowest(u.num) / _lowest(u.den)


class TestIntegerMembership:
    """Membership decides integer quadruples and builds no scalar; the
    values at zero and contents equal the former bodies kept in
    tests/reference_membership.py on every catalogued instance."""

    @pytest.mark.parametrize("name", instance_catalog())
    def test_values_and_contents_match_the_former_bodies(self, name):
        inst = make_instance(name)
        at_zero = former.local_at_zero if inst.t.quasilocal else former.poly_at_zero
        pairs = TestDivisibilityMemo._pairs(inst)
        for h, g in pairs:
            assert reduced(pullback._at_zero(h, g, inst.t)) == at_zero(h, g), (h, g)
        if not inst.t.quasilocal:
            values = [h for h, _ in pairs]
            for size in (2, 3, 5):
                for i in range(0, len(values) - size, 7):
                    fs = values[i:i + size]
                    assert inst.t.content(fs) == former.content(fs), fs
            # one generator f: the former body returned f itself; the
            # content is f over its numerator's leading coefficient, which
            # generates the same f*T
            for f in values[:-1:7]:
                assert former.content([f]) == f
                assert inst.t.content([f]) == RatFunc(f.num.monic(), f.den), f

    @pytest.mark.parametrize("name", instance_catalog())
    def test_membership_builds_no_scalar(self, name, monkeypatch):
        inst = make_instance(name)
        pairs = TestDivisibilityMemo._pairs(inst)
        raw = sample_ideals(inst, SampleParams(seed=3, count=4))[-1]
        closed = [colon_R(raw, inst), star_eval(V_R, raw, inst), r_ideal(inst), m_ideal(inst)]
        scalars = []
        make, init = kernel._make, FieldElem.__init__
        for module in [m for key, m in sys.modules.items() if key.startswith("starpull")]:
            if getattr(module, "_make", None) is make:
                monkeypatch.setattr(module, "_make", lambda *abnd: scalars.append(abnd) or make(*abnd))
        monkeypatch.setattr(FieldElem, "__init__", lambda *args: scalars.append(args) or init(*args))
        for h, g in pairs:
            oracle_colon_member(h, RawIdeal([g]), inst)
            oracle_colon_member(h, raw, inst)
            for s in closed:
                member_structured(h, s, inst)
        assert not scalars


class TestHull:
    def test_hull_of_two_and_x(self, inst_a):
        h = structured_hull(RawIdeal([TWO, X]), inst_a)
        assert h.unit.is_one()
        assert h.dpart == dmod_from_generators([2], inst_a.base)
        # membership oracle: the hull is {f in Q[X] : f(0) in 2Z}
        rng = random.Random(1)
        for _ in range(40):
            coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)]
            f = RatFunc(Poly(coeffs))
            if f.is_zero():
                continue
            expected = eval_at_zero(f).x.denominator == 1 and eval_at_zero(f).x % 2 == 0
            assert member_structured(f, h, inst_a) == expected

    def test_hull_gaussian(self, inst_d):
        h = structured_hull(RawIdeal([RatFunc.one(), const(0, 1, -1)]), inst_d)
        assert h.unit.is_one()
        assert h.dpart == dmod_from_generators([FieldElem(1), FieldElem(0, 1, -1)],
                                               inst_d.base)

    def test_hull_of_principal(self, inst_a):
        z = RatFunc(Poly([2, 1]))
        h = structured_hull(RawIdeal([z]), inst_a)
        assert ideal_equal(h, ideal_arith(RawIdeal([z]), r_ideal(inst_a), "mul", inst_a),
                           inst_a)

    def test_raw_ideal_equals_its_hull(self, inst_a, inst_d):
        # every finitely generated fractional ideal here is structured:
        # the hull adds u*M, which Bezout combinations already reach
        for inst, raw in [
            (inst_a, RawIdeal([TWO, X])),
            (inst_a, RawIdeal([TWO * X, X * X, X ** 3 * HALF])),
            (inst_d, RawIdeal([RatFunc.one(), const(0, 1, -1)])),
        ]:
            h = structured_hull(raw, inst)
            assert contains_ideal(h, raw, inst)
            # hull generators decompose over the raw generators: spot-check
            # that canonical members of the hull pass the colon test of raw
            for g in raw.gens:
                assert member_structured(g, h, inst)

    def test_hull_inside_v_closure(self, inst_a):
        raw = RawIdeal([TWO, X])
        assert contains_ideal(star_eval(V_R, raw, inst_a), structured_hull(raw, inst_a),
                              inst_a)


class TestColonR:
    def test_colon_two_x(self, inst_a):
        c = colon_R(RawIdeal([TWO, X]), inst_a)
        assert c.unit.is_one()
        assert c.dpart == dmod_from_generators([Fraction(1, 2)], inst_a.base)
        # definitional oracle, both directions on a witness grid
        assert oracle_colon_member(HALF, RawIdeal([TWO, X]), inst_a)
        assert not oracle_colon_member(RatFunc.coerce(Fraction(1, 4)),
                                       RawIdeal([TWO, X]), inst_a)

    def test_colon_gaussian_is_m(self, inst_d):
        raw = RawIdeal([RatFunc.one(), const(0, 1, -1)])
        assert colon_R(raw, inst_d) == m_ideal(inst_d)

    def test_conductor_identities(self, inst_a, inst_b, inst_c, inst_d, inst_e):
        for inst in (inst_a, inst_b, inst_c, inst_d, inst_e):
            t = t_ideal_of_r(inst)
            m = m_ideal(inst)
            assert colon_R(t, inst) == m
            assert colon_R(m, inst) == t
            # definitional spot witnesses: T*M lands in R, while 1/X sends
            # the conductor element X/2 outside R
            assert member_R(X * HALF, inst)
            assert not member_R(RatFunc.x_power(-1) * (X * HALF) * RatFunc.x_power(-1),
                                inst)
            assert not member_R(RatFunc.x_power(-1), inst)


    @pytest.mark.parametrize("name", instance_catalog())
    def test_a_wrong_closed_colon_is_refused(self, name, monkeypatch):
        # one fault per check of the certification: (R : R) with a lift
        # outside R; (R : R) read as T, whose T-part 1*T is outside R;
        # and (R : T) read as R, which does not multiply the T-part of T into M
        inst = make_instance(name)
        true_colon = pullback.dmod_colon
        unit, full = inst.base.unit_module(), ExtDModule.full(inst.base)
        one = RawIdeal([RatFunc.one()])
        faults = [(unit, dmod_scale(outside_D(inst), unit), [one, r_ideal(inst)]),
                  (unit, full, [one, r_ideal(inst)]),
                  (full, unit, [t_ideal_of_r(inst)])]
        for j_wrong, colon_wrong, ideals in faults:
            # an empty memo, so that no colon certified earlier is served
            monkeypatch.setattr(pullback, "_COLON_R_CACHE", {})
            monkeypatch.setattr(pullback, "dmod_colon", lambda j, j_wrong=j_wrong,
                                colon_wrong=colon_wrong:
                                colon_wrong if j == j_wrong else true_colon(j))
            for ideal in ideals:
                with pytest.raises(AssertionError):
                    colon_R(ideal, inst)
        monkeypatch.undo()
        assert colon_R(one, inst) == r_ideal(inst)
        assert colon_R(t_ideal_of_r(inst), inst) == m_ideal(inst)


class TestVClosure:
    def test_closed_example(self, inst_a):
        raw = RawIdeal([TWO, X])
        assert star_eval(V_R, raw, inst_a) == structured_hull(raw, inst_a)

    def test_m_divisorial(self, inst_a, inst_b, inst_c, inst_d, inst_e):
        for inst in (inst_a, inst_b, inst_c, inst_d, inst_e):
            assert star_eval(V_R, m_ideal(inst), inst) == m_ideal(inst)

    def test_gaussian_closure_is_t(self, inst_d):
        raw = RawIdeal([RatFunc.one(), const(0, 1, -1)])
        assert star_eval(V_R, raw, inst_d) == t_ideal_of_r(inst_d)

    def test_t_equals_v_on_these_inputs(self, inst_a):
        raw = RawIdeal([TWO, X])
        assert star_eval(T_R, raw, inst_a) == star_eval(V_R, raw, inst_a)

    def test_closure_laws_on_samples(self, inst_a):
        rng = random.Random(3)
        raws = []
        for _ in range(15):
            gens = []
            for _ in range(rng.randint(1, 3)):
                coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 2))
                          for _ in range(rng.randint(1, 3))]
                p = Poly(coeffs)
                if not p.is_zero():
                    gens.append(RatFunc(p))
            if gens:
                raws.append(RawIdeal(gens))
        for raw in raws:
            closed = star_eval(V_R, raw, inst_a)
            assert contains_ideal(closed, raw, inst_a)
            assert star_eval(V_R, closed, inst_a) == closed
            z = RatFunc(Poly([Fraction(3, 2)]))
            scaled = RawIdeal([z * g for g in raw.gens])
            assert star_eval(V_R, scaled, inst_a) == as_structured(
                ideal_arith(RawIdeal([z]), closed, "mul", inst_a), inst_a)
        for r1, r2 in zip(raws, raws[1:]):
            join = RawIdeal(list(r1.gens) + list(r2.gens))
            assert contains_ideal(star_eval(V_R, join, inst_a), star_eval(V_R, r1, inst_a),
                                  inst_a)


class TestIdealArith:
    def test_p_preimage_squared_is_two_r(self, inst_c):
        base = inst_c.base
        p = dmod_from_generators([FieldElem(2), FieldElem(1, 1, -5)], base)
        hp = inverse_image_R(p, inst_c)
        sq = ideal_arith(hp, hp, "mul", inst_c)
        two_r = ideal_arith(RawIdeal([TWO]), r_ideal(inst_c), "mul", inst_c)
        assert ideal_equal(sq, two_r, inst_c)

    def test_m_squared(self, inst_a, inst_b):
        for inst in (inst_a, inst_b):
            m = m_ideal(inst)
            sq = ideal_arith(m, m, "mul", inst)
            xm = ideal_arith(RawIdeal([X]), m, "mul", inst)
            assert ideal_equal(sq, xm, inst)

    def test_multiply_by_r_fixes(self, inst_a):
        raw = RawIdeal([TWO, X])
        assert ideal_equal(ideal_arith(raw, r_ideal(inst_a), "mul", inst_a), raw, inst_a)

    def test_m_absorbs_lattice_parts(self, inst_a):
        m = m_ideal(inst_a)
        h = structured_hull(RawIdeal([TWO, X]), inst_a)
        assert ideal_equal(ideal_arith(m, h, "mul", inst_a), m, inst_a)

    def test_structured_sum(self, inst_a):
        h2 = structured_hull(RawIdeal([TWO]), inst_a)
        h3 = structured_hull(RawIdeal([RatFunc.coerce(3)]), inst_a)
        total = ideal_arith(h2, h3, "add", inst_a)
        assert ideal_equal(total, r_ideal(inst_a), inst_a)
        hx = structured_hull(RawIdeal([X * TWO]), inst_a)
        mixed = ideal_arith(h2, hx, "add", inst_a)
        assert ideal_equal(mixed, structured_hull(RawIdeal([TWO, TWO * X]), inst_a),
                           inst_a)

    def test_sum_with_m(self, inst_a):
        m = m_ideal(inst_a)
        t = t_ideal_of_r(inst_a)
        assert ideal_equal(ideal_arith(m, m, "add", inst_a), m, inst_a)
        assert ideal_equal(ideal_arith(m, t, "add", inst_a), t, inst_a)
        two_r = structured_hull(RawIdeal([TWO]), inst_a)
        assert ideal_equal(ideal_arith(m, two_r, "add", inst_a),
                           structured_hull(RawIdeal([TWO, X]), inst_a), inst_a)


class TestExtendToT:
    def test_unit_content(self, inst_a):
        assert extend_to_T(RawIdeal([TWO, X]), inst_a) == extend_to_T(RawIdeal([RatFunc.one()]), inst_a)

    def test_x_content(self, inst_a):
        assert extend_to_T(RawIdeal([TWO * X, X * X]), inst_a) == extend_to_T(RawIdeal([X]), inst_a)

    def test_p_preimage_extends_to_t(self, inst_c):
        base = inst_c.base
        p = dmod_from_generators([FieldElem(2), FieldElem(1, 1, -5)], base)
        assert extend_to_T(inverse_image_R(p, inst_c), inst_c) == extend_to_T(RawIdeal([RatFunc.one()]), inst_c)

    def test_multiplicative(self, inst_a):
        rng = random.Random(9)
        for _ in range(10):
            gens1 = [RatFunc(Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]))
                     for _ in range(rng.randint(1, 2))]
            gens2 = [RatFunc(Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]))
                     for _ in range(rng.randint(1, 2))]
            try:
                i1, i2 = RawIdeal(gens1), RawIdeal(gens2)
            except PullbackError:
                continue
            lhs = extend_to_T(ideal_arith(i1, i2, "mul", inst_a), inst_a)
            # canonical generator of the product of principal T-ideals
            units = extend_to_T(i1, inst_a).unit * extend_to_T(i2, inst_a).unit
            rhs = extend_to_T(RawIdeal([units]), inst_a)
            assert lhs == rhs


class TestInverseImage:
    def test_two_z(self, inst_a):
        s = inverse_image_R(dmod_from_generators([2], inst_a.base), inst_a)
        assert s.unit.is_one()
        assert member_structured(TWO, s, inst_a)
        assert member_structured(X * HALF, s, inst_a)
        assert not member_structured(RatFunc.one(), s, inst_a)

    def test_module_over_another_domain_rejected(self, inst_c):
        # every structured ideal of R has its D-part over R's own D
        gaussian = BaseDomain.quadratic_order(-1).unit_module()
        with pytest.raises(DomainError, match="mixed base domains"):
            inverse_image_R(gaussian, inst_c)

    def test_zero_maps_to_m(self, inst_a):
        s = inverse_image_R(ExtDModule.zero(inst_a.base), inst_a)
        assert s == m_ideal(inst_a)

    def test_window_between_m_and_t(self, inst_c):
        base = inst_c.base
        p = dmod_from_generators([FieldElem(2), FieldElem(1, 1, -5)], base)
        s = inverse_image_R(p, inst_c)
        assert contains_ideal(s, m_ideal(inst_c), inst_c)
        assert not contains_ideal(m_ideal(inst_c), s, inst_c)
        assert contains_ideal(t_ideal_of_r(inst_c), star_eval(V_R, s, inst_c), inst_c)
        assert not contains_ideal(star_eval(V_R, s, inst_c), t_ideal_of_r(inst_c), inst_c)


class TestOracles:
    def test_colon_oracle_example(self, inst_a):
        assert oracle_colon_member(HALF, RawIdeal([TWO, X]), inst_a)

    def test_v_oracle_in(self, inst_d):
        raw = RawIdeal([RatFunc.one(), const(0, 1, -1)])
        verdict = oracle_v_member(RatFunc.one(), raw, inst_d)
        assert verdict.status == "in"

    def test_v_oracle_out_with_witness(self, inst_a):
        raw = RawIdeal([TWO, X])
        verdict = oracle_v_member(RatFunc.x_power(-1), raw, inst_a)
        assert verdict.status == "out-with-witness"
        assert verdict.witness == HALF
        # replay the witness: it certifies membership in (R : I) and pushes
        # the candidate out of R
        assert oracle_colon_member(verdict.witness, raw, inst_a)
        assert not member_R(RatFunc.x_power(-1) * verdict.witness, inst_a)

def _probe_search_v_oracle(h, raw, inst, probes):
    """Reference: the X^j probe search that the generating-set oracle replaced.

    A certified probe g with h*g outside R excludes h; otherwise h is
    "in" when the closed form I^v holds it, and "inconclusive" if not.
    """
    for g in probes:
        if not product_in_R(h, g, inst):
            return "out-with-witness"
    if probes and member_structured(h, star_eval(V_R, raw, inst), inst):
        return "in"
    return "inconclusive"


def _certified_probes(raw, inst, degree=12):
    """The reference's probes: X^j shifts of the colon's lifts, certified in (R : I)."""
    hull = structured_hull(raw, inst)
    j_colon = dmod_colon(hull.dpart)
    inv_u = hull.unit.inv()
    family = []
    if j_colon.is_lattice():
        for c in j_colon.basis_elements():
            lift = inv_u * RatFunc.coerce(Poly.const(c))
            family += [lift * RatFunc.x_power(j) for j in range(degree + 1)]
    family += [inv_u * RatFunc.x_power(j) for j in range(1, degree + 1)]
    return [g for g in family if oracle_colon_member(g, raw, inst)]


def _v_population(inst, seeds=(3, 5), count=6):
    """(raw ideal, its closed colon, grid) over seeded samples.

    Besides the suite's v-grid shape, the grid holds w^-1, (w*X)^-1 and
    (w*X^2)^-1 for the colon's unit w, which reach the T-part witnesses.
    """
    for seed in seeds:
        for raw in sample_ideals(inst, SampleParams(seed=seed, count=count)):
            hull = structured_hull(raw, inst)
            colon = colon_R(raw, inst)
            closed_v = star_eval(V_R, hull, inst)
            grid = list(raw.gens) + [raw.gens[0] * X, hull.unit * X.inv(),
                                     hull.unit * RatFunc.coerce(Fraction(1, 3))]
            if closed_v.dpart.is_lattice():
                grid += [hull.unit * RatFunc.coerce(Poly.const(c))
                         for c in closed_v.dpart.basis_elements()]
            grid += [(colon.unit * RatFunc.x_power(j)).inv() for j in range(3)]
            yield raw, colon, grid


class TestExactVOracle:
    @pytest.mark.parametrize("name", "ABCDE")
    def test_agrees_with_probe_search_and_decides_every_point(self, name):
        inst = make_instance(name)
        definite = 0
        for raw, colon, grid in _v_population(inst):
            probes = _certified_probes(raw, inst)
            closed_v = star_eval(V_R, raw, inst)
            generators = colon_generators(raw, inst, colon)
            for h in grid:
                verdict = oracle_v_member(h, raw, inst, generators)
                assert verdict.status in ("in", "out-with-witness"), (raw, h)
                reference = _probe_search_v_oracle(h, raw, inst, probes)
                if reference != "inconclusive":
                    definite += 1
                    assert verdict.status == reference, (raw, h)
                # the closed form is right on these samples, so it decides too
                assert (verdict.status == "in") == member_structured(h, closed_v, inst)
                if verdict.status == "out-with-witness":
                    assert oracle_colon_member(verdict.witness, raw, inst)
                    assert not member_R(h * verdict.witness, inst)
        assert definite > 0

    def test_three_argument_call_computes_the_colon(self, inst_a, inst_c, inst_d):
        # precomputed generators give the verdicts of the per-call form
        for inst in (inst_a, inst_c, inst_d):
            for raw, colon, grid in _v_population(inst, seeds=(3,), count=3):
                generators = colon_generators(raw, inst, colon)
                assert generators == colon_generators(raw, inst)
                for h in grid:
                    per_call = oracle_v_member(h, raw, inst)
                    shared = oracle_v_member(h, raw, inst, generators)
                    assert (per_call.status, per_call.witness) == (shared.status, shared.witness)

    def test_never_reads_the_closed_v_or_the_hull(self, inst_d, monkeypatch):
        cases = list(_v_population(inst_d, seeds=(3,), count=4))

        def verdicts(raw, colon, grid):
            generators = colon_generators(raw, inst_d, colon)
            return [oracle_v_member(h, raw, inst_d, generators).status for h in grid]

        expected = [verdicts(*case) for case in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle consulted a closed form")

        monkeypatch.setattr(star_ops, "star_eval", refuse)
        monkeypatch.setattr(star_ops, "_dpart_eval", refuse)
        monkeypatch.setattr(pullback, "structured_hull", refuse)
        got = [verdicts(*case) for case in cases]
        assert got == expected

    def test_t_part_witnesses(self, inst_d):
        # (R : (1, i)) = X*T on D: lifts are empty and the T-part decides
        raw = RawIdeal([RatFunc.one(), const(0, 1, -1)])
        cases = ((X.inv(), X * HALF), (RatFunc.x_power(-2), X))
        for h, witness in cases:
            verdict = oracle_v_member(h, raw, inst_d)
            assert (verdict.status, verdict.witness) == ("out-with-witness", witness)
            assert oracle_colon_member(witness, raw, inst_d)
            assert not member_R(h * witness, inst_d)

    def test_field_base_uses_a_surd_outside_d(self, inst_e):
        # D = Q holds 1/2, so the T-part witness scales by sqrt(-1)
        raw = RawIdeal([RatFunc.one(), const(0, 1, -1)])
        verdict = oracle_v_member(X.inv(), raw, inst_e)
        assert verdict.status == "out-with-witness"
        assert verdict.witness == X * const(0, 1, -1)
        assert not member_R(X.inv() * verdict.witness, inst_e)

    def test_wrong_colon_is_inconclusive(self, inst_a, monkeypatch):
        # X^-1 * (R : I) is not inside (R : I): the generating set fails
        # its certification, and only colon-agreement can say more
        raw = RawIdeal([TWO, X])
        wrong = ideal_arith(colon_R(raw, inst_a), RawIdeal([X.inv()]), "mul", inst_a)
        assert colon_generators(raw, inst_a, wrong) is None
        monkeypatch.setattr(pullback, "colon_R", lambda ideal, inst: wrong)
        assert oracle_v_member(RatFunc.one(), raw, inst_a).status == "inconclusive"


class TestDivisorialTIdeals:
    def test_rt_divisorial_for_r_in_m(self, inst_a, inst_b):
        # conductor multiples of T stay divisorially closed over R
        for inst in (inst_a, inst_b):
            rng = random.Random(13)
            for _ in range(8):
                p = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))])
                if p.is_zero():
                    continue
                r = RatFunc(p) * X
                rt = as_structured(extend_to_T(RawIdeal([r]), inst), inst)
                assert star_eval(V_R, rt, inst) == rt

    def test_height_one_primes_divisorial(self, inst_a):
        # irreducible with nonzero constant term
        for p in (Poly([1, 0, 1]), Poly([2, 1]), Poly([3, 0, 0, 1])):
            ft = as_structured(extend_to_T(RawIdeal([RatFunc(p)]), inst_a), inst_a)
            assert star_eval(V_R, ft, inst_a) == ft


class TestRawIdealValidation:
    def test_zero_generator_rejected(self):
        with pytest.raises(PullbackError):
            RawIdeal([RatFunc.zero()])

    def test_empty_rejected(self):
        with pytest.raises(PullbackError):
            RawIdeal([])
