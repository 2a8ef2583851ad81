"""Class maps alpha, beta = extend_to_T, gamma and the invertibility certificates."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from starpull import base_domain, class_groups, kernel, pullback
from starpull.base_domain import (
    BaseDomain,
    DomainError,
    ExtDModule,
    class_label_D,
    dmod_arith,
    dmod_from_generators,
    dmod_scale,
)
from starpull.class_groups import (
    ClassGroupError,
    alpha,
    class_equivalent_R,
    gamma,
    invertibility_R,
    is_principal_R,
)
from starpull.harness import SampleParams, run_suite, sample_ideals
from starpull.kernel import FieldElem, Poly, RatFunc, poly_gcd
from starpull.pullback import (
    PullbackError,
    RawIdeal,
    StructuredIdeal,
    colon_R,
    extend_to_T,
    ideal_arith,
    ideal_equal,
    instance_catalog,
    inverse_image_R,
    m_ideal,
    make_instance,
    make_structured,
    outside_D,
    r_ideal,
    structured_hull,
    t_ideal_of_r,
)
from starpull.star_ops import StarOp, star_eval
from strategies import elems, polys, ratfuncs, tagged

X = RatFunc.x_power(1)
TWO = RatFunc.coerce(2)
T_OP = StarOp.t_op("R")
D_OP = StarOp.identity("R")


@pytest.fixture(scope="module")
def prime_p(inst_c):
    return dmod_from_generators([FieldElem(2), FieldElem(1, 1, -5)], inst_c.base)


@pytest.fixture(scope="module")
def prime_pbar(inst_c):
    return dmod_from_generators([FieldElem(2), FieldElem(1, -1, -5)], inst_c.base)


class TestAlpha:
    def test_alpha_of_p(self, inst_c, prime_p):
        image = alpha(prime_p, inst_c)
        witness = invertibility_R(image, T_OP, inst_c)
        assert witness.is_invertible and witness.is_star_invertible
        assert is_principal_R(image, inst_c) is None

    def test_alpha_of_principal(self, inst_c):
        c_d = dmod_from_generators([FieldElem(3, 1, -5)], inst_c.base)
        image = alpha(c_d, inst_c)
        gen = is_principal_R(image, inst_c)
        assert gen is not None
        assert ideal_equal(RawIdeal([gen]), image, inst_c)

    def test_alpha_of_p_squared_is_two_r(self, inst_c, prime_p):
        p2 = dmod_arith(prime_p, prime_p, "mul")
        image = alpha(p2, inst_c)
        gen = is_principal_R(image, inst_c)
        assert gen is not None
        assert ideal_equal(image, ideal_arith(RawIdeal([TWO]), r_ideal(inst_c),
                                              "mul", inst_c), inst_c)

    def test_alpha_rejects_a_module_over_another_domain(self, inst_c):
        with pytest.raises(DomainError, match="mixed base domains"):
            alpha(BaseDomain.quadratic_order(-1).unit_module(), inst_c)

    def test_alpha_rejects_non_invertible(self, inst_d):
        bad = dmod_from_generators([FieldElem(1), FieldElem(0, 1, -1)], inst_d.base)
        with pytest.raises(ClassGroupError):
            alpha(bad, inst_d)


class TestBeta:
    def test_beta_of_alpha_is_trivial(self, inst_c, prime_p):
        assert (extend_to_T(alpha(prime_p, inst_c), inst_c)
                == extend_to_T(RawIdeal([RatFunc.one()]), inst_c))

    def test_beta_of_principal(self, inst_a):
        h = structured_hull(RawIdeal([X]), inst_a)
        assert extend_to_T(h, inst_a) == extend_to_T(RawIdeal([X]), inst_a)

    def test_beta_strips_the_dpart(self, inst_c, prime_p):
        scaled = ideal_arith(RawIdeal([X * X]), alpha(prime_p, inst_c), "mul", inst_c)
        assert extend_to_T(scaled, inst_c) == extend_to_T(RawIdeal([X * X]), inst_c)


class TestGamma:
    def test_gamma_alpha_identity_on_p(self, inst_c, prime_p):
        assert gamma(alpha(prime_p, inst_c), inst_c) == class_label_D(prime_p)

    def test_gamma_of_principal_is_identity(self, inst_c):
        z_r = structured_hull(RawIdeal([RatFunc(Poly([7]))]), inst_c)
        assert gamma(z_r, inst_c).is_identity()

    def test_gamma_with_scaled_dpart(self, inst_c, prime_p):
        three_ok = dmod_from_generators([FieldElem(3), FieldElem(3) * inst_c.base.omega()],
                                        inst_c.base)
        prod = dmod_arith(prime_p, three_ok, "mul")
        scaled = ideal_arith(RawIdeal([X]), alpha(prod, inst_c), "mul", inst_c)
        assert gamma(scaled, inst_c) == class_label_D(prime_p)

    def test_gamma_is_trivial_off_square_plus(self, inst_d, inst_e):
        # Z and Q have one class each, so every label on D and E is [0]
        for inst in (inst_d, inst_e):
            assert str(gamma(structured_hull(RawIdeal([TWO, X]), inst), inst)) == "[0]"

    def test_gamma_rejects_t_module(self, inst_c):
        with pytest.raises(ClassGroupError):
            gamma(t_ideal_of_r(inst_c), inst_c)

    def test_gamma_alpha_identity_on_samples(self, inst_c):
        rng = random.Random(21)
        count = 0
        while count < 10:
            gens = [FieldElem(Fraction(rng.randint(-4, 4), rng.randint(1, 2)),
                              Fraction(rng.randint(-2, 2)), -5)
                    for _ in range(rng.randint(1, 2))]
            j = dmod_from_generators(gens, inst_c.base)
            if j.is_zero():
                continue
            count += 1
            expected = class_label_D(j)
            assert gamma(alpha(j, inst_c), inst_c) == expected


class TestPrincipality:
    def test_inverse_image_of_two_z(self, inst_a):
        s = inverse_image_R(dmod_from_generators([2], inst_a.base), inst_a)
        assert is_principal_R(s, inst_a) == TWO

    def test_p_image_not_principal(self, inst_c, prime_p):
        assert is_principal_R(alpha(prime_p, inst_c), inst_c) is None

    def test_m_not_principal(self, inst_a):
        assert is_principal_R(m_ideal(inst_a), inst_a) is None

    def test_t_not_principal(self, inst_a):
        assert is_principal_R(t_ideal_of_r(inst_a), inst_a) is None


class TestInvertibility:
    def test_p_image_certificates(self, inst_c, prime_p):
        witness = invertibility_R(alpha(prime_p, inst_c), T_OP, inst_c)
        assert witness.certificate == "invertible"
        assert witness.is_star_invertible

    def test_gaussian_pair_not_invertible(self, inst_d):
        raw = RawIdeal([RatFunc.one(), RatFunc(Poly([FieldElem(0, 1, -1)]))])
        witness = invertibility_R(raw, T_OP, inst_d)
        assert witness.certificate == "none"
        assert ideal_equal(witness.closed, m_ideal(inst_d), inst_d)

    def test_principal_certificate(self, inst_a):
        h = structured_hull(RawIdeal([X * TWO]), inst_a)
        witness = invertibility_R(h, T_OP, inst_a)
        assert witness.certificate == "principal"

    def test_w_routes_through_t(self, inst_c, prime_p):
        witness = invertibility_R(alpha(prime_p, inst_c), StarOp.w_op("R"), inst_c)
        assert witness.is_star_invertible


class TestClassEquivalence:
    def test_p_equivalent_to_conjugate(self, inst_c, prime_p, prime_pbar):
        assert class_equivalent_R(alpha(prime_p, inst_c), alpha(prime_pbar, inst_c),
                                  T_OP, inst_c)

    def test_p_not_equivalent_to_r(self, inst_c, prime_p):
        assert not class_equivalent_R(alpha(prime_p, inst_c), r_ideal(inst_c),
                                      T_OP, inst_c)

    def test_scaling_equivalence(self, inst_c, prime_p):
        h = alpha(prime_p, inst_c)
        z_h = ideal_arith(RawIdeal([RatFunc(Poly([1, 2]))]), h, "mul", inst_c)
        assert class_equivalent_R(z_h, h, T_OP, inst_c)

    def test_rejects_non_invertible(self, inst_d):
        raw = RawIdeal([RatFunc.one(), RatFunc(Poly([FieldElem(0, 1, -1)]))])
        with pytest.raises(ClassGroupError):
            class_equivalent_R(raw, r_ideal(inst_d), T_OP, inst_d)

    def test_respects_products(self, inst_c, prime_p, prime_pbar):
        h1, h2 = alpha(prime_p, inst_c), alpha(prime_pbar, inst_c)
        prod = ideal_arith(h1, h2, "mul", inst_c)
        # product of the two order-two classes is trivial
        assert is_principal_R(star_eval(T_OP, prod, inst_c), inst_c) is not None


class TestClassLabelR:
    def test_alpha_injective_on_classes(self, inst_c, prime_p):
        unit = inst_c.base.unit_module()
        assert not class_equivalent_R(alpha(unit, inst_c), alpha(prime_p, inst_c),
                                      T_OP, inst_c)


def _closed_samples(inst):
    """Closed ideals of the kinds the class suites revisit: t-closures of
    sampled raw ideals and of the corner ideals, and R, M, T."""
    raws = sample_ideals(inst, SampleParams(seed=5, count=10))
    return [star_eval(T_OP, raw, inst) for raw in raws] + [r_ideal(inst), m_ideal(inst),
                                                      t_ideal_of_r(inst)]


def _verdicts(witness):
    return witness.closed, witness.is_invertible, witness.is_star_invertible, witness.certificate


class TestClosedFormMemo:
    """colon_R and invertibility_R remember closed forms, and only
    values that a fresh computation would give."""

    @pytest.mark.parametrize("name", instance_catalog())
    def test_a_hit_equals_a_fresh_computation(self, name, reset_memos, monkeypatch):
        inst = make_instance(name)
        ideals = _closed_samples(inst)
        ops = (T_OP, D_OP)
        # calls against the memo as earlier tests left it, then against empty tables
        memo_colons = [colon_R(s, inst) for s in ideals]
        memo = [_verdicts(invertibility_R(s, op, inst)) for s in ideals for op in ops]
        reset_memos()
        assert [colon_R(s, inst) for s in ideals] == memo_colons
        assert [_verdicts(invertibility_R(s, op, inst)) for s in ideals for op in ops] == memo
        certified = []
        monkeypatch.setattr(pullback, "colon_generators",
                            lambda *args, f=pullback.colon_generators: certified.append(1) or f(*args))
        # second calls are hits: nothing is certified again, and the
        # stored objects come back
        assert [colon_R(s, inst) for s in ideals] == memo_colons
        assert [_verdicts(invertibility_R(s, op, inst)) for s in ideals for op in ops] == memo
        assert not certified
        for s in ideals:
            assert colon_R(s, inst) is pullback._COLON_R_CACHE[(s, inst)]
            assert invertibility_R(s, T_OP, inst) is class_groups._INVERTIBILITY_CACHE[(s, T_OP, inst)]
        # raw ideals are computed fresh and stay out of both tables
        raw = RawIdeal([TWO, X])
        colon_R(raw, inst)
        invertibility_R(raw, T_OP, inst)
        assert certified
        assert all(isinstance(key[0], StructuredIdeal)
                   for table in (pullback._COLON_R_CACHE, class_groups._INVERTIBILITY_CACHE)
                   for key in table)

    @pytest.mark.parametrize("name", instance_catalog())
    def test_a_failed_certification_stores_nothing(self, name, empty_memos, monkeypatch):
        inst = make_instance(name)
        unit = inst.base.unit_module()
        wrong = dmod_scale(outside_D(inst), unit)
        true_colon = pullback.dmod_colon
        monkeypatch.setattr(pullback, "dmod_colon", lambda j: wrong if j == unit else true_colon(j))
        for call in (lambda: colon_R(r_ideal(inst), inst),
                     lambda: invertibility_R(r_ideal(inst), T_OP, inst)):
            with pytest.raises(AssertionError):
                call()
        assert pullback._COLON_R_CACHE == {} and class_groups._INVERTIBILITY_CACHE == {}

    def test_tables_stop_at_the_cap(self, inst_c, empty_memos, monkeypatch):
        monkeypatch.setattr(base_domain, "_MEMO_CAP", 3)
        ideals = _closed_samples(inst_c)
        witnesses = [_verdicts(invertibility_R(s, T_OP, inst_c)) for s in ideals]
        assert len(pullback._COLON_R_CACHE) == 3
        assert len(class_groups._INVERTIBILITY_CACHE) == 3
        # past the cap every call is computed again, with the same result
        assert [_verdicts(invertibility_R(s, T_OP, inst_c)) for s in ideals] == witnesses
        assert len(pullback._COLON_R_CACHE) == len(class_groups._INVERTIBILITY_CACHE) == 3


def _dparts(inst):
    """Lattice D-parts spanned by one or two nonzero scalars, and ZERO and FULL."""
    lattices = st.lists(elems(inst.k_disc).filter(bool), min_size=1, max_size=2).map(
        lambda gens: dmod_from_generators(gens, inst.base))
    return st.one_of(lattices, st.just(ExtDModule.zero(inst.base)),
                     st.just(ExtDModule.full(inst.base)))


def _units(inst):
    """Nonzero units: canonical rational functions, non-monic ones and
    poles at zero included, and powers X^e."""
    return st.one_of(ratfuncs(inst.k_disc).filter(bool),
                     st.integers(-3, 3).map(RatFunc.x_power))


class TestStructuredAndPrincipalMemo:
    """make_structured builds a closed form once per input and is_principal_R
    answers once per closed form; a hit is what a cold call gives."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_memo_hits_equal_cold_calls(self, data):
        inst = make_instance(data.draw(st.sampled_from(instance_catalog())))
        unit, dpart = data.draw(_units(inst)), data.draw(_dparts(inst))
        with pytest.MonkeyPatch.context() as mp:
            def cold(call):
                mp.setattr(pullback, "_STRUCTURED_CACHE", {})
                mp.setattr(class_groups, "_PRINCIPAL_CACHE", {})
                return call()
            s = cold(lambda: make_structured(unit, dpart, inst))
            gen = is_principal_R(s, inst)
            # hits return the stored objects, a None answer included
            assert make_structured(unit, dpart, inst) is s
            assert pullback._STRUCTURED_CACHE[(unit, dpart, inst)] is s
            assert class_groups._PRINCIPAL_CACHE[(s, inst)] == (gen,)
            hit = is_principal_R(s, inst)
            assert hit is None if gen is None else hit == gen
            # and equal what empty tables compute again
            assert cold(lambda: make_structured(unit, dpart, inst)) == s
            assert cold(lambda: is_principal_R(s, inst)) == gen
            other = next(base for base in (make_instance(n).base for n in instance_catalog())
                         if base != inst.base)
            for _ in range(2):
                with pytest.raises(PullbackError):
                    make_structured(RatFunc.zero(), dpart, inst)
                with pytest.raises(DomainError):
                    make_structured(unit, other.unit_module(), inst)

    def test_split_exact_builds_and_searches_once(self, inst_c, empty_memos, monkeypatch):
        # each distinct input of make_structured is normalized once, and each
        # closed form given to is_principal_R is searched once
        normalized, searched = [], []
        normalize, search = inst_c.t.normalize, base_domain._cyclic_generator
        monkeypatch.setattr(inst_c.t, "normalize", lambda u: normalized.append(u) or normalize(u))
        monkeypatch.setattr(base_domain, "_cyclic_generator",
                            lambda n: searched.append(n) or search(n))
        report = run_suite("split-exact", inst_c, SampleParams(seed=7, count=20))
        assert report.n_samples == 20 and not report.violations
        assert normalized and len(normalized) == len(pullback._STRUCTURED_CACHE)
        assert searched and len(searched) == len(class_groups._PRINCIPAL_CACHE)


class TestCancellation:
    """A numerator that is a constant multiple of the other factor's
    denominator cancels with no gcd, to the constructor's result."""

    @settings(max_examples=150, deadline=None)
    @given(tagged(ratfuncs))
    def test_unit_times_inverse_takes_no_gcd(self, du):
        _, u = du
        assume(not u.is_constant() and not u.is_zero())
        inv = u.inv()
        with pytest.MonkeyPatch.context() as mp:
            gcds = []
            mp.setattr(kernel, "poly_gcd", lambda f, g: gcds.append(1) or poly_gcd(f, g))
            assert (u * inv).is_one() and (inv * u).is_one() and (u / u).is_one()
        assert not gcds

    @settings(max_examples=150, deadline=None)
    @given(tagged(lambda d: st.tuples(ratfuncs(d), polys(d), elems(d))))
    def test_shared_factors_match_the_constructor(self, dv):
        _, (x, n, c) = dv
        assume(not x.num.is_constant() and not n.is_zero() and not c.is_zero())
        scaled = Poly.const(c)
        for y in (RatFunc(n, x.num), RatFunc(x.den * scaled, x.num * n), RatFunc(scaled, x.num)):
            expected = RatFunc(x.num * y.num, x.den * y.den)
            assert x * y == expected and y * x == expected
