"""D-side module calculus: lattices, colon, closure, class labels."""

import functools
import itertools
import random
from collections import Counter
from fractions import Fraction
from math import isqrt, lcm

import pytest
from hypothesis import given, settings, strategies as st

from starpull import base_domain, harness
from starpull.base_domain import (
    BaseDomain,
    ClassLabel,
    DomainError,
    ExtDModule,
    _compose,
    _cyclic_generator,
    _form_of_module,
    _ideal_of_form,
    _principal_form,
    _reduced_forms,
    _relative_norm,
    class_label_D,
    dmod_arith,
    dmod_colon,
    dmod_from_generators,
    dmod_intersect,
    dmod_predicates,
    dmod_scale,
    dmod_v,
)
from starpull.harness import SampleParams, sample_dmods
from starpull.kernel import FieldElem, _is_squarefree
from starpull.pullback import instance_catalog, make_instance
from starpull.star_ops import StarOp

import reference_membership as former


Z = BaseDomain.integers()
OK5 = BaseDomain.quadratic_order(-5)
ZI = BaseDomain.integers(-1)
QF = BaseDomain.rational_field(-1)


def fe(x, y=0, d=1):
    return FieldElem(Fraction(x), Fraction(y), d)


W = fe(0, 1, -5)   # sqrt(-5)
I = fe(0, 1, -1)   # i

P = dmod_from_generators([fe(2), fe(1) + W], OK5)
PBAR = dmod_from_generators([fe(2), fe(1) - W], OK5)


class TestFromGenerators:
    def test_rank_one_over_z(self):
        m = dmod_from_generators([fe(2), fe(0)], Z)
        assert m.den == 1 and m.rows == ((2,),)

    def test_rank_two_over_z_in_gaussian(self):
        m = dmod_from_generators([fe(1), I], ZI)
        assert m.rows == ((1, 0), (0, 1))

    def test_prime_above_two_normal_form(self):
        # independent reduction: P = 2Z + (1+w)Z = {a + bw : a == b mod 2}
        for a in range(-4, 5):
            for b in range(-4, 5):
                inside = (a - b) % 2 == 0
                assert P.contains(*fe(a, b, -5)._abnd) == inside
        assert P.den == 1 and P.rows == ((1, 1), (0, 2))

    def test_canonical_across_generating_sets(self):
        m1 = dmod_from_generators([fe(2), fe(1) + W], OK5)
        m2 = dmod_from_generators([fe(1) + W, fe(2), fe(3) + W, fe(2) * W], OK5)
        assert m1 == m2

    def test_zero_generators_give_zero(self):
        assert dmod_from_generators([fe(0)], Z).is_zero()
        assert dmod_from_generators([], Z).is_zero()

    def test_field_spans(self):
        assert dmod_from_generators([fe(1), I], QF).is_full()
        line = dmod_from_generators([fe(2, 2, -1)], QF)
        assert line.rows == ((1, 1),)


class TestArith:
    def test_p_times_conjugate_is_two(self):
        two_ok = dmod_from_generators([fe(2), fe(2) * OK5.omega()], OK5)
        assert dmod_arith(P, PBAR, "mul") == two_ok

    def test_add_zero_identity(self):
        assert dmod_arith(P, ExtDModule.zero(OK5), "add") == P

    def test_principal_product_over_z(self):
        two, three = dmod_from_generators([fe(2)], Z), dmod_from_generators([fe(3)], Z)
        assert dmod_arith(two, three, "mul") == dmod_from_generators([fe(6)], Z)

    def test_mul_sentinels(self):
        assert dmod_arith(P, ExtDModule.zero(OK5), "mul").is_zero()
        assert dmod_arith(P, ExtDModule.full(OK5), "mul").is_full()

    def test_mixed_domains_rejected(self):
        with pytest.raises(DomainError):
            dmod_arith(P, dmod_from_generators([fe(1)], Z), "add")


class TestColon:
    def test_colon_of_two_z(self):
        m = dmod_from_generators([fe(2)], Z)
        assert dmod_colon(m) == dmod_from_generators([fe(Fraction(1, 2))], Z)

    def test_colon_of_gaussian_lattice_is_zero(self):
        # y*1 in Z and y*i in Z force y = 0
        m = dmod_from_generators([fe(1), I], ZI)
        assert dmod_colon(m).is_zero()

    def test_colon_of_p(self):
        pinv = dmod_colon(P)
        # (2, 1-w)/2: contains 1 and (1-w)/2, and P * P^-1 = O_K
        assert pinv.contains(*fe(1)._abnd)
        assert pinv.contains(*FieldElem(Fraction(1, 2), Fraction(-1, 2), -5)._abnd)
        assert dmod_arith(P, pinv, "mul") == OK5.unit_module()

    def test_colon_sentinels(self):
        assert dmod_colon(ExtDModule.zero(Z)).is_full()
        assert dmod_colon(ExtDModule.full(Z)).is_zero()

    def test_field_line_colon(self):
        line = dmod_from_generators([fe(1, 1, -1)], QF)
        inv = dmod_colon(line)
        prod = dmod_arith(line, inv, "mul")
        assert prod == QF.unit_module()


class TestClosure:
    def test_principal_is_divisorial(self):
        m = dmod_from_generators([fe(2)], Z)
        assert dmod_v(m) == m

    def test_dedekind_ideals_divisorial(self):
        assert dmod_v(P) == P

    def test_v_of_zero(self):
        assert dmod_v(ExtDModule.zero(OK5)).is_zero()

    def test_v_closure_properties_on_samples(self):
        rng = random.Random(5)
        mods = []
        for _ in range(25):
            gens = [fe(rng.randint(-4, 4), rng.randint(-2, 2) if rng.random() < 0.5 else 0, -5)
                    for _ in range(rng.randint(1, 3))]
            m = dmod_from_generators(gens, OK5)
            if not m.is_zero():
                mods.append(m)
        for m in mods:
            closed = dmod_v(m)
            assert all(closed.contains(*b._abnd) for b in m.basis_elements())
            assert dmod_v(closed) == closed
        for m, n in zip(mods, mods[1:]):
            big = dmod_arith(m, n, "add")
            assert all(dmod_v(big).contains(*b._abnd) for b in dmod_v(m).basis_elements())

    def test_nondivisorial_module_over_z(self):
        m = dmod_from_generators([fe(1), I], ZI)
        assert dmod_v(m).is_full()


def _v_invertible(n):
    """Reference: divisorial invertibility, (n*(D : n))^v == D."""
    return dmod_v(dmod_arith(n, dmod_colon(n), "mul")) == n.domain.unit_module()


class TestPredicates:
    def test_p_invertible_not_cyclic(self):
        preds = dmod_predicates(P)
        assert preds.is_invertible and _v_invertible(P)
        assert preds.is_cyclic is None
        # independent short-vector check: no element of norm 2 in Z[sqrt(-5)]
        assert all(a * a + 5 * b * b != 2 for a in range(-2, 3) for b in range(-1, 2))

    def test_cyclic_module(self):
        m = dmod_from_generators([fe(2)], Z)
        assert dmod_predicates(m).is_cyclic == fe(2)

    def test_p_squared_cyclic(self):
        p2 = dmod_arith(P, P, "mul")
        gen = dmod_predicates(p2).is_cyclic
        assert gen is not None
        assert dmod_from_generators([gen, gen * OK5.omega()], OK5) == p2

    def test_gaussian_lattice_not_invertible(self):
        m = dmod_from_generators([fe(1), I], ZI)
        preds = dmod_predicates(m)
        assert not preds.is_invertible and not _v_invertible(m)
        assert preds.is_cyclic is None

    def test_membership_and_equal(self):
        assert P.contains(*fe(2)._abnd)
        assert not P.contains(*fe(1)._abnd)
        assert P == dmod_from_generators([fe(2), fe(1) + W], OK5)

    def test_invertibility_group_laws(self):
        rng = random.Random(11)
        invertibles = [P, PBAR, dmod_arith(P, P, "mul"),
                       dmod_from_generators([fe(3), fe(1) + W], OK5)]
        for m in invertibles:
            preds = dmod_predicates(m)
            assert preds.is_invertible
            inv = dmod_colon(m)
            assert dmod_predicates(inv).is_invertible
            assert dmod_predicates(dmod_v(m)).is_invertible
        for _ in range(6):
            m1, m2 = rng.choice(invertibles), rng.choice(invertibles)
            assert dmod_predicates(dmod_arith(m1, m2, "mul")).is_invertible

    def test_invertible_is_v_invertible(self):
        # every fractional ideal of Z, Q or a quadratic order is divisorial
        # (Bass, Math. Z. 82, 1963), so one test decides both; a Z-module
        # on D = Z with a surd part is no D-ideal and fails both
        verdicts = Counter()
        for name in instance_catalog():
            inst = make_instance(name)
            rng = random.Random(3)
            mods = [m for seed in range(10)
                    for m in sample_dmods(inst, SampleParams(seed=seed, count=12))]
            for _ in range(60):
                gens = [harness._sample_scalar(rng, inst, 6, nonzero=True)
                        for _ in range(rng.randint(1, 3))]
                mods.append(dmod_from_generators(gens, inst.base))
            for n in mods:
                verdict = dmod_predicates(n).is_invertible
                assert verdict == _v_invertible(n), (name, n)
                verdicts[verdict] += 1
        assert verdicts[True] and verdicts[False], verdicts


class TestProductMemo:
    """dmod_predicates decides both predicates of a module once, forming
    n*(D : n) only when the module has no generator, and keeps the record
    in base_domain._PREDICATES_CACHE."""

    @staticmethod
    def _modules(inst):
        return (sample_dmods(inst, SampleParams(seed=5, count=12))
                + inst.base.class_representatives())

    @pytest.mark.parametrize("name", instance_catalog())
    def test_a_hit_equals_a_fresh_product(self, name, monkeypatch):
        monkeypatch.setattr(base_domain, "_PREDICATES_CACHE", {})
        inst = make_instance(name)
        factors = []
        arith = base_domain.dmod_arith
        monkeypatch.setattr(base_domain, "dmod_arith",
                            lambda n1, n2, op: factors.append(n1) or arith(n1, n2, op))
        for n in dict.fromkeys(self._modules(inst)):
            fresh = dmod_arith(n, dmod_colon(n), "mul")
            unit = n.domain.unit_module()
            gen = _cyclic_generator(n)
            preds = dmod_predicates(n)
            assert preds.is_invertible == (fresh == unit) == (dmod_v(fresh) == unit)
            assert preds.is_cyclic == gen
            assert base_domain._PREDICATES_CACHE[n] is preds
            # a second call returns the stored record
            assert dmod_predicates(n) is preds
            # a module with a generator forms no product
            assert (n in factors) == (gen is None)
            factors.clear()

    def test_split_exact_forms_each_product_once(self, inst_c, empty_memos, monkeypatch):
        # the suite reads is_invertible of the same modules over and over; re-forming the product on every read made
        # 209 products of 23 modules in this report
        factors = []
        arith = base_domain.dmod_arith
        monkeypatch.setattr(base_domain, "dmod_arith",
                            lambda n1, n2, op: factors.append(n1) or arith(n1, n2, op))
        report = harness.run_suite("split-exact", inst_c, SampleParams(seed=7, count=30),
                                   StarOp.t_op("R"))
        assert report.verdict == "pass"
        assert factors
        assert max(Counter(factors).values()) == 1

    def test_table_stops_at_the_cap(self, inst_c, empty_memos, monkeypatch):
        monkeypatch.setattr(base_domain, "_MEMO_CAP", 3)
        mods = self._modules(inst_c)
        verdicts = [(dmod_predicates(n).is_invertible, dmod_predicates(n).is_cyclic)
                    for n in mods]
        assert len(base_domain._PREDICATES_CACHE) == 3
        # past the cap every record is decided again, with the same verdicts
        assert [(dmod_predicates(n).is_invertible, dmod_predicates(n).is_cyclic)
                for n in mods] == verdicts
        assert len(base_domain._PREDICATES_CACHE) == 3


def _enumerated_generator(n, dom):
    """Reference: the norm-bounded search that `_cyclic_generator` replaced.

    It walks the grid (1/2den)Z + (1/2den)Z*sqrt(d) outward from 0 (surd
    coordinate q >= 0 first, then |p|, then p > 0) and returns the first
    point of n whose norm is [D : n].
    """
    if n.rank() != 2:
        return None
    target = Fraction(_relative_norm(n), n.den ** 2)
    d = dom.k_disc
    den2 = 2 * n.den
    bound_sq = target * den2 * den2
    pmax = isqrt(int(bound_sq)) + 1
    qmax = isqrt(int(bound_sq / (-d))) + 1
    for q in range(0, qmax + 1):
        for p in range(0, pmax + 1):
            for sp in ((p,) if p == 0 else (p, -p)):
                if sp == 0 and q == 0:
                    continue
                x = FieldElem(Fraction(sp, den2), Fraction(q, den2), d)
                if x.norm() == target and n.contains(*x._abnd):
                    return x
    return None


# d = -1 and -3 have 4 and 6 units; the others have class numbers 2, 2, 2, 3,
# and d = -5 is the base of instance C
ORDERS = {d: BaseDomain.quadratic_order(d) for d in (-5, -1, -3, -6, -15, -23)}


def _module(dom, gens):
    d = dom.k_disc
    return dmod_from_generators([FieldElem(x, y if d != 1 else 0, d) for x, y in gens], dom)


def _modules(coord, domains=tuple(ORDERS[d] for d in sorted(ORDERS))):
    """(domain, module) for one to three generators with coordinates from coord."""
    gens = st.lists(st.tuples(coord, coord), min_size=1, max_size=3)
    return st.tuples(st.sampled_from(domains), gens) \
        .map(lambda a: (a[0], _module(*a))).filter(lambda dm: dm[1].is_lattice())


_SMALL = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


# every domain kind: Z in Q and in Q(i), Q in Q(i), and the quadratic orders
COLON_DOMAINS = (Z, ZI, QF) + tuple(ORDERS[d] for d in sorted(ORDERS))


class TestColonDefinition:
    @given(_modules(_SMALL, COLON_DOMAINS))
    @settings(max_examples=300, deadline=None)
    def test_product_with_colon_is_d(self, dm):
        # N * C == D forces C == (D : N): C lies in (D : N), and
        # (D : N) == (D : N) * N * C lies in D * C == C
        dom, n = dm
        c = dmod_colon(n)
        if dom == ZI and n.rank() == 2:
            # y*b1 and y*b2 rational for Q-independent b1, b2 force y == 0
            assert c.is_zero()
        else:
            assert dmod_arith(n, c, "mul") == dom.unit_module()


def _module_pairs(coord, domains):
    """(domain, A, B): two modules of one to three generators over one domain."""
    gens = st.lists(st.tuples(coord, coord), min_size=1, max_size=3)
    return st.tuples(st.sampled_from(domains), gens, gens) \
        .map(lambda a: (a[0], _module(a[0], a[1]), _module(a[0], a[2]))) \
        .filter(lambda dab: dab[1].is_lattice() and dab[2].is_lattice())


class TestIntersectDefinition:
    @given(_module_pairs(_SMALL, COLON_DOMAINS))
    @settings(max_examples=300, deadline=None)
    def test_meet_is_the_set_intersection(self, dab):
        dom, a, b = dab
        meet = dmod_intersect(a, b)
        if meet.is_lattice():
            for x in meet.basis_elements():
                assert a.contains(*x._abnd) and b.contains(*x._abnd)
        # every small combination of A's basis that lies in B lies in the meet
        basis = a.basis_elements()
        for coeffs in itertools.product(range(-4, 5), repeat=len(basis)):
            x = sum((FieldElem(c) * e for c, e in zip(coeffs, basis)), FieldElem(0))
            if b.contains(*x._abnd):
                assert meet.contains(*x._abnd)


class TestCyclicGenerator:
    @given(_modules(_SMALL))
    @settings(max_examples=150, deadline=None)
    def test_matches_norm_bounded_search(self, dm):
        dom, n = dm
        # the same element, sign and surd tag included, or None from both
        def coords(x):
            return None if x is None else (x.x, x.y, x.d)

        assert coords(_cyclic_generator(n)) == coords(_enumerated_generator(n, dom))

    @given(_modules(st.integers(-10**6, 10**6)))
    @settings(max_examples=100, deadline=None)
    def test_generator_exactly_on_the_identity_class(self, dm):
        # independent of the reduction: the class label comes from the
        # reduced binary quadratic form of n
        dom, n = dm
        gen = _cyclic_generator(n)
        assert (gen is not None) == class_label_D(n).is_identity()
        if gen is not None:
            assert dmod_from_generators([gen], dom) == n

    def test_unit_tie_break(self):
        # D itself: the generators are the units, and the search meets 1 first
        for d, dom in ORDERS.items():
            assert _cyclic_generator(dom.unit_module()) == fe(1)
        # (1 + i)Z[i] has generators +-(1 + i), +-(1 - i); the first met is 1 + i
        zi = ORDERS[-1]
        assert _cyclic_generator(dmod_from_generators([fe(1, -1, -1)], zi)) == fe(1, 1, -1)


class TestClassLabels:
    def test_presentation_of_disc_minus_twenty(self):
        assert OK5.class_presentation == (2,)

    def test_p_generates_the_class_group(self):
        label = class_label_D(P)
        assert label == ClassLabel((1,), (2,))
        assert not label.is_identity()

    def test_principal_is_identity(self):
        two_ok = dmod_from_generators([fe(2), fe(2) * OK5.omega()], OK5)
        assert class_label_D(two_ok).is_identity()

    def test_p_squared_identity(self):
        assert class_label_D(dmod_arith(P, P, "mul")).is_identity()

    def test_label_is_homomorphism(self):
        mods = [P, PBAR, dmod_arith(P, P, "mul"),
                dmod_from_generators([fe(3), fe(1) + W], OK5),
                dmod_from_generators([fe(3), fe(1) - W], OK5)]
        for m1 in mods:
            for m2 in mods:
                lhs = class_label_D(dmod_arith(m1, m2, "mul"))
                assert lhs == class_label_D(m1) + class_label_D(m2)

    def test_scaling_preserves_class(self):
        scaled = dmod_scale(fe(3, 1, -5), P)
        assert class_label_D(scaled) == class_label_D(P)

    def test_non_invertible_rejected(self):
        with pytest.raises(DomainError):
            class_label_D(dmod_from_generators([fe(1), I], ZI))

    def test_integers_trivial(self):
        assert class_label_D(dmod_from_generators([fe(5)], Z)).is_identity()


class TestIntersect:
    def test_lattice_intersection(self):
        a = dmod_from_generators([fe(2)], Z)
        b = dmod_from_generators([fe(3)], Z)
        assert dmod_intersect(a, b) == dmod_from_generators([fe(6)], Z)

    def test_sentinels(self):
        assert dmod_intersect(P, ExtDModule.full(OK5)) == P
        assert dmod_intersect(P, ExtDModule.zero(OK5)).is_zero()

    def test_self_intersection(self):
        assert dmod_intersect(P, P) == P

    @given(st.lists(st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
                    min_size=5, max_size=5), st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_q_lines_match_the_equality_reference(self, coords, same, full):
        # reference: the former field branch, which met two Q-lines by
        # equality; the generic path runs Zassenhaus on their directions
        x1, y1, x2, y2, c = coords
        g1 = FieldElem(x1, y1, -1)
        g2 = g1 * FieldElem(c) if same else FieldElem(x2, y2, -1)
        n1 = dmod_from_generators([g1], QF)
        n2 = ExtDModule.full(QF) if full else dmod_from_generators([g2], QF)
        if n1.is_zero() or n2.is_zero():
            expected = ExtDModule.zero(QF)
        elif n2.is_full():
            expected = n1
        else:
            expected = n1 if n1 == n2 else ExtDModule.zero(QF)
        assert dmod_intersect(n1, n2) == expected
        assert dmod_intersect(n2, n1) == expected


class TestNames:
    # the maximal order is Z[omega], with omega = (1 + sqrt(d))/2 for d = 1 mod 4
    @pytest.mark.parametrize("d, name", [
        (-1, "Z[i]"), (-2, "Z[sqrt(-2)]"), (-3, "Z[1/2 + 1/2*sqrt(-3)]"),
        (-5, "Z[sqrt(-5)]"), (-7, "Z[1/2 + 1/2*sqrt(-7)]")])
    def test_order_is_named_by_its_generator(self, d, name):
        dom = BaseDomain.quadratic_order(d)
        assert str(dom) == name == f"Z[{dom.omega()}]"


class TestClassGroupTables:
    # classical class-group structures of imaginary quadratic fields
    KNOWN = {
        -1: [], -2: [], -3: [], -7: [], -11: [], -19: [], -43: [], -67: [],
        -5: [2], -6: [2], -10: [2], -13: [2], -15: [2], -22: [2], -35: [2],
        -37: [2], -51: [2], -58: [2], -91: [2],
        -23: [3], -31: [3], -59: [3], -83: [3],
        -14: [4], -17: [4],
        -21: [2, 2], -30: [2, 2],
        -47: [5], -79: [5],
        -26: [6], -29: [6], -38: [6], -53: [6], -61: [6],
        -71: [7],
        -65: [2, 4],
    }

    @pytest.mark.parametrize("d", sorted(KNOWN, reverse=True))
    def test_structure_matches_table(self, d):
        dom = BaseDomain.quadratic_order(d)
        assert sorted(dom.class_presentation) == sorted(self.KNOWN[d])

    def test_label_homomorphism_at_class_number_eight(self):
        dom = BaseDomain.quadratic_order(-65)
        ideals = [_ideal_of_form(f, dom) for f in sorted(dom._label_of_form)]
        for m1 in ideals:
            for m2 in ideals[:4]:
                lhs = class_label_D(dmod_arith(m1, m2, "mul"))
                assert lhs == class_label_D(m1) + class_label_D(m2)


def test_desk_scale_bound_enforced():
    # disc = 4 * -50001 = -200004, just past the bound
    with pytest.raises(DomainError):
        BaseDomain.quadratic_order(-50001)


def test_real_quadratic_rejected():
    with pytest.raises(DomainError):
        BaseDomain.quadratic_order(5)


@pytest.mark.parametrize("make", [BaseDomain.integers, BaseDomain.quadratic_order,
                                  BaseDomain.rational_field], ids=lambda m: m.__name__)
@pytest.mark.parametrize("tag", [-4, 0, 12, -18])
def test_tag_that_is_not_squarefree_rejected(make, tag):
    with pytest.raises(DomainError, match="not squarefree"):
        make(tag)


# ---------------------------------------------------------------------------
# independent certification of the class groups
# ---------------------------------------------------------------------------

def _fundamental(bound):
    """(d, D) for each squarefree d < 0 whose discriminant D has |D| <= bound."""
    out = []
    for d in range(-1, -bound - 1, -1):
        disc = d if d % 4 == 1 else 4 * d
        if -disc <= bound and _is_squarefree(d):
            out.append((d, disc))
    return out


# D = -120120 has presentation (8, 2, 2, 2, 2); -199999 is the fundamental
# discriminant of largest |D| inside the desk-scale bound
CERTIFIED = _fundamental(1000) + [(-30030, -120120), (-199999, -199999)]


@functools.cache
def _order(d):
    return BaseDomain.quadratic_order(d)


def _kronecker(disc, a):
    """Kronecker symbol (disc / a) for a >= 1."""
    sign = 1
    while a % 2 == 0:
        if disc % 2 == 0:
            return 0
        a //= 2
        if disc % 8 in (3, 5):
            sign = -sign
    # Jacobi symbol (disc / a) for odd a > 0, by quadratic reciprocity
    top = disc % a
    while top:
        while top % 2 == 0:
            top //= 2
            if a % 8 in (3, 5):
                sign = -sign
        top, a = a, top
        if top % 4 == 3 and a % 4 == 3:
            sign = -sign
        top %= a
    return sign if a == 1 else 0


def _dirichlet_class_number(disc):
    """h(D) = (w / 2|D|) * |sum_{a=1}^{|D|-1} (D/a) * a| for fundamental D < 0."""
    w = {-3: 6, -4: 4}.get(disc, 2)
    total = abs(sum(_kronecker(disc, a) * a for a in range(1, -disc)))
    assert (w * total) % (-2 * disc) == 0
    return w * total // (-2 * disc)


def _prime_divisors(n):
    n, p, out = abs(n), 2, 0
    while p * p <= n:
        if n % p == 0:
            out += 1
            while n % p == 0:
                n //= p
        p += 1
    return out + (n > 1)


def test_class_number_matches_dirichlet_formula():
    assert len(_fundamental(1000)) == 305
    for d, disc in CERTIFIED:
        h = 1
        for n in _order(d).class_presentation:
            h *= n
        assert h == _dirichlet_class_number(disc), disc


def test_two_rank_matches_genus_theory():
    # Gauss: Cl(D)/Cl(D)^2 has 2^(t - 1) elements, t the number of primes dividing D
    for d, disc in CERTIFIED:
        presentation = _order(d).class_presentation
        assert sum(n % 2 == 0 for n in presentation) == _prime_divisors(disc) - 1, disc


def _element_order(g, compose, identity):
    n, cur = 1, g
    while cur != identity:
        cur = compose(cur, g)
        n += 1
    return n


def _power(g, n, compose, identity):
    out, base = identity, g
    while n:
        if n & 1:
            out = compose(out, base)
        base = compose(base, base)
        n >>= 1
    return out


def _cyclic_decomposition(elements, compose, identity):
    """Reference: the recursive coset decomposition that the incremental
    loop in `BaseDomain._load_class_group` replaced.

    Generators (g, order) exhibiting the finite abelian group as a direct
    sum: g is the first element of largest order, and the quotient by
    <g> is decomposed recursively over cosets, whose representatives are
    lifted back so that each generator's order is its order modulo <g>.
    """
    if len(elements) == 1:
        return []
    orders = {g: _element_order(g, compose, identity) for g in elements}
    g = max(sorted(elements), key=lambda e: orders[e])
    e_ord = orders[g]
    cyc = [_power(g, j, compose, identity) for j in range(e_ord)]
    if len(cyc) == len(elements):
        return [(g, e_ord)]
    coset_of = {x: frozenset(compose(x, c) for c in cyc) for x in sorted(elements)}
    cosets = sorted(set(coset_of.values()), key=lambda s: sorted(s))
    rep = {c: min(c) for c in cosets}

    def q_compose(c1, c2):
        return coset_of[compose(rep[c1], rep[c2])]

    sub = _cyclic_decomposition(cosets, q_compose, coset_of[identity])
    lifted = []
    for coset, m in sub:
        x = rep[coset]
        a = cyc.index(_power(x, m, compose, identity))
        assert a % m == 0
        lifted.append((compose(x, _power(g, e_ord - (a // m) % e_ord, compose, identity)), m))
    return [(g, e_ord)] + lifted


def _reference_labels(disc):
    """The presentation and the label table, insertion order included,
    from the reference decomposition with the first exponent varying fastest."""
    ident = _principal_form(disc)
    gens = _cyclic_decomposition(_reduced_forms(disc), _compose, ident)
    presentation = tuple(n for _, n in gens)
    table = {}
    for vec in itertools.product(*(range(n) for n in reversed(presentation))):
        vec = vec[::-1]
        el = ident
        for (g, _), e in zip(gens, vec):
            el = _compose(el, _power(g, e, _compose, ident))
        table[el] = vec
    return presentation, table


def test_decomposition_matches_recursive_reference():
    assert len(_fundamental(400)) == 122
    for d, disc in _fundamental(400):
        dom = _order(d)
        presentation, table = _reference_labels(disc)
        assert dom.class_presentation == presentation, disc
        assert list(dom._label_of_form.items()) == list(table.items()), disc


def test_gauss_composition_matches_ideal_multiplication():
    # every ordered pair: the ideal product is commutative, so each
    # unordered pair's product is the reference for both orders
    for d, _ in _fundamental(400):
        dom = _order(d)
        ideals = {f: _ideal_of_form(f, dom) for f in dom._label_of_form}
        for (f, i), (g, j) in itertools.combinations_with_replacement(ideals.items(), 2):
            product = _form_of_module(dmod_arith(i, j, "mul"))
            assert _compose(f, g) == product == _compose(g, f), (f, g)


def test_presentation_of_disc_minus_120120():
    assert _order(-30030).class_presentation == (8, 2, 2, 2, 2)


# ---------------------------------------------------------------------------
# the integer module layer against a Fraction reference
# ---------------------------------------------------------------------------

def _ref_basis(m):
    """Reference: the basis read off the rows as Fraction coordinates."""
    d = m.domain.k_disc
    return [FieldElem(Fraction(r[0], m.den), Fraction(r[1] if len(r) == 2 else 0, m.den), d)
            for r in m.rows]


def _ref_from_generators(gens, dom):
    """Reference: the Fraction-coordinate construction that the integer
    rows replaced.  Each generator and, over a quadratic order, its
    product with omega contributes its coordinates (x, y); over Q a
    second independent direction gives all of k."""
    elems = [g for g in gens if not g.is_zero()]
    if not elems:
        return ExtDModule.zero(dom)
    if dom.kind == "quadratic_order":
        elems += [g * dom.omega() for g in elems]
    vecs = [[g.x, g.y][: dom.ambient_dim] for g in elems]
    if dom.kind == "field":
        x0, y0 = vecs[0]
        if any(x * y0 != y * x0 for x, y in vecs):
            return ExtDModule.full(dom)
        vecs = vecs[:1]
    den = 1
    for v in vecs:
        for c in v:
            den = lcm(den, c.denominator)
    return ExtDModule.lattice(dom, den, [[int(c * den) for c in v] for v in vecs])


def _ref_contains(m, x):
    """Reference: membership by reduction of Fraction coordinates."""
    dom = m.domain
    if x.is_zero():
        return True
    if x.d not in (1, dom.k_disc):
        return False
    coords = [x.x, x.y][: dom.ambient_dim]
    if dom.kind == "field":
        r = m.rows[0]
        return coords[0] * r[1] == coords[1] * r[0]
    work = [c * m.den for c in coords]
    for row in m.rows:
        j = next(i for i, v in enumerate(row) if v)
        q = work[j] / row[j]
        if q.denominator != 1:
            return False
        work = [w - q * r for w, r in zip(work, row)]
    return not any(work)


# Z in Q and in Q(i), Z[i], Z[sqrt(-5)], Z[(1 + sqrt(-3))/2], and Q in Q(i)
_LAYER_DOMAINS = (Z, ZI, ORDERS[-1], ORDERS[-5], ORDERS[-3], QF)
# denominators up to 12, most of which divide no module's denominator
_COORD = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
_COORDS = st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=3)


def _elems(dom, coords):
    d = dom.k_disc
    return [FieldElem(x, y if d != 1 else 0, d) for x, y in coords]


class TestIntegerLayer:
    @given(st.sampled_from(_LAYER_DOMAINS), _COORDS, _COORDS, st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_reference(self, dom, c1, c2, k):
        g1, g2 = _elems(dom, c1), _elems(dom, c2)
        m1, m2 = dmod_from_generators(g1, dom), dmod_from_generators(g2, dom)
        assert m1 == _ref_from_generators(g1, dom)
        assert m2 == _ref_from_generators(g2, dom)
        if not (m1.is_lattice() and m2.is_lattice()):
            return
        b1, b2 = _ref_basis(m1), _ref_basis(m2)
        assert m1.basis_elements() == b1
        assert dmod_arith(m1, m2, "mul") == _ref_from_generators([x * y for x in b1 for y in b2], dom)
        assert dmod_arith(m1, m2, "add") == _ref_from_generators(b1 + b2, dom)
        if not g2[0].is_zero():
            assert dmod_scale(g2[0], m1) == _ref_from_generators([g2[0] * x for x in b1], dom)
        # the generators of m2, and sums of m1's basis over k, most of
        # them outside m1; an element of another field is never inside
        probes = g2 + [FieldElem(1, 1, -7)]
        for coeffs in itertools.product(range(-2, 3), repeat=len(b1)):
            probes.append(sum((FieldElem(c) * e for c, e in zip(coeffs, b1)), FieldElem(0))
                          / FieldElem(k))
        verdicts = [m1.contains(*x._abnd) for x in probes]
        assert verdicts == [_ref_contains(m1, x) for x in probes]
        if k == 1:
            assert all(verdicts[-5 ** len(b1):])

    @given(st.sampled_from(_LAYER_DOMAINS), _COORDS, _COORDS, st.integers(1, 12), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_contains_reads_unreduced_quadruples(self, dom, c1, c2, k, tag_rationals):
        # each probe as the quadruple (k*a, k*b, k*n, d), a rational one
        # tagged with k's d as a product of values at zero can be, decided
        # by a lattice, a line and both sentinels as the former body
        # decides the reduced scalar
        modules = [dmod_from_generators(_elems(dom, c1), dom),
                   ExtDModule.zero(dom), ExtDModule.full(dom)]
        basis = modules[0].basis_elements() if modules[0].is_lattice() else []
        probes = _elems(dom, c2) + basis + [x / FieldElem(k) for x in basis]
        probes += [FieldElem(0), FieldElem(1, 1, -7)]
        for m in modules:
            for x in probes:
                a, b, n, d = x._abnd
                if not b and tag_rationals:
                    d = dom.k_disc
                assert m.contains(k * a, k * b, k * n, d) == former.contains(m, x), (m, x, k)


# ---------------------------------------------------------------------------
# D read from its discriminant and unit module, against the d mod 4 formulas
# ---------------------------------------------------------------------------

def _ref_omega_generation(gens, dom):
    """Reference: the generators and their multiples by omega, which is
    (1 + sqrt(d))/2 when d = 1 mod 4 and sqrt(d) otherwise, as integer rows."""
    d = dom.k_disc
    vecs = [g._abnd[:3] for g in gens if not g.is_zero()]
    if not vecs:
        return ExtDModule.zero(dom)
    if d % 4 == 1:
        vecs += [(a + d * b, a + b, 2 * n) for a, b, n in vecs]
    else:
        vecs += [(d * b, a, n) for a, b, n in vecs]
    den = lcm(*(n for _, _, n in vecs))
    return ExtDModule.lattice(dom, den, [[a * (den // n), b * (den // n)] for a, b, n in vecs])


def _ref_relative_norm(n):
    """Reference: the Hermite pivots over the covolume of D, 1/2 or 1."""
    (p, _), (_, q) = n.rows
    return 2 * p * q if n.domain.k_disc % 4 == 1 else p * q


def _ref_ideal_of_form(form, dom):
    """Reference: the rows of a*Z + ((b + sqrt(disc))/2)*Z by d mod 4."""
    a, b, _ = form
    if dom.k_disc % 4 == 1:
        return ExtDModule.lattice(dom, 2, [[2 * a, 0], [b, 1]])
    return ExtDModule.lattice(dom, 1, [[a, 0], [b // 2, 1]])


def test_order_shape_matches_d_mod_4_references():
    rng = random.Random(13)
    tags = [d for d in range(-1, -1001, -1) if _is_squarefree(d)]
    assert len(tags) == 608
    for d in tags:
        dom = _order(d)
        assert dom.omega() == (fe(Fraction(1, 2), Fraction(1, 2), d) if d % 4 == 1
                               else fe(0, 1, d)), d
        assert dom.unit_module() == _ref_omega_generation([fe(1)], dom), d
        for form in dom._label_of_form:
            ideal = _ideal_of_form(form, dom)
            assert ideal == _ref_ideal_of_form(form, dom), (d, form)
            assert _relative_norm(ideal) == _ref_relative_norm(ideal), (d, form)
        for _ in range(4):
            gens = [fe(Fraction(rng.randint(-40, 40), rng.randint(1, 12)),
                       Fraction(rng.randint(-40, 40), rng.randint(1, 12)), d)
                    for _ in range(rng.randint(1, 3))]
            module = dmod_from_generators(gens, dom)
            assert module == _ref_omega_generation(gens, dom), (d, gens)
            if module.rank() == 2:
                assert _relative_norm(module) == _ref_relative_norm(module), (d, gens)
