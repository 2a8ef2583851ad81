"""Star-operation combinators: evaluation, meets, and the order and axioms
decided by the star-laws checks of the harness."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from starpull.base_domain import (
    BaseDomain,
    DomainError,
    ExtDModule,
    dmod_from_generators,
    dmod_intersect,
    dmod_v,
)
from starpull import harness
from starpull.harness import Report, SampleParams, sample_dmods
from starpull.kernel import FieldElem, Poly, RatFunc
from starpull.pullback import (
    RawIdeal,
    as_structured,
    contains_ideal,
    extend_to_T,
    ideal_equal,
    inverse_image_R,
    m_ideal,
    make_instance,
    make_structured,
    r_ideal,
    structured_hull,
    t_ideal_of_r,
)
from starpull.star_ops import (
    IMPLEMENTED_R_OPS,
    StarEvalError,
    StarOp,
    class_resolve,
    is_star_kind,
    read_op,
    star_eval,
    star_meet,
)

X = RatFunc.x_power(1)
TWO = RatFunc.coerce(2)

D_R = StarOp.identity("R")
V_R = StarOp.divisorial("R")
T_R = StarOp.t_op("R")
D_D = StarOp.identity("D")
V_D = StarOp.divisorial("D")
D_T = StarOp.identity("T")
V_T = StarOp.divisorial("T")


def failed_checks(check_fn, inst, op, **values):
    """The names of the checks that a registered check function fails on values."""
    rep = Report("star-laws", inst.name, SampleParams())
    harness._decide(rep, check_fn, inst, op, **values)
    return [v["check"] for v in rep.violations]


def closure_laws_failed(inst, op, samples, scalars):
    """The closure laws of op on each sample, against the next one, and for each scalar."""
    failed = []
    for ideal, other in zip(samples, samples[1:] + samples[:1]):
        failed += failed_checks(harness._closure_laws, inst, op, ideal=ideal, other=other)
        for z in scalars:
            failed += failed_checks(harness._scalar_laws, inst, op, ideal=ideal, scalar=z)
    return failed


def gaussian_pair(inst_d):
    return RawIdeal([RatFunc.one(), RatFunc(Poly([FieldElem(0, 1, -1)]))])


def sample_raws(inst, seed, n):
    rng = random.Random(seed)
    out = [RawIdeal([TWO, X]), RawIdeal([X])]
    while len(out) < n:
        gens = []
        for _ in range(rng.randint(1, 3)):
            coeffs = [FieldElem(Fraction(rng.randint(-4, 4), rng.randint(1, 2)),
                                Fraction(rng.randint(-2, 2)) if inst.k_disc != 1 and rng.random() < 0.4 else 0,
                                inst.k_disc if inst.k_disc != 1 else 1)
                      for _ in range(rng.randint(1, 3))]
            p = Poly(coeffs)
            if not p.is_zero():
                gens.append(RatFunc(p))
        if gens:
            out.append(RawIdeal(gens))
    return out[:n]


class TestEval:
    def test_lifted_v_equals_v_closure(self, inst_a):
        lift_v = StarOp.lifted(V_D)
        for raw in sample_raws(inst_a, 2, 8):
            hull = structured_hull(raw, inst_a)
            assert ideal_equal(star_eval(lift_v, hull, inst_a),
                               star_eval(V_R, raw, inst_a), inst_a)

    def test_projected_t_fixes_dedekind_ideal(self, inst_c):
        p = dmod_from_generators([FieldElem(2), FieldElem(1, 1, -5)], inst_c.base)
        assert star_eval(StarOp.projected(T_R), p, inst_c) == p

    def test_extended_t_on_principal_t_ideal(self, inst_a):
        ct = extend_to_T(RawIdeal([RatFunc(Poly([1, 0, 1]))]), inst_a)
        assert star_eval(StarOp.extended_T(T_R), ct, inst_a) == ct

    def test_d_is_identity(self, inst_a):
        raw = RawIdeal([TWO, X])
        assert star_eval(D_R, raw, inst_a) == raw

    def test_m_fixed_by_every_implemented_op(self, inst_a, inst_b, inst_c, inst_d, inst_e):
        ops = [read_op(text, "R") for text in IMPLEMENTED_R_OPS]
        for inst in (inst_a, inst_b, inst_c, inst_d, inst_e):
            m = m_ideal(inst)
            for op in ops:
                assert ideal_equal(star_eval(op, m, inst), m, inst)

    def test_lifted_evaluates_its_operand_on_t_modules(self, inst_a, inst_b, inst_c, inst_d, inst_e):
        # lift(w) is refused on a T-module as on any other value
        lift_w = StarOp.lifted(StarOp.w_op("D"))
        for value in (extend_to_T(RawIdeal([X + 1]), inst_a), RawIdeal([TWO, X])):
            with pytest.raises(StarEvalError):
                star_eval(lift_w, value, inst_a)
        # and lift(d), lift(v), lift(t) still fix every T-module and M
        lifts = [StarOp.lifted(op) for op in (D_D, V_D, StarOp.t_op("D"))]
        for inst in (inst_a, inst_b, inst_c, inst_d, inst_e):
            values = [m_ideal(inst), t_ideal_of_r(inst),
                      *(extend_to_T(raw, inst) for raw in sample_raws(inst, 6, 6))]
            for value in values:
                assert value.is_t_module()
                for op in lifts:
                    assert star_eval(op, value, inst) == value, (op, value)

    def test_w_descriptor_rejected(self, inst_a):
        with pytest.raises(StarEvalError):
            star_eval(StarOp.w_op("R"), RawIdeal([X]), inst_a)

    def test_w_resolves_to_t_for_classes(self):
        assert class_resolve(StarOp.w_op("R")) == T_R
        assert class_resolve(StarOp.stable(V_R)) == StarOp.finite_type(V_R)

    def test_bare_overring_induced_rejected(self, inst_a):
        with pytest.raises(StarEvalError):
            star_eval(StarOp.overring_induced(D_T), RawIdeal([X]), inst_a)

    def test_target_mismatch_rejected(self, inst_a):
        with pytest.raises(StarEvalError):
            star_eval(V_D, RawIdeal([X]), inst_a)

    def test_mis_targeted_raw_descriptors_rejected(self, inst_a):
        # each pairs a wrapping kind with a ring its table entry does not give
        cases = [("projected", "R", (V_R,)), ("projected", "D", (V_D,)), ("projected", "D", ()),
                 ("lifted", "D", (V_D,)), ("lifted", "R", (V_R,)),
                 ("extended_T", "R", (V_R,)), ("extended_T", "T", (V_T,)),
                 ("overring_induced", "T", (D_T,)), ("finite_type", "R", (V_D,)),
                 ("meet", "R", (V_R, V_D)), ("meet", "R", (V_R,))]
        values = {"D": inst_a.base.unit_module(), "R": RawIdeal([X]), "T": t_ideal_of_r(inst_a)}
        for kind, target, operands in cases:
            with pytest.raises(StarEvalError):
                star_eval(StarOp(kind, target, operands), values[target], inst_a)

    def test_module_over_another_domain_rejected(self, inst_c):
        gaussian = BaseDomain.quadratic_order(-1).unit_module()
        for op in (D_D, V_D, star_meet(D_D, V_D), StarOp.projected(T_R)):
            with pytest.raises(DomainError, match="mixed base domains"):
                star_eval(op, gaussian, inst_c)

    def test_finite_type_tag_identity_on_fg(self, inst_a):
        ft = StarOp.finite_type(V_R)
        raw = RawIdeal([TWO, X])
        assert ideal_equal(star_eval(ft, raw, inst_a), star_eval(V_R, raw, inst_a), inst_a)


class TestMeet:
    def test_meet_idempotent(self, inst_a):
        m = star_meet(V_R, V_R)
        for raw in sample_raws(inst_a, 3, 5):
            assert ideal_equal(star_eval(m, raw, inst_a), star_eval(V_R, raw, inst_a),
                               inst_a)

    def test_meet_with_identity_is_identity(self, inst_a):
        m = star_meet(D_R, V_R)
        for raw in sample_raws(inst_a, 4, 5):
            assert ideal_equal(star_eval(m, raw, inst_a),
                               as_structured(raw, inst_a), inst_a)

    def test_mixed_meet_reproduces_divisorial_closure(self, inst_a):
        # lift of the D-side divisorial meets the overring identity
        mix = star_meet(StarOp.lifted(V_D), StarOp.overring_induced(D_T))
        assert is_star_kind(mix)
        for raw in sample_raws(inst_a, 5, 8):
            hull = structured_hull(raw, inst_a)
            assert ideal_equal(star_eval(mix, hull, inst_a),
                               star_eval(V_R, raw, inst_a), inst_a)

    def test_meet_needs_shared_target(self):
        with pytest.raises(StarEvalError):
            star_meet(V_D, V_R)

    def test_ovr_only_meet_not_star(self, inst_a):
        ovr = StarOp.overring_induced(D_T)
        mix = star_meet(ovr, ovr)
        assert not is_star_kind(mix)
        with pytest.raises(StarEvalError):
            star_eval(mix, RawIdeal([X]), inst_a)


class TestLeq:
    def test_d_below_t(self, inst_a):
        for raw in sample_raws(inst_a, 6, 50):
            assert "extensive" not in failed_checks(harness._closure_laws, inst_a, T_R,
                                                    ideal=raw, other=raw)

    def test_t_equals_v_on_fg(self, inst_d):
        # on D, v moves the D-parts of some samples, so t = v tells t from d
        samples = sample_raws(inst_d, 7, 20) + [gaussian_pair(inst_d)]
        assert any(not ideal_equal(star_eval(V_R, raw, inst_d), structured_hull(raw, inst_d), inst_d)
                   for raw in samples)
        for raw in samples:
            assert "t-is-v-on-fg" not in failed_checks(harness._order_laws, inst_d, T_R, ideal=raw)

    def test_v_not_below_d_on_gaussian_witness(self, inst_d):
        g = gaussian_pair(inst_d)
        assert not contains_ideal(star_eval(D_R, g, inst_d), star_eval(V_R, g, inst_d), inst_d)

    def test_lifted_v_equals_v_both_ways(self, inst_c):
        for raw in sample_raws(inst_c, 8, 15):
            hull = structured_hull(raw, inst_c)
            assert "lift-v-is-v" not in failed_checks(harness._order_laws, inst_c, V_R, ideal=hull)


class TestAxioms:
    def test_t_axioms_on_A(self, inst_a):
        scalars = [RatFunc.coerce(3), RatFunc(Poly([0, Fraction(1, 2)]))]
        assert closure_laws_failed(inst_a, T_R, sample_raws(inst_a, 9, 12), scalars) == []

    def test_lifted_d_axioms_on_C(self, inst_c):
        samples = [structured_hull(raw, inst_c) for raw in sample_raws(inst_c, 10, 8)]
        scalars = [RatFunc.coerce(2), RatFunc(Poly([FieldElem(1, 1, -5)]))]
        assert closure_laws_failed(inst_c, StarOp.lifted(D_D), samples, scalars) == []

    def test_projected_t_axioms_on_C(self, inst_c):
        base = inst_c.base
        rng = random.Random(12)
        mods = []
        while len(mods) < 8:
            gens = [FieldElem(Fraction(rng.randint(-4, 4)),
                              Fraction(rng.randint(-2, 2)), -5)
                    for _ in range(rng.randint(1, 2))]
            try:
                m = dmod_from_generators(gens, base)
            except Exception:
                continue
            if not m.is_zero():
                mods.append(m)
        # proj-* reads the laws of proj(t) at J on phi^-1(J) with the scalar 2;
        # the closure laws of lift(proj(t)) there take the scalar sqrt(-5) too
        for m, other in zip(mods, mods[1:] + mods[:1]):
            assert failed_checks(harness._projected_laws, inst_c, T_R, j=m, other=other) == []
        lifted = StarOp.lifted(StarOp.projected(T_R))
        values = [inverse_image_R(m, inst_c) for m in mods]
        assert closure_laws_failed(inst_c, lifted, values, [RatFunc(Poly([FieldElem(1, 1, -5)]))]) == []


class TestProjectionLiftingIdentities:
    def test_projection_after_lifting_is_identity(self, inst_a, inst_c):
        # D-side identity for both the trivial and the divisorial operation
        for inst in (inst_a, inst_c):
            rng = random.Random(14)
            mods = []
            while len(mods) < 10:
                gens = [FieldElem(Fraction(rng.randint(-5, 5), rng.randint(1, 2)),
                                  Fraction(rng.randint(-2, 2)) if inst.k_disc != 1 else 0,
                                  inst.k_disc if inst.k_disc != 1 else 1)
                        for _ in range(rng.randint(1, 2))]
                m = dmod_from_generators(gens, inst.base)
                if not m.is_zero():
                    mods.append(m)
            for m in mods:
                assert "proj-lift-identity" not in failed_checks(harness._projected_laws, inst, T_R,
                                                                 j=m, other=m)

    def test_op_below_lift_of_projection(self, inst_c):
        # R-side inequality on structured samples
        for raw in sample_raws(inst_c, 15, 10):
            hull = structured_hull(raw, inst_c)
            assert "below-lift-proj" not in failed_checks(harness._order_laws, inst_c, T_R, ideal=hull)


class TestExtensionRestriction:
    def test_extension_equals_restriction_for_finite_type(self, inst_a, inst_b, inst_c, inst_d, inst_e):
        # (*)_T(E) = E^*: extT(op) evaluates op on each fractional T-ideal E
        rng = random.Random(16)
        for inst in (inst_a, inst_b, inst_c, inst_d, inst_e):
            modules = [t_ideal_of_r(inst), m_ideal(inst)]
            for _ in range(10):
                p = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])
                if not p.is_zero():
                    modules.append(extend_to_T(RawIdeal([RatFunc(p)]), inst))
            for text in IMPLEMENTED_R_OPS:
                op = read_op(text, "R")
                for e in modules:
                    assert star_eval(StarOp.extended_T(op), e, inst) == star_eval(op, e, inst), (text, e)

    def test_t_extension_matches_v_extension_on_fg(self, inst_a):
        rng = random.Random(17)
        for _ in range(10):
            p = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])
            if p.is_zero():
                continue
            ct = extend_to_T(RawIdeal([RatFunc(p)]), inst_a)
            assert star_eval(StarOp.extended_T(T_R), ct, inst_a) == \
                star_eval(StarOp.extended_T(V_R), ct, inst_a)

    def test_t_side_v_is_identity_on_principal(self, inst_a):
        ct = extend_to_T(RawIdeal([RatFunc(Poly([2, 1]))]), inst_a)
        assert star_eval(StarOp.divisorial("T"), ct, inst_a) == ct


class TestTSide:
    def test_lattice_dpart_rejected(self, inst_a, inst_c):
        ops = [D_T, V_T, StarOp.t_op("T"), star_meet(D_T, V_T), StarOp.extended_T(T_R)]
        for inst in (inst_a, inst_c):
            for value in (r_ideal(inst), structured_hull(RawIdeal([TWO, X]), inst)):
                assert not value.is_t_module()
                for op in ops:
                    with pytest.raises(StarEvalError):
                        star_eval(op, value, inst)

    def test_every_t_side_operation_returns_a_t_ideal(self, inst_a, inst_b, inst_c, inst_d, inst_e):
        ops = [D_T, V_T, StarOp.t_op("T"), star_meet(D_T, V_T),
               StarOp.finite_type(V_T), StarOp.extended_T(T_R), StarOp.extended_T(V_R),
               StarOp.extended_T(StarOp.lifted(V_D))]
        for inst in (inst_a, inst_b, inst_c, inst_d, inst_e):
            for raw in sample_raws(inst, 20, 6):
                ct = extend_to_T(raw, inst)
                for op in ops:
                    got = star_eval(op, ct, inst)
                    assert got.is_t_module() and got == ct

    def test_meet_of_d_and_v_is_the_t_ideal(self, inst_a, inst_b):
        meet = star_meet(D_T, V_T)
        for inst in (inst_a, inst_b):
            for raw in sample_raws(inst, 18, 8):
                ct = extend_to_T(raw, inst)
                assert star_eval(meet, ct, inst) == ct

    def test_extension_is_content_times_t(self, inst_a, inst_b, inst_c, inst_d, inst_e):
        for inst in (inst_a, inst_b, inst_c, inst_d, inst_e):
            for raw in sample_raws(inst, 19, 10):
                ct = extend_to_T(raw, inst)
                assert ct == make_structured(inst.t.content(raw.gens),
                                             ExtDModule.full(inst.base), inst)
                assert ct.is_t_module()
                assert extend_to_T(structured_hull(raw, inst), inst) == ct


WRAPS = (StarOp.finite_type, StarOp.stable, StarOp.projected, StarOp.lifted,
         StarOp.extended_T, StarOp.overring_induced)


def descriptors(depth):
    """Every descriptor nested at most depth deep, on every ring."""
    ops = [StarOp(kind, ring) for kind in ("d", "v", "t", "w") for ring in "DRT"]
    for _ in range(depth):
        grown = list(ops)
        for op in ops:
            for wrap in WRAPS:
                try:
                    grown.append(wrap(op))
                except StarEvalError:
                    pass
        grown += [star_meet(a, b) for a in ops for b in ops if a.target == b.target]
        ops = grown
    return ops


class TestReadOp:
    def test_every_descriptor_reads_back(self):
        ops = descriptors(2)
        assert {op.kind for op in ops} == {
            "d", "v", "t", "w", "meet", "finite_type", "stable", "projected", "lifted",
            "extended_T", "overring_induced"}
        for op in ops:
            assert read_op(str(op), op.target) == op

    @pytest.mark.parametrize("text", ["", "q", "lift(", "meet(v)", "meet(v,t", "proj(v)",
                                      "v)", "lifted(v)", "finite_type(v)", "lift(v)x", "ft (v)"])
    def test_malformed_text_is_refused(self, text):
        with pytest.raises(StarEvalError):
            read_op(text, "R")

    def test_deep_nesting_is_refused(self):
        with pytest.raises(StarEvalError, match="more than 100"):
            read_op("ft(" * 5000 + "v" + ")" * 5000, "R")

    def test_restriction_to_t_is_gone(self):
        # (*)_T is extT alone; restT was the same map under a second name
        with pytest.raises(StarEvalError):
            read_op("restT(t)", "T")
        with pytest.raises(StarEvalError):
            StarOp("restricted_T", "T", (T_R,))


R_AND_T_OPS = [op for op in descriptors(2) if op.target != "D"]


class TestUnitPart:
    @settings(max_examples=300, deadline=None)
    @given(op=st.sampled_from(R_AND_T_OPS), name=st.sampled_from("ABCDE"),
           seed=st.integers(0, 2**32))
    def test_every_result_keeps_the_unit_part(self, op, name, seed):
        # the invariant behind a meet intersecting D-parts over one unit
        inst = make_instance(name)
        raws = sample_raws(inst, seed, 4)
        values = {"R": [*raws, *(structured_hull(raw, inst) for raw in raws), m_ideal(inst)],
                  "T": [m_ideal(inst), *(extend_to_T(raw, inst) for raw in raws)]}
        for value in values[op.target]:
            try:
                got = star_eval(op, value, inst)
            except StarEvalError:
                continue
            assert as_structured(got, inst).unit == as_structured(value, inst).unit, (str(op), value)


def d_side_reference(op, j, inst):
    """The module recursion that evaluated D-side operations before a
    D-module J was evaluated as phi^-1(J)."""
    if not is_star_kind(op):
        raise StarEvalError(f"{op} is not evaluable as a star operation")
    return _module_recursion(op, j, inst)


def _module_recursion(op, j, inst):
    if op.kind == "finite_type":
        return _module_recursion(op.operands[0], j, inst)
    if op.kind == "d":
        return j
    if op.kind in ("v", "t"):
        return dmod_v(j)
    if op.kind == "meet":
        return dmod_intersect(*(_module_recursion(o, j, inst) for o in op.operands))
    if op.kind == "projected":
        s = as_structured(star_eval(op.operands[0], inverse_image_R(j, inst), inst), inst)
        if not s.unit.is_one():
            raise StarEvalError("projection left the D-modules")
        return s.dpart
    raise StarEvalError("stable operations are descriptors only")


def outcome(evaluate, op, j, inst):
    try:
        return evaluate(op, j, inst)
    except (StarEvalError, DomainError) as exc:
        return type(exc)


class TestDSide:
    def test_star_eval_matches_the_module_recursion(self, inst_a, inst_b, inst_c, inst_d, inst_e):
        ops = [op for op in descriptors(2) if op.target == "D"]
        # the sampled modules are divisorial; on D = Z, <1, i> and <2, 3i> are not
        i = FieldElem(0, 1, -1)
        moved = {inst_d: [dmod_from_generators([FieldElem(1), i], inst_d.base),
                          dmod_from_generators([FieldElem(2), 3 * i], inst_d.base)]}
        for inst in (inst_a, inst_b, inst_c, inst_d, inst_e):
            mods = sample_dmods(inst, SampleParams(seed=5, count=12)) + [inst.base.unit_module()]
            for j in mods + moved.get(inst, []):
                assert j.is_lattice()
                for op in ops:
                    assert outcome(star_eval, op, j, inst) == outcome(d_side_reference, op, j, inst)

    def test_zero_module_is_refused(self, inst_a, inst_b, inst_c, inst_d, inst_e):
        # phi^-1(0) = M = X*T has unit part X, so it is no D-module's inverse image
        for inst in (inst_a, inst_b, inst_c, inst_d, inst_e):
            for op in (D_D, V_D, star_meet(D_D, V_D)):
                with pytest.raises(StarEvalError):
                    star_eval(op, ExtDModule.zero(inst.base), inst)

    def test_projection_of_a_closure_to_t_is_k(self, inst_a, inst_b, inst_c, inst_d, inst_e):
        for inst in (inst_a, inst_b, inst_c, inst_d, inst_e):
            k = ExtDModule.full(inst.base)
            for op in (V_D, StarOp.projected(D_R), StarOp.projected(V_R)):
                assert star_eval(op, k, inst) == k
        # on D = Z inside k = Q(i), (R : phi^-1(<1, i>)) = M, so its v-closure is T
        gaussian = dmod_from_generators([FieldElem(1), FieldElem(0, 1, -1)], inst_d.base)
        for op in (V_D, StarOp.projected(T_R), StarOp.projected(V_R)):
            assert star_eval(op, gaussian, inst_d).is_full()
