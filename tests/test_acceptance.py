"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Sample counts, seeds, and time bounds are pinned here; every check is
exact (violations lists must be empty, witnesses must be found where
the structure demands them).
"""

import time

from starpull.base_domain import class_label_D, dmod_from_generators
from starpull.class_groups import (
    alpha,
    gamma,
    invertibility_R,
    is_principal_R,
)
from starpull.exprlang import evaluate, parse_expression, value_to_expr
from starpull.harness import (
    SampleParams,
    run_suite,
    sample_dmods,
    sample_ideals,
)
from starpull.kernel import FieldElem, Poly, RatFunc
from starpull.pullback import (
    RawIdeal,
    colon_R,
    extend_to_T,
    ideal_arith,
    ideal_equal,
    m_ideal,
    make_instance,
    oracle_colon_member,
    structured_hull,
)
from starpull.star_ops import (
    IMPLEMENTED_R_OPS,
    StarOp,
    read_op,
    star_axiom_check,
    star_eval,
    star_leq_check,
)

SEED = 7
T_OP, V_OP = StarOp.t_op("R"), StarOp.divisorial("R")
IMPLEMENTED_OPS = [read_op(text, "R") for text in IMPLEMENTED_R_OPS]


def _verdict(number: int, title: str, elapsed: float):
    print(f"ACCEPTANCE {number} [{title}]: PASS ({elapsed:.2f}s)")


def test_criterion_1_split_exact_sequence(inst_a, inst_b, inst_c, inst_d, inst_e):
    start = time.perf_counter()
    params = SampleParams(seed=SEED, count=100)
    catalogue = (inst_a, inst_b, inst_c, inst_d, inst_e)
    for inst in catalogue:
        for op in IMPLEMENTED_OPS:
            report = run_suite("split-exact", inst, params, op)
            assert report.verdict == "pass", (inst.name, str(op), report.violations)

    p = dmod_from_generators([FieldElem(2), FieldElem(1, 1, -5)], inst_c.base)
    image = alpha(p, inst_c)
    assert is_principal_R(image, inst_c) is None
    square = ideal_arith(image, image, "mul", inst_c)
    assert is_principal_R(star_eval(T_OP, square, inst_c), inst_c) is not None
    assert gamma(image, inst_c) == class_label_D(p)
    unit = inst_c.base.unit_module()
    assert gamma(alpha(unit, inst_c), inst_c) == class_label_D(unit)
    assert extend_to_T(image, inst_c) == extend_to_T(RawIdeal([RatFunc.one()]), inst_c)

    # the sequence's Cl(D) is Cl^{*_phi}(D): each proj(op) fixes the sampled D-modules
    for inst in catalogue:
        for j in sample_dmods(inst, SampleParams(seed=SEED, count=20)):
            for op in IMPLEMENTED_OPS:
                assert star_eval(StarOp.projected(op), j, inst) == j, (inst.name, str(op), j)

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _verdict(1, f"split exact class sequence on A-E under {len(IMPLEMENTED_OPS)} operations",
             elapsed)


def test_criterion_2_quasilocal_isomorphism(inst_b, inst_e):
    for inst in (inst_b, inst_e):
        start = time.perf_counter()
        params = SampleParams(seed=SEED, count=100)
        for op in IMPLEMENTED_OPS:
            report = run_suite("quasilocal-iso", inst, params, op)
            assert report.verdict == "pass", (str(op), report.violations)
            invertible = [r for r in report.records if "skipped" not in r
                          and "certificates" in r and r["certificates"] != "none"]
            assert invertible, f"no invertible samples drawn under {op}"
            assert all(r.get("principal") for r in invertible)
            assert all("normalized" in r for r in invertible)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        _verdict(2, f"quasilocal isomorphism on {inst.name} under {len(IMPLEMENTED_OPS)} operations",
                 elapsed)


def test_criterion_3_pvmd_characterization(inst_a, inst_d):
    start = time.perf_counter()
    params = SampleParams(seed=SEED, count=100)
    report_a = run_suite("pvmd", inst_a, params, T_OP)
    assert report_a.verdict == "pass", report_a.violations
    sampled = [r for r in report_a.records if "t_invertible" in r]
    assert len(sampled) == 100
    assert all(r["t_invertible"] for r in sampled)

    report_d = run_suite("pvmd", inst_d, params, T_OP)
    assert report_d.verdict == "pass", report_d.violations
    witnesses = [r for r in report_d.records if r.get("check") == "witness"]
    assert witnesses and witnesses[0]["oracle_confirmed"]

    # the expected witness ideal(1, sqrt(-1)) reaches M, confirmed directly
    witness = evaluate(parse_expression("ideal(1, sqrt(-1))"), inst_d)
    product = ideal_arith(witness, colon_R(witness, inst_d), "mul", inst_d)
    closed = star_eval(T_OP, product, inst_d)
    assert ideal_equal(closed, m_ideal(inst_d), inst_d)
    surd = RatFunc(Poly([FieldElem(0, 1, -1)]))
    x = RatFunc.x_power(1)
    assert oracle_colon_member(surd, RawIdeal([x, surd * x]), inst_d)

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _verdict(3, "PvMD on A, witness on D", elapsed)


def test_criterion_4_conductor_and_extension_laws(inst_a, inst_b, inst_c):
    for inst in (inst_a, inst_b, inst_c):
        start = time.perf_counter()
        report = run_suite("extension-laws", inst, SampleParams(seed=SEED, count=100))
        assert report.verdict == "pass", report.violations
        fixed = [r for r in report.records if r.get("check") == "M-fixed"]
        assert len(fixed) == 6 and all(r["fixed"] for r in fixed)
        divisorial = [r for r in report.records if r.get("check") == "rT-divisorial"]
        assert len(divisorial) == 20 and all(r["holds"] for r in divisorial)
        agreement = [r for r in report.records if r.get("check") == "extension-agreement"]
        assert len(agreement) == 20
        assert all(r["ct_fixed"] and r["t_eq_v_extension"] for r in agreement)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        _verdict(4, f"conductor and extension laws on {inst.name}", elapsed)


def test_criterion_5_picard_splitting(inst_a, inst_b, inst_c, inst_d, inst_e):
    start = time.perf_counter()
    params = SampleParams(seed=SEED, count=100)
    p = dmod_from_generators([FieldElem(2), FieldElem(1, 1, -5)], inst_c.base)
    image = alpha(p, inst_c)
    witness = invertibility_R(image, StarOp.identity("R"), inst_c)
    assert witness.is_invertible and witness.principal_gen is None
    square = star_eval(T_OP, ideal_arith(image, image, "mul", inst_c), inst_c)
    assert is_principal_R(square, inst_c) is not None
    for inst in (inst_a, inst_b, inst_c, inst_d, inst_e):
        report = run_suite("pic-splitting", inst, params)
        assert report.verdict == "pass", (inst.name, report.violations)
        if inst is not inst_c:  # Cl(D) and Cl(T) are trivial
            invertible = [r for r in report.records if "principal" in r]
            assert all(r["principal"] or not r.get("invertible", True)
                       for r in invertible)
    elapsed = time.perf_counter() - start
    _verdict(5, "Picard splitting on A-E", elapsed)


def test_criterion_6_oracle_agreement(inst_a, inst_b, inst_c, inst_d, inst_e):
    # B and E carry the local T kind, A, C and D the polynomial one
    start = time.perf_counter()
    for inst in (inst_a, inst_b, inst_c, inst_d, inst_e):
        report = run_suite("oracle-agreement", inst, SampleParams(seed=SEED, count=200,
                                                                  degree_window=12))
        assert report.verdict == "pass", report.violations[:3]
        assert report.n_samples == 200
        assert all(r["contradictions"] == 0 for r in report.records)
    elapsed = time.perf_counter() - start
    _verdict(6, "oracle agreement, 200 samples on A-E", elapsed)


def test_criterion_7_star_operation_algebra(inst_a, inst_c, inst_d):
    start = time.perf_counter()
    d_d = StarOp.identity("D")
    v_d = StarOp.divisorial("D")
    d_r = StarOp.identity("R")
    v_r = StarOp.divisorial("R")
    for inst in (inst_a, inst_c, inst_d):
        params = SampleParams(seed=SEED, count=50)
        raws = sample_ideals(inst, params)
        hulls = [structured_hull(raw, inst) for raw in raws]
        scalars = [RatFunc.coerce(3), RatFunc.x_power(1)]
        for op, samples in [
            (d_r, raws), (T_OP, raws),
            (StarOp.lifted(d_d), hulls), (StarOp.lifted(v_d), hulls),
        ]:
            report = star_axiom_check(op, samples[:50], scalars, inst)
            assert report.passed, (str(op), report.violations[:3])
        # projected(t_R) on D-side samples
        dmods = sample_dmods(inst, params)[:50]
        d_scalars = [FieldElem(2)]
        report = star_axiom_check(StarOp.projected(T_OP), dmods, d_scalars, inst)
        assert report.passed, report.violations[:3]
        # order: d <= t <= v, and the lift of v_D coincides with v_R
        assert star_leq_check(d_r, T_OP, raws, inst).passed
        assert star_leq_check(T_OP, v_r, raws, inst).passed
        assert star_leq_check(StarOp.lifted(v_d), v_r, hulls, inst).passed
        assert star_leq_check(v_r, StarOp.lifted(v_d), hulls, inst).passed
        # projection undoes lifting on D-side samples
        for star in (d_d, v_d):
            pl = StarOp.projected(StarOp.lifted(star))
            for m in dmods:
                assert star_eval(pl, m, inst) == star_eval(star, m, inst)
    elapsed = time.perf_counter() - start
    _verdict(7, "star-operation algebra on A, C, D", elapsed)


def test_criterion_8_determinism_and_round_trip():
    start = time.perf_counter()
    inst_c = make_instance("C")
    params = SampleParams(seed=SEED, count=25)
    first = run_suite("split-exact", inst_c, params).to_json().encode()
    second = run_suite("split-exact", inst_c, params).to_json().encode()
    assert first == second

    total = 0
    for name in ("A", "B", "C", "D", "E"):
        inst = make_instance(name)
        for raw in sample_ideals(inst, SampleParams(seed=SEED, count=25)):
            for value in (raw, structured_hull(raw, inst),
                          star_eval(V_OP, raw, inst), extend_to_T(raw, inst)):
                text = value_to_expr(value, inst)
                back = evaluate(parse_expression(text), inst)
                assert ideal_equal(back, value, inst), text
                total += 1
    assert total >= 500
    elapsed = time.perf_counter() - start
    _verdict(8, f"determinism and {total} round-trips", elapsed)
