"""Samplers, suites, reports: determinism, replay, schema."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from starpull import harness, pullback, star_ops
from starpull.base_domain import BaseDomain, ExtDModule, dmod_scale, dmod_v
from starpull.class_groups import invertibility_R
from starpull.harness import (
    CHECKS,
    HarnessError,
    SampleParams,
    SUITES,
    replay_violation,
    run_suite,
    sample_ideals,
)
from starpull.exprlang import evaluate, parse_expression
from starpull.kernel import FieldElem, RatFunc, _make
from starpull.pullback import (
    PullbackInstance,
    RawIdeal,
    colon_R,
    ideal_arith,
    instance_catalog,
    lift_generators,
    make_instance,
    member_structured,
    oracle_colon_member,
    structured_hull,
)
from starpull.star_ops import StarOp, star_eval

import reference_membership as former
import reference_samplers

T_OP = StarOp.t_op("R")
PARAMS = SampleParams(seed=11, count=20)
# a window witness whose ideal is a T-module, outside every class check
_OUTSIDE_THE_WINDOW = {"ideal": "extT(ideal(X))", "normalized": "hull(ideal(1, X))", "op": "t"}

# faults injected into the D-part map of star_ops: each maps (op, J) to a
# wrong J^op, or to None where the true map stands
_STAR_FAULTS = {
    "t as identity": lambda op, j: j if op.kind == "t" else None,
    "t doubles v": lambda op, j: dmod_scale(FieldElem(2), dmod_v(j)) if op.kind == "t" else None,
    # t sends D to k, and every other module to its v-closure
    "t jumps at D": lambda op, j: (ExtDModule.full(j.domain) if j == j.domain.unit_module()
                                   else dmod_v(j)) if op.kind == "t" else None,
    "lift as identity": lambda op, j: j if op.kind == "lifted" else None,
}

# each star-laws check with a witness that fails it under one fault above
_GAUSSIAN = {"ideal": "ideal(1, sqrt(-1))", "op": "t"}
_UNIT_PAIR = {"ideal": "ideal(1)", "other": "ideal(1)", "op": "t"}
_UNIT_D_PAIR = {"j": "ideal(1)", "other": "ideal(1)", "op": "t"}
_STAR_LAW_POSITIVES = {
    "extensive": (_UNIT_PAIR, "A", "t doubles v"),
    "idempotent": (_UNIT_PAIR, "A", "t doubles v"),
    "monotone": ({"ideal": "ideal(1)", "other": "ideal(1/2)", "op": "t"}, "A", "t jumps at D"),
    "principal-fixed": ({"ideal": "ideal(1)", "scalar": "(3)", "op": "t"}, "A", "t doubles v"),
    "scalar-equivariant": ({"ideal": "ideal(1)", "scalar": "(3)", "op": "t"}, "A", "t jumps at D"),
    "below-v": ({"ideal": "ideal(1)", "op": "t"}, "A", "t jumps at D"),
    "below-lift-proj": (_GAUSSIAN, "D", "lift as identity"),
    "t-is-v-on-fg": (_GAUSSIAN, "D", "t as identity"),
    "lift-v-is-v": (_GAUSSIAN, "D", "lift as identity"),
    "proj-extensive": (_UNIT_D_PAIR, "A", "t doubles v"),
    "proj-idempotent": (_UNIT_D_PAIR, "A", "t doubles v"),
    "proj-monotone": ({"j": "ideal(1)", "other": "ideal(1/2)", "op": "t"}, "A", "t jumps at D"),
    "proj-principal-fixed": (_UNIT_D_PAIR, "A", "t doubles v"),
    "proj-scalar-equivariant": (_UNIT_D_PAIR, "A", "t jumps at D"),
    "proj-lift-identity": ({"j": "ideal(1, sqrt(-1))", "other": "ideal(1)", "op": "t"}, "D",
                           "lift as identity"),
}


def _inject(monkeypatch, fault):
    true_eval, wrong = star_ops._dpart_eval, _STAR_FAULTS[fault]

    def faulty(op, j):
        got = wrong(op, j)
        return true_eval(op, j) if got is None else got
    monkeypatch.setattr(star_ops, "_dpart_eval", faulty)


class TestSampling:
    def test_determinism(self, inst_a):
        first = sample_ideals(inst_a, PARAMS)
        second = sample_ideals(inst_a, PARAMS)
        assert first == second

    def test_corner_injection(self, inst_a):
        pop = sample_ideals(inst_a, PARAMS)
        x = RatFunc.x_power(1)
        assert RawIdeal([x]) in pop
        assert RawIdeal([RatFunc.coerce(2), x]) in pop

    def test_gaussian_corner(self, inst_d):
        pop = sample_ideals(inst_d, PARAMS)
        gens_sets = [i.gens for i in pop]
        assert any(len(g) == 2 and g[0].is_one() for g in gens_sets)

    def test_count_respected(self, inst_a):
        assert len(sample_ideals(inst_a, PARAMS)) == PARAMS.count

    def test_bad_params_rejected(self):
        with pytest.raises(HarnessError):
            SampleParams(count=0)
        with pytest.raises(HarnessError):
            SampleParams(degree_window=0)

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(instance_catalog()), seed=st.integers(0, 2**32),
           height=st.integers(1, 6), nonzero=st.booleans(), allow_surd=st.booleans())
    def test_samplers_match_the_fraction_reference(self, name, seed, height, nonzero, allow_surd):
        # the integer samplers draw the same numbers in the same order as
        # the former Fraction samplers in reference_samplers, and return
        # equal values
        inst = make_instance(name)
        params = SampleParams(seed=seed, coeff_height=height)
        draws = (
            (harness._sample_scalar, reference_samplers.sample_scalar,
             (inst, height), {"nonzero": nonzero, "allow_surd": allow_surd}),
            (harness._sample_poly, reference_samplers.sample_poly, (inst, height), {}),
            (harness._sample_ratfunc, reference_samplers.sample_ratfunc, (inst, params), {}),
        )
        for sampler, reference, args, kwargs in draws:
            rng, ref_rng = random.Random(seed), random.Random(seed)
            for _ in range(4):
                assert sampler(rng, *args, **kwargs) == reference(ref_rng, *args, **kwargs)
                assert rng.getstate() == ref_rng.getstate()


class TestSuiteVerdicts:
    def test_split_exact_passes_on_c(self, inst_c):
        rep = run_suite("split-exact", inst_c, PARAMS, T_OP)
        assert rep.verdict == "pass"
        assert rep.n_samples == PARAMS.count

    def test_split_exact_trivial_classes_on_a(self, inst_a):
        rep = run_suite("split-exact", inst_a, PARAMS, T_OP)
        assert rep.verdict == "pass"

    def test_split_exact_identity_op_on_b(self, inst_b):
        # degenerate Picard-style run of the same sequence
        rep = run_suite("split-exact", inst_b, PARAMS, StarOp.identity("R"))
        assert rep.verdict == "pass"
        header = rep.records[0]
        assert header["check"] == "class-group" and header["presentation"] == []

    def test_split_exact_passes_on_d(self, inst_d):
        rep = run_suite("split-exact", inst_d, PARAMS, T_OP)
        assert rep.verdict == "pass"
        assert rep.records[0] == {"check": "class-group", "presentation": []}

    @pytest.mark.parametrize("name", "DE")
    def test_invertible_samples_are_principal_off_square_plus(self, name):
        # Cl(D) and Cl(T) are trivial, so every t-invertible sample is
        # principal with label [0]; the corner (1, sqrt(-1)) is not invertible,
        # on D because (D : Z + Zi) = 0 and on E because its hull is T
        inst = make_instance(name)
        params = SampleParams(seed=7, count=20)
        captured = [r for r in run_suite("split-exact", inst, params, T_OP).records
                    if r.get("check") == "kernel-capture"]
        invertible = [r for r in captured if r["certificates"] != "none"]
        assert invertible
        assert all(r["certificates"] == "principal" and r["class_label"] == "[0]"
                   for r in invertible)
        pic = [r for r in run_suite("pic-splitting", inst, params).records if "check" not in r]
        assert all(r.get("skipped") == "not invertible" or (r["class_label"] == "[0]" and r["principal"])
                   for r in pic)
        corner = "ideal((1), ((1*sqrt(-1))))"
        assert next(r for r in captured if r["ideal"] == corner)["certificates"] == "none"
        assert next(r for r in pic if r["ideal"] == corner)["skipped"] == "not invertible"

    def test_quasilocal_on_b(self, inst_b):
        rep = run_suite("quasilocal-iso", inst_b, PARAMS, T_OP)
        assert rep.verdict == "pass"

    def test_quasilocal_on_a_nontrivial_class_group(self):
        # on O_K for d = -5 with T local, Cl(R) = Cl(D) = Z/2: the corner
        # (2, 1 + sqrt(-5)) is invertible and, like its alpha preimage, not principal
        inst = PullbackInstance("O_K(-5), local T", BaseDomain.quadratic_order(-5), "local")
        rep = run_suite("quasilocal-iso", inst, SampleParams(seed=7, count=10), T_OP)
        assert rep.verdict == "pass"
        corner = next(r for r in rep.records if r["ideal"] == "ideal((2), ((1 + 1*sqrt(-5))))")
        assert corner["certificates"] == "invertible"
        assert corner["principal"] is False

    def test_quasilocal_rejects_global_t(self, inst_a):
        with pytest.raises(HarnessError):
            run_suite("quasilocal-iso", inst_a, PARAMS, T_OP)

    def test_quasilocal_construction_on_two_x(self, inst_b):
        # the reduction I -> i^-1 I on I = (2, X): the T-generator is the
        # unit 2 of T, the normalized ideal has trivial unit part, and the
        # preimage class matches the original
        from starpull.class_groups import alpha, class_equivalent_R
        raw = RawIdeal([RatFunc.coerce(2), RatFunc.x_power(1)])
        closed = star_eval(T_OP, raw, inst_b)
        i_gen = RatFunc.coerce(2)
        shifted = RawIdeal([g / i_gen for g in raw.gens])
        normalized = star_eval(T_OP, shifted, inst_b)
        assert normalized.unit.is_one()
        assert not normalized.dpart.is_full()
        assert class_equivalent_R(closed, alpha(normalized.dpart, inst_b),
                                  T_OP, inst_b)

    def test_pvmd_structural_verdicts(self):
        # R is a PvMD exactly when k is the quotient field of D
        for name in instance_catalog():
            record = run_suite("pvmd", make_instance(name), SampleParams(seed=7, count=1)).records[0]
            assert record == {"check": "structural-flags", "pvmd": name in "ABC",
                              "qf_D_is_k": name in "ABC"}

    def test_pvmd_witness_on_d(self, inst_d):
        rep = run_suite("pvmd", inst_d, PARAMS, T_OP)
        assert rep.verdict == "pass"
        witnesses = [r for r in rep.records if r.get("check") == "witness"]
        assert witnesses and witnesses[0]["oracle_confirmed"]
        assert "sqrt(-1)" in witnesses[0]["ideal"]

    @pytest.mark.parametrize("name", "ABCDE")
    def test_witness_confirmation_is_exact(self, name):
        # the oracle confirms exactly the candidates that are not t-invertible:
        # every one on D and E, and none on A-C, where all are invertible
        inst = make_instance(name)
        candidates = harness._witness_search_family(inst) \
            + sample_ideals(inst, SampleParams(seed=7, count=40))
        invertible = [invertibility_R(c, T_OP, inst).is_star_invertible for c in candidates]
        assert all(invertible) == (name in "ABC")
        for cand, inv in zip(candidates, invertible):
            assert harness._confirm_noninvertibility(cand, inst) == (not inv), cand

    def test_pvmd_resolves_w_to_t(self, inst_d):
        # as in the other suites, w is evaluated through its finite-type companion t
        w_report = run_suite("pvmd", inst_d, PARAMS, StarOp.w_op("R"))
        assert w_report.to_json() == run_suite("pvmd", inst_d, PARAMS, T_OP).to_json()

    def test_extension_laws(self, inst_b):
        rep = run_suite("extension-laws", inst_b, PARAMS)
        assert rep.verdict == "pass"

    def test_pic_splitting(self, inst_c):
        rep = run_suite("pic-splitting", inst_c, PARAMS)
        assert rep.verdict == "pass"

    def test_oracle_agreement_small(self, inst_d):
        rep = run_suite("oracle-agreement", inst_d, SampleParams(seed=11, count=10,
                                                                 degree_window=6))
        assert rep.verdict == "pass"

    def test_oracle_agreement_hulls_each_sample_once(self, inst_a, monkeypatch):
        # the suite takes the hull's colon, so colon_R hulls nothing again
        calls = []
        for module in (harness, pullback):
            monkeypatch.setattr(module, "structured_hull",
                                lambda *args, f=pullback.structured_hull: calls.append(1) or f(*args))
        rep = run_suite("oracle-agreement", inst_a, SampleParams(seed=7, count=10))
        assert rep.n_samples == 10 and len(calls) == 10

    def test_oracle_agreement_certifies_star_eval(self, inst_d, monkeypatch):
        # v and t are closed by star_eval alone, so a fault in its D-part map
        # reaches the suite: with J^v read as J, D's corner (1, i) closes to
        # its hull, not to T, and the v-oracle says otherwise
        params = SampleParams(seed=7, count=30)
        assert run_suite("oracle-agreement", inst_d, params).verdict == "pass"
        true_eval = star_ops._dpart_eval
        monkeypatch.setattr(star_ops, "_dpart_eval",
                            lambda op, j: j if op.kind in ("v", "t") else true_eval(op, j))
        report = run_suite("oracle-agreement", inst_d, params)
        assert "v-agreement" in {v["check"] for v in report.violations}
        assert all(replay_violation(v, inst_d) for v in report.violations)

    def test_unknown_suite(self, inst_a):
        with pytest.raises(HarnessError):
            run_suite("nope", inst_a, PARAMS)


class TestReports:
    def test_json_schema(self, inst_b):
        rep = run_suite("extension-laws", inst_b, PARAMS)
        data = rep.to_json_dict()
        for key in ("suite", "instance", "seed", "params", "n_samples",
                    "n_violations", "violations", "verdict"):
            assert key in data
        assert data["verdict"] == "pass"
        assert data["n_violations"] == len(data["violations"])
        # round-trips through json
        assert json.loads(rep.to_json()) == data

    def test_byte_identical_reports(self, inst_c):
        p = SampleParams(seed=4, count=12)
        a = run_suite("split-exact", inst_c, p).to_json()
        b = run_suite("split-exact", inst_c, p).to_json()
        assert a.encode() == b.encode()

    def test_suite_registry_complete(self):
        assert set(SUITES) == {"split-exact", "quasilocal-iso", "pvmd", "extension-laws",
                               "pic-splitting", "oracle-agreement", "star-laws"}


class TestReplay:
    def test_pvmd_violation_replays(self, inst_d):
        # a synthetic violation built from a genuinely non-invertible ideal
        violation = {
            "check": "pvmd-sample",
            "expected": "t-invertible",
            "got": "not invertible",
            "witness": {"ideal": "ideal(1, sqrt(-1))", "op": "t"},
        }
        assert replay_violation(violation, inst_d)

    def test_non_violation_does_not_replay(self, inst_a):
        violation = {
            "check": "pvmd-sample",
            "expected": "t-invertible",
            "got": "not invertible",
            "witness": {"ideal": "ideal(2, X)", "op": "t"},
        }
        assert not replay_violation(violation, inst_a)

    def test_trivial_class_replay(self, inst_c):
        # (2, 1 + sqrt(-5)) is not principal: the check fails beside the
        # principal alpha preimage R of D and holds beside its own preimage
        def replay(normalized):
            violation = {
                "check": "trivial-class",
                "expected": "principal",
                "got": "not principal",
                "witness": {"ideal": "ideal(2, 1+sqrt(-5))", "normalized": normalized, "op": "t"},
            }
            return replay_violation(violation, inst_c)

        assert replay("hull(ideal(1, X))")
        assert not replay("hull(ideal(2, 1+sqrt(-5)))")

    def test_rt_divisorial_replay_negative(self, inst_a):
        violation = {
            "check": "rT-divisorial",
            "expected": "rT",
            "got": "anything",
            "witness": {"r": "(2*X)"},
        }
        assert not replay_violation(violation, inst_a)

    def test_unknown_check_rejected(self, inst_a):
        with pytest.raises(HarnessError):
            replay_violation({"check": "mystery", "witness": {}}, inst_a)

    @pytest.mark.parametrize("violation", [
        {"check": "M-fixed"},
        {"witness": {}},
        {"check": "M-fixed", "witness": ["M"]},
        {"check": ["M-fixed"], "witness": {}},
        ["M-fixed", {}],
        None,
    ])
    def test_malformed_violation_rejected(self, inst_a, violation):
        with pytest.raises(HarnessError, match="a violation is a mapping"):
            replay_violation(violation, inst_a)

    def test_replay_resolves_the_witness_op(self, inst_a):
        # ideal(2, X) is t-invertible on A; the witness op decides the replay
        def replay(op):
            witness = {"ideal": "ideal(2, X)", "op": op}
            return replay_violation({"check": "pvmd-sample", "witness": witness}, inst_a)

        assert not replay("v")
        # w is read back and routed through its finite-type companion t
        assert replay("w") == replay("t")
        for text in ("q", "lift(", "meet(v)", "proj(v)"):
            with pytest.raises(HarnessError):
                replay(text)
        with pytest.raises(HarnessError):
            replay_violation({"check": "pvmd-sample", "witness": {"ideal": "ideal(2, X)"}}, inst_a)

    @pytest.mark.parametrize("op", ["w", "ft(t)", "lift(t)", "stable(v)", "meet(lift(v),ovr(d))"])
    def test_every_suite_op_replays(self, inst_c, op):
        # split-exact passes under these ops, and a violation under each replays
        violation = {"check": "alpha-injective",
                     "witness": {"j1": "ideal(1)", "j2": "ideal(2, 1+sqrt(-5))", "op": op}}
        assert not replay_violation(violation, inst_c)

    @pytest.mark.parametrize("text", ["hull(ideal(2, X))", "2", "gamma(ideal(2))", "ideal(X)"])
    def test_malformed_dmod_witness_rejected(self, inst_c, text):
        violation = {"check": "gamma-alpha-identity", "witness": {"j": text}}
        with pytest.raises(HarnessError, match="ideal of constants"):
            replay_violation(violation, inst_c)

    @pytest.mark.parametrize("name, check, witness", [
        ("B", "trivial-class", _OUTSIDE_THE_WINDOW),  # extT(X) is not t-invertible
        ("B", "alpha-preimage", _OUTSIDE_THE_WINDOW),
        ("B", "normalized-window", _OUTSIDE_THE_WINDOW),
        ("C", "pic-decomposition", {"ideal": "extT(ideal(X))"}),  # gamma refuses T-modules
        ("D", "gamma-alpha-identity", {"j": "ideal(1, sqrt(-1))"}),  # (1, i) is not invertible
        ("D", "alpha-invertible", {"j": "ideal(1, sqrt(-1))", "op": "t"}),
        ("D", "alpha-injective", {"j1": "ideal(1, sqrt(-1))", "j2": "ideal(1)", "op": "t"}),
        ("A", "M-fixed", {"op": "ovr(d)"}),  # read, but semistar: star_eval refuses it
        ("A", "extensive", {"ideal": "ideal(1)", "other": "ideal(1)", "op": "w"}),
    ])
    def test_a_witness_outside_its_check_is_a_harness_error(self, name, check, witness):
        # the check function refuses the values with a ClassGroupError,
        # DomainError or StarEvalError, which replay reports as a HarnessError
        # naming the check
        with pytest.raises(HarnessError, match=f"'{check}' witness is outside the check's domain"):
            replay_violation({"check": check, "witness": witness}, make_instance(name))

    @pytest.mark.parametrize("check, witness, field", [
        ("pvmd-sample", {"ideal": 3, "op": "t"}, "ideal"),  # not text
        ("pvmd-sample", {"ideal": "2", "op": "t"}, "ideal"),  # an element for an ideal
        ("rT-divisorial", {"r": "ideal(X)"}, "r"),  # an ideal for an element
        ("cT-fixed", {"c": None}, "c"),
        ("trivial-class", {"ideal": "gamma(ideal(2))", "normalized": "hull(ideal(1, X))",
                           "op": "t"}, "ideal"),  # a class label
        ("kernel-capture", {"ideal": "ideal(2, X)", "op": "t"}, "ideal"),  # not structured
        ("colon-agreement", {"ideal": "ideal(2", "element": "X"}, "ideal"),  # does not parse
        ("v-agreement", {"ideal": "ideal(2, X)", "element": "sqrt(-3)"}, "element"),  # not in k
        ("gamma-alpha-identity", {"j": 5}, "j"),
        ("rT-divisorial", {"r": "0"}, "r"),  # zero generates no ideal
        ("cT-fixed", {"c": "0"}, "c"),
    ])
    def test_malformed_witness_names_its_field(self, inst_a, check, witness, field):
        with pytest.raises(HarnessError, match=f"witness field '{field}'"):
            replay_violation({"check": check, "witness": witness}, inst_a)

    def test_confirmed_witness_does_not_replay(self, inst_d, inst_e):
        # the pvmd witness on D and E is oracle-confirmed, so replaying a
        # witness-oracle violation for it must re-run the confirmation
        violation = {"check": "witness-oracle",
                     "witness": {"ideal": "ideal((1), ((1*sqrt(-1))))"}}
        assert not replay_violation(violation, inst_d)
        assert not replay_violation(violation, inst_e)

    def test_replay_cases_cover_the_registry(self, inst_a, inst_b, inst_c, inst_d):
        # one witness per registered check: negatives on healthy data, plus
        # the positives that the catalogue can produce
        cases = {
            "alpha-injective": ({"j1": "ideal(1)", "j2": "ideal(2, 1+sqrt(-5))", "op": "t"},
                                inst_c, False),
            "gamma-alpha-identity": ({"j": "ideal(2, 1+sqrt(-5))"}, inst_c, False),
            "beta-trivial-on-alpha": ({"j": "ideal(2, 1+sqrt(-5))"}, inst_c, False),
            "kernel-capture": ({"ideal": "hull(ideal(2, X))", "op": "t"}, inst_a, False),
            "normalized-window": ({"ideal": "hull(ideal(2, X))", "normalized": "hull(ideal(2, X))",
                                   "op": "t"}, inst_b, False),
            "alpha-preimage": ({"ideal": "hull(ideal(2, X))", "normalized": "hull(ideal(1, X))",
                                "op": "t"}, inst_b, False),
            "trivial-class": ({"ideal": "ideal(2, 1+sqrt(-5))", "normalized": "hull(ideal(1, X))",
                               "op": "t"}, inst_c, True),
            "pvmd-sample": ({"ideal": "ideal(1, sqrt(-1))", "op": "t"}, inst_d, True),
            "pvmd-witness": ({"op": "t", "samples_invertible": True}, inst_a, True),
            "witness-oracle": ({"ideal": "ideal(1, sqrt(-1))"}, inst_d, False),
            "M-fixed": ({"op": "t"}, inst_a, False),
            "rT-divisorial": ({"r": "(2*X)"}, inst_a, False),
            "cT-fixed": ({"c": "(2 + X)"}, inst_a, False),
            "t-vs-v-extension": ({"c": "(2 + X)"}, inst_a, False),
            "alpha-invertible": ({"j": "ideal(2, 1+sqrt(-5))", "op": "d"}, inst_c, False),
            "label-vs-principal": ({"j": "ideal(2, 1+sqrt(-5))", "op": "d"}, inst_c, False),
            "pic-decomposition": ({"ideal": "hull(ideal(2, 1+sqrt(-5)))"}, inst_c, False),
            "colon-agreement": ({"ideal": "ideal(2, X)", "element": "(1/2)"}, inst_a, False),
            "v-agreement": ({"ideal": "ideal(2, X)", "element": "(2)"}, inst_a, False),
        }
        # the star-laws checks hold on healthy data; their positives need a
        # fault (test_star_law_witnesses_fail_under_their_fault)
        instances = {"A": inst_a, "D": inst_d}
        cases.update({check: (data, instances[name], False)
                      for check, (data, name, _) in _STAR_LAW_POSITIVES.items()})
        assert set(cases) == set(CHECKS)
        for check, (data, inst, expected) in cases.items():
            record = {"check": check, "expected": "", "got": "", "witness": data}
            assert replay_violation(record, inst) == expected, check
        witness = {"op": "t", "samples_invertible": True}
        assert not replay_violation({"check": "pvmd-witness", "witness": witness}, inst_d)

    @pytest.mark.parametrize("check", sorted(_STAR_LAW_POSITIVES))
    def test_star_law_witnesses_fail_under_their_fault(self, check, monkeypatch):
        data, name, fault = _STAR_LAW_POSITIVES[check]
        inst, violation = make_instance(name), {"check": check, "witness": data}
        _inject(monkeypatch, fault)
        assert replay_violation(violation, inst)
        monkeypatch.undo()
        assert not replay_violation(violation, inst)

    def test_t_as_identity_fails_star_laws_on_D(self, inst_a, inst_b, inst_c, inst_d, inst_e,
                                                  monkeypatch):
        # on A, B, C and E v moves no sampled D-part, so an identity t still
        # equals v there; on D it does not on the corners (1, i) and (2, 1+i)
        params = SampleParams(seed=7, count=10)
        _inject(monkeypatch, "t as identity")
        for inst in (inst_a, inst_b, inst_c, inst_e):
            assert run_suite("star-laws", inst, params).verdict == "pass"
        report = run_suite("star-laws", inst_d, params)
        assert [v["check"] for v in report.violations] == ["t-is-v-on-fg"] * 2
        assert all(replay_violation(v, inst_d) for v in report.violations)
        monkeypatch.undo()
        assert not any(replay_violation(v, inst_d) for v in report.violations)

    def test_full_dpart_witness_replays(self, inst_b):
        # a structured ideal with full D-part is written as extT(...) and
        # read back as a structured ideal
        window = {"ideal": "hull(ideal(X))", "normalized": "extT(ideal(X))", "op": "t"}
        for check, witness in (("normalized-window", window),
                               ("kernel-capture", {"ideal": "extT(ideal(X))", "op": "t"})):
            assert replay_violation({"check": check, "witness": witness}, inst_b), check
        # trivial-class shares the window's witness, and a normalized ideal
        # outside the window stops the check before principality is asked
        assert not replay_violation({"check": "trivial-class", "witness": window}, inst_b)

    def test_noninvertible_sample_stands_in_for_the_witness(self, inst_d, monkeypatch):
        # with an empty search family, the non-invertible corner (1, sqrt(-1))
        # among the samples keeps pvmd-witness from failing
        monkeypatch.setattr(harness, "_witness_search_family", lambda inst: [])
        failing = run_suite("pvmd", inst_d, SampleParams(seed=1, count=5))
        assert [v["check"] for v in failing.violations] == ["pvmd-witness"]
        assert all(replay_violation(v, inst_d) for v in failing.violations)
        assert run_suite("pvmd", inst_d, SampleParams(seed=1, count=6)).verdict == "pass"
        witness = {"op": "t", "samples_invertible": False}
        assert not replay_violation({"check": "pvmd-witness", "witness": witness}, inst_d)

    @pytest.mark.parametrize("closed_form, power", [("colon_R", 1), ("star_eval", 1),
                                                    ("star_eval", -1)])
    def test_injected_fault_replays_until_removed(self, inst_a, monkeypatch, closed_form, power):
        # a closed form computed on X^power * I makes oracle-agreement fail;
        # the suite passes colon_R and star_eval's v the hull
        true_form = getattr(harness, closed_form)
        x = RawIdeal([RatFunc.x_power(power)])

        def faulty(*args):
            # colon_R(ideal, inst) and star_eval(op, ideal, inst) end alike
            *op, ideal, inst = args
            return true_form(*op, ideal_arith(ideal, x, "mul", inst), inst)

        monkeypatch.setattr(harness, closed_form, faulty)
        report = run_suite("oracle-agreement", inst_a, SampleParams(seed=3, count=3,
                                                                    degree_window=12))
        assert report.violations
        if closed_form == "colon_R":
            # the window reports its shifts through colon-agreement itself
            assert any(self._is_window_shift(v, inst_a) for v in report.violations)
        assert all(replay_violation(v, inst_a) for v in report.violations)
        monkeypatch.undo()
        assert not any(replay_violation(v, inst_a) for v in report.violations)

    @staticmethod
    def _is_window_shift(violation, inst):
        """A colon-agreement witness b*X^j, j != 0, for b the first generator
        or the first lift of the (patched) closed colon, that is neither a
        generator nor a lift."""
        if violation["check"] != "colon-agreement":
            return False
        raw, element = (evaluate(parse_expression(violation["witness"][name]), inst)
                        for name in ("ideal", "element"))
        lifts = lift_generators(harness.colon_R(structured_hull(raw, inst), inst))
        return element not in (*raw.gens, *lifts) and any(
            element == b.shift(j) for b in (raw.gens[0], lifts[0]) for j in range(-1, 13) if j)

    def test_a_wrong_leading_term_is_refused(self, inst_a, monkeypatch):
        # on I = (2/X), whose colon X*phi^-1(Z/2) holds 2/X * X^2, a leading
        # term of 2/X * 2/X read at X-order -3 puts that shift outside the
        # colon for the window, while colon-agreement, deciding the element,
        # finds no fault; the suite must not pass that disagreement over
        gen = RatFunc.x_power(-1) * 2
        monkeypatch.setattr(harness, "sample_ideals", lambda inst, params: [RawIdeal([gen])])
        true_order = pullback._x_order

        def wrong(h, g, t):
            e = true_order(h, g, t)
            return e - 1 if h == g == gen else e

        assert run_suite("oracle-agreement", inst_a, PARAMS).verdict == "pass"
        monkeypatch.setattr(pullback, "_x_order", wrong)
        with pytest.raises(AssertionError, match="degree window"):
            run_suite("oracle-agreement", inst_a, PARAMS)

    def test_unregistered_check_cannot_be_emitted(self, inst_a):
        def rogue(inst, op, fail):
            fail("M-fixed", "M", "moved")
        with pytest.raises(HarnessError):
            harness._decide(harness.Report("rogue", "A", PARAMS), rogue, inst_a, T_OP)

    def test_registries_hold_private_functions(self):
        # module-level dicts of public functions would escape the tracer
        functions = list(SUITES.values()) + [fn for fn, _ in CHECKS.values()]
        assert all(fn.__name__.startswith("_") for fn in functions)
        assert not [name for name in vars(harness) if name.startswith("verify_")]


class TestDegreeWindow:
    """oracle-agreement's degree window is decided from one X-order per
    product; its verdicts are those of the per-element tests."""

    @pytest.mark.parametrize("name", instance_catalog())
    @given(seed=st.integers(0, 30), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_window_verdicts_equal_the_per_element_tests(self, name, seed, data):
        inst = make_instance(name)
        # the first 5 to 7 ideals are the fixed corner cases, the rest are seeded
        raw = data.draw(st.sampled_from(sample_ideals(inst, SampleParams(seed=seed, count=10))))
        closed_colon = colon_R(structured_hull(raw, inst), inst)
        shifts = list(range(-3, SampleParams().degree_window + 1))
        at_zero = former.local_at_zero if inst.t.quasilocal else former.poly_at_zero
        for b in (*raw.gens, *lift_generators(closed_colon)):
            window = harness._window_verdicts(b, raw, closed_colon, shifts, inst)
            for j, (oracle, closed) in zip(shifts, window):
                element = b.shift(j)
                assert oracle == oracle_colon_member(element, raw, inst), (b, j)
                assert closed == member_structured(element, closed_colon, inst), (b, j)
            # no shift of b*g lies in T when _x_order is None; at the shift
            # -e the value at zero is the former scalar value at zero
            for g in (*raw.gens, closed_colon._unit_inv):
                e = pullback._x_order(b, g, inst.t)
                if e is None:
                    assert all(at_zero(b.shift(j), g) is None for j in shifts), (b, g)
                else:
                    c = pullback._at_zero(b.shift(-e), g, inst.t)
                    assert c[2] > 0 and _make(*c) == at_zero(b.shift(-e), g), (b, g)


class TestSuiteComposition:
    def test_split_exact_pass_implies_pic_pass(self, inst_c):
        p = SampleParams(seed=6, count=15)
        split = run_suite("split-exact", inst_c, p)
        pic = run_suite("pic-splitting", inst_c, p)
        assert split.verdict == "pass"
        assert pic.verdict == "pass"
